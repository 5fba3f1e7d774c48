"""Leading-term expansion machinery for smooth statistics of a sample mean.

For a statistic T_n = sqrt(n) f(mean of V_i)/sigma, the first correction to
the normal approximation of P(T_n <= z) is Delta(z)/sqrt(n), where Delta is
determined by the gradient L and Hessian H of f at 0, the covariance Sigma
of V, and the third moment of the linearization Lambda = L'V/sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# unused, but bench/spans.py traces edgeworth.normal_cdf
from .specfun import normal_cdf, normal_pdf  # noqa: F401

__all__ = ["EdgeworthModel", "coeff_a1", "coeff_a3", "delta"]


@dataclass(frozen=True)
class EdgeworthModel:
    """Expansion inputs for one smooth statistic."""

    dim: int
    L: np.ndarray          # gradient of f at 0, shape (dim,)
    H: np.ndarray          # Hessian of f at 0, shape (dim, dim), symmetric
    Sigma: np.ndarray      # covariance of V, shape (dim, dim)
    sigma: float           # sqrt(L' Sigma L), > 0
    skew: float            # E Lambda^3

    def __post_init__(self) -> None:
        L = np.asarray(self.L, dtype=float)
        H = np.asarray(self.H, dtype=float)
        S = np.asarray(self.Sigma, dtype=float)
        if L.shape != (self.dim,) or H.shape != (self.dim, self.dim) \
                or S.shape != (self.dim, self.dim):
            raise ValueError("inconsistent dimensions in EdgeworthModel")
        if not np.allclose(S, S.T, atol=1e-10):
            raise ValueError("Sigma must be symmetric")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        var = float(L @ S @ L)
        if abs(var - self.sigma ** 2) > 1e-10 * max(1.0, var):
            raise ValueError("sigma^2 must equal L' Sigma L")


def coeff_a1(m: EdgeworthModel) -> float:
    """tr(H Sigma) / (2 sigma)."""
    return float(np.trace(m.H @ m.Sigma)) / (2.0 * m.sigma)


def coeff_a3(m: EdgeworthModel) -> float:
    """L'S H S L / (2 sigma^3).

    The general formula adds (L'SL - sigma^2) tr(H Sigma) / (4 sigma^3),
    which vanishes here because the model requires sigma^2 = L'Sigma L.
    """
    quad = float(m.L @ m.Sigma @ m.H @ m.Sigma @ m.L)
    return quad / (2.0 * m.sigma ** 3)


def delta(m: EdgeworthModel, z: float) -> float:
    """Leading error coefficient: -[(skew/6 + a3)(z^2 - 1) + a1] phi(z)."""
    a1 = coeff_a1(m)
    a3 = coeff_a3(m)
    return -((m.skew / 6.0 + a3) * (z * z - 1.0) + a1) * normal_pdf(z)
