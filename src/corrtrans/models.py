"""The two built-in correlation-parametrized models.

BVN: bivariate normal with standardized marginals.  SquareV: the four-point
law on the vertices of [-1, 1]^2 with cell probabilities (1 +/- rho)/4.
Both come with closed-form joint moments, seeded draws of R, closed-form
optimal transforms, closed-form leading error terms, dominance ranges, and
(for SquareV) an exact small-n rejection oracle.

R depends on a sample only through a few sums, so each model draws those
instead of n pairs: for BVN the centred scatter matrix, which is
Wishart(Sigma, n - 1), by the Bartlett decomposition (three draws); for
SquareV the cell counts, which are Multinomial(n, p(rho)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pearson import (
    MomentSpec,
    Transform,
    fisher_transform,
    identity_transform,
    r_from_sums,
    rejection_threshold,
    sigma_rho,
    tau,
)
from .specfun import (
    gamma_ratio_endpoint,
    gauss_2f1_half,
    log_gamma,
    normal_cdf,
    normal_pdf,
    normal_quantile,
)

__all__ = [
    "DependenceModel",
    "BetaInterval",
    "BVN",
    "SQUAREV",
    "get_model",
    "bvn_moments",
    "squarev_moments",
    "TRANSFORM_KINDS",
    "optimal_exponent",
    "psi_closed",
    "optimal_transform_closed",
    "transform_for",
    "delta_closed",
    "dominance_range",
    "fisher_dominance_threshold",
    "squarev_exact_rejection",
]

TRANSFORM_KINDS = ("identity", "fisher", "optimal")

_BVN_M = (1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0)  # N(0,1) raw moments 0..6


def bvn_moments(rho: float, i: int, j: int) -> float:
    """E Y^i Z^j under the standardized bivariate normal law."""
    _check_orders(i, j)
    total = 0.0
    root = math.sqrt(1.0 - rho * rho)
    for k in range(j + 1):
        mi, mj = _BVN_M[i + k], _BVN_M[j - k]
        if mi == 0.0 or mj == 0.0:
            continue
        total += math.comb(j, k) * rho ** k * root ** (j - k) * mi * mj
    return total


def squarev_moments(rho: float, i: int, j: int) -> float:
    """E Y^i Z^j under the four-point vertex law."""
    _check_orders(i, j)
    even_i = 1.0 if i % 2 == 0 else 0.0
    even_j = 1.0 if j % 2 == 0 else 0.0
    even_ij = 1.0 if (i + j) % 2 == 0 else 0.0
    return (1.0 - rho) * even_i * even_j + rho * even_ij


def _check_orders(i: int, j: int) -> None:
    if not (0 <= i <= 6 and 0 <= j <= 6 and i + j <= 6):
        raise ValueError("moment orders must satisfy 0 <= i, j and i + j <= 6")


def _squarev_probs(rho: float) -> np.ndarray:
    """Cell probabilities in the order (1,1), (1,-1), (-1,1), (-1,-1)."""
    p_same = (1.0 + rho) / 4.0
    p_diff = (1.0 - rho) / 4.0
    return np.array([p_same, p_diff, p_diff, p_same])


def _squarev_r(n: int, n11, n1m, nm1, nmm) -> np.ndarray:
    """R of SquareV samples of size n from their cell counts (arrays)."""
    return r_from_sums(n, n11 + n1m - nm1 - nmm, n11 - n1m + nm1 - nmm,
                       n, n, n11 - n1m - nm1 + nmm)


def _bvn_sample_r(rho: float, rows: int, n: int, rng: np.random.Generator
                  ) -> np.ndarray:
    # Bartlett: the centred scatter matrix is L T T' L' with Sigma = L L',
    # T lower triangular, T11^2 ~ chi2(n-1), T22^2 ~ chi2(n-2), T21 ~ N(0,1);
    # chi2(k) is drawn as 2 Gamma(k/2) because chisquare refuses k = 0
    c1sq = 2.0 * rng.standard_gamma((n - 1) / 2.0, rows)
    c2sq = 2.0 * rng.standard_gamma((n - 2) / 2.0, rows)
    s2 = 1.0 - rho * rho
    x = math.sqrt(s2) * rng.standard_normal(rows)
    c1 = np.sqrt(c1sq)
    x += c1 * rho  # x, szz, syz in place: concurrent tasks hold few arrays
    c2sq *= s2
    c2sq += x * x
    c1 *= x
    return r_from_sums(n, 0.0, 0.0, c1sq, c2sq, c1)


def _squarev_sample_r(rho: float, rows: int, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    counts = rng.multinomial(n, _squarev_probs(rho), size=rows)
    return _squarev_r(n, *counts.T)


@dataclass(frozen=True)
class DependenceModel:
    """A correlation-parametrized model: moments, draws of R, closed forms.

    The closed forms rest on three numbers per model.  The leading error
    term of R is Delta_R(z) = phi(z) g(rho) (z^2 + B), with g = odd_factor
    and B = delta_const.  A transform psi subtracts
    (psi''/psi')(rho) sigma(rho) z^2 phi(z) / 2; for Fisher's transform that
    is k g(rho) z^2 phi(z), with k = fisher_slope.
    """

    name: str
    moments: MomentSpec
    # (rho, rows, n, rng) -> R of `rows` samples of size n, drawn from the
    # statistics R depends on, at O(1) cost per sample
    sample_r: Callable[[float, int, int, np.random.Generator], np.ndarray]
    odd_factor: Callable[[float], float]
    delta_const: float
    fisher_slope: float

    def sigma(self, rho: float) -> float:
        return sigma_rho(self.moments, rho)


@dataclass(frozen=True)
class BetaInterval:
    """Open interval of significance levels, within (0, 0.5)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("BetaInterval requires lo < hi")


BVN = DependenceModel(
    name="bvn",
    moments=MomentSpec(bvn_moments),
    sample_r=_bvn_sample_r,
    odd_factor=lambda rho: rho,
    delta_const=-0.5,
    fisher_slope=1.0,
)

SQUAREV = DependenceModel(
    name="squarev",
    moments=MomentSpec(squarev_moments),
    sample_r=_squarev_sample_r,
    odd_factor=lambda rho: rho / (3.0 * math.sqrt(1.0 - rho * rho)),
    delta_const=-1.0,
    fisher_slope=3.0,
)

_MODELS = {"bvn": BVN, "squarev": SQUAREV}


def get_model(name: str) -> DependenceModel:
    try:
        return _MODELS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; expected bvn or squarev")


def optimal_exponent(model: DependenceModel, z: float) -> float:
    """Exponent p of the optimal transform's psi' = (1 - rho^2)^p at z.

    p = -(1 + B/z^2)/k, computed as 1/(c z^2) - 1/k with c = -k/B so that it
    rounds like the paper's p_z = 1/(2z^2) - 1 and q_z = 1/(3z^2) - 1/3.
    """
    if z == 0.0:
        raise ValueError("optimal exponent requires z != 0")
    k = model.fisher_slope
    return 1.0 / (-k / model.delta_const * z * z) - 1.0 / k


def psi_closed(model: DependenceModel, z: float, rho: float) -> float:
    """Closed-form optimal transform rho * 2F1(1/2, -p; 3/2; rho^2).

    p is the model's exponent at z.  Endpoints |rho| = 1 take the finite
    gamma-ratio value (BVN exponents stay above -1 for all z != 0).
    """
    p = optimal_exponent(model, z)
    if abs(rho) > 1.0:
        raise ValueError("psi_closed requires |rho| <= 1")
    if abs(rho) == 1.0:
        return math.copysign(gamma_ratio_endpoint(p), rho)
    return rho * gauss_2f1_half(p, rho * rho)


def optimal_transform_closed(model: DependenceModel, z: float) -> Transform:
    """Closed-form optimal Transform for the given critical value z."""
    p = optimal_exponent(model, z)

    def psi(r: float) -> float:
        return psi_closed(model, z, r)

    def dpsi(r: float) -> float:
        return (1.0 - r * r) ** p

    def d2psi(r: float) -> float:
        return p * (1.0 - r * r) ** (p - 1.0) * (-2.0 * r)

    return Transform("optimal", psi, dpsi, d2psi, z_ref=z)


def transform_for(model: DependenceModel, kind: str,
                  z_ref: float | None = None) -> Transform:
    """Build the Transform named by kind ("identity", "fisher", "optimal")."""
    if kind == "identity":
        return identity_transform()
    if kind == "fisher":
        return fisher_transform()
    if kind == "optimal":
        if z_ref is None:
            raise ValueError("optimal transform requires z_ref")
        return optimal_transform_closed(model, z_ref)
    raise ValueError(f"unknown transform kind {kind!r}")


def _delta_shape(model: DependenceModel, kind: str, t, t_ref):
    """Delta_psi / (phi(z) g(rho)) as a function of t = z^2 (a float or an
    array); t_ref = z_ref^2 for the optimal transform."""
    if kind == "identity":
        return t + model.delta_const
    if kind == "fisher":
        return (1.0 - model.fisher_slope) * t + model.delta_const
    if kind == "optimal":
        # -B (t/t_ref - 1) is exactly 0.0 at t = t_ref
        return -model.delta_const * (t / t_ref - 1.0)
    raise ValueError(f"unsupported transform kind {kind!r}")


def delta_closed(model: DependenceModel, kind: str, z: float, rho: float,
                 z_ref: float | None = None) -> float:
    """Closed-form leading error term Delta_psi(z), phi(z) factor included."""
    t_ref = None
    if kind == "optimal":
        if z_ref is None:
            raise ValueError("delta_closed(optimal) requires z_ref")
        t_ref = z_ref * z_ref
    shape = _delta_shape(model, kind, z * z, t_ref)
    return model.odd_factor(rho) * shape * normal_pdf(z)


def dominance_range(model: DependenceModel, alpha: float,
                    competitor: str) -> BetaInterval:
    """Maximal beta-interval on which the alpha-optimal transform beats the
    competitor ("identity" or "fisher") in |Delta(z_beta)|; rho-independent.

    In t = z_beta^2, with B < 0 (both models), the optimal shape is
    |B| (t/t_alpha - 1) and the competitor's is c t - |B| (c = 1 for
    identity, 1 - k for Fisher).  Their absolute values are equal only at
    t = 0 and at t_x = 2|B| / (c + |B|/t_alpha), or t_x = inf when that
    denominator is not positive, so the optimal transform wins on the side
    of t_x that holds t_alpha.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 0.5)")
    if competitor not in ("identity", "fisher"):
        raise ValueError("competitor must be identity or fisher")
    t_alpha = normal_quantile(1.0 - alpha) ** 2
    if _delta_shape(model, competitor, t_alpha, None) == 0.0:
        raise ValueError(f"{competitor} is itself optimal at alpha={alpha}")
    b = -model.delta_const
    c = _delta_shape(model, competitor, 1.0, None) + b  # shape is c t - |B|
    denom = c + b / t_alpha
    t_x = 2.0 * b / denom if denom > 0.0 else math.inf
    # map t = z_beta^2 back to beta = 1 - Phi(sqrt(t)) = Phi(-sqrt(t)), which
    # keeps its relative precision at small beta; order reverses
    beta_x = normal_cdf(-math.sqrt(t_x))
    if t_alpha < t_x:
        return BetaInterval(beta_x, 0.5)
    return BetaInterval(0.0, beta_x)


def fisher_dominance_threshold(model: DependenceModel) -> float:
    """Largest alpha whose alpha-optimal transform beats Fisher's transform
    in |Delta(z_beta)| at every level beta in (0, 0.5); 0.0 if none does.

    In t = z_beta^2, with B < 0 and k >= 1 (both models), the gap
    |Delta_optimal| - |Delta_fisher| per phi |g| is negative on
    0 < t <= t_alpha and equals (|B|/t_alpha - (k - 1)) t - 2|B| beyond it,
    so dominance at every level holds exactly when t_alpha >= |B| / (k - 1).
    """
    if model.fisher_slope <= 1.0:
        return 0.0
    t_min = -model.delta_const / (model.fisher_slope - 1.0)
    return 1.0 - normal_cdf(math.sqrt(t_min))


# An atom whose R lies this close to r* is decided by tau itself, so that
# the rounding of r* cannot flip an atom that sits on the threshold.
_TIE_BAND = 1e-9


def squarev_exact_rejection(rho: float, n: int, t: Transform,
                            alpha: float) -> float:
    """Exact rejection probability of the one-sided test under SquareV.

    Enumerates all multinomial cell-count vectors over the four vertices,
    computes R (value 0 on a degenerate denominator) and sums the
    probabilities of the atoms with R > r*, the threshold of tau > z_alpha
    with the true sigma = sqrt(1 - rho^2).  Atoms within _TIE_BAND of r* are
    decided by tau.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"exact enumeration requires -1 < rho < 1, "
                         f"got rho={rho}")
    if n > 200:
        raise ValueError("exact enumeration limited to n <= 200")
    if n < 1:
        raise ValueError("n must be >= 1")
    logs = np.log(_squarev_probs(rho))
    lf = np.array([log_gamma(k + 1.0) for k in range(n + 1)])
    z_alpha = normal_quantile(1.0 - alpha)
    sigma = math.sqrt(1.0 - rho * rho)
    # r* = inf when not even R = 1 rejects; capped at 1, the atoms at R = 1
    # fall in the tie band and tau decides them
    r_star = min(rejection_threshold(t, rho, sigma, n, alpha), 1.0)

    def rejected_probabilities():
        for n11 in range(n + 1):
            # one n11 slice at a time keeps the arrays at O(n^2) entries
            rest = n - n11
            counts = np.arange(rest + 1)
            n1m, nm1 = np.nonzero(np.add.outer(counts, counts) <= rest)
            nmm = rest - n1m - nm1
            r = _squarev_r(n, n11, n1m, nm1, nmm)
            reject = r > r_star
            for i in np.flatnonzero(np.abs(r - r_star) <= _TIE_BAND):
                reject[i] = tau(t, float(r[i]), rho, sigma, n) > z_alpha
            n1m, nm1, nmm = n1m[reject], nm1[reject], nmm[reject]
            logp = (lf[n] - lf[n11] - lf[n1m] - lf[nm1] - lf[nmm]
                    + n11 * logs[0] + n1m * logs[1]
                    + nm1 * logs[2] + nmm * logs[3])
            yield from np.exp(logp).tolist()

    return min(1.0, math.fsum(rejected_probabilities()))
