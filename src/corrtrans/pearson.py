"""Pearson's R: moment-based expansion quantities, the optimality ODE,
numeric optimal transforms, and the standardized tau statistic.

A dependence model enters only through its joint moments mu_ij(rho) of the
standardized pair (Y, Z), for orders i + j <= 6.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import edgeworth
from .specfun import Tolerance, integrate_ode, normal_pdf, normal_quantile

__all__ = [
    "MomentSpec",
    "Transform",
    "DegenerateModelError",
    "identity_transform",
    "fisher_transform",
    "r_from_sums",
    "pearson_r",
    "sigma_rho",
    "skew_lambda",
    "delta_r_tilde",
    "h_z",
    "optimal_transform_numeric",
    "delta_psi",
    "tau",
    "rejection_threshold",
    "assemble_statistic_model",
]

NUMERIC_RHO_LIMIT = 1.0 - 1e-6


class DegenerateModelError(ValueError):
    """The model's asymptotic variance is not positive at this rho."""


@dataclass(frozen=True)
class MomentSpec:
    """Joint moments mu_ij(rho) = E Y^i Z^j of a standardized pair."""

    eval: Callable[[float, int, int], float]

    def __call__(self, rho: float, i: int, j: int) -> float:
        return self.eval(rho, i, j)


@dataclass(frozen=True)
class Transform:
    """A transform psi of R with its first two derivatives.

    kind is one of "identity", "fisher", "optimal", "numeric"; z_ref is the
    critical value an optimal/numeric transform was built for.
    """

    kind: str
    psi: Callable[[float], float]
    dpsi: Callable[[float], float]
    d2psi: Callable[[float], float]
    z_ref: float | None = None


def identity_transform() -> Transform:
    return Transform("identity", lambda r: r, lambda r: 1.0, lambda r: 0.0)


def fisher_transform() -> Transform:
    def psi(r: float) -> float:
        if r >= 1.0:
            return math.inf
        if r <= -1.0:
            return -math.inf
        return math.atanh(r)

    return Transform(
        "fisher",
        psi,
        lambda r: 1.0 / (1.0 - r * r),
        lambda r: 2.0 * r / (1.0 - r * r) ** 2,
    )


def r_from_sums(n: int, sy, sz, syy, szz, syz) -> np.ndarray:
    """Pearson R of samples of size n from their sums of Y, Z, Y^2, Z^2, YZ.

    Vectorised over the sums.  R := 0 where the denominator is not
    positive (a sample with constant Y or Z); R is clipped to [-1, 1].
    """
    my = sy / n
    mz = sz / n
    r = np.asarray(syz / n - my * mz)  # the covariance, then R in place
    denom = np.asarray(np.maximum(syy / n - my * my, 0.0)
                       * np.maximum(szz / n - mz * mz, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        r /= np.sqrt(denom, out=denom)
    r[~(denom > 0.0)] = 0.0
    return np.clip(r, -1.0, 1.0, out=r)


def pearson_r(samples: Sequence[tuple[float, float]]) -> float:
    """Sample correlation of the given pairs; 0 on a zero denominator.

    The columns are centred before the products are summed, so a mean much
    larger than the spread does not cancel the variances away.
    """
    if len(samples) < 2:
        raise ValueError("pearson_r requires at least 2 sample pairs")
    arr = np.asarray(samples, dtype=float)
    arr = arr - arr.mean(axis=0)
    y, z = arr[:, 0], arr[:, 1]
    return float(r_from_sums(len(arr), 0.0, 0.0, y @ y, z @ z, y @ z))


def sigma_rho(m: MomentSpec, rho: float) -> float:
    """Asymptotic standard deviation of sqrt(n)(R - rho)."""
    mu = m.eval
    radicand = (
        rho * rho * (mu(rho, 0, 4) + 2.0 * mu(rho, 2, 2) + mu(rho, 4, 0))
        - 4.0 * rho * (mu(rho, 1, 3) + mu(rho, 3, 1))
        + 4.0 * mu(rho, 2, 2)
    )
    if radicand <= 0.0:
        raise DegenerateModelError(f"model degenerate at rho={rho}")
    return 0.5 * math.sqrt(radicand)


def skew_lambda(m: MomentSpec, rho: float) -> float:
    """Third moment of Lambda = (YZ - (rho/2)(Y^2 + Z^2)) / sigma.

    Computed from the cubic expansion of the defining expression; the
    numerator is a polynomial in rho with joint-moment coefficients.
    """
    mu = m.eval
    s = sigma_rho(m, rho)
    w3 = (
        mu(rho, 3, 3)
        - 1.5 * rho * (mu(rho, 2, 4) + mu(rho, 4, 2))
        + 0.75 * rho * rho * (mu(rho, 1, 5) + 2.0 * mu(rho, 3, 3) + mu(rho, 5, 1))
        - 0.125 * rho ** 3 * (
            mu(rho, 0, 6) + 3.0 * mu(rho, 2, 4) + 3.0 * mu(rho, 4, 2)
            + mu(rho, 6, 0)
        )
    )
    return w3 / s ** 3


def delta_r_tilde(m: MomentSpec, rho: float, z: float) -> float:
    """Polynomial part of the leading error term for R itself.

    The full term is Delta_R(z) = phi(z) * delta_r_tilde / (96 sigma^3).
    """
    def mu(i: int, j: int) -> float:
        return m.eval(rho, i, j)

    s2 = sigma_rho(m, rho) ** 2
    t = z * z
    term0 = 16.0 * (
        (t - 1.0) * (6.0 * mu(1, 2) * mu(2, 1) - mu(3, 3))
        + 3.0 * s2 * t * (mu(1, 3) + mu(3, 1))
    )
    term1 = -12.0 * rho * (
        (t - 1.0) * (
            4.0 * mu(0, 3) * mu(2, 1) + 4.0 * mu(1, 2) * mu(3, 0)
            + 8.0 * mu(1, 2) ** 2 - 2.0 * mu(1, 3) * mu(3, 1)
            + mu(1, 3) ** 2 + 8.0 * mu(2, 1) ** 2 - 2.0 * mu(2, 4)
            + mu(3, 1) ** 2 - 2.0 * mu(4, 2)
        )
        + s2 * (
            (2.0 * t + 1.0) * (mu(0, 4) + mu(4, 0))
            + (4.0 * t - 2.0) * mu(2, 2)
        )
    )
    term2 = 12.0 * rho * rho * (t - 1.0) * (
        2.0 * mu(0, 3) * (3.0 * mu(1, 2) + mu(3, 0))
        + mu(0, 4) * (mu(1, 3) - mu(3, 1))
        + 10.0 * mu(1, 2) * mu(2, 1)
        - mu(1, 3) * mu(4, 0) - mu(1, 5)
        + 6.0 * mu(2, 1) * mu(3, 0)
        + mu(3, 1) * mu(4, 0) - 2.0 * mu(3, 3) - mu(5, 1)
    )
    term3 = -(rho ** 3) * (t - 1.0) * (
        24.0 * mu(0, 3) * mu(2, 1) + 12.0 * mu(0, 3) ** 2
        - 6.0 * mu(0, 4) * mu(4, 0) + 3.0 * mu(0, 4) ** 2 - 2.0 * mu(0, 6)
        + 24.0 * mu(1, 2) * mu(3, 0) + 12.0 * mu(1, 2) ** 2
        + 12.0 * mu(2, 1) ** 2 - 6.0 * mu(2, 4) + 12.0 * mu(3, 0) ** 2
        + 3.0 * mu(4, 0) ** 2 - 6.0 * mu(4, 2) - 2.0 * mu(6, 0)
    )
    return term0 + term1 + term2 + term3


def h_z(m: MomentSpec, rho: float, z: float) -> float:
    """Right-hand side of the optimality ODE psi''/psi' = h_z(rho)."""
    if z == 0.0:
        raise ValueError("h_z requires z != 0")
    s = sigma_rho(m, rho)
    return delta_r_tilde(m, rho, z) / (48.0 * s ** 4 * z * z)


def optimal_transform_numeric(
    m: MomentSpec, z: float, tol: Tolerance = Tolerance(1e-11, 1e-11, 100_000)
) -> Transform:
    """Transform solving psi''/psi' = h_z with psi(0) = 0, psi'(0) = 1.

    The coupled system (psi, psi')' = (psi', h_z psi') is integrated with an
    adaptive Runge-Kutta stepper; psi is odd, so only |rho| is integrated
    and the sign restored.  Evaluation beyond |rho| = 1 - 1e-6 is rejected.
    """
    if z == 0.0:
        raise ValueError("optimal transform requires z != 0")

    def rhs(r: float, y: tuple[float, ...]) -> tuple[float, ...]:
        h = h_z(m, r, z)
        return (y[1], h * y[1])

    # (rho, psi, dpsi) checkpoints, kept sorted by rho
    points = [(0.0, 0.0, 1.0)]

    def state_at(rho_abs: float) -> tuple[float, float]:
        if rho_abs > NUMERIC_RHO_LIMIT:
            raise ValueError("numeric transform valid only on |rho| <= 1 - 1e-6")
        start = points[bisect.bisect(points, (rho_abs, math.inf)) - 1]
        if start[0] == rho_abs:
            return start[1], start[2]
        psi, dpsi = integrate_ode(rhs, start[0], (start[1], start[2]),
                                  rho_abs, tol)
        bisect.insort(points, (rho_abs, psi, dpsi))
        return psi, dpsi

    def psi(rho: float) -> float:
        return math.copysign(1.0, rho) * state_at(abs(rho))[0]

    def dpsi(rho: float) -> float:
        return state_at(abs(rho))[1]

    def d2psi(rho: float) -> float:
        return h_z(m, rho, z) * dpsi(rho)

    return Transform("numeric", psi, dpsi, d2psi, z_ref=z)


def delta_psi(m: MomentSpec, t: Transform, rho: float, z: float) -> float:
    """Leading error term for the transformed statistic psi(R)."""
    s = sigma_rho(m, rho)
    delta_r = normal_pdf(z) * delta_r_tilde(m, rho, z) / (96.0 * s ** 3)
    correction = (
        t.d2psi(rho) / (2.0 * t.dpsi(rho)) * s * z * z * normal_pdf(z)
    )
    return delta_r - correction


def _checked_dpsi(t: Transform, rho: float, sigma: float) -> float:
    """psi'(rho), after checking that the scale psi'(rho) sigma of the tau
    statistic is positive (it underflows for steep optimal transforms)."""
    dpsi = t.dpsi(rho)
    if not dpsi * sigma > 0.0:
        raise DegenerateModelError(
            f"psi'(rho) sigma = {dpsi} * {sigma} is not positive at rho={rho}")
    return dpsi


def tau(t: Transform, r_value: float, rho: float, sigma: float, n: int) -> float:
    """Asymptotically standardized value of psi(R): use tau > z_alpha to reject."""
    if not -1.0 <= r_value <= 1.0:
        raise ValueError("r_value must lie in [-1, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    dpsi = _checked_dpsi(t, rho, sigma)
    num = t.psi(r_value) - t.psi(rho)
    if math.isinf(num):
        return num
    return num * math.sqrt(n) / (dpsi * sigma)


def rejection_threshold(t: Transform, rho: float, sigma: float, n: int,
                        alpha: float) -> float:
    """Critical value r* such that tau > z_alpha iff R > r*.

    psi is strictly increasing, so the tau test inverts to a one-sided test
    on R itself; returns +inf when no attainable R rejects.  Raises
    DegenerateModelError when psi(rho) absorbs the step
    z_alpha psi'(rho) sigma / sqrt(n) in rounding, which leaves r* undefined.
    """
    z_alpha = normal_quantile(1.0 - alpha)
    dpsi = _checked_dpsi(t, rho, sigma)
    psi_rho = t.psi(rho)
    cut = psi_rho + z_alpha * dpsi * sigma / math.sqrt(n)
    if cut == psi_rho and z_alpha != 0.0:
        raise DegenerateModelError(f"psi(rho) = {psi_rho} absorbs z_alpha "
                                   f"psi'(rho) sigma / sqrt(n) at rho={rho}")
    psi_top = t.psi(1.0)
    if cut >= psi_top:
        return math.inf
    lo, hi = -1.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if t.psi(mid) > cut:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _hessian(rho: float) -> np.ndarray:
    """Hessian at 0 of R - rho = f(v), v the mean of the score vector
    V = (Y, Z, Y^2 - 1, Z^2 - 1, YZ - rho), where
    f(v) = (rho + v4 - v0 v1) / sqrt((1 + v2 - v0^2)(1 + v3 - v1^2)) - rho.
    """
    return np.array([
        [rho, -1.0, 0.0, 0.0, 0.0],
        [-1.0, rho, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.75 * rho, 0.25 * rho, -0.5],
        [0.0, 0.0, 0.25 * rho, 0.75 * rho, -0.5],
        [0.0, 0.0, -0.5, -0.5, 0.0],
    ])


def assemble_statistic_model(m: MomentSpec, rho: float) -> edgeworth.EdgeworthModel:
    """EdgeworthModel for R - rho = f(mean of V) with V the 5-dim score vector."""
    def mu(i: int, j: int) -> float:
        return m.eval(rho, i, j)

    Sigma = np.array([
        [1.0, rho, mu(3, 0), mu(1, 2), mu(2, 1)],
        [rho, 1.0, mu(2, 1), mu(0, 3), mu(1, 2)],
        [mu(3, 0), mu(2, 1), mu(4, 0) - 1.0, mu(2, 2) - 1.0, mu(3, 1) - rho],
        [mu(1, 2), mu(0, 3), mu(2, 2) - 1.0, mu(0, 4) - 1.0, mu(1, 3) - rho],
        [mu(2, 1), mu(1, 2), mu(3, 1) - rho, mu(1, 3) - rho,
         mu(2, 2) - rho * rho],
    ])
    L = np.array([0.0, 0.0, -rho / 2.0, -rho / 2.0, 1.0])
    return edgeworth.EdgeworthModel(
        dim=5,
        L=L,
        H=_hessian(rho),
        Sigma=Sigma,
        sigma=sigma_rho(m, rho),
        skew=skew_lambda(m, rho),
    )
