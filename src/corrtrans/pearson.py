"""Pearson's R: moment-based expansion quantities, the optimality ODE,
numeric optimal transforms, and the standardized tau statistic.

A dependence model enters only through its joint moments mu_ij(rho) of the
standardized pair (Y, Z), for orders i + j <= 6.  Each call reads the
model's moments once, into one table of the 16 orders the expansion uses,
and the formulas for sigma, the skewness and Delta all read that table.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import edgeworth
from .specfun import Tolerance, integrate_ode, normal_pdf, normal_quantile

__all__ = [
    "Moments",
    "Transform",
    "DegenerateModelError",
    "is_integer",
    "identity_transform",
    "fisher_transform",
    "r_from_sums",
    "sigma_rho",
    "skew_lambda",
    "delta_r_tilde",
    "h_z",
    "optimal_transform_numeric",
    "delta_psi",
    "tau",
    "rejection_threshold",
    "rejection_rule",
    "assemble_statistic_model",
]

NUMERIC_RHO_LIMIT = 1.0 - 1e-6
# step control of the ODE behind optimal_transform_numeric
NUMERIC_ODE_TOL = Tolerance(1e-11, 1e-11, 100_000)

# joint moments mu_ij(rho) = E Y^i Z^j of a standardized pair, as (rho, i, j)
Moments = Callable[[float, int, int], float]

# the orders sigma, the skewness, Delta and Sigma read: a call asks the model
# for each once, into one table (_moment_table)
_ORDERS = ((0, 3), (3, 0), (1, 2), (2, 1), (0, 4), (4, 0), (1, 3), (3, 1),
           (2, 2), (0, 6), (6, 0), (1, 5), (5, 1), (2, 4), (4, 2), (3, 3))


class DegenerateModelError(ValueError):
    """The model's asymptotic variance is not positive at this rho."""


def is_integer(value) -> bool:
    """True for an int or a numpy integer; a bool or a float is refused."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Transform:
    """psi of R, psi' and psi''/psi' (finite where psi' underflows)."""

    psi: Callable[[float], float]
    dpsi: Callable[[float], float]
    dlog_dpsi: Callable[[float], float]


def identity_transform() -> Transform:
    return Transform(lambda r: r, lambda r: 1.0, lambda r: 0.0)


def fisher_transform() -> Transform:
    def psi(r: float) -> float:
        if r >= 1.0:
            return math.inf
        if r <= -1.0:
            return -math.inf
        return math.atanh(r)

    return Transform(psi, lambda r: 1.0 / (1.0 - r * r),
                     lambda r: 2.0 * r / (1.0 - r * r))


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


def _moment_table(m: Moments, rho: float) -> dict[tuple[int, int], float]:
    """mu_ij(rho) at the orders in _ORDERS; any other order is a KeyError."""
    return {(i, j): m(rho, i, j) for i, j in _ORDERS}


def _sigma(mu: dict, rho: float) -> float:
    radicand = (
        rho * rho * (mu[0, 4] + 2.0 * mu[2, 2] + mu[4, 0])
        - 4.0 * rho * (mu[1, 3] + mu[3, 1])
        + 4.0 * mu[2, 2]
    )
    if not radicand > 0.0:
        raise DegenerateModelError(f"model degenerate at rho={rho}")
    return 0.5 * math.sqrt(radicand)


def _skew(mu: dict, rho: float, s: float) -> float:
    w3 = (
        mu[3, 3]
        - 1.5 * rho * (mu[2, 4] + mu[4, 2])
        + 0.75 * rho * rho * (mu[1, 5] + 2.0 * mu[3, 3] + mu[5, 1])
        - 0.125 * rho ** 3 * (
            mu[0, 6] + 3.0 * mu[2, 4] + 3.0 * mu[4, 2] + mu[6, 0]
        )
    )
    return w3 / s ** 3


def _delta_r_tilde(mu: dict, rho: float, z: float, s2: float) -> float:
    t = z * z
    term0 = 16.0 * (
        (t - 1.0) * (6.0 * mu[1, 2] * mu[2, 1] - mu[3, 3])
        + 3.0 * s2 * t * (mu[1, 3] + mu[3, 1])
    )
    term1 = -12.0 * rho * (
        (t - 1.0) * (
            4.0 * mu[0, 3] * mu[2, 1] + 4.0 * mu[1, 2] * mu[3, 0]
            + 8.0 * mu[1, 2] ** 2 - 2.0 * mu[1, 3] * mu[3, 1]
            + mu[1, 3] ** 2 + 8.0 * mu[2, 1] ** 2 - 2.0 * mu[2, 4]
            + mu[3, 1] ** 2 - 2.0 * mu[4, 2]
        )
        + s2 * (
            (2.0 * t + 1.0) * (mu[0, 4] + mu[4, 0])
            + (4.0 * t - 2.0) * mu[2, 2]
        )
    )
    term2 = 12.0 * rho * rho * (t - 1.0) * (
        2.0 * mu[0, 3] * (3.0 * mu[1, 2] + mu[3, 0])
        + mu[0, 4] * (mu[1, 3] - mu[3, 1])
        + 10.0 * mu[1, 2] * mu[2, 1]
        - mu[1, 3] * mu[4, 0] - mu[1, 5]
        + 6.0 * mu[2, 1] * mu[3, 0]
        + mu[3, 1] * mu[4, 0] - 2.0 * mu[3, 3] - mu[5, 1]
    )
    term3 = -(rho ** 3) * (t - 1.0) * (
        24.0 * mu[0, 3] * mu[2, 1] + 12.0 * mu[0, 3] ** 2
        - 6.0 * mu[0, 4] * mu[4, 0] + 3.0 * mu[0, 4] ** 2 - 2.0 * mu[0, 6]
        + 24.0 * mu[1, 2] * mu[3, 0] + 12.0 * mu[1, 2] ** 2
        + 12.0 * mu[2, 1] ** 2 - 6.0 * mu[2, 4] + 12.0 * mu[3, 0] ** 2
        + 3.0 * mu[4, 0] ** 2 - 6.0 * mu[4, 2] - 2.0 * mu[6, 0]
    )
    return term0 + term1 + term2 + term3


def sigma_rho(m: Moments, rho: float) -> float:
    """Asymptotic standard deviation of sqrt(n)(R - rho)."""
    return _sigma(_moment_table(m, rho), rho)


def skew_lambda(m: Moments, rho: float) -> float:
    """Third moment of Lambda = (YZ - (rho/2)(Y^2 + Z^2)) / sigma, from the
    cubic expansion: a polynomial in rho with joint-moment coefficients."""
    mu = _moment_table(m, rho)
    return _skew(mu, rho, _sigma(mu, rho))


def delta_r_tilde(m: Moments, rho: float, z: float) -> float:
    """Polynomial part of the leading error term for R itself.

    The full term is Delta_R(z) = phi(z) * delta_r_tilde / (96 sigma^3).
    """
    mu = _moment_table(m, rho)
    return _delta_r_tilde(mu, rho, z, _sigma(mu, rho) ** 2)


def h_z(m: Moments, rho: float, z: float) -> float:
    """Right-hand side of the optimality ODE psi''/psi' = h_z(rho)."""
    if z == 0.0 or not math.isfinite(z):
        raise ValueError("h_z requires a finite z != 0")
    mu = _moment_table(m, rho)
    s = _sigma(mu, rho)
    return _delta_r_tilde(mu, rho, z, s ** 2) / (48.0 * s ** 4 * z * z)


def optimal_transform_numeric(m: Moments, z: float) -> Transform:
    """Transform solving psi''/psi' = h_z with psi(0) = 0, psi'(0) = 1.

    The coupled system (psi, psi')' = (psi', h_z psi') is integrated with an
    adaptive Runge-Kutta stepper; psi is odd, so only |rho| is integrated
    and the sign restored.  Evaluation beyond |rho| = 1 - 1e-6 is rejected.
    """
    if z == 0.0 or not math.isfinite(z):
        raise ValueError("optimal transform requires a finite z != 0")

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
                                  rho_abs, NUMERIC_ODE_TOL)
        bisect.insort(points, (rho_abs, psi, dpsi))
        return psi, dpsi

    def psi(rho: float) -> float:
        return math.copysign(1.0, rho) * state_at(abs(rho))[0]

    def dpsi(rho: float) -> float:
        return state_at(abs(rho))[1]

    return Transform(psi, dpsi, lambda rho: h_z(m, rho, z))


def delta_psi(m: Moments, t: Transform, rho: float, z: float) -> float:
    """Leading error term for the transformed statistic psi(R)."""
    mu = _moment_table(m, rho)
    s = _sigma(mu, rho)
    delta_r = (normal_pdf(z) * _delta_r_tilde(mu, rho, z, s ** 2)
               / (96.0 * s ** 3))
    correction = 0.5 * t.dlog_dpsi(rho) * s * z * z * normal_pdf(z)
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
    on R itself; returns +inf when not even R = 1 has tau > z_alpha.  Raises
    DegenerateModelError when psi(rho) absorbs the step
    z_alpha psi'(rho) sigma / sqrt(n) in rounding, which leaves r* undefined.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    z_alpha = normal_quantile(1.0 - alpha)
    dpsi = _checked_dpsi(t, rho, sigma)
    psi_rho = t.psi(rho)
    cut = psi_rho + z_alpha * dpsi * sigma / math.sqrt(n)
    if cut == psi_rho and z_alpha != 0.0:
        raise DegenerateModelError(f"psi(rho) = {psi_rho} absorbs z_alpha "
                                   f"psi'(rho) sigma / sqrt(n) at rho={rho}")
    lo, hi = -1.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if t.psi(mid) > cut:
            hi = mid
        else:
            lo = mid
    # tau(1) only if nothing below 1 rejects: numeric psi stops short of 1
    if hi == 1.0 and not tau(t, 1.0, rho, sigma, n) > z_alpha:
        return math.inf
    return 0.5 * (lo + hi)


# An R this close to r* is decided by tau itself, so that the rounding of r*
# cannot flip an atom of a discrete R that sits on the threshold.  psi_closed
# is not monotone at the ulp level even at ordinary exponents (SquareV at
# z = 1.354803814772249, p = -0.15: psi(0.30151134457776335) >
# psi(0.3015113445777634)), so no bisection, on psi or on tau, is sure to
# place r* on the right side of every atom.
_TIE_BAND = 1e-9


def rejection_rule(t: Transform, rho: float, sigma: float, n: int,
                   alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """The test tau > z_alpha as a predicate on an array of R values: R > r*
    rejects, and each distinct R within _TIE_BAND of r* is decided by tau,
    once per value (a lattice R puts many draws on one value)."""
    z_alpha = normal_quantile(1.0 - alpha)
    r_star = rejection_threshold(t, rho, sigma, n, alpha)
    lo, hi = r_star - _TIE_BAND, r_star + _TIE_BAND

    def rejects(r: np.ndarray) -> np.ndarray:
        reject = r > hi
        near = (r >= lo) ^ reject  # lo <= R <= hi
        if near.any():
            values, inverse = np.unique(r[near], return_inverse=True)
            decided = [tau(t, v, rho, sigma, n) > z_alpha
                       for v in values.tolist()]
            reject[near] = np.array(decided)[inverse]
        return reject

    return rejects


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


def assemble_statistic_model(m: Moments, rho: float) -> edgeworth.EdgeworthModel:
    """EdgeworthModel for R - rho = f(mean of V) with V the 5-dim score vector."""
    mu = _moment_table(m, rho)
    Sigma = np.array([
        [1.0, rho, mu[3, 0], mu[1, 2], mu[2, 1]],
        [rho, 1.0, mu[2, 1], mu[0, 3], mu[1, 2]],
        [mu[3, 0], mu[2, 1], mu[4, 0] - 1.0, mu[2, 2] - 1.0, mu[3, 1] - rho],
        [mu[1, 2], mu[0, 3], mu[2, 2] - 1.0, mu[0, 4] - 1.0, mu[1, 3] - rho],
        [mu[2, 1], mu[1, 2], mu[3, 1] - rho, mu[1, 3] - rho,
         mu[2, 2] - rho * rho],
    ])
    s = _sigma(mu, rho)
    L = np.array([0.0, 0.0, -rho / 2.0, -rho / 2.0, 1.0])
    return edgeworth.EdgeworthModel(
        dim=5,
        L=L,
        H=_hessian(rho),
        Sigma=Sigma,
        sigma=s,
        skew=_skew(mu, rho, s),
    )
