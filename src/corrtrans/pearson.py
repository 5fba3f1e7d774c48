"""Pearson's R: moment-based expansion quantities, the optimality ODE,
numeric optimal transforms, and the standardized tau statistic.

A dependence model enters only through its joint moments mu_ij(rho) of the
standardized pair (Y, Z), for orders i + j <= 6, which it gives as one table
per rho.  Each call asks the model for that table once, and the formulas for
sigma, the skewness and Delta all read it.
"""

from __future__ import annotations

import bisect
import logging
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import edgeworth
from .specfun import Tolerance, integrate_ode, normal_pdf, normal_quantile

__all__ = [
    "Moments",
    "Transform",
    "DegenerateModelError",
    "is_integer",
    "r_from_sums",
    "sigma_rho",
    "h_z",
    "optimal_transform_numeric",
    "delta_psi",
    "tau",
    "rejection_rule",
    "assemble_statistic_model",
]

_log = logging.getLogger(__name__)

NUMERIC_RHO_LIMIT = 1.0 - 1e-6
# step control of the ODE behind optimal_transform_numeric
NUMERIC_ODE_TOL = Tolerance(1e-11, 1e-11, 100_000)

# joint moments of a standardized pair: rho -> {(i, j): mu_ij(rho) = E Y^i Z^j}
# for every order 0 <= i, j with i + j <= 6; a missing order is a KeyError
Moments = Callable[[float], Mapping[tuple[int, int], float]]


class DegenerateModelError(ArithmeticError):
    """A numeric failure at this rho: the asymptotic variance or the tau
    scale psi'(rho) sigma is not positive, or psi(rho) loses the step."""


def is_integer(value) -> bool:
    """True for an int or a numpy integer; a bool or a float is refused."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Transform:
    """psi of R, psi' and psi''/psi' (finite where psi' underflows)."""

    psi: Callable[[float], float]
    dpsi: Callable[[float], float]
    dlog_dpsi: Callable[[float], float]


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


def _variance(mu: Mapping, rho: float) -> float:
    radicand = (
        rho * rho * (mu[0, 4] + 2.0 * mu[2, 2] + mu[4, 0])
        - 4.0 * rho * (mu[1, 3] + mu[3, 1])
        + 4.0 * mu[2, 2]
    )
    if not radicand > 0.0:
        raise DegenerateModelError(f"model degenerate at rho={rho}")
    return 0.25 * radicand


def _w3(mu: Mapping, rho: float) -> float:
    """sigma^3 E Lambda^3, the third moment of L'V = YZ - rho (Y^2 + Z^2) / 2."""
    return (
        mu[3, 3]
        - 1.5 * rho * (mu[2, 4] + mu[4, 2])
        + 0.75 * rho * rho * (mu[1, 5] + 2.0 * mu[3, 3] + mu[5, 1])
        - 0.125 * rho ** 3 * (
            mu[0, 6] + 3.0 * mu[2, 4] + 3.0 * mu[4, 2] + mu[6, 0]
        )
    )


def _delta_pq(m: Moments, rho: float) -> tuple[float, float, float]:
    """(sigma^2, P, Q) at rho, with 96 sigma^3 Delta_R(z) / phi(z) = P + Q z^2.

    `edgeworth.delta`'s -[(skew/6 + a3)(z^2 - 1) + a1] phi(z) in scalars,
    for L, H and Sigma as in `assemble_statistic_model` and v = Sigma L:
    Q = -16 w3 - 48 v'Hv and P + Q = -48 sigma^2 tr(H Sigma).  P takes the
    sigma^2 terms apart from x = Q - a (0 for BVN), so that tr(H Sigma)'s
    cancellation stays out of it.
    """
    mu = m(rho)
    s2 = _variance(mu, rho)
    half = 0.5 * rho
    m04, m13, m22, m31, m40 = mu[0, 4], mu[1, 3], mu[2, 2], mu[3, 1], mu[4, 0]
    v0 = mu[2, 1] - half * (mu[3, 0] + mu[1, 2])
    v1 = mu[1, 2] - half * (mu[2, 1] + mu[0, 3])
    v2 = m31 - half * (m40 + m22)
    v3 = m13 - half * (m22 + m04)
    v4 = m22 - half * (m31 + m13)
    vhv = (rho * (v0 * v0 + v1 * v1 + 0.75 * (v2 * v2 + v3 * v3)
                  + 0.5 * v2 * v3) - 2.0 * v0 * v1 - v4 * (v2 + v3))
    a = s2 * (48.0 * (m13 + m31) - 24.0 * rho * (m04 + m40 + 2.0 * m22))
    x = -16.0 * _w3(mu, rho) - 48.0 * vhv - a
    return s2, -x - 12.0 * rho * s2 * (m04 + m40 - 2.0 * m22), x + a


def sigma_rho(m: Moments, rho: float) -> float:
    """Asymptotic standard deviation of sqrt(n)(R - rho)."""
    return math.sqrt(_variance(m(rho), rho))


def h_z(m: Moments, rho: float, z: float) -> float:
    """Right-hand side of the optimality ODE psi''/psi' = h_z(rho), for
    every finite z where it is finite: where z^2 overflows it is the limit
    Q / (48 sigma^4), and a ValueError where z^2 underflows to 0 or P / z^2
    overflows (both models at rho 0.5 for |z| up to ~1.3e-154)."""
    s2, p, q = _delta_pq(m, rho)
    h = (p / (z * z) + q) / (48.0 * s2 ** 2) if z * z > 0.0 else math.nan
    if not (math.isfinite(h) and math.isfinite(z)):
        raise ValueError(f"h_z requires a finite z and a finite P / z^2, "
                         f"got z={z} at rho={rho}")
    return h


def optimal_transform_numeric(m: Moments, z: float) -> Transform:
    """Transform solving psi''/psi' = h_z with psi(0) = 0, psi'(0) = 1.

    The coupled system (psi, psi')' = (psi', h_z psi') is integrated with an
    adaptive Runge-Kutta stepper; psi is odd, so only |rho| is integrated
    and the sign restored.  Evaluation beyond |rho| = 1 - 1e-6 is rejected.
    h_z does not depend on psi, so it is evaluated once per distinct node:
    the stepper's last two stages share a node, and an integration starts
    where the previous one ended.
    """
    # (r, h_z(r)) of the latest node, one tuple so that threads calling psi
    # at once never pair one call's r with another's h; h_z at the first
    # node, 0, refuses a z it is not defined at before any psi is asked
    node = (0.0, h_z(m, 0.0, z))

    def rhs(r: float, y: tuple[float, ...]) -> tuple[float, ...]:
        nonlocal node
        last = node
        if last[0] != r:
            last = node = (r, h_z(m, r, z))
        return (y[1], last[1] * y[1])

    # (rho, psi, dpsi) checkpoints, kept sorted by rho
    points = [(0.0, 0.0, 1.0)]

    def state_at(rho_abs: float) -> tuple[float, float]:
        if not rho_abs <= NUMERIC_RHO_LIMIT:  # NaN included
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
    s2, p, q = _delta_pq(m, rho)
    s = math.sqrt(s2)
    phi = normal_pdf(z)  # 0.0 is the limit where it underflows; z^2 may be inf
    delta_r = phi * (p + q * z * z) / (96.0 * s ** 3)
    correction = 0.5 * t.dlog_dpsi(rho) * s * z * z * phi
    return delta_r - correction if phi > 0.0 else 0.0


def _checked_dpsi(t: Transform, rho: float, sigma: float, n: int) -> float:
    """psi'(rho), after checking that n >= 1, |rho| <= 1 and the scale
    psi'(rho) sigma of the tau statistic is positive (it underflows for
    steep optimal transforms; a NaN rho fails here for every transform)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if abs(rho) > 1.0:  # a NaN rho passes, to fail as degenerate
        raise ValueError(f"rho must lie in [-1, 1], got rho={rho}")
    dpsi = t.dpsi(rho) if rho == rho else math.nan
    if not dpsi * sigma > 0.0:
        raise DegenerateModelError(
            f"psi'(rho) sigma = {dpsi} * {sigma} is not positive at rho={rho}")
    return dpsi


def _tau(psi_r: float, psi_rho: float, root_n: float, scale: float) -> float:
    """tau from psi(R), psi(rho), sqrt(n) and the scale psi'(rho) sigma."""
    num = psi_r - psi_rho
    if math.isinf(num):
        return num
    return num * root_n / scale


def tau(t: Transform, r_value: float, rho: float, sigma: float, n: int) -> float:
    """Asymptotically standardized value of psi(R): use tau > z_alpha to reject."""
    if not -1.0 <= r_value <= 1.0:
        raise ValueError("r_value must lie in [-1, 1]")
    dpsi = _checked_dpsi(t, rho, sigma, n)
    return _tau(t.psi(r_value), t.psi(rho), math.sqrt(n), dpsi * sigma)


# the width of the bracket that r* is the midpoint of, well inside _TIE_BAND
_ROOT_TOL = 1e-13


def _newton_root(f: Callable[[float], float], df: Callable[[float], float],
                 target: float, x: float) -> tuple[float, float, int, int]:
    """(lo, hi, f calls, Newton steps): hi - lo <= _ROOT_TOL, hi the last
    point with f > target (1 if none) and lo the last other one (-1 if
    none), for an increasing f with derivative df and a guess x in (-1, 1).

    Safeguarded Newton, as Numerical Recipes' rtsafe: each step aims
    _ROOT_TOL / 2 past the root, so that a converged step closes the
    bracket, and a step that leaves the bracket or is not half the Newton
    step before it is replaced by the bracket's midpoint.  f is never
    called at -1 or 1.
    """
    lo, hi, last, calls, steps = -1.0, 1.0, 2.0, 0, 0
    while hi - lo > _ROOT_TOL:
        y, d, calls = f(x) - target, df(x), calls + 1
        if y > 0.0:
            hi, aim = x, -0.5 * _ROOT_TOL
        else:
            lo, aim = x, 0.5 * _ROOT_TOL
        new = x - y / d + aim if d > 0.0 else math.nan
        if lo < new < hi and abs(new - x) <= 0.5 * last:
            steps, last, x = steps + 1, abs(new - x), new
        else:
            x = 0.5 * (lo + hi)
    return lo, hi, calls, steps


# An R this close to r* is decided by tau itself, so that the rounding of r*
# cannot flip an atom of a discrete R that sits on the threshold.  psi_closed
# is not monotone at the ulp level even at ordinary exponents (SquareV at
# z = 1.354803814772249, p = -0.15: psi(0.30151134457776335) >
# psi(0.3015113445777634)), so no root finder is sure to place r* on the
# right side of every atom.
_TIE_BAND = 1e-9


def rejection_rule(t: Transform, rho: float, sigma: float, n: int,
                   alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """The test tau > z_alpha as a predicate on an array of R values, with
    the critical value r* as its `r_star` attribute: psi is increasing, so
    tau > z_alpha iff R > r*, and r* = +inf when not even R = 1 rejects.
    Raises DegenerateModelError when psi(rho) absorbs the step
    z_alpha psi'(rho) sigma / sqrt(n) in rounding, which leaves r* undefined.

    r* is the midpoint of a bracket no wider than _ROOT_TOL = 1e-13 about
    the root of psi(R) = psi(rho) + z_alpha psi'(rho) sigma / sqrt(n), found
    by one bracketed Newton solve (_newton_root) from rho + z_alpha sigma /
    sqrt(n) in a median of 6 psi calls.  Each distinct R within the 1e-9
    _TIE_BAND of r* is decided by tau itself, once per value (a lattice R
    puts many draws on one value), from the psi(rho) and psi'(rho) sigma
    computed here.  R = 1 is asked only when no R below it rejects, and psi
    never at -1 or 1, so a numeric transform, which stops at |R| = 1 - 1e-6,
    has an r* too.  Each call logs its psi calls and Newton steps at DEBUG
    on the corrtrans.pearson logger.
    """
    z_alpha = normal_quantile(1.0 - alpha)
    dpsi = _checked_dpsi(t, rho, sigma, n)
    psi_rho = t.psi(rho)
    root_n = math.sqrt(n)
    scale = dpsi * sigma
    cut = psi_rho + z_alpha * dpsi * sigma / root_n
    if cut == psi_rho and z_alpha != 0.0:
        raise DegenerateModelError(f"psi(rho) = {psi_rho} absorbs z_alpha "
                                   f"psi'(rho) sigma / sqrt(n) at rho={rho}")
    # the root of psi's tangent at rho; past 1, halfway from rho to 1
    guess = rho + z_alpha * sigma / root_n
    if not guess < 1.0:
        guess = 0.5 * (rho + 1.0)
    lo, hi, calls, steps = _newton_root(t.psi, t.dpsi, cut, guess)
    r_star = 0.5 * (lo + hi)
    # tau(1) only if nothing below 1 rejects: numeric psi stops short of 1
    if hi == 1.0 and not _tau(t.psi(1.0), psi_rho, root_n, scale) > z_alpha:
        r_star = math.inf
    _log.debug("rejection_rule at rho=%r, n=%d, z_alpha=%r: %d psi calls, "
               "%d Newton steps", rho, n, z_alpha, 1 + calls + (hi == 1.0),
               steps)
    lo, hi = r_star - _TIE_BAND, r_star + _TIE_BAND

    def rejects(r: np.ndarray) -> np.ndarray:
        reject = r > hi
        near = (r >= lo) ^ reject  # lo <= R <= hi
        if near.any():
            values, inverse = np.unique(r[near], return_inverse=True)
            decided = [_tau(t.psi(v), psi_rho, root_n, scale) > z_alpha
                       for v in values.tolist()]
            reject[near] = np.array(decided)[inverse]
        return reject

    rejects.r_star = r_star
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
    mu = m(rho)
    Sigma = np.array([
        [1.0, rho, mu[3, 0], mu[1, 2], mu[2, 1]],
        [rho, 1.0, mu[2, 1], mu[0, 3], mu[1, 2]],
        [mu[3, 0], mu[2, 1], mu[4, 0] - 1.0, mu[2, 2] - 1.0, mu[3, 1] - rho],
        [mu[1, 2], mu[0, 3], mu[2, 2] - 1.0, mu[0, 4] - 1.0, mu[1, 3] - rho],
        [mu[2, 1], mu[1, 2], mu[3, 1] - rho, mu[1, 3] - rho,
         mu[2, 2] - rho * rho],
    ])
    s = math.sqrt(_variance(mu, rho))
    L = np.array([0.0, 0.0, -rho / 2.0, -rho / 2.0, 1.0])
    return edgeworth.EdgeworthModel(
        dim=5,
        L=L,
        H=_hessian(rho),
        Sigma=Sigma,
        sigma=s,
        skew=_w3(mu, rho) / s ** 3,
    )
