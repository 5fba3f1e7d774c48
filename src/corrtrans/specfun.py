"""Special functions and integration kernels.

Everything here is a pure function of its arguments.  The normal cdf and
quantile and log-gamma come from the standard library (``math.erfc``,
``statistics.NormalDist``, ``math.lgamma``) behind this module's argument
checks; the hypergeometric value and the ODE stepper are our own, and
quadrature is that stepper solving y' = f(t).
"""

from __future__ import annotations

import logging
import math
import statistics
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Tolerance",
    "IntegrationError",
    "normal_pdf",
    "normal_cdf",
    "normal_quantile",
    "gauss_2f1_half",
    "gamma_ratio_endpoint",
    "log_gamma",
    "integrate_adaptive",
    "integrate_ode",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_STD_NORMAL = statistics.NormalDist()
_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Tolerance:
    """Error budget for iterative numerical routines."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_iter: int = 10_000

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


class IntegrationError(ArithmeticError):
    """The ODE stepper (so also quadrature) or a series failed to converge."""


def normal_pdf(z: float) -> float:
    """Standard normal density phi(z)."""
    if not math.isfinite(z):
        raise ValueError("normal_pdf requires finite z")
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def normal_cdf(z: float) -> float:
    """Standard normal cdf Phi(z); Phi(+/-inf) = 1, 0."""
    if math.isnan(z):
        raise ValueError("normal_cdf: z is NaN")
    return 0.5 * math.erfc(-z / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse of ``normal_cdf``; consistent with it to better than 1e-12."""
    if not 0.0 < p < 1.0:
        raise ValueError("normal_quantile requires 0 < p < 1")
    return _STD_NORMAL.inv_cdf(p)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError("log_gamma requires x > 0")
    return math.lgamma(x)


def gamma_ratio_endpoint(p: float) -> float:
    """sqrt(pi) Gamma(p+1) / (2 Gamma(p+3/2)) = integral of (1-r^2)^p over [0,1]."""
    if not p > -1.0:
        raise ValueError("gamma_ratio_endpoint requires p > -1")
    if p < 20.0:
        return 0.5 * math.exp(0.5 * math.log(math.pi) + log_gamma(p + 1.0)
                              - log_gamma(p + 1.5))
    # Stirling's series for ln Gamma(x + 1/2) - ln Gamma(x), x = p + 1: the
    # difference of two log-gammas this large keeps only about 1e-12
    x, u = p + 1.0, (p + 1.0) ** -2
    s = (1 / 8 - u * (1 / 192 - u * (1 / 640 - u * 17 / 14336))) / x
    return 0.5 * math.sqrt(math.pi / x) * math.exp(s)


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1(1/2, -p; 3/2; x)
# ---------------------------------------------------------------------------


def _positive_2f1(a: float, b: float, c: float, z: float) -> float:
    """2F1(a, b; c; z) for a, b, c > 0 and 0 < z < 1: all terms positive."""
    total = term = 1.0
    for k in range(100_000):
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * z
        total += term
        if term < 1e-16 * total:
            return total
    raise IntegrationError("2F1 series did not converge in 1e5 terms")


def gauss_2f1_half(p: float, x: float) -> float:
    """2F1(1/2, -p; 3/2; x) = integral_0^sqrt(x) (1-r^2)^p dr / sqrt(x) for
    0 <= x < 1, p > -1, by a series with positive terms: for x <= 1/2
    Euler's transformation (A&S 15.3.3) (1-x)^(p+1) 2F1(1, p+3/2; 3/2; x),
    else the incomplete-beta complement (DLMF 8.17.4), the integral over
    [0, 1] less (1-x)^(p+1) / (2(p+1)) 2F1(p+1, 1/2; p+2; 1-x)."""
    if not 0.0 <= x < 1.0:
        raise ValueError("gauss_2f1_half requires 0 <= x < 1")
    if not p > -1.0:
        raise ValueError("gauss_2f1_half requires p > -1")
    if x == 0.0 or p == 0.0:
        return 1.0
    scale = math.exp((p + 1.0) * math.log1p(-x))  # (1-x)^(p+1)
    # a tiny scale would overflow Euler's sum (about 1/scale); the tail of
    # the complement, below 0.5 scale / ((p+1) x), is nil but slow to sum
    if scale <= 1e-300:
        return gamma_ratio_endpoint(p) / math.sqrt(x)
    if x <= 0.5:
        return scale * _positive_2f1(1.0, p + 1.5, 1.5, x)
    tail = 0.5 * scale / (p + 1.0) * _positive_2f1(p + 1.0, 0.5, p + 2.0,
                                                    1.0 - x)
    return (gamma_ratio_endpoint(p) - tail) / math.sqrt(x)


# ---------------------------------------------------------------------------
# Adaptive Runge-Kutta (Dormand-Prince 5(4)): small ODE systems, quadrature
# ---------------------------------------------------------------------------

_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
# stages 2..7 as (c_i, ((j, a_ij) for each a_ij != 0)); the last row is the
# 5th-order weights b5, so stage 7 is evaluated at the step's new state
_DP_STAGES = tuple(
    (c, tuple((j, a) for j, a in enumerate(row) if a != 0.0))
    for c, row in zip(_DP_C[1:], _DP_A[1:])
)
# y5 - y4 = h sum_s e_s k_s with e = b5 - b4, the 4th-order weights b4 being
# (5179/57600, 0, 7571/16695, 393/640, -92097/339200, 187/2100, 1/40)
_DP_E = tuple((s, e) for s, e in enumerate((
    71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
    -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)) if e != 0.0)


def integrate_ode(
    rhs: Callable[[float, tuple[float, ...]], tuple[float, ...]],
    t0: float,
    y0: tuple[float, ...],
    t1: float,
    tol: Tolerance = Tolerance(1e-12, 1e-12, 100_000),
) -> tuple[float, ...]:
    """Integrate y' = rhs(t, y) from t0 to t1 with Dormand-Prince 5(4);
    a non-finite t0 or t1 raises ValueError, a step with a non-finite state
    or a NaN error IntegrationError, and one whose error overflows to inf
    is rejected like any too large.

    The pair is first-same-as-last: the last stage of an accepted step is
    rhs at its new (t, y), and is kept as the next step's first stage, so
    an integration calls rhs 1 + 6 times per attempted step.  Each call
    that returns logs its accepted and rejected steps and rhs calls at
    DEBUG.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"integrate_ode requires finite t0, t1: {t0}, {t1}")
    if t1 == t0:
        return tuple(y0)
    dims = range(len(y0))
    direction = 1.0 if t1 > t0 else -1.0
    t = t0
    y = list(y0)
    k1 = rhs(t, tuple(y))
    accepted = 0
    h = direction * min(1e-2, abs(t1 - t0))
    for attempts in range(1, tol.max_iter + 1):
        if direction * (t + h - t1) > 0.0:
            h = t1 - t
        ks = [k1]
        for c, row in _DP_STAGES:
            yi = list(y)
            for j, aij in row:
                kj = ks[j]
                for d in dims:
                    yi[d] += h * aij * kj[d]
            ks.append(rhs(t + c * h, tuple(yi)))
        y5 = yi
        errs = [abs(h * sum(e * ks[s][d] for s, e in _DP_E))
                / (tol.abs_tol + tol.rel_tol * max(abs(y[d]), abs(y5[d])))
                for d in dims]
        err = max(errs)
        # max() may drop a NaN term, so each is checked; an error that
        # overflows to inf only rejects the step, and h shrinks
        if any(map(math.isnan, errs)) or not all(map(math.isfinite, y5)):
            raise IntegrationError(f"non-finite ODE step from t={t}")
        if err <= 1.0:
            accepted += 1
            t += h
            y = y5
            k1 = ks[6]
            if t == t1:
                _log.debug("integrate_ode: %d accepted, %d rejected steps, "
                           "%d rhs calls", accepted, attempts - accepted,
                           1 + 6 * attempts)
                return tuple(y)
        # standard PI-free step adjustment with safety factor
        factor = 0.9 * (err ** -0.2) if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
    raise IntegrationError(
        f"ODE integration did not converge within {tol.max_iter} steps"
    )


# integrate_ode holds each step to its tolerance, but the caller's bound is on
# the whole integral, to which every step's error adds: hence a tighter one
_QUAD_MARGIN = 16.0


def integrate_adaptive(
    f: Callable[[float], float], a: float, b: float, tol: Tolerance = Tolerance()
) -> float:
    """Integrate f over [a, b] to within tol.abs_tol + tol.rel_tol * |I| as
    y' = f(t), y(a) = 0 by `integrate_ode`, each step held to tol /
    _QUAD_MARGIN: f is evaluated at a and at b too, and tol.max_iter counts
    attempted steps.  a == b gives 0.0 without calling f."""
    # a tolerance near the smallest float would divide to 0 and be refused
    abs_tol, rel_tol = (max(x / _QUAD_MARGIN, math.ulp(0.0))
                        for x in (tol.abs_tol, tol.rel_tol))
    return integrate_ode(lambda t, y: (f(t),), a, (0.0,), b,
                         Tolerance(abs_tol, rel_tol, tol.max_iter))[0]
