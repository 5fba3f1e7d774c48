"""Special functions and integration kernels.

Everything here is a pure function of its arguments.  The normal cdf and
quantile and log-gamma come from the standard library (``math.erfc``,
``statistics.NormalDist``, ``math.lgamma``) behind this module's argument
checks; the hypergeometric value, quadrature and ODE stepper are our own.
"""

from __future__ import annotations

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


class IntegrationError(RuntimeError):
    """Adaptive integrator or ODE stepper failed to converge."""


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
# Adaptive Gauss-Kronrod quadrature (7-15 pair, interval bisection)
# ---------------------------------------------------------------------------

_K15_NODES = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_K15_W = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_G7_W = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Kronrod-15 estimate over [a, b] and its error estimate vs Gauss-7."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    k = _K15_W[7] * fc
    g = _G7_W[3] * fc
    for i in range(7):
        x = h * _K15_NODES[i]
        fsum = f(c - x) + f(c + x)
        k += _K15_W[i] * fsum
        if i % 2 == 1:  # odd Kronrod indices are the Gauss-7 nodes
            g += _G7_W[i // 2] * fsum
    k *= h
    g *= h
    return k, abs(k - g)


def integrate_adaptive(
    f: Callable[[float], float], a: float, b: float, tol: Tolerance = Tolerance()
) -> float:
    """Integrate f over [a, b] to within tol.abs_tol + tol.rel_tol * |I|."""
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    val, err = _gk15(f, a, b)
    segments = [(a, b, val, err)]
    for _ in range(tol.max_iter):
        total = math.fsum(s[2] for s in segments)
        total_err = math.fsum(s[3] for s in segments)
        if total_err <= tol.abs_tol + tol.rel_tol * abs(total):
            return sign * total
        worst = max(range(len(segments)), key=lambda i: segments[i][3])
        lo, hi, _, _ = segments.pop(worst)
        mid = 0.5 * (lo + hi)
        vl, el = _gk15(f, lo, mid)
        vr, er = _gk15(f, mid, hi)
        segments.append((lo, mid, vl, el))
        segments.append((mid, hi, vr, er))
    raise IntegrationError(
        f"quadrature did not converge within {tol.max_iter} subdivisions"
    )


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
# Adaptive Runge-Kutta (Dormand-Prince 5(4)) for small ODE systems
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
_DP_B5 = _DP_A[6] + (0.0,)  # the 5th-order weights are the last stage row
_DP_B4 = (5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
          -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0)


def integrate_ode(
    rhs: Callable[[float, tuple[float, ...]], tuple[float, ...]],
    t0: float,
    y0: tuple[float, ...],
    t1: float,
    tol: Tolerance = Tolerance(1e-12, 1e-12, 100_000),
) -> tuple[float, ...]:
    """Integrate y' = rhs(t, y) from t0 to t1 with Dormand-Prince 5(4);
    a step with a non-finite state or error raises IntegrationError."""
    if t1 == t0:
        return tuple(y0)
    dim = len(y0)
    direction = 1.0 if t1 > t0 else -1.0
    t = t0
    y = list(y0)
    h = direction * min(1e-2, abs(t1 - t0))
    for _ in range(tol.max_iter):
        if direction * (t + h - t1) > 0.0:
            h = t1 - t
        ks: list[tuple[float, ...]] = []
        for stage in range(7):
            yi = list(y)
            for j, aij in enumerate(_DP_A[stage]):
                if aij != 0.0:
                    for d in range(dim):
                        yi[d] += h * aij * ks[j][d]
            ks.append(rhs(t + _DP_C[stage] * h, tuple(yi)))
        y5 = [y[d] + h * sum(_DP_B5[s] * ks[s][d] for s in range(7))
              for d in range(dim)]
        y4 = [y[d] + h * sum(_DP_B4[s] * ks[s][d] for s in range(7))
              for d in range(dim)]
        err = 0.0
        for d in range(dim):
            scale = tol.abs_tol + tol.rel_tol * max(abs(y[d]), abs(y5[d]))
            err = max(err, abs(y5[d] - y4[d]) / scale)
        # max() drops a NaN term, so a NaN state would pass as a small error
        if not (math.isfinite(err) and all(map(math.isfinite, y5))):
            raise IntegrationError(f"non-finite ODE step from t={t}")
        if err <= 1.0:
            t += h
            y = y5
            if t == t1:
                return tuple(y)
        # standard PI-free step adjustment with safety factor
        factor = 0.9 * (err ** -0.2) if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
    raise IntegrationError(
        f"ODE integration did not converge within {tol.max_iter} steps"
    )
