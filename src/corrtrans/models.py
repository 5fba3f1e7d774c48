"""The two built-in correlation-parametrized models.

BVN: bivariate normal with standardized marginals.  SquareV: the four-point
law on the vertices of [-1, 1]^2: Y a fair sign, W = YZ an independent sign
with P(W = 1) = (1 + rho)/2, so the cell probabilities are (1 +/- rho)/4.
Each writes its joint moments as one closed-form table per rho, and both
come with seeded draws of R, closed-form optimal transforms, closed-form
leading error terms, dominance ranges, and (for SquareV) an exact rejection
oracle for n up to 10^4.

R depends on a sample only through a few sums, so each model draws those
instead of n pairs: for BVN the centred scatter matrix, which is
Wishart(Sigma, n - 1), by the Bartlett decomposition (three draws); for
SquareV a = #{W = 1} ~ Bin(n, (1 + rho)/2), u = #{Y = 1, W = 1} ~ Bin(a, 1/2)
and v = #{Y = 1, W = -1} ~ Bin(n - a, 1/2), the (a, u, v) the oracle sums over.
For n <= 512 u and v are popcounts of Y's n fair signs drawn as random bits,
at most 8 words per sample; above it they are two binomials.  SquareV's R
thus takes one value per triple (a, u, v), C(n + 3, 3) atoms in all: its
`Lattice` numbers them and gives R and the probability P(a) Bin(a, 1/2)(u)
Bin(n - a, 1/2)(v) of each, so Monte Carlo can draw how many of its
samples fall on each atom, as one multinomial, instead of every sample.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pearson import (
    Moments,
    Transform,
    is_integer,
    r_from_sums,
    rejection_rule,
    sigma_rho,
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
    "Lattice",
    "BetaInterval",
    "BVN",
    "SQUAREV",
    "get_model",
    "MODEL_NAMES",
    "bvn_moments",
    "squarev_moments",
    "TRANSFORM_KINDS",
    "optimal_exponent",
    "transform_exponent",
    "power_transform",
    "psi_closed",
    "transform_for",
    "delta_closed",
    "dominance_range",
    "fisher_dominance_threshold",
    "squarev_exact_rejection",
]

TRANSFORM_KINDS = ("identity", "fisher", "optimal")

_log = logging.getLogger(__name__)

# every order 0 <= i, j with i + j <= 6, each at its value where it does not
# depend on rho: odd orders of both laws are 0, and the rho entries are set
# per call
_BVN_FIXED = {**{(i, j): 0.0 for i in range(7) for j in range(7 - i)},
              (0, 0): 1.0, (2, 0): 1.0, (0, 2): 1.0, (4, 0): 3.0, (0, 4): 3.0,
              (6, 0): 15.0, (0, 6): 15.0}
_SQUAREV_FIXED = {(i, j): 1.0 if i % 2 == j % 2 == 0 else 0.0
                  for i in range(7) for j in range(7 - i)}


def bvn_moments(rho: float) -> dict[tuple[int, int], float]:
    """E Y^i Z^j under the standardized bivariate normal law, by Isserlis'
    theorem, for every order with i + j <= 6."""
    if abs(rho) > 1.0:  # a NaN rho passes, to fail as a degenerate model
        raise ValueError(f"moments require |rho| <= 1, got rho={rho}")
    r2 = rho * rho
    mu = _BVN_FIXED.copy()
    mu[1, 1] = rho
    mu[3, 1] = mu[1, 3] = 3.0 * rho
    mu[2, 2] = 1.0 + 2.0 * r2
    mu[5, 1] = mu[1, 5] = 15.0 * rho
    mu[4, 2] = mu[2, 4] = 3.0 + 12.0 * r2
    mu[3, 3] = rho * (9.0 + 6.0 * r2)
    return mu


def squarev_moments(rho: float) -> dict[tuple[int, int], float]:
    """E Y^i Z^j under the four-point vertex law, for every order with
    i + j <= 6: Y^2 = Z^2 = 1, so it is 1 where i and j are both even, E YZ
    = rho where both are odd, and 0 otherwise."""
    if abs(rho) > 1.0:
        raise ValueError(f"moments require |rho| <= 1, got rho={rho}")
    mu = _SQUAREV_FIXED.copy()
    mu[1, 1] = mu[3, 1] = mu[1, 3] = mu[5, 1] = mu[1, 5] = mu[3, 3] = rho
    return mu


def _squarev_r(n: int, a, u, v) -> np.ndarray:
    """R of SquareV samples of size n from a = #{W = 1}, u = #{Y = 1, W = 1}
    and v = #{Y = 1, W = -1} (arrays), W = YZ; the cell counts of (1, 1),
    (1, -1), (-1, 1), (-1, -1) are u, v, n - a - v, a - u."""
    syz = 2 * a - n
    return r_from_sums(n, 2 * (u + v) - n, 2 * (u - v) - syz, n, n, syz)


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


# Largest n whose Y signs SquareV draws as random bits, a cap of 8 words per
# row set below the measured crossover; above it u and v are two binomials.
# Per replicate of sample_r (2 cores, 2 x 10^5 rows, numpy 2.4) the bits are
# 1.9-2.0x faster than the binomials for n <= 256, 1.4x at 512, 1.2x at 700,
# even at 1000 and 7x slower at 10^4.
_SQUAREV_BITS_MAX_N = 512


def _squarev_sign_counts(n: int, a: np.ndarray, rng: np.random.Generator
                         ) -> tuple[np.ndarray, np.ndarray]:
    """u = #{Y = 1, W = 1} and v = #{Y = 1, W = -1} given a = #{W = 1},
    from Y's n signs as n random bits: word w holds signs 64w to 64w + k - 1
    and the a pairs with W = 1 take the lowest a bits, so u counts the set
    bits below position a and v those above it.  Shifting word w left by
    64(w + 1) - a, clipped to [0, 64], drops the bits at or above a (a shift
    of 64 gives 0).  Every array is reused in place, and the scratch ones are
    freed on return, before R is computed."""
    u = np.zeros(len(a), np.int64)
    v = np.zeros(len(a), np.int64)  # all set bits until the end
    shift = np.empty(len(a), np.int64)
    count = np.empty(len(a), np.uint8)
    for w in range((n + 63) // 64):
        k = min(64, n - 64 * w)
        y = rng.integers(0, (1 << k) - 1, len(a), np.uint64, endpoint=True)
        np.add(v, np.bitwise_count(y, out=count), out=v)
        np.subtract(64 * (w + 1), a, out=shift)
        np.clip(shift, 0, 64, out=shift)
        np.left_shift(y, shift.view(np.uint64), out=y)
        np.add(u, np.bitwise_count(y, out=count), out=u)
        del y  # before the next word is drawn
    return u, np.subtract(v, u, out=v)


def _squarev_counts(rho: float, rows: int, n: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, u, v) of `rows` SquareV samples of size n."""
    a = rng.binomial(n, (1.0 + rho) / 2.0, rows)
    if n > _SQUAREV_BITS_MAX_N:
        return a, rng.binomial(a, 0.5), rng.binomial(n - a, 0.5)
    return (a, *_squarev_sign_counts(n, a, rng))


def _squarev_atoms(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, u, v) of every SquareV atom at n, in atom order: the triples with
    u <= a and v <= n - a, numbered start[a] + u (n + 1 - a) + v, where the
    (a + 1)(n + 1 - a) atoms of each a sum to C(n + 3, 3)."""
    k = np.arange(n + 1)
    per_a = (k + 1) * (n + 1 - k)
    a = np.repeat(k, per_a)
    start = np.cumsum(per_a) - per_a
    return (a, *np.divmod(np.arange(a.size) - start[a], n + 1 - a))


def _squarev_weights(rho: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lf, P): lf[k] = log k! and P[a] = Bin(n, (1 + rho)/2)(a), 0..n."""
    lf = np.array([log_gamma(k + 1.0) for k in range(n + 1)])
    return lf, _pmf(lf, n, np.arange(n + 1), math.log((1.0 + rho) / 2.0),
                    math.log((1.0 - rho) / 2.0))


def _squarev_lattice(rho: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(R, pmf) of every atom, in atom order: pmf is P(a) B_a(u) B_{n-a}(v),
    normalised, with B_k(j) = Bin(k, 1/2)(j) read from one (n + 1)^2 table."""
    a, u, v = _squarev_atoms(n)
    lf, p_a = _squarev_weights(rho, n)
    k = np.arange(n + 1)  # j is clipped to k, so lf[k - j] cannot wrap
    half = _pmf(lf, k[:, None], np.minimum(k, k[:, None]), math.log(0.5),
                math.log(0.5))
    pmf = p_a[a] * half[a, u] * half[n - a, v]
    return _squarev_r(n, a, u, v), pmf / pmf.sum()


@dataclass(frozen=True)
class Lattice:
    """The finitely many values R takes at each sample size n, for a model
    that has them: its atoms, numbered 0 to size(n) - 1."""

    # n -> number of atoms, without building them
    size: Callable[[int], int]
    # (rho, n) -> (R, pmf) of every atom, in atom order: R bit for bit the R
    # sample_r draws, and pmf the atoms' probabilities, summing to 1
    atoms: Callable[[float, int], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class DependenceModel:
    """A correlation-parametrized model: moments, draws of R, closed forms.

    The closed forms rest on three numbers per model, g = odd_factor,
    B = delta_const and k = fisher_slope: R's leading error term is
    Delta_R(z) = phi(z) g(rho) (z^2 + B), and psi' = (1 - rho^2)^p (R at
    p = 0, Fisher's at p = -1) leaves Delta_p(z) = phi(z) g(rho) k z^2
    (p - p_z), zero at the optimal exponent p_z = -(1 + B/z^2)/k.
    """

    name: str
    # rho -> {(i, j): E Y^i Z^j} for every order with i + j <= 6, one table
    # per call
    moments: Moments
    # (rho, rows, n, rng) -> R of `rows` samples of size n, drawn from the
    # statistics R depends on, at a cost per sample bounded whatever n is
    sample_r: Callable[[float, int, int, np.random.Generator], np.ndarray]
    odd_factor: Callable[[float], float]
    delta_const: float
    fisher_slope: float
    # the atoms of R, for a model whose R takes finitely many values
    lattice: Lattice | None = None

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
    moments=bvn_moments,
    sample_r=_bvn_sample_r,
    odd_factor=lambda rho: rho,
    delta_const=-0.5,
    fisher_slope=1.0,
)

SQUAREV = DependenceModel(
    name="squarev",
    moments=squarev_moments,
    sample_r=lambda rho, rows, n, rng: _squarev_r(
        n, *_squarev_counts(rho, rows, n, rng)),
    odd_factor=lambda rho: rho / (3.0 * math.sqrt(1.0 - rho * rho)),
    delta_const=-1.0,
    fisher_slope=3.0,
    lattice=Lattice(lambda n: math.comb(n + 3, 3), _squarev_lattice),
)

_MODELS = {"bvn": BVN, "squarev": SQUAREV}
MODEL_NAMES = tuple(_MODELS)


def get_model(name: str) -> DependenceModel:
    model = _MODELS.get(name.lower()) if isinstance(name, str) else None
    if model is None:
        raise ValueError(f"unknown model {name!r}; expected bvn or squarev")
    return model


def optimal_exponent(model: DependenceModel, z: float) -> float:
    """Exponent p of the optimal transform's psi' = (1 - rho^2)^p at z.

    p = -(1 + B/z^2)/k, computed as 1/(c z^2) - 1/k with c = -k/B so that it
    rounds like the paper's p_z = 1/(2z^2) - 1 and q_z = 1/(3z^2) - 1/3;
    refused where it is not finite (z = 0, NaN, or 1/(c z^2) overflowing).
    """
    z = float(z)  # a numpy float warns where z * z overflows
    k = model.fisher_slope
    cz2 = -k / model.delta_const * z * z
    p = 1.0 / cz2 - 1.0 / k if cz2 > 0.0 else math.inf
    if math.isinf(p):
        raise ValueError(f"optimal exponent is not finite at z_ref={z}")
    return p


def transform_exponent(model: DependenceModel, kind: str,
                       z_ref: float | None = None) -> float:
    """Exponent p of psi' = (1 - rho^2)^p of the transform named by kind:
    0 for "identity" (R itself), -1 for "fisher" (atanh), and the model's
    optimal exponent at z_ref for "optimal"."""
    if kind == "identity":
        return 0.0
    if kind == "fisher":
        return -1.0
    if kind == "optimal":
        if z_ref is None:
            raise ValueError("optimal transform requires z_ref")
        return optimal_exponent(model, z_ref)
    raise ValueError(f"unknown transform kind {kind!r}")


def _psi(p: float, rho: float) -> float:
    """psi(rho) = integral of (1 - r^2)^p over [0, rho], for p >= -1."""
    if not abs(rho) <= 1.0:
        raise ValueError(f"psi requires |rho| <= 1, got rho={rho}")
    if p == 0.0:  # gamma_ratio_endpoint(0) is 1 + 2^-52
        return rho
    if abs(rho) == 1.0:
        end = math.inf if p == -1.0 else gamma_ratio_endpoint(p)
        return math.copysign(end, rho)
    if p == -1.0:
        return math.atanh(rho)
    return rho * gauss_2f1_half(p, rho * rho)


def power_transform(p: float) -> Transform:
    """The transform with psi' = (1 - r^2)^p and psi(0) = 0, for p >= -1:
    R itself at p = 0, Fisher's atanh at p = -1, and otherwise
    r * 2F1(1/2, -p; 3/2; r^2), the finite gamma-ratio value at |r| = 1."""
    if not -1.0 <= p < math.inf:
        raise ValueError(f"power_transform requires -1 <= p < inf, got {p}")

    def dpsi(r: float) -> float:
        # 1/(1 - r^2) is not (1 - r^2)**-1.0 in the last bit at every r
        return 1.0 / (1.0 - r * r) if p == -1.0 else (1.0 - r * r) ** p

    return Transform(lambda r: _psi(p, r), dpsi,
                     lambda r: -2.0 * p * r / (1.0 - r * r))


def psi_closed(model: DependenceModel, z: float, rho: float) -> float:
    """Closed-form optimal transform rho * 2F1(1/2, -p; 3/2; rho^2), p the
    model's exponent at z: above -1 for every z but BVN's from z = 1e8 on,
    where it rounds to -1 and psi is atanh.  |rho| = 1 takes the finite
    gamma-ratio value of p > -1."""
    return _psi(optimal_exponent(model, z), rho)


def transform_for(model: DependenceModel, kind: str,
                  z_ref: float | None = None) -> Transform:
    """Build the Transform named by kind ("identity", "fisher", "optimal")."""
    return power_transform(transform_exponent(model, kind, z_ref))


def _delta_shape(model: DependenceModel, p: float, z: float) -> float:
    """Delta_p(z) / (phi(z) g(rho)) of the exponent-p transform: (1 + k p)
    z^2 + B, which does not cancel where k z^2 (p - p_z) does (p and p_z
    near -1/k); exactly 0.0 where p = p_z, and B where z^2 is too small."""
    try:
        if p == optimal_exponent(model, z):
            return 0.0
    except ValueError:  # no finite p_z, which p cannot equal
        pass
    return (1.0 + model.fisher_slope * p) * z * z + model.delta_const


def delta_closed(model: DependenceModel, kind: str, z: float, rho: float,
                 z_ref: float | None = None) -> float:
    """Closed-form leading error term Delta_psi(z), phi(z) factor included."""
    if not -1.0 < rho < 1.0:
        raise ValueError(f"delta_closed requires -1 < rho < 1, got {rho}")
    shape = _delta_shape(model, transform_exponent(model, kind, z_ref), z)
    phi = normal_pdf(z)  # 0.0 is the limit where it underflows; z^2 may be inf
    return model.odd_factor(rho) * shape * phi if phi > 0.0 else 0.0


def dominance_range(model: DependenceModel, alpha: float,
                    competitor: str) -> BetaInterval:
    """Maximal beta-interval on which the alpha-optimal transform beats the
    competitor ("identity" or "fisher") in |Delta(z_beta)|; rho-independent.

    In t = z_beta^2, with B < 0 (both models), the optimal shape is
    |B| (t/t_alpha - 1) and the competitor's, of exponent p, is c t - |B|
    with c = 1 + k p.  Their absolute values are equal only at t = 0 and at
    t_x = 2|B| / (c + |B|/t_alpha), or t_x = inf when that denominator is
    not positive, so the optimal transform wins on the side of t_x that
    holds t_alpha.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 0.5)")
    z_alpha = normal_quantile(1.0 - alpha)
    p = transform_exponent(model, competitor, z_alpha)
    if _delta_shape(model, p, z_alpha) == 0.0:
        raise ValueError(f"{competitor} is itself optimal at alpha={alpha}")
    t_alpha = z_alpha ** 2
    b = -model.delta_const
    c = 1.0 + model.fisher_slope * p
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


# At most this many (a, u) rows, and level-table entries, per block of the
# exact oracle: its memory is bounded by the block, whatever n is.
_ROWS_PER_BLOCK = 1 << 16
# D: each of the exact oracle's three windows leaves out at most this mass.
_WINDOW_MASS = 1e-30


def squarev_exact_rejection(rho: float, n: int, t: Transform,
                            alpha: float) -> float:
    """Exact rejection probability of the one-sided test under SquareV.

    With W = YZ, a = #{W = 1} ~ Bin(n, (1 + rho)/2), and given a the counts
    u = #{Y = 1, W = 1} ~ Bin(a, 1/2) and v = #{Y = 1, W = -1} ~
    Bin(m, 1/2), m = n - a, are independent.  An atom is rejected when
    `pearson.rejection_rule`, with sigma = SQUAREV.sigma(rho), rejects its
    R: the rule and sigma Monte Carlo counts by, so a threshold atom is
    decided alike in both.

    The rule is decided once per (a, u) row, not once per atom.  With
    A = 2u - a and B = 2v - m, sy = A + B and sz = A - B, so level
    j = 0..m//2 of a row holds v = j and v = m - j, which share |B| = m - 2j
    and, since R is symmetric in (sy, sz), share R bit for bit.  R is
    monotone in |B| along a row, so a row rejects a run of outer levels or
    a run of inner ones: the rule is evaluated at the row's outermost and
    innermost non-degenerate levels, and where they differ the switch level
    is found by bisection, vectorised over the rows.  R := 0 exactly at the
    four corners u in {0, a}, v in {0, m}, which are level 0 of rows u = 0
    and u = a; R = 0 is decided once.  A row's mass comes from cumulative
    sums of the level weights of Bin(m, 1/2), from the tail for outer runs
    and from the centre for inner ones, so every sum has positive terms;
    the total is the sum of P(a) Bin(a, 1/2)(u) times that mass.  Rows u
    and a - u share R bit for bit too, as u -> a - u takes (sy, sz) to
    (-sz, -sy): only the rows u <= a/2 are decided, and a row u < a/2
    weighs 2 Bin(a, 1/2)(u), not Bin(a, 1/2)(u) + Bin(a, 1/2)(a - u), which
    the log-factorial table rounds apart in the last bits (~1e-14 relative
    in the result).  Each call logs its rows weighed, switch rows (ends
    that disagree) and bisection rounds at DEBUG.

    Only atoms inside three windows that Hoeffding's inequality fixes in
    advance are weighed: with D = 1e-30 and l_a = ln(2 (n + 1) P(a) / D),
    the a with P(a) > D/(n + 1), the u with |u - a/2| <= sqrt(a l_a / 2) and
    the levels j >= m/2 - sqrt(m l_a / 2).  Each leaves out at most D, so
    the result is low by at most 3e-30: within the tests' 1e-13 relative
    tolerance for every result >= 3e-17, and far below the ~1e-11 to which
    the log-factorial table rounds the weights at n = 10^4.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"exact enumeration requires -1 < rho < 1, "
                         f"got rho={rho}")
    if not (is_integer(n) and 1 <= n <= 10_000):
        raise ValueError(f"exact enumeration requires an integer "
                         f"1 <= n <= 10000, got n={n!r}")
    lf, p_a = _squarev_weights(rho, n)
    rejects = rejection_rule(t, rho, SQUAREV.sigma(rho), n, alpha)
    corner = bool(rejects(np.zeros(1))[0])
    # l_a = ln(2 (n + 1) P(a) / D) > ln 2 is the a-window P(a) > D/(n + 1)
    a = np.flatnonzero(p_a)
    ell = np.log(2.0 * (n + 1) * p_a[a]) - math.log(_WINDOW_MASS)
    a, ell = a[ell > math.log(2.0)], ell[ell > math.log(2.0)]
    per_block = max(1, _ROWS_PER_BLOCK // (n + 1))
    tally = np.zeros(3, np.int64)
    terms = [_rejected_mass(n, a[i:i + per_block], ell[i:i + per_block], p_a,
                            lf, rejects, corner, tally)
             for i in range(0, a.size, per_block)]
    _log.debug("squarev_exact_rejection at rho=%r, n=%d, alpha=%r: %d rows "
               "weighed, %d switch rows, %d bisection rounds", rho, n, alpha,
               *tally.tolist())
    return min(1.0, math.fsum(terms))


def _pmf(lf: np.ndarray, m, k, log_p: float, log_q: float) -> np.ndarray:
    """Bin(m, p) at k (arrays), from log p, log q = log(1 - p) and the table
    lf of log k!."""
    return np.exp(lf[m] - lf[k] - lf[m - k] + k * log_p + (m - k) * log_q)


def _rejected_mass(n: int, a: np.ndarray, ell: np.ndarray, p_a: np.ndarray,
                   lf: np.ndarray, rejects: Callable[[np.ndarray], np.ndarray],
                   corner: bool, tally: np.ndarray) -> float:
    """Sum of P(a) Bin(a, 1/2)(u) times the rejected Bin(m, 1/2) mass of the
    row, over the rows (a, u) of the given a inside the oracle's u- and
    level windows of depth ell = l_a (ell = n keeps every u and level);
    corner is whether R = 0 rejects.  The rows weighed, the switch rows and
    the bisection rounds are added to tally."""
    half = math.log(0.5)
    m = n - a

    def lowest(k):  # lowest count of Bin(k, 1/2) kept, of a window about k/2
        return np.ceil(np.clip(k / 2 - np.sqrt(k * ell / 2), 0, k)).astype(int)

    u_lo, low = lowest(a), lowest(m)
    # level j of m holds v = j and v = m - j (one atom where j = m - j); the
    # table's column c is level j_0 + c, and weighs only the row's kept levels
    j_0 = low.min()
    j = np.arange(j_0, m.max() // 2 + 1)
    mm = m[:, None]
    inside = (2 * j <= mm) & (j >= low[:, None])
    jj = np.where(inside, j, 0)
    w = _pmf(lf, mm, jj, half, half)
    w[2 * jj < mm] *= 2.0  # Bin(m, 1/2) weighs v = j and v = m - j alike
    w[~inside] = 0.0
    # outer[:, c] sums the levels below j_0 + c, centre[:, c] those from it on
    outer = np.zeros((m.size, j.size + 1))
    np.cumsum(w, axis=1, out=outer[:, 1:])
    centre = np.zeros_like(outer)
    centre[:, :-1] = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]

    # rows u = u_lo..a//2, each u < a/2 weighed for its mirror a - u too
    rows = a // 2 - u_lo + 1
    row = np.repeat(np.arange(a.size), rows)
    u = np.arange(row.size) - np.repeat(np.cumsum(rows) - rows - u_lo, rows)
    q = p_a[a[row]] * _pmf(lf, a[row], u, half, half)
    q[2 * u < a[row]] *= 2.0
    keep = q > 0.0  # rows of zero weight add exactly nothing
    row, u, q = row[keep], u[keep], q[keep]
    ra, top = a[row], m[row] // 2
    edge = u == 0  # level 0 of row 0, and of its mirror a, is two corners
    first = np.maximum(edge, low[row])  # outermost kept non-degenerate level
    has = first <= top
    p_out = has & rejects(_squarev_r(n, ra, u, np.minimum(first, top)))
    p_in = has & rejects(_squarev_r(n, ra, u, top))

    # levels first..cut-1 answer p_out, levels cut..top answer p_in
    cut = first.copy()
    todo = np.flatnonzero(p_out != p_in)
    lo, hi = first[todo], top[todo]
    tally[:2] += row.size, todo.size
    while todo.size:
        tally[2] += 1
        done = hi - lo <= 1
        cut[todo[done]] = hi[done]
        todo, lo, hi = todo[~done], lo[~done], hi[~done]
        mid = (lo + hi) // 2
        hit = rejects(_squarev_r(n, ra[todo], u[todo], mid)) == p_in[todo]
        lo, hi = np.where(hit, lo, mid), np.where(hit, mid, hi)

    cut, first = cut - j_0, first - j_0  # columns of the level table
    mass = (np.where(p_out, outer[row, cut] - outer[row, first], 0.0)
            + np.where(p_in, centre[row, cut], 0.0))
    if corner and j_0 == 0:  # level 0's weight is 0.0 where it is left out
        mass += np.where(edge, outer[row, 1], 0.0)
    return float(np.sum(q * mass))
