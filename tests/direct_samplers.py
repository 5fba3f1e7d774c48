"""Per-pair samplers of the two models and Pearson's R of a list of pairs,
kept as oracles for the sufficient-statistic R samplers
(`DependenceModel.sample_r`) and for moment checks."""

import math

import numpy as np

from corrtrans.pearson import r_from_sums

# cell order: (1,1), (1,-1), (-1,1), (-1,-1)
_SQUAREV_Y = np.array([1.0, 1.0, -1.0, -1.0])
_SQUAREV_Z = np.array([1.0, -1.0, 1.0, -1.0])


def sample_bvn(rho: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n pairs (Y, Z) with Z = rho Y + sqrt(1 - rho^2) Y1; shape (n, 2)."""
    y = rng.standard_normal(n)
    y1 = rng.standard_normal(n)
    z = rho * y + math.sqrt(1.0 - rho * rho) * y1
    return np.column_stack([y, z])


def sample_squarev(rho: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n pairs from the vertex law via inverse-cdf on one uniform per pair."""
    p_same = (1.0 + rho) / 4.0
    p_diff = (1.0 - rho) / 4.0
    cum = np.cumsum([p_same, p_diff, p_diff, p_same])
    cells = np.searchsorted(cum, rng.random(n), side="right")
    cells = np.minimum(cells, 3)
    return np.column_stack([_SQUAREV_Y[cells], _SQUAREV_Z[cells]])


def sample_squarev_via_bvn(rho: float, n: int, rng: np.random.Generator
                           ) -> np.ndarray:
    """Alternate path: signs of a BVN pair with theta = cos(pi (1 - rho) / 2)."""
    theta = math.cos(math.pi * (1.0 - rho) / 2.0)
    uv = sample_bvn(theta, n, rng)
    return np.where(uv >= 0.0, 1.0, -1.0)


def pearson_r(samples) -> float:
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


def r_from_sums_reference(n, sy, sz, syy, szz, syz):
    """`pearson.r_from_sums` as a chain of fresh arrays, the form it had
    before it worked in place."""
    my = sy / n
    mz = sz / n
    vy = syy / n - my * my
    vz = szz / n - mz * mz
    cov = syz / n - my * mz
    denom2 = np.maximum(vy, 0.0) * np.maximum(vz, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(denom2 > 0.0, cov / np.sqrt(denom2), 0.0)
    return np.clip(r, -1.0, 1.0)


def bvn_sample_r_reference(rho: float, rows: int, n: int,
                           rng: np.random.Generator) -> np.ndarray:
    """The BVN Bartlett sampler of `models` written out with fresh arrays;
    it must draw the same R bit for bit."""
    c1sq = 2.0 * rng.standard_gamma((n - 1) / 2.0, rows)
    c2sq = 2.0 * rng.standard_gamma((n - 2) / 2.0, rows)
    g = rng.standard_normal(rows)
    c1 = np.sqrt(c1sq)
    s2 = 1.0 - rho * rho
    x = rho * c1 + math.sqrt(s2) * g
    return r_from_sums_reference(n, 0.0, 0.0, c1sq, x * x + s2 * c2sq, c1 * x)


def squarev_sample_r_reference(rho: float, rows: int, n: int,
                               rng: np.random.Generator) -> np.ndarray:
    """The SquareV sampler of `models` written out: W = YZ is 1 with
    probability (1 + rho)/2 and Y is a fair sign independent of W, so
    a = #{W = 1} is a binomial; u = #{Y = 1, W = 1} and v = #{Y = 1, W = -1};
    R from the four cell counts.  It must draw the same R bit for bit.

    For n <= 512 Y's signs are n random bits, drawn as 64-bit words one word
    index at a time, word w over its min(64, n - 64w) bits: Y_i = 1 where bit
    i % 64 of word i // 64 is set, and pairs 0 to a - 1 are the W = 1 ones.
    Above 512, u ~ Bin(a, 1/2) and v ~ Bin(n - a, 1/2)."""
    a = rng.binomial(n, (1.0 + rho) / 2.0, rows)
    if n <= 512:
        words = [rng.integers(0, 2 ** min(64, n - 64 * w) - 1, rows,
                              np.uint64, endpoint=True)
                 for w in range((n + 63) // 64)]
        u = np.zeros(rows, np.int64)
        v = np.zeros(rows, np.int64)
        for i in range(n):
            y_i = ((words[i // 64] >> (i % 64)) & 1).astype(np.int64)
            u += np.where(i < a, y_i, 0)
            v += np.where(i < a, 0, y_i)
    else:
        u = rng.binomial(a, 0.5)
        v = rng.binomial(n - a, 0.5)
    # cells (1, 1), (1, -1), (-1, 1), (-1, -1)
    n11, n1m, nm1, nmm = u, v, n - a - v, a - u
    return r_from_sums_reference(n, n11 + n1m - nm1 - nmm,
                                 n11 - n1m + nm1 - nmm, n, n,
                                 n11 - n1m - nm1 + nmm)
