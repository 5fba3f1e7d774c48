"""Per-pair samplers of the two models, kept as oracles for the sufficient-
statistic R samplers (`DependenceModel.sample_r`) and for moment checks."""

import math

import numpy as np

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

