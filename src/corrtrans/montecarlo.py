"""Seeded parallel Monte Carlo grid runs for rejection-rate calibration.

Each grid cell (alpha, rho, n) is simulated by K workers; worker k of cell c
uses a Philox substream keyed by an avalanche mix of (master_seed, c, k), so
results are bit-identical regardless of scheduling or thread count.  All
transforms requested for a cell are evaluated on the same samples, as one
would do on a shared simulation budget.  A worker draws its N values of R in
one call to the model's `sample_r`, which costs O(1) per sample whatever n
is, so a task holds O(N) memory; tasks run on threads of one process (numpy
draws without the GIL), so a run holds about width x that at a time.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import models as _models
from .pearson import Transform, rejection_threshold
from .specfun import normal_quantile

__all__ = [
    "ConfigError",
    "ExperimentGrid",
    "CellResult",
    "mix64",
    "substream",
    "run_cell",
    "aggregate",
    "predicted_relative_error",
    "worker_pool_width",
    "run_grid",
]

THREADS_ENV = "CORRTRANS_THREADS"


def mix64(*parts: int) -> int:
    """Avalanche-mix a sequence of integers into one 64-bit seed."""
    h = 0x9E3779B97F4A7C15
    for part in parts:
        h ^= part & 0xFFFFFFFFFFFFFFFF
        # splitmix64 finalizer
        h = (h + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
    return h


def substream(master_seed: int, cell_index: int, worker_index: int
              ) -> np.random.Generator:
    """Counter-based generator for one (cell, worker) pair."""
    key = mix64(master_seed, cell_index, worker_index)
    return np.random.Generator(np.random.Philox(key=key))


class ConfigError(ValueError):
    """The run's environment is malformed; raised before any sampling."""


@dataclass(frozen=True)
class ExperimentGrid:
    """Full simulation request; table-scale runs used the defaults noted."""

    model: str                       # "bvn" or "squarev"
    alphas: tuple[float, ...]        # table scale: (0.01, 0.05)
    rhos: tuple[float, ...]          # table scale: (0, 0.1, 0.5, 0.9)
    ns: tuple[int, ...]              # table scale: (10, 100, 1000, 10000)
    N: int                           # samples per cell per worker; 10**6
    K: int = 12                      # workers per cell
    master_seed: int = 0
    transforms: tuple[str, ...] = _models.TRANSFORM_KINDS

    def __post_init__(self) -> None:
        if self.N < 1 or self.K < 1:
            raise ValueError("N and K must be >= 1")
        if any(not 0.0 < a < 0.5 for a in self.alphas):
            raise ValueError("all alphas must lie in (0, 0.5)")
        if any(not -1.0 < rho < 1.0 for rho in self.rhos):
            raise ValueError("all rhos must lie in (-1, 1)")
        if any(n < 2 for n in self.ns):
            raise ValueError("all sample sizes must be >= 2")
        _models.get_model(self.model)
        for kind in self.transforms:
            if kind not in _models.TRANSFORM_KINDS:
                raise ValueError(f"unknown transform kind {kind!r}")

    def cells(self) -> list[tuple[float, float, int]]:
        return list(product(self.alphas, self.rhos, self.ns))


@dataclass(frozen=True)
class CellResult:
    """Aggregated rejection-rate estimates for one (transform, cell)."""

    alpha_hats: tuple[float, ...]    # one per worker
    eps_mean: float                  # mean of alpha_hat/alpha - 1
    eps_sd: float                    # sample sd over workers (nan if K = 1)
    eps_se: float                    # eps_sd / sqrt(K)


def _cell_counts(model: _models.DependenceModel, thresholds: list[float],
                 rho: float, n: int, N: int, rng: np.random.Generator
                 ) -> list[int]:
    """Rejection counts for each threshold over N samples of size n."""
    r = model.sample_r(rho, N, n, rng)
    return [int(np.count_nonzero(r > cut)) for cut in thresholds]


def run_cell(model: _models.DependenceModel, transform: Transform,
             alpha: float, rho: float, n: int, N: int,
             rng: np.random.Generator) -> float:
    """Rejection rate of tau > z_alpha over N samples of size n."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    sigma = model.sigma(rho)
    cut = rejection_threshold(transform, rho, sigma, n, alpha)
    counts = _cell_counts(model, [cut], rho, n, N, rng)
    return counts[0] / N


def aggregate(alpha_hats: tuple[float, ...], alpha: float) -> CellResult:
    """Per-worker relative errors, their mean, sample sd, and standard error."""
    if len(alpha_hats) == 0:
        raise ValueError("need at least one worker estimate")
    eps = [a / alpha - 1.0 for a in alpha_hats]
    k = len(eps)
    mean = math.fsum(eps) / k
    if k == 1:
        return CellResult(tuple(alpha_hats), mean, math.nan, math.nan)
    var = math.fsum((e - mean) ** 2 for e in eps) / (k - 1)
    sd = math.sqrt(var)
    return CellResult(tuple(alpha_hats), mean, sd, sd / math.sqrt(k))


def predicted_relative_error(model: _models.DependenceModel, kind: str,
                             alpha: float, rho: float, n: int) -> float:
    """Second-order prediction -Delta(z_alpha)/(alpha sqrt(n)) of eps."""
    z_alpha = normal_quantile(1.0 - alpha)
    d = _models.delta_closed(model, kind, z_alpha, rho, z_ref=z_alpha)
    return -d / (alpha * math.sqrt(n))


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def worker_pool_width(tasks: int | None = None) -> int:
    """Worker threads for a run: CORRTRANS_THREADS (default: all usable
    CPUs), clamped to the usable CPUs and to the number of tasks."""
    width = _usable_cpus()
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            width = min(width, max(1, int(env)))
        except ValueError:
            raise ConfigError(
                f"{THREADS_ENV} must be an integer, got {env!r}") from None
    if tasks is not None:
        width = min(width, max(1, tasks))
    return width


def run_grid(grid: ExperimentGrid
             ) -> dict[tuple[str, float, float, int], CellResult]:
    """Run every (cell, worker) substream; returns results keyed by
    (transform, alpha, rho, n).  Output is independent of scheduling.  Each
    cell's thresholds are computed once, before any sampling starts."""
    model = _models.get_model(grid.model)
    cells = grid.cells()
    tasks = []
    for ci, (alpha, rho, n) in enumerate(cells):
        z_alpha = normal_quantile(1.0 - alpha)
        sigma = model.sigma(rho)
        cuts = [rejection_threshold(_models.transform_for(model, kind, z_alpha),
                                    rho, sigma, n, alpha)
                for kind in grid.transforms]
        tasks.extend((ci, k, rho, n, cuts) for k in range(grid.K))

    def task_counts(task: tuple) -> list[int]:
        ci, k, rho, n, cuts = task
        return _cell_counts(model, cuts, rho, n, grid.N,
                            substream(grid.master_seed, ci, k))

    # map yields in task order and, on a failed task, cancels those not begun
    with ThreadPoolExecutor(max_workers=worker_pool_width(len(tasks))) as pool:
        counts = list(pool.map(task_counts, tasks))
    results: dict[tuple[str, float, float, int], CellResult] = {}
    for ci, (alpha, rho, n) in enumerate(cells):
        for ti, kind in enumerate(grid.transforms):
            hats = tuple(counts[ci * grid.K + k][ti] / grid.N
                         for k in range(grid.K))
            results[(kind, alpha, rho, n)] = aggregate(hats, alpha)
    return results
