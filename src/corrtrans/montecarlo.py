"""Seeded parallel Monte Carlo grid runs for rejection-rate calibration.

The draws of R depend only on (rho, n), so a task is one (rho, n, worker):
worker k of draw index d (the position of (rho, n) in product(rhos, ns))
draws from Philox keyed by numpy's SeedSequence(master_seed, spawn_key=(d,
k)), which hashes the whole seed, so results are bit-identical regardless
of scheduling or thread count.  Every (alpha, transform) rule of that
(rho, n) is counted on the same draws, as one would do on a shared
simulation budget; the alpha cells of one (rho, n) are therefore
correlated with each other, which leaves each cell's eps_mean and eps_se
as they are.  A worker draws its N values of R in one call to the model's
`sample_r`, whose cost per sample is bounded whatever n is (a few draws:
for SquareV at most 8 words of random bits or two binomials after the
first), so a task holds O(N) memory; tasks run on threads of one process
(numpy draws without the GIL), so a run holds about width x that at a
time.  Draws are counted by `pearson.rejection_rule`, as the exact SquareV
oracle is.

Where the model's R has at most N atoms at n (`DependenceModel.lattice`),
each rule is decided once per atom instead, before the tasks start, and a
task draws how many of its N samples fall on each atom as one
Multinomial(N, pmf) vector and sums it over each rule's rejected atoms.
Each count keeps its row-path law, Binomial(N, p), from other draws, and
the task's time and memory are O(atoms) whatever N is.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from . import models as _models
from .pearson import Transform, is_integer, rejection_rule
from .specfun import normal_quantile

__all__ = [
    "ExperimentGrid",
    "CellResult",
    "substream",
    "run_cell",
    "aggregate",
    "predicted_relative_error",
    "worker_pool_width",
    "run_grid",
]

THREADS_ENV = "CORRTRANS_THREADS"

_log = logging.getLogger(__name__)


def substream(master_seed: int, cell_index: int, worker_index: int
              ) -> np.random.Generator:
    """Counter-based generator for one (cell_index, worker_index) key, where
    `run_grid`'s cell_index counts product(rhos, ns); master_seed >= 0."""
    seq = np.random.SeedSequence(master_seed,
                                 spawn_key=(cell_index, worker_index))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class ExperimentGrid:
    """Full simulation request, validated here and nowhere else (the
    simulate config is read into it); table-scale runs used the defaults
    noted."""

    model: str                       # "bvn" or "squarev"
    alphas: tuple[float, ...]        # table scale: (0.01, 0.05)
    rhos: tuple[float, ...]          # table scale: (0, 0.1, 0.5, 0.9)
    ns: tuple[int, ...]              # table scale: (10, 100, 1000, 10000)
    N: int                           # samples per cell per worker; 10**6
    K: int = 12                      # workers per cell
    master_seed: int = 0
    transforms: tuple[str, ...] = _models.TRANSFORM_KINDS

    def __post_init__(self) -> None:
        if not all(map(is_integer, (self.N, self.K, self.master_seed,
                                    *self.ns))):
            raise ValueError("N, K, master_seed and every n must be integers")
        # a repeated value would sample its cells twice and keep one result
        for values in (self.alphas, self.rhos, self.ns, self.transforms):
            if not values or len(set(values)) < len(values):
                raise ValueError(f"grid values must be distinct and "
                                 f"non-empty, got {values!r}")
        if self.N < 1 or self.K < 1 or self.master_seed < 0:
            raise ValueError("N and K must be >= 1, master_seed >= 0")
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


def run_cell(model: _models.DependenceModel, transform: Transform,
             alpha: float, rho: float, n: int, N: int,
             rng: np.random.Generator) -> float:
    """Rejection rate of tau > z_alpha over N samples of size n."""
    if not (is_integer(n) and is_integer(N) and n >= 2 and N >= 1):
        raise ValueError(f"n and N must be integers, n >= 2 and N >= 1, "
                         f"got n={n!r}, N={N!r}")
    rejects = rejection_rule(transform, rho, model.sigma(rho), n, alpha)
    return _counter(model, [rejects], rho, n, N)(rng)[0] / N


def _counter(model: _models.DependenceModel,
             rules: list[Callable[[np.ndarray], np.ndarray]],
             rho: float, n: int, N: int
             ) -> Callable[[np.random.Generator], list[int]]:
    """The task of one (rho, n): draw N values of R from a generator and
    return how many of them each rule rejects.  Where the model's R has at
    most N atoms, their (R, pmf) is built here, each rule is decided once
    per atom, and a task draws the N draws' histogram over the atoms as one
    multinomial; otherwise it decides every draw."""
    lattice = model.lattice
    atoms = None if lattice is None else lattice.size(n)
    on_lattice = atoms is not None and atoms <= N
    _log.debug("Monte Carlo at rho=%r, n=%d: %s path, atoms=%s, draws=%d per "
               "task", rho, n, "lattice" if on_lattice else "row", atoms, N)
    if not on_lattice:
        def count(rng: np.random.Generator) -> list[int]:
            r = model.sample_r(rho, N, n, rng)
            return [int(np.count_nonzero(rejects(r))) for rejects in rules]
        return count
    r, pmf = lattice.atoms(rho, n)
    rejected = np.array([rejects(r) for rejects in rules])  # rules x atoms

    def count_atoms(rng: np.random.Generator) -> list[int]:
        # einsum casts rejected a buffer at a time; @ would copy all of it
        return np.einsum("ij,j->i", rejected, rng.multinomial(N, pmf)).tolist()
    return count_atoms


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
            raise ValueError(
                f"{THREADS_ENV} must be an integer, got {env!r}") from None
    if tasks is not None:
        width = min(width, max(1, tasks))
    return width


def run_grid(grid: ExperimentGrid
             ) -> dict[tuple[str, float, float, int], CellResult]:
    """Run every (rho, n, worker) substream and count every (alpha,
    transform) rule of that (rho, n) on its draws; returns results keyed by
    (transform, alpha, rho, n).  Output is independent of scheduling.  Each
    cell's rejection rules are built, and on a lattice decided per atom,
    once, before any sampling starts; a lattice's (R, pmf) is built once per
    (rho, n)."""
    model = _models.get_model(grid.model)
    draws = list(product(grid.rhos, grid.ns))
    levels = list(product(grid.alphas, grid.transforms))
    transforms = [_models.transform_for(model, kind,
                                        normal_quantile(1.0 - alpha))
                  for alpha, kind in levels]
    counters = []
    for rho, n in draws:
        sigma = model.sigma(rho)
        rules = [rejection_rule(t, rho, sigma, n, alpha)
                 for (alpha, _), t in zip(levels, transforms)]
        counters.append(_counter(model, rules, rho, n, grid.N))
    tasks = list(product(range(len(draws)), range(grid.K)))

    def task_counts(task: tuple[int, int]) -> list[int]:
        d, k = task
        return counters[d](substream(grid.master_seed, d, k))

    # map yields in task order and, on a failed task, cancels those not begun
    with ThreadPoolExecutor(max_workers=worker_pool_width(len(tasks))) as pool:
        counts = list(pool.map(task_counts, tasks))
    results: dict[tuple[str, float, float, int], CellResult] = {}
    for d, (rho, n) in enumerate(draws):
        for ri, (alpha, kind) in enumerate(levels):
            hats = tuple(counts[d * grid.K + k][ri] / grid.N
                         for k in range(grid.K))
            results[(kind, alpha, rho, n)] = aggregate(hats, alpha)
    return results
