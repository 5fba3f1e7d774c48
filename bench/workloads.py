"""The four benchmark workloads.

Each workload makes its inputs from the seed, runs one pass of operations
in a closed loop (one caller; each operation starts when the previous one
has returned), and checks every output against an independent reference:
exact rejection probabilities stored in ``reference.json`` for the Monte
Carlo cells and the exact oracle, and the acceptance suite's reference
values and bounds for the rest.

The program is imported from ``src/`` of the checkout this file sits in,
and only through module attributes (``mo.psi_closed(...)``), so the traced
run can wrap the functions the benchmark calls.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import corrtrans  # noqa: E402

if Path(corrtrans.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"corrtrans was imported from {corrtrans.__file__}, "
                      f"not from {SRC}")

from corrtrans import cli  # noqa: E402
from corrtrans import edgeworth as ed  # noqa: E402
from corrtrans import models as mo  # noqa: E402
from corrtrans import montecarlo as mc  # noqa: E402
from corrtrans import pearson as pe  # noqa: E402
from corrtrans import specfun as sf  # noqa: E402

import hostspeed  # noqa: E402
from spans import Tracer, lattice_points  # noqa: E402

KINDS = ("identity", "fisher", "optimal")

# A Monte Carlo row fails when its total rejection count is this unlikely
# under Binomial(N K, p_exact) in either tail (about 5.3 sigma).
BINOMIAL_TAIL_LEVEL = 1e-7
# Stored exact-oracle probabilities are compared to this absolute tolerance.
ORACLE_TOL = 1e-10
# Replicates per worker when the benchmark's own tests run a tiny pass.
TINY_N = 200
# Pairs drawn by one ns-per-replicate probe: one sampling chunk of the
# program, so the probe measures the sampling kernel and not the chunking.
PROBE_PAIRS = 1 << 22
TINY_PROBE_PAIRS = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """One `corrtrans simulate` config, without its seed and paths."""

    model: str
    alphas: tuple[float, ...]
    rhos: tuple[float, ...]
    ns: tuple[int, ...]
    N: int
    K: int

    def cells(self) -> list[tuple[float, float, int]]:
        return [(a, r, n) for a in self.alphas for r in self.rhos
                for n in self.ns]


# Criterion 8's two n = 1000 BVN cells, and SquareV at n = 200, the largest
# n the exact oracle accepts: hundreds to thousands of pairs per replicate.
# At (0.01, 0.5) Fisher and optimal differ by 2.2e-4 in rejection
# probability; N K = 96000 makes the paired row check tell them apart.
MC_LARGE_N = (
    SimConfig("bvn", (0.05,), (0.9,), (1000,), N=6000, K=4),
    SimConfig("bvn", (0.01,), (0.5,), (1000,), N=24000, K=4),
    SimConfig("squarev", (0.05, 0.01), (0.5, 0.9), (200,), N=12000, K=4),
)
# 16 small-n SquareV cells x K = 12 = 192 tasks: fixed per-task cost
# (thresholds) and pool dispatch matter as much as sampling.
MC_SMALL_N = (
    SimConfig("squarev", (0.05, 0.01), (0.0, 0.5, 0.9, 0.99), (10, 20),
              N=4000, K=12),
)

# Criterion 7: (alpha, rho, n, transform, reference eps, reference spread).
CRITERION_7 = (
    (0.05, 0.5, 10, "identity", 0.125, 0.00110),
    (0.05, 0.9, 10, "identity", -1.0, 0.0),
    (0.01, 0.5, 100, "optimal", 0.0887, 0.00237),
    (0.05, 0.9, 100, "identity", -0.258, 0.000722),
)
# Further exact-oracle calls, compared with stored oracle values.
EXACT_EXTRA = tuple((0.05, rho, n, kind) for n in (50, 100)
                    for kind in ("identity", "optimal") for rho in (0.5, 0.9))

# Criterion 5: (model, alpha, competitor, endpoint, reference, tolerance).
CRITERION_5 = (
    ("bvn", 0.05, "identity", "hi", 0.17912, 5e-5),
    ("bvn", 0.01, "identity", "hi", 0.16933, 5e-5),
    ("bvn", 0.05, "fisher", "lo", 0.01000, 5e-5),
    ("bvn", 0.01, "fisher", "lo", 0.00050, 5e-5),
    ("squarev", 0.05, "identity", "hi", 0.11344, 5e-5),
    ("squarev", 0.01, "identity", "hi", 0.096927, 5e-7),
)
FISHER_THRESHOLD_SQUAREV = (0.23975, 5e-5)
# The acceptance suite's rho grid (criteria 1 and 3), in criterion 1's order.
SUITE_RHOS = tuple(sorted(np.linspace(-0.9, 0.9, 19).tolist(), key=abs))
SUITE_RHO_LIMIT = 0.9
CRITERION_1_TOL = 1e-8   # numeric-ODE transform vs closed form
# Two-path Delta vs closed form.  The suite claims this bound on its own rho
# grid, where it is checked; off the grid the finite-difference Hessian can
# exceed it, so queries report the gap (delta_two_path_gap_max) instead.
CRITERION_3_TOL = 1e-6
CRITERION_4_TOL = 1e-8   # Delta of the optimal transform at its own z
# Sample size at which each query evaluates predicted_relative_error.
PREDICTION_N = 1000


def ref_key(alpha: float, rho: float, n: int, kind: str) -> str:
    return f"{alpha!r}|{rho!r}|{n}|{kind}"


def load_reference() -> dict[str, dict[str, float]]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["probabilities"]


def binomial_consistent(count: int, trials: int, p: float) -> bool:
    """True unless `count` lies in a tail of Binomial(trials, p) of
    probability below BINOMIAL_TAIL_LEVEL; p = 0 or 1 demands the exact
    count."""
    if p <= 0.0:
        return count == 0
    if p >= 1.0:
        return count == trials
    log_p, log_q = math.log(p), math.log1p(-p)
    head = math.lgamma(trials + 1.0)

    def pmf(k: int) -> float:
        return math.exp(head - math.lgamma(k + 1.0)
                        - math.lgamma(trials - k + 1.0)
                        + k * log_p + (trials - k) * log_q)

    ks = range(count, trials + 1) if count >= trials * p \
        else range(count, -1, -1)
    tail = 0.0
    for k in ks:
        term = pmf(k)
        tail += term
        if tail >= BINOMIAL_TAIL_LEVEL or term <= 1e-17 * tail:
            break
    return tail >= BINOMIAL_TAIL_LEVEL


@dataclass
class PassResult:
    """What one pass did: wall time, per-operation latencies, work units
    and how many operations were attempted and failed."""

    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    units: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)


class Workload:
    name = ""
    unit = ""  # what work_per_s counts on this workload
    # Whether pass times are scaled by the host speed probe (hostspeed.py).
    # The probe runs in the benchmark process and tracks interpreter-bound
    # work; it does not track numpy sampling spread over pool workers.
    host_scaled = True
    # Set while the measured passes run; scales each operation's time.
    clock: hostspeed.Clock | None = None

    def run_pass(self, width: int, tracer: Tracer | None = None
                 ) -> PassResult:
        raise NotImplementedError

    def _call(self, tracer: Tracer | None, op: str, fn, *args):
        """Run one operation; returns (value, seconds, error message).
        With a clock set, the seconds are scaled to the reference host."""
        start = time.perf_counter()
        value, err = None, None
        try:
            if tracer is None:
                value = fn(*args)
            else:
                with tracer.op(op):
                    value = fn(*args)
        except Exception as exc:  # an operation that raises counts as failed
            err = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if self.clock is not None:
            elapsed *= self.clock.lap()
        return value, elapsed, err

    def probes(self, tiny: bool = False) -> dict[str, float]:
        """Per-layer probe metrics measured outside the traced pass."""
        return {}

    def pass_gauges(self) -> dict[str, float]:
        """Per-layer values the last pass computed from its outputs."""
        return {}


class MonteCarlo(Workload):
    """`corrtrans simulate` driven in-process through `cli.main`."""

    unit = "replicates"

    def __init__(self, name: str, configs: tuple[SimConfig, ...], seed: int,
                 tiny: bool, scratch: Path, host_scaled: bool) -> None:
        self.name = name
        self.host_scaled = host_scaled
        self.configs = [replace(c, N=TINY_N) if tiny else c for c in configs]
        self.reference = load_reference()
        self.seed = seed
        rng = random.Random(f"{name}:{seed}")
        self.jobs = []
        for i, cfg in enumerate(self.configs):
            out = scratch / f"{name}-{i}.csv"
            path = scratch / f"{name}-{i}.json"
            path.write_text(json.dumps({
                "model": cfg.model, "alphas": list(cfg.alphas),
                "rhos": list(cfg.rhos), "ns": list(cfg.ns),
                "N": cfg.N, "K": cfg.K, "master_seed": rng.getrandbits(63),
                "transforms": list(KINDS), "output_path": str(out),
                "format": "csv",
            }), encoding="utf-8")
            self.jobs.append((cfg, path, out))
        self.width1_csv: list[bytes | None] = [None] * len(self.jobs)
        self._row_failures: dict[bytes, list[str]] = {}

    def run_pass(self, width: int, tracer: Tracer | None = None
                 ) -> PassResult:
        res = PassResult()
        start = time.perf_counter()
        for i, (cfg, path, out) in enumerate(self.jobs):
            out.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                code, elapsed, err = self._call(
                    tracer, "simulate", cli.main,
                    ["simulate", "--config", str(path)])
            res.latencies_s.append(elapsed)
            rows = len(cfg.cells()) * len(KINDS)
            res.attempted += rows
            res.units += len(cfg.cells()) * cfg.K * cfg.N
            if code != 0:
                res.fail(rows, f"{path.name}: exit {code} {err or ''}")
                continue
            data = out.read_bytes()
            if width == 1 and self.width1_csv[i] is None:
                self.width1_csv[i] = data
            if self.width1_csv[i] is not None and data != self.width1_csv[i]:
                res.fail(rows, f"{path.name}: CSV at width {width} differs "
                               "from width 1")
                continue
            bad = self._check_rows(cfg, data)
            for message in bad[:rows]:
                res.fail(1, message)
        res.wall_s = time.perf_counter() - start
        return res

    def _check_rows(self, cfg: SimConfig, data: bytes) -> list[str]:
        if data not in self._row_failures:
            self._row_failures[data] = self._row_problems(cfg, data)
        return self._row_failures[data]

    def _row_problems(self, cfg: SimConfig, data: bytes) -> list[str]:
        """One message per failed row.

        Each row's rejection count is checked against Binomial(N K, p).
        Every transform is counted on the same draws of R and rejects R
        above its own threshold, so the rejection sets of a cell are nested:
        the count difference of two transforms, the draws between their
        thresholds, is checked against Binomial(N K, |p_a - p_b|), which
        tells the transforms apart far more sharply.  A failed pair fails
        both rows.
        """
        probs = self.reference[cfg.model]
        trials = cfg.N * cfg.K
        expected = {(kind, a, r, n) for a, r, n in cfg.cells()
                    for kind in KINDS}
        counts: dict[tuple, int] = {}
        bad: dict[tuple, str] = {}
        unexpected = []
        for row in csv.DictReader(io.StringIO(data.decode("utf-8"))):
            key = (row["transform"], float(row["alpha"]), float(row["rho"]),
                   int(row["n"]))
            if key not in expected:
                unexpected.append(f"unexpected or repeated row {key}")
                continue
            expected.discard(key)
            eps, hat = float(row["eps_mean"]), float(row["alpha_hat_mean"])
            if not (math.isfinite(eps) and math.isfinite(hat)):
                bad[key] = f"{cfg.model} {key}: non-finite eps {eps}"
                continue
            count = counts[key] = round(hat * trials)
            p = probs[ref_key(key[1], key[2], key[3], key[0])]
            if not binomial_consistent(count, trials, p):
                bad[key] = (f"{cfg.model} {key}: {count} of {trials} "
                            f"rejections, exact probability {p:.6g}")
        for key in expected:
            bad[key] = f"{cfg.model} {key}: row missing"
        for cell in cfg.cells():
            for a, b in itertools.combinations(KINDS, 2):
                ka, kb = (a,) + cell, (b,) + cell
                if ka not in counts or kb not in counts:
                    continue
                pa, pb = (probs[ref_key(*cell, k)] for k in (a, b))
                if pa < pb:
                    ka, kb, pa, pb = kb, ka, pb, pa
                diff = counts[ka] - counts[kb]
                if diff < 0 or not binomial_consistent(diff, trials, pa - pb):
                    message = (f"{cfg.model} {cell}: {ka[0]} - {kb[0]} = "
                               f"{diff} of {trials} rejections, exact "
                               f"probability {pa - pb:.6g}")
                    bad.setdefault(ka, message)
                    bad.setdefault(kb, message)
        return unexpected + list(bad.values())

    def probes(self, tiny: bool = False) -> dict[str, float]:
        """ns per replicate of the sampling kernel at the workload's n, and
        the fixed per-(cell, transform) cost, both by timing run_cell."""
        rng = np.random.default_rng(self.seed)
        identity = mo.transform_for(mo.BVN, "identity")
        budget = TINY_PROBE_PAIRS if tiny else PROBE_PAIRS
        per_model: dict[str, list[float]] = {"bvn": [], "squarev": []}
        points = sorted({(cfg.model, n, cfg.rhos[0]) for cfg in self.configs
                         for n in cfg.ns})
        for model_name, n, rho in points:
            model = mo.get_model(model_name)
            big = max(2, budget // n)
            samples = []
            for _ in range(3):
                t0 = time.perf_counter()
                mc.run_cell(model, identity, 0.05, rho, n, 1, rng)
                t1 = time.perf_counter()
                mc.run_cell(model, identity, 0.05, rho, n, big, rng)
                t2 = time.perf_counter()
                samples.append(((t2 - t1) - (t1 - t0)) / (big - 1) * 1e9)
            per_model[model_name].append(statistics.median(samples))
        fixed_s = 0.0
        for cfg in self.configs:
            model = mo.get_model(cfg.model)
            for alpha, rho, n in cfg.cells():
                z = sf.normal_quantile(1.0 - alpha)
                for kind in KINDS:
                    t = mo.transform_for(model, kind, z)
                    t0 = time.perf_counter()
                    mc.run_cell(model, t, alpha, rho, n, 1, rng)
                    fixed_s += (time.perf_counter() - t0) * cfg.K
        out = {f"montecarlo.ns_per_replicate.{m}":
               statistics.fmean(v) if v else 0.0 for m, v in per_model.items()}
        out["montecarlo.cell_fixed_ms"] = fixed_s * 1e3
        return out


@dataclass(frozen=True)
class ExactCall:
    alpha: float
    rho: float
    n: int
    kind: str
    transform: pe.Transform
    want: float       # reference: eps for criterion 7 rows, else probability
    tol: float
    is_eps: bool


class ExactSquareV(Workload):
    """`squarev_exact_rejection`: pure-Python enumeration, no sampling."""

    name = "exact_squarev"
    unit = "lattice_points"

    def __init__(self, seed: int, tiny: bool) -> None:
        probs = load_reference()["squarev"]
        calls = []
        for alpha, rho, n, kind, eps, spread in CRITERION_7:
            if tiny and n > 10:
                continue
            tol = 5 * spread if spread > 0 else 5e-13
            calls.append(ExactCall(alpha, rho, n, kind,
                                   self._transform(kind, alpha), eps, tol,
                                   True))
        for alpha, rho, n, kind in EXACT_EXTRA:
            if tiny and n > 50:
                continue
            calls.append(ExactCall(alpha, rho, n, kind,
                                   self._transform(kind, alpha),
                                   probs[ref_key(alpha, rho, n, kind)],
                                   ORACLE_TOL, False))
        # The seed only orders the calls: the oracle is deterministic.
        random.Random(f"{self.name}:{seed}").shuffle(calls)
        self.calls = calls

    @staticmethod
    def _transform(kind: str, alpha: float) -> pe.Transform:
        return mo.transform_for(mo.SQUAREV, kind,
                                sf.normal_quantile(1.0 - alpha))

    def run_pass(self, width: int, tracer: Tracer | None = None
                 ) -> PassResult:
        res = PassResult()
        start = time.perf_counter()
        for c in self.calls:
            t = c.transform
            if tracer is not None:
                t = replace(t, psi=_counted(t.psi, tracer, "models.psi_evals"))
            prob, elapsed, err = self._call(tracer, "exact",
                                            mo.squarev_exact_rejection,
                                            c.rho, c.n, t, c.alpha)
            res.latencies_s.append(elapsed)
            res.attempted += 1
            res.units += lattice_points(c.n)
            label = f"exact({c.alpha}, {c.rho}, {c.n}, {c.kind})"
            if err is not None or not math.isfinite(prob):
                res.fail(1, f"{label}: {err or prob}")
                continue
            got = prob / c.alpha - 1.0 if c.is_eps else prob
            if abs(got - c.want) > c.tol:
                res.fail(1, f"{label}: {got!r} vs reference {c.want!r}")
        res.wall_s = time.perf_counter() - start
        return res


def _counted(fn, tracer: Tracer, name: str):
    def counted(*args):
        tracer.counts[name] += 1
        return fn(*args)
    return counted


class Numerics(Workload):
    """Analysis queries (what `corrtrans transform` and `corrtrans delta`
    compute, plus the two-path Delta and the eps prediction) and one-off
    numeric-transform, two-path-grid and dominance-range calls."""

    name = "numerics"
    unit = "operations"

    def __init__(self, seed: int, tiny: bool) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        # 50 rhos (5 when tiny), one in ten at |rho| > 0.975.
        groups = 1 if tiny else 5
        rhos = []
        for _ in range(groups):
            rhos.extend(rng.uniform(-SUITE_RHO_LIMIT, SUITE_RHO_LIMIT)
                        for _ in range(9 if not tiny else 4))
            rhos.append(rng.choice((-1.0, 1.0)) * rng.uniform(0.975, 0.995))
        self.queries = [(model, alpha, rho) for model in (mo.BVN, mo.SQUAREV)
                        for alpha in (0.05, 0.01) for rho in rhos]
        self.zs = (1.0, sf.normal_quantile(0.95), sf.normal_quantile(0.99))
        self.numeric = [(model, z, [mo.psi_closed(model, z, r)
                                    for r in SUITE_RHOS])
                        for model in (mo.BVN, mo.SQUAREV) for z in self.zs]
        self.grid_models = [mo.BVN, mo.SQUAREV]
        self.dominance = list(CRITERION_5)
        if tiny:
            self.numeric = self.numeric[:1]
            self.grid_models = self.grid_models[:1]
            self.dominance = self.dominance[:1]
        self.gauges = {"pearson.delta_two_path_gap_max": 0.0,
                       "queries_over_criterion_3_tol": 0}

    def run_pass(self, width: int, tracer: Tracer | None = None
                 ) -> PassResult:
        res = PassResult()
        gaps = []
        start = time.perf_counter()
        for model, alpha, rho in self.queries:
            out, elapsed, err = self._call(tracer, "query", _query, model,
                                           alpha, rho)
            res.latencies_s.append(elapsed)
            res.attempted += 1
            label = f"query({model.name}, {alpha}, {rho!r})"
            if err is not None:
                res.fail(1, f"{label}: {err}")
                continue
            values, gap, delta_optimal = out
            gaps.append(gap)
            if not all(math.isfinite(v) for v in values):
                res.fail(1, f"{label}: non-finite value")
            elif (abs(rho) <= SUITE_RHO_LIMIT
                  and abs(delta_optimal) > CRITERION_4_TOL):
                res.fail(1, f"{label}: optimal Delta {delta_optimal:.3g}")
        for model, z, closed in self.numeric:
            worst, _, err = self._call(tracer, "numeric_transform",
                                       _numeric_transform_error, model, z,
                                       closed)
            res.attempted += 1
            if err is not None or not worst <= CRITERION_1_TOL:
                res.fail(1, f"numeric transform {model.name} z={z:.4f}: "
                            f"{err or worst}")
        for model in self.grid_models:
            worst, _, err = self._call(tracer, "two_path_grid",
                                       _two_path_grid_error, model, self.zs)
            res.attempted += 1
            if err is not None or not worst <= CRITERION_3_TOL:
                res.fail(1, f"two-path Delta on the suite grid, {model.name}:"
                            f" {err or worst}")
        for name, alpha, competitor, end, want, tol in self.dominance:
            model = mo.get_model(name)
            interval, _, err = self._call(tracer, "dominance_range",
                                          mo.dominance_range, model, alpha,
                                          competitor)
            res.attempted += 1
            got = getattr(interval, end) if err is None else math.nan
            if not abs(got - want) <= tol:
                res.fail(1, f"dominance_range({name}, {alpha}, {competitor})"
                            f".{end} = {err or got} vs {want}")
        got, _, err = self._call(tracer, "fisher_threshold",
                                 mo.fisher_dominance_threshold, mo.SQUAREV)
        res.attempted += 1
        want, tol = FISHER_THRESHOLD_SQUAREV
        if err is not None or not abs(got - want) <= tol:
            res.fail(1, f"fisher_dominance_threshold = {err or got} vs {want}")
        res.wall_s = time.perf_counter() - start
        res.units = res.attempted
        self.gauges = {
            "pearson.delta_two_path_gap_max": max(gaps, default=0.0),
            "queries_over_criterion_3_tol": sum(g > CRITERION_3_TOL
                                                for g in gaps),
        }
        return res

    def pass_gauges(self) -> dict[str, float]:
        return dict(self.gauges)


def _query(model: mo.DependenceModel, alpha: float, rho: float
           ) -> tuple[list[float], float, float]:
    """One analysis query; returns (all values, two-path gap, optimal
    Delta at its own critical value)."""
    z = sf.normal_quantile(1.0 - alpha)
    psi = mo.psi_closed(model, z, rho)
    dpsi = (1.0 - rho * rho) ** mo.optimal_exponent(model, z)
    values = [psi, dpsi]
    closed = {}
    delta_optimal = math.nan
    for kind in KINDS:
        t = mo.transform_for(model, kind, z)
        closed[kind] = mo.delta_closed(model, kind, z, rho, z_ref=z)
        generic = pe.delta_psi(model.moments, t, rho, z)
        if kind == "optimal":
            delta_optimal = generic
        values += [closed[kind], generic,
                   mc.predicted_relative_error(model, kind, alpha, rho,
                                               PREDICTION_N)]
    two_path = ed.delta(pe.assemble_statistic_model(model.moments, rho), z)
    values.append(two_path)
    return values, abs(two_path - closed["identity"]), delta_optimal


def _numeric_transform_error(model: mo.DependenceModel, z: float,
                             closed: list[float]) -> float:
    t = pe.optimal_transform_numeric(model.moments, z)
    return max(abs(t.psi(r) - c) for r, c in zip(SUITE_RHOS, closed))


def _two_path_grid_error(model: mo.DependenceModel,
                         zs: tuple[float, ...]) -> float:
    """Criterion 3: worst two-path Delta gap on the suite's grid."""
    worst = 0.0
    for rho in SUITE_RHOS:
        em = pe.assemble_statistic_model(model.moments, rho)
        for z in zs:
            worst = max(worst, abs(ed.delta(em, z)
                                   - mo.delta_closed(model, "identity", z,
                                                     rho)))
    return worst


WORKLOADS = ("mc_large_n", "mc_small_n", "exact_squarev", "numerics")


def make(name: str, seed: int, tiny: bool, scratch: Path) -> Workload:
    """Build a workload's inputs from the seed; `tiny` shrinks it for the
    benchmark's own tests."""
    if name == "mc_large_n":
        return MonteCarlo(name, MC_LARGE_N, seed, tiny, scratch,
                          host_scaled=False)
    if name == "mc_small_n":
        return MonteCarlo(name, MC_SMALL_N, seed, tiny, scratch,
                          host_scaled=True)
    if name == "exact_squarev":
        return ExactSquareV(seed, tiny)
    if name == "numerics":
        return Numerics(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")
