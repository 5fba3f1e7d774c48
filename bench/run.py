"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times ``import corrtrans`` in fresh interpreters, runs one
warm-up pass at pool width 1 (its CSV output is the width-1 reference),
then repeats passes at pool width nproc for S seconds and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced passes at width 1
and width nproc for S/2 seconds, runs one traced pass at width 1 and the
Monte Carlo probes, and reports the per-layer metrics.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(``bench/records/BENCH_<label>.json``) is written once, at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
from spans import SPAN_NAMES, Tracer, targets

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RECORDS = BENCH_DIR / "records"
THREADS_ENV = "CORRTRANS_THREADS"
SETUP_REPEATS = 9

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER_EXTRA = (
    ("montecarlo.tasks", "count"),
    ("montecarlo.replicates", "count"),
    ("montecarlo.pairs", "count"),
    ("montecarlo.ns_per_replicate.bvn", "ns"),
    ("montecarlo.ns_per_replicate.squarev", "ns"),
    ("montecarlo.cell_fixed_ms", "ms"),
    ("montecarlo.fixed_share", "ratio"),
    ("montecarlo.parallel_speedup", "ratio"),
    ("models.lattice_points", "count"),
    ("models.psi_evals_per_point", "ratio"),
    ("pearson.delta_two_path_gap_max", "abs"),
    ("trace_overhead_ratio", "ratio"),
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(PER_LAYER_EXTRA)
    return units


def pool_width() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def import_seconds(repeats: int) -> tuple[list[float], list[float]]:
    """Raw and scaled (see hostspeed.py) wall times of fresh interpreters
    that only `import corrtrans`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    raw, scaled = [], []
    # An import is shorter than the probe interval: probe around each.
    clock = hostspeed.Clock(interval=0.0)
    for _ in range(repeats):
        clock.take()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import corrtrans"], env=env,
                       cwd=ROOT, check=True)
        raw.append(time.perf_counter() - start)
        scaled.append(clock.take())
    return raw, scaled


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and that of any waited-for child
    (pool workers and the import subprocesses); Linux reports KiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def run_pass(workload, width: int, tracer=None):
    os.environ[THREADS_ENV] = str(width)
    return workload.run_pass(width, tracer)


def tail_percentile(values: list[float]) -> float:
    """95th percentile (inclusive interpolation)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def measured_run(workload, seconds: float, width: int) -> tuple[list, dict, dict]:
    """End-to-end metrics.  Import times, and the operation and pass times
    of a workload with `host_scaled`, are scaled to the reference host by
    the host speed probes taken between operations."""
    setup_raw, setup = import_seconds(SETUP_REPEATS)
    warmup = run_pass(workload, 1)
    measured, walls = [], []
    if workload.host_scaled:
        workload.clock = hostspeed.Clock()
    start = time.perf_counter()
    while not measured or time.perf_counter() - start < seconds:
        measured.append(run_pass(workload, width))
        walls.append(workload.clock.take() if workload.clock
                     else measured[-1].wall_s)
    workload.clock = None
    latencies = [x for p in measured for x in p.latencies_s]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "work_per_s": sum(p.units for p in measured) / sum(walls),
        "op_p50_ms": statistics.median_high(latencies) * 1e3,
        "op_p95_ms": tail_percentile(latencies) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "host_scaled": workload.host_scaled,
        "host_speed_reference_s": hostspeed.REFERENCE_S,
        "setup_raw_s": setup_raw,
        "setup_s": setup,
        "pass_raw_wall_s": [p.wall_s for p in measured],
        "pass_wall_s": walls,
        "latency_samples_s": latencies,
        "work_unit": workload.unit,
        "work_units_per_pass": measured[0].units,
        "gauges": workload.pass_gauges(),
    }
    return [warmup] + measured, metrics, detail


def traced_run(workload, seconds: float, width: int,
               tiny: bool = False) -> tuple[list, dict, dict]:
    import workloads as wl

    warmup = run_pass(workload, 1)
    base, parallel = [], []
    start = time.perf_counter()
    while not base or time.perf_counter() - start < seconds / 2:
        base.append(run_pass(workload, 1))
        parallel.append(run_pass(workload, width))
    tracer = Tracer()
    with tracer.installed(targets(wl.cli, wl.mc, wl.mo, wl.pe, wl.sf,
                                  wl.ed)):
        traced = run_pass(workload, 1, tracer)
    probes = workload.probes(tiny)
    base_s = statistics.median(p.wall_s for p in base)
    parallel_s = statistics.median(p.wall_s for p in parallel)

    metrics: dict[str, float] = {}
    for name in per_layer_units():
        if name.endswith(".calls"):
            metrics[name] = tracer.calls[name[:-len(".calls")]]
        elif name.endswith(".self_s"):
            metrics[name] = tracer.self_s[name[:-len(".self_s")]]
        else:
            metrics[name] = tracer.counts[name]
    lattice = tracer.counts["models.lattice_points"]
    metrics["models.psi_evals_per_point"] = (
        tracer.counts["models.psi_evals"] / lattice if lattice else 0.0)
    metrics["montecarlo.ns_per_replicate.bvn"] = probes.get(
        "montecarlo.ns_per_replicate.bvn", 0.0)
    metrics["montecarlo.ns_per_replicate.squarev"] = probes.get(
        "montecarlo.ns_per_replicate.squarev", 0.0)
    fixed_ms = probes.get("montecarlo.cell_fixed_ms", 0.0)
    metrics["montecarlo.cell_fixed_ms"] = fixed_ms
    metrics["montecarlo.fixed_share"] = fixed_ms / 1e3 / base_s
    metrics["montecarlo.parallel_speedup"] = base_s / parallel_s
    gauges = workload.pass_gauges()
    metrics["pearson.delta_two_path_gap_max"] = gauges.get(
        "pearson.delta_two_path_gap_max", 0.0)
    metrics["trace_overhead_ratio"] = traced.wall_s / base_s
    detail = {
        "width1_pass_wall_s": [p.wall_s for p in base],
        "width_nproc_pass_wall_s": [p.wall_s for p in parallel],
        "traced_pass_wall_s": traced.wall_s,
        "gauges": gauges,
        "peak_rss_mb": peak_rss_mb(),
        "trace": tracer.record(),
    }
    return [warmup] + base + parallel + [traced], metrics, detail


def git_sha() -> str:
    """Commit of the checkout, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["mc_large_n", "mc_small_n", "exact_squarev",
                                 "numerics"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "corrtrans").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'corrtrans'}",
              file=sys.stderr)
        return 2
    try:
        import numpy
        import workloads as wl
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    width = pool_width()
    RECORDS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RECORDS) as scratch:
        workload = wl.make(args.workload, args.seed, False, Path(scratch))
        if args.trace:
            passes, metrics, detail = traced_run(workload, args.seconds,
                                                 width)
            units = per_layer_units()
        else:
            passes, metrics, detail = measured_run(workload, args.seconds,
                                                   width)
            units = dict(END_TO_END)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [m for p in passes for m in p.failures][:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "label": label,
        "git_sha": git_sha(),
        "nproc": width,
        "pool_width": 1 if args.trace else width,
        "baseline_pool_width": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "failed_ratio": failed / attempted,
        "failures": failures,
        **result,
        "detail": detail,
    }
    with open(RECORDS / f"BENCH_{label}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  nproc {width}  "
          f"pool width {record['pool_width']}  trace {args.trace}")
    if not args.trace:
        print(f"work_per_s counts {workload.unit} per second")
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"failed_ratio = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    for message in failures:
        print(f"failure: {message}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
