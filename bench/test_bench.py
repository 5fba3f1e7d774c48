"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest bench -q

Re-deriving the stored reference values takes about two minutes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import types

import pytest

import make_reference
import run
import spans
import workloads as wl

SEEDS = (11, 12)
COUNT_METRICS = ("montecarlo.tasks", "montecarlo.replicates",
                 "montecarlo.pairs", "models.lattice_points",
                 "models.psi_evals_per_point")
# Smallest eps difference between two transforms of one Monte Carlo cell
# that the paired row check must detect at the stored N and K.
EPS_RESOLUTION = 0.01


def test_benchmark_json_names_what_the_runs_emit():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.per_layer_units().items())
    assert spec["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_tiny_workload_has_no_failed_operations(name, seed, tmp_path,
                                                monkeypatch):
    monkeypatch.setenv(run.THREADS_ENV, "1")
    workload = wl.make(name, seed, True, tmp_path)
    passes = [run.run_pass(workload, 1),
              run.run_pass(workload, run.pool_width())]
    for p in passes:
        assert p.attempted > 0 and p.units > 0
        assert p.failed == 0, p.failures
        assert len(p.latencies_s) > 0 and p.wall_s > 0.0


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_traced_counts_repeat_exactly(name, tmp_path, monkeypatch):
    monkeypatch.setenv(run.THREADS_ENV, "1")
    counts = []
    for attempt in range(2):
        scratch = tmp_path / str(attempt)
        scratch.mkdir()
        workload = wl.make(name, SEEDS[0], True, scratch)
        passes, metrics, _ = run.traced_run(workload, 0.0, run.pool_width(),
                                            tiny=True)
        assert sum(p.failed for p in passes) == 0
        counts.append({k: v for k, v in metrics.items()
                       if k.endswith(".calls") or k in COUNT_METRICS})
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_pool_width_is_nproc_and_the_program_sees_it(tmp_path, monkeypatch):
    monkeypatch.setenv(run.THREADS_ENV, "1")
    width = run.pool_width()
    assert width == len(os.sched_getaffinity(0))
    run.run_pass(wl.make("mc_small_n", SEEDS[0], True, tmp_path), width)
    assert wl.mc.worker_pool_width() == width


def test_binomial_check():
    assert wl.binomial_consistent(0, 1000, 0.0)
    assert not wl.binomial_consistent(1, 1000, 0.0)
    assert wl.binomial_consistent(500, 10_000, 0.05)
    assert wl.binomial_consistent(530, 10_000, 0.05)
    assert not wl.binomial_consistent(650, 10_000, 0.05)
    assert not wl.binomial_consistent(350, 10_000, 0.05)


def test_row_check_tells_transforms_apart():
    # A program that counted transform b's rejections for transform a gives
    # a paired difference of 0.  The check must reject that wherever the
    # two exact probabilities differ by at least EPS_RESOLUTION in eps.
    probs = wl.load_reference()
    for cfg in wl.MC_LARGE_N + wl.MC_SMALL_N:
        for cell in cfg.cells():
            alpha = cell[0]
            for a, b in itertools.combinations(wl.KINDS, 2):
                pa, pb = (probs[cfg.model][wl.ref_key(*cell, k)]
                          for k in (a, b))
                if abs(pa - pb) >= EPS_RESOLUTION * alpha:
                    swapped = wl.binomial_consistent(0, cfg.N * cfg.K,
                                                     abs(pa - pb))
                    assert not swapped, (cfg.model, cell, a, b)


def test_tracer_refuses_a_missing_target():
    with pytest.raises(AttributeError):
        with spans.Tracer().installed(
                [(types.SimpleNamespace(), "gone", "x.gone", None)]):
            pass


def test_bvn_references_agree_with_criterion_8_table():
    # criterion 8's reference eps and spreads for the two n = 1000 cells
    table = {
        (0.05, 0.9, "identity"): (-0.128, 0.000776),
        (0.05, 0.9, "optimal"): (0.00463, 0.000964),
        (0.01, 0.5, "identity"): (-0.200, 0.00274),
        (0.01, 0.5, "optimal"): (0.00697, 0.00278),
    }
    probs = wl.load_reference()["bvn"]
    for (alpha, rho, kind), (want, spread) in table.items():
        eps = probs[wl.ref_key(alpha, rho, 1000, kind)] / alpha - 1.0
        assert abs(eps - want) <= 5 * spread


def test_bvn_density_is_normalised():
    f = make_reference.bvn_density(0.5, 1000)
    sd = 0.75 / math.sqrt(1000)
    knots = [-1.0] + [0.5 + k * sd for k in range(-12, 13)] + [1.0]
    assert abs(float(make_reference.mp.quad(f, knots)) - 1.0) < 1e-12


def test_bvn_references_rederive():
    probs = wl.load_reference()["bvn"]
    cells = make_reference.bvn_cells()
    assert {wl.ref_key(*c) for c in cells} == set(probs)
    for cell in cells:
        got = make_reference.bvn_probability(*cell)
        assert abs(got - probs[wl.ref_key(*cell)]) <= 1e-12


@pytest.mark.parametrize("cell", make_reference.squarev_cells(),
                         ids=lambda c: wl.ref_key(*c))
def test_squarev_references_rederive_with_the_exact_oracle(cell):
    probs = wl.load_reference()["squarev"]
    got = make_reference.squarev_probability(*cell)
    assert abs(got - probs[wl.ref_key(*cell)]) <= wl.ORACLE_TOL


def test_squarev_reference_covers_every_cell():
    probs = wl.load_reference()["squarev"]
    assert {wl.ref_key(*c) for c in make_reference.squarev_cells()} \
        == set(probs)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, bench)
    shutil.copy(wl.REFERENCE_PATH, bench)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "numerics",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
