import dataclasses
import hashlib
import itertools
import logging
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from corrtrans import models as mo
from corrtrans import montecarlo as mc
from corrtrans import pearson as pe
from corrtrans.specfun import normal_cdf, normal_quantile


class TestSubstream:
    def test_substreams_differ(self):
        a = mc.substream(7, 0, 0).random(4)
        b = mc.substream(7, 0, 1).random(4)
        assert not np.array_equal(a, b)


class TestExperimentGrid:
    def test_cells_cartesian(self):
        g = mc.ExperimentGrid("bvn", (0.05, 0.01), (0.0, 0.5), (10, 100), N=10)
        assert len(g.cells()) == 8
        assert g.cells()[0] == (0.05, 0.0, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            mc.ExperimentGrid("bvn", (0.6,), (0.0,), (10,), N=10)
        with pytest.raises(ValueError):
            mc.ExperimentGrid("bvn", (0.05,), (0.0,), (1,), N=10)
        for rho in (1.0, -1.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="rhos"):
                mc.ExperimentGrid("bvn", (0.05,), (0.5, rho), (10,), N=10)
        with pytest.raises(ValueError):
            mc.ExperimentGrid("nope", (0.05,), (0.0,), (10,), N=10)
        with pytest.raises(ValueError):
            mc.ExperimentGrid("bvn", (0.05,), (0.0,), (10,), N=10,
                              transforms=("probit",))
        # N, K, master_seed and every n are integers, bool refused; each
        # list holds distinct values, at least one
        for bad in ({"N": 2.5}, {"N": True}, {"K": 2.0},
                    {"master_seed": 1.5}, {"master_seed": "7"},
                    {"master_seed": -1},
                    {"ns": (10.5,)}, {"ns": (10, False)}, {"model": 5},
                    {"alphas": ()}, {"transforms": ()},
                    {"rhos": (0.5, 0.5)}, {"ns": (10, 20, 10)}):
            with pytest.raises(ValueError):
                mc.ExperimentGrid(**{"model": "bvn", "alphas": (0.05,),
                                     "rhos": (0.0,), "ns": (10,), "N": 10,
                                     **bad})
        grid = mc.ExperimentGrid("bvn", (0.05,), (0.0,), (np.int64(10),),
                                 N=np.int32(10), K=np.int64(2),
                                 master_seed=np.uint64(2 ** 64 - 1))
        assert grid.cells() == [(0.05, 0.0, 10)]

    def test_numpy_integers_run_as_ints(self):
        grid = mc.ExperimentGrid("squarev", (0.05,), (0.5,), (np.int64(10),),
                                 N=np.int64(100), K=np.int32(2),
                                 master_seed=np.int64(7))
        ints = mc.ExperimentGrid("squarev", (0.05,), (0.5,), (10,), N=100,
                                 K=2, master_seed=7)
        assert mc.run_grid(grid) == mc.run_grid(ints)


class TestRejectionThreshold:
    def test_inverts_tau(self):
        z = normal_quantile(0.95)
        for kind in ("identity", "fisher", "optimal"):
            t = mo.transform_for(mo.BVN, kind, z)
            sigma = mo.BVN.sigma(0.5)
            cut = pe.rejection_rule(t, 0.5, sigma, 100, 0.05).r_star
            for dr in (1e-6, 1e-3):
                assert pe.tau(t, cut + dr, 0.5, sigma, 100) > z
                assert pe.tau(t, cut - dr, 0.5, sigma, 100) < z

    def test_unattainable(self):
        t = mo.power_transform(0.0)
        # rho = 0.9, n = 2: cut beyond psi(1) = 1
        sigma = mo.BVN.sigma(0.9)
        cut = pe.rejection_rule(t, 0.9, sigma, 2, 0.05).r_star
        assert cut == math.inf

    def test_underflowing_scale_fails_the_cell(self):
        # psi'(0.99) underflows to 0 for the SquareV optimal transform at
        # alpha = 0.49, which would put r* at rho
        t = mo.transform_for(mo.SQUAREV, "optimal", normal_quantile(0.51))
        with pytest.raises(pe.DegenerateModelError):
            mc.run_cell(mo.SQUAREV, t, 0.49, 0.99, 10, 1,
                        np.random.default_rng(0))


    def test_lost_step_fails_the_cell(self):
        # at alpha = 0.47 (exponent 58.5) the step z psi'(0.9) sigma / sqrt(10)
        # is 6.6e-45 against psi(0.9) = 0.115, so psi cannot place r*
        t = mo.transform_for(mo.SQUAREV, "optimal", normal_quantile(0.53))
        with pytest.raises(pe.DegenerateModelError, match="absorbs"):
            pe.rejection_rule(t, 0.9, mo.SQUAREV.sigma(0.9), 10, 0.47)


class TestAggregate:
    def test_two_workers(self):
        res = mc.aggregate((0.05, 0.06), 0.05)
        assert res.eps_mean == pytest.approx(0.1, abs=1e-12)
        assert res.eps_sd == pytest.approx(0.2 / math.sqrt(2), abs=1e-10)
        assert res.eps_se == pytest.approx(0.1, abs=1e-10)

    def test_single_worker_has_nan_spread(self):
        res = mc.aggregate((0.055,), 0.05)
        assert res.eps_mean == pytest.approx(0.1, abs=1e-12)
        assert math.isnan(res.eps_sd)
        assert math.isnan(res.eps_se)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mc.aggregate((), 0.05)


class TestRunCell:
    def test_squarev_matches_exact_oracle(self):
        alpha, rho, n, N = 0.05, 0.5, 10, 200_000
        t = mo.power_transform(0.0)
        exact = mo.squarev_exact_rejection(rho, n, t, alpha)
        rng = mc.substream(123, 0, 0)
        hat = mc.run_cell(mo.SQUAREV, t, alpha, rho, n, N, rng)
        bound = 5 * math.sqrt(exact * (1 - exact) / N)
        assert abs(hat - exact) <= bound

    def test_squarev_atom_on_the_threshold(self):
        # the counts (1, 0, 3, 1), i.e. a = 2, u = 1, v = 0, give R = 1/4
        # (0.2499...94 in floats), and alpha = 1 - Phi(tau(R)) puts that
        # atom, 4% of the mass, on the Fisher threshold: Monte Carlo must
        # decide it as the oracle does
        n, rho, N = 5, 0.0, 400_000
        t = mo.power_transform(-1.0)
        r0 = float(mo._squarev_r(n, 2, 1, 0))
        alpha = 1.0 - normal_cdf(pe.tau(t, r0, rho, 1.0, n))
        exact = mo.squarev_exact_rejection(rho, n, t, alpha)
        hat = mc.run_cell(mo.SQUAREV, t, alpha, rho, n, N,
                          mc.substream(123, 2, 0))
        assert abs(hat - exact) <= 5 * math.sqrt(exact * (1 - exact) / N)

    def test_squarev_atom_on_the_threshold_at_rho_minus_0_9(self):
        # R = 0 on the Fisher threshold (alpha 0.0757), where sqrt(1 - rho^2)
        # and SQUAREV.sigma differ in the last bit: the oracle must take the
        # sigma Monte Carlo takes (with the former it read 0.00355, +807 sd)
        n, rho, N = 5, -0.9, 400_000
        t = mo.power_transform(-1.0)
        alpha = 1.0 - normal_cdf(pe.tau(t, 0.0, rho, mo.SQUAREV.sigma(rho), n))
        exact = mo.squarev_exact_rejection(rho, n, t, alpha)
        hat = mc.run_cell(mo.SQUAREV, t, alpha, rho, n, N,
                          mc.substream(123, 3, 0))
        assert abs(hat - exact) <= 5 * math.sqrt(exact * (1 - exact) / N)

    def test_squarev_never_rejects_cell(self):
        t = mo.power_transform(0.0)
        rng = mc.substream(123, 1, 0)
        hat = mc.run_cell(mo.SQUAREV, t, 0.05, 0.9, 10, 50_000, rng)
        assert hat == 0.0

    def test_bvn_null_calibration(self):
        # rho = 0: the leading error term vanishes, so the rejection rate
        # should sit near alpha already at moderate n
        alpha, n, N = 0.05, 1000, 40_000
        t = mo.power_transform(0.0)
        rng = mc.substream(7, 0, 0)
        hat = mc.run_cell(mo.BVN, t, alpha, 0.0, n, N, rng)
        se = math.sqrt(alpha * (1 - alpha) / N)
        assert abs(hat - alpha) < 5 * se + 0.1 / n

    @pytest.mark.parametrize("rho, n", [(0.5, 100), (0.0, 10), (0.9, 1000),
                                        (-0.5, 50)])
    def test_numeric_transform_counts_as_closed_form(self, rho, n):
        # a numeric transform is not defined at R = 1, so its r* is found
        # without psi(1); on the same draws it rejects what the closed form
        # rejects
        alpha, N = 0.05, 200_000
        z = normal_quantile(1.0 - alpha)
        hats = [mc.run_cell(mo.BVN, t, alpha, rho, n, N, mc.substream(9, 0, 0))
                for t in (pe.optimal_transform_numeric(mo.BVN.moments, z),
                          mo.transform_for(mo.BVN, "optimal", z))]
        assert hats[0] == hats[1]

    def test_refuses_non_integer_sizes(self):
        t = mo.power_transform(0.0)
        for n, N in ((10.5, 100), (10.0, 100), (True, 100), (10, 2.5),
                     (10, True)):
            with pytest.raises(ValueError, match="integers"):
                mc.run_cell(mo.SQUAREV, t, 0.05, 0.5, n, N,
                            mc.substream(1, 0, 0))
        hats = [mc.run_cell(mo.SQUAREV, t, 0.05, 0.5, n, N,
                            mc.substream(1, 0, 0))
                for n, N in ((10, 100), (np.int64(10), np.int32(100)))]
        assert hats[0] == hats[1]


# the bench's level for a count against its exact probability
BINOMIAL_TAIL_LEVEL = 1e-7


def _binomial_consistent(count, trials, p):
    """True unless count lies in a tail of Binomial(trials, p) of
    probability below BINOMIAL_TAIL_LEVEL, the tail from count outwards on
    its side of the mean; p = 0 or 1 demands the one possible count."""
    if p in (0.0, 1.0):
        return count == trials * p
    log_p, log_q = math.log(p), math.log1p(-p)
    tail = 0.0
    for k in (range(count, trials + 1) if count >= trials * p
              else range(count, -1, -1)):
        term = math.exp(math.lgamma(trials + 1.0) - math.lgamma(k + 1.0)
                        - math.lgamma(trials - k + 1.0) + k * log_p
                        + (trials - k) * log_q)
        tail += term  # terms fall away from the mean: stop once negligible
        if tail >= BINOMIAL_TAIL_LEVEL or term <= 1e-17 * tail:
            break
    return tail >= BINOMIAL_TAIL_LEVEL


class TestLatticePath:
    """Where SquareV's R has at most N atoms, a task draws its histogram of
    N atoms as one multinomial and each rule is decided once per atom; each
    rule's count must have the law of the row path's count, the Binomial(N,
    p) of the rule's exact rejection probability p."""

    ROWS_ONLY = dataclasses.replace(mo.SQUAREV, lattice=None)
    N = 12_000  # C(42, 3) = 11,480 atoms at n = 39

    @staticmethod
    def levels():
        return [(alpha, mo.transform_for(mo.SQUAREV, kind,
                                         normal_quantile(1.0 - alpha)))
                for alpha in (0.05, 0.01) for kind in mo.TRANSFORM_KINDS]

    @classmethod
    def rules(cls, rho, n):
        sigma = mo.SQUAREV.sigma(rho)
        return [pe.rejection_rule(t, rho, sigma, n, alpha)
                for alpha, t in cls.levels()]

    @classmethod
    def check_against_the_oracle(cls, rules, exact, rho, n, N, rng_key):
        """The pmf of each rule's rejected atoms sums to its exact
        probability, and on one substream the counts of both paths lie
        inside that probability's Binomial(N, p) tails."""
        r, pmf = mo.SQUAREV.lattice.atoms(rho, n)
        for rejects, p in zip(rules, exact):
            assert math.fsum(pmf[rejects(r)]) == pytest.approx(
                p, rel=1e-13, abs=3e-30)  # the oracle leaves out <= 3e-30
        counts = [mc._counter(model, rules, rho, n, N)(mc.substream(*rng_key))
                  for model in (mo.SQUAREV, cls.ROWS_ONLY)]
        for got in counts:
            for count, p in zip(got, exact):
                assert _binomial_consistent(count, N, p), (count, p)
        return counts[0]

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 20, 39])
    @pytest.mark.parametrize("rho", [0.0, 0.5, -0.5, 0.9, 0.99])
    def test_counts_as_the_row_path(self, rho, n):
        assert mo.SQUAREV.lattice.size(n) <= self.N
        exact = [mo.squarev_exact_rejection(rho, n, t, alpha)
                 for alpha, t in self.levels()]
        self.check_against_the_oracle(self.rules(rho, n), exact, rho, n,
                                      self.N, (5, n, 0))

    def test_atom_in_the_tie_band(self):
        # test_squarev_atom_on_the_threshold's atom: R(a=2, u=1, v=0) at
        # n = 5 is on the Fisher threshold, so the rule decides it by tau
        n, rho = 5, 0.0
        t = mo.power_transform(-1.0)
        r0 = float(mo._squarev_r(n, 2, 1, 0))
        alpha = 1.0 - normal_cdf(pe.tau(t, r0, rho, 1.0, n))
        r_star = pe.rejection_rule(t, rho, mo.SQUAREV.sigma(rho), n,
                                   alpha).r_star
        assert abs(r0 - r_star) <= pe._TIE_BAND
        rules = [pe.rejection_rule(t, rho, mo.SQUAREV.sigma(rho), n, alpha)]
        exact = [mo.squarev_exact_rejection(rho, n, t, alpha)]
        got = self.check_against_the_oracle(rules, exact, rho, n, 5000,
                                            (7, 0, 0))
        assert 0 < got[0] < 5000

    def test_run_cell_counts_as_the_row_path(self):
        t = mo.transform_for(mo.SQUAREV, "optimal", normal_quantile(0.95))
        exact = mo.squarev_exact_rejection(0.5, 10, t, 0.05)
        for model in (mo.SQUAREV, self.ROWS_ONLY):
            hat = mc.run_cell(model, t, 0.05, 0.5, 10, 4000,
                              mc.substream(3, 0, 0))
            assert _binomial_consistent(round(hat * 4000), 4000, exact)

    def test_task_memory_does_not_grow_with_N(self):
        # a lattice task holds its histogram and buffers of the atoms' size,
        # not its N draws: at n = 39 (11,480 atoms) the peak of one task at
        # N = 10^6 is within 64 KiB of its peak at N = 12,000, and both are
        # below 1 MiB (the N rows of the row path take 8 MB per array)
        n, rho = 39, 0.5
        counters = [mc._counter(mo.SQUAREV, self.rules(rho, n), rho, n, N)
                    for N in (self.N, 10 ** 6)]
        peaks = []
        tracemalloc.start()
        try:
            for count in counters:
                rng = mc.substream(1, 0, 0)
                tracemalloc.reset_peak()
                count(rng)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 2 ** 10, peaks
        assert max(peaks) < 2 ** 20, peaks

    def test_run_grid_builds_each_rho_n_lattice_once(self, monkeypatch):
        # one (R, pmf) build per (rho, n) within a run, shared by its K
        # tasks and all its rules, and nothing kept from one run for the next
        built = []

        def atoms(rho, n):
            built.append((rho, n))
            return mo.SQUAREV.lattice.atoms(rho, n)

        model = dataclasses.replace(mo.SQUAREV, lattice=dataclasses.replace(
            mo.SQUAREV.lattice, atoms=atoms))
        monkeypatch.setitem(mo._MODELS, "squarev", model)
        grid = mc.ExperimentGrid("squarev", (0.05, 0.01),
                                 (0.0, 0.1, 0.5, 0.9), (5, 10), N=400, K=2,
                                 master_seed=3)
        once = sorted(itertools.product(grid.rhos, grid.ns))
        first = mc.run_grid(grid)
        assert sorted(built) == once  # 8 builds for 4 rho x 2 n
        assert mc.run_grid(grid) == first
        assert sorted(built) == sorted(once * 2)
        monkeypatch.undo()
        assert mc.run_grid(grid) == first

    def test_logs_the_path_at_debug(self, monkeypatch, caplog):
        monkeypatch.setenv(mc.THREADS_ENV, "1")
        with caplog.at_level(logging.DEBUG, logger=mc.__name__):
            for n, N in ((10, 4000), (200, 12_000)):
                mc.run_grid(mc.ExperimentGrid("squarev", (0.05,), (0.5,),
                                              (n,), N=N, K=1))
        assert [r.name for r in caplog.records] == ["corrtrans.montecarlo"] * 2
        assert [r.levelno for r in caplog.records] == [logging.DEBUG] * 2
        assert [r.args for r in caplog.records] == [
            (0.5, 10, "lattice", 286, 4000),
            (0.5, 200, "row", 1_373_701, 12_000)]
        assert caplog.records[0].getMessage() == (
            "Monte Carlo at rho=0.5, n=10: lattice path, atoms=286, "
            "draws=4000 per task")

    def test_silent_at_the_default_level(self):
        src = str(Path(mc.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([path] if path else [])))
        code = ("from corrtrans import montecarlo as mc\n"
                "for n, N in ((10, 400), (10, 100)):\n"
                "    grid = mc.ExperimentGrid('squarev', (0.05,), (0.5,), "
                "(n,), N=N, K=2)\n"
                "    print(len(mc.run_grid(grid)))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout == "3\n3\n"
        assert proc.stderr == ""


class TestPredictedRelativeError:
    def test_bvn_identity_table_cell(self):
        pred = mc.predicted_relative_error(mo.BVN, "identity", 0.05, 0.9,
                                           10_000)
        assert pred == pytest.approx(-0.0409, abs=2e-4)

    def test_optimal_is_zero(self):
        for model in (mo.BVN, mo.SQUAREV):
            assert mc.predicted_relative_error(model, "optimal", 0.05, 0.7,
                                               100) == 0.0

    def test_scales_like_inverse_sqrt_n(self):
        a = mc.predicted_relative_error(mo.BVN, "fisher", 0.05, 0.5, 100)
        b = mc.predicted_relative_error(mo.BVN, "fisher", 0.05, 0.5, 10_000)
        assert a == pytest.approx(10 * b, abs=1e-12)


class TestWorkerPoolWidth:
    # never starts a process: the CPU count is patched and the width read
    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 4)

    @pytest.mark.parametrize("env, tasks, width", [
        (None, None, 4),
        ("", None, 4),
        ("2", None, 2),
        ("0", None, 1),
        ("-3", None, 1),
        ("1000000", None, 4),
        ("1000000", 3, 3),
        (None, 2, 2),
        ("3", 100, 3),
        (None, 0, 1),
    ])
    def test_clamped(self, monkeypatch, env, tasks, width):
        if env is None:
            monkeypatch.delenv(mc.THREADS_ENV, raising=False)
        else:
            monkeypatch.setenv(mc.THREADS_ENV, env)
        assert mc.worker_pool_width(tasks) == width

    @pytest.mark.parametrize("env", ["two", "1.5", "4 cores"])
    def test_non_integer_names_the_variable(self, monkeypatch, env):
        monkeypatch.setenv(mc.THREADS_ENV, env)
        with pytest.raises(ValueError, match=mc.THREADS_ENV):
            mc.worker_pool_width()


def test_usable_cpus_within_cpu_count():
    assert 1 <= mc._usable_cpus() <= (os.cpu_count() or 1)


@pytest.mark.parametrize("cpus, usable", [(3, 3), (None, 1)])
def test_usable_cpus_without_affinity(monkeypatch, cpus, usable):
    # platforms without os.sched_getaffinity fall back on os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert mc._usable_cpus() == usable


class TestRunGrid:
    GRID = mc.ExperimentGrid(
        model="squarev", alphas=(0.05,), rhos=(0.0, 0.5), ns=(10,),
        N=2000, K=3, master_seed=42,
    )

    def test_deterministic_across_thread_counts(self, monkeypatch):
        grid = dataclasses.replace(self.GRID, alphas=(0.05, 0.01))
        monkeypatch.setenv(mc.THREADS_ENV, "1")
        serial = mc.run_grid(grid)
        monkeypatch.setenv(mc.THREADS_ENV, "3")
        parallel = mc.run_grid(grid)
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert serial[key].alpha_hats == parallel[key].alpha_hats

    def test_whole_seed_keys_the_stream(self, monkeypatch):
        # a seed is hashed whole, not cut to 64 bits
        monkeypatch.setenv(mc.THREADS_ENV, "1")
        wide = dataclasses.replace(self.GRID, master_seed=42 + 2 ** 64)
        assert mc.run_grid(self.GRID) != mc.run_grid(wide)

    def test_cells_follow_the_documented_recipe(self, monkeypatch):
        # the draw index counts product(rhos, ns) (rho, then n), worker_index
        # runs over 0..K-1, and every alpha's rules count the same N draws:
        # N values of R, or where the model has at most N atoms at n (here
        # SquareV at n = 10, not at n = 20) one multinomial histogram of
        # them, summed over each rule's rejected atoms
        monkeypatch.setenv(mc.THREADS_ENV, "1")
        paths = set()
        for name in ("bvn", "squarev"):
            grid = mc.ExperimentGrid(name, (0.05, 0.01), (0.0, 0.5),
                                     (10, 20), N=500, K=2, master_seed=9)
            model = mo.get_model(grid.model)
            lattice = model.lattice
            results = mc.run_grid(grid)
            for d, (rho, n) in enumerate(itertools.product(grid.rhos,
                                                           grid.ns)):
                on_lattice = lattice is not None and lattice.size(n) <= grid.N
                paths.add((name, n, on_lattice))
                if on_lattice:
                    r, pmf = lattice.atoms(rho, n)
                draws = []
                for k in range(grid.K):
                    seq = np.random.SeedSequence(grid.master_seed,
                                                 spawn_key=(d, k))
                    rng = np.random.Generator(np.random.Philox(seq))
                    draws.append(
                        rng.multinomial(grid.N, pmf)
                        if on_lattice else model.sample_r(rho, grid.N, n, rng))
                for alpha, kind in itertools.product(grid.alphas,
                                                     grid.transforms):
                    z = normal_quantile(1.0 - alpha)
                    rule = pe.rejection_rule(mo.transform_for(model, kind, z),
                                             rho, model.sigma(rho), n, alpha)
                    hats = tuple((rule(r) @ draw if on_lattice
                                  else np.count_nonzero(rule(draw))) / grid.N
                                 for draw in draws)
                    assert results[(kind, alpha, rho, n)].alpha_hats == hats
        assert paths == {("bvn", 10, False), ("bvn", 20, False),
                         ("squarev", 10, True), ("squarev", 20, False)}

    @pytest.mark.parametrize("model", ["bvn", "squarev"])
    def test_one_alpha_keeps_the_per_cell_stream(self, monkeypatch, model):
        # with one alpha the draw index is the cell's position in cells(),
        # so such grids draw what one run_cell per (cell, worker) draws
        monkeypatch.setenv(mc.THREADS_ENV, "1")
        grid = mc.ExperimentGrid(model, (0.05,), (0.0, 0.5), (10, 20),
                                 N=500, K=2, master_seed=9)
        m = mo.get_model(model)
        results = mc.run_grid(grid)
        for ci, (alpha, rho, n) in enumerate(grid.cells()):
            z = normal_quantile(1.0 - alpha)
            for kind in grid.transforms:
                t = mo.transform_for(m, kind, z)
                hats = tuple(mc.run_cell(m, t, alpha, rho, n, grid.N,
                                         mc.substream(grid.master_seed, ci, k))
                             for k in range(grid.K))
                assert results[(kind, alpha, rho, n)].alpha_hats == hats

    def test_result_keys(self, monkeypatch):
        monkeypatch.setenv(mc.THREADS_ENV, "1")
        results = mc.run_grid(self.GRID)
        assert set(results) == {
            (kind, 0.05, rho, 10)
            for kind in ("identity", "fisher", "optimal")
            for rho in (0.0, 0.5)
        }
        for cell in results.values():
            assert len(cell.alpha_hats) == 3

    def test_shared_samples_give_equal_tied_transforms(self, monkeypatch):
        # at (alpha, rho) = (0.05, 0.5), n = 10 all three transforms induce
        # the same rejection region under SquareV, so the shared-sample
        # estimates must agree exactly
        monkeypatch.setenv(mc.THREADS_ENV, "1")
        results = mc.run_grid(self.GRID)
        ident = results[("identity", 0.05, 0.5, 10)]
        fish = results[("fisher", 0.05, 0.5, 10)]
        opt = results[("optimal", 0.05, 0.5, 10)]
        assert ident.alpha_hats == fish.alpha_hats == opt.alpha_hats

    def test_thresholds_once_per_cell(self, monkeypatch):
        monkeypatch.setenv(mc.THREADS_ENV, "1")
        calls = []

        def counted(*args):
            calls.append(args)
            return pe.rejection_rule(*args)

        monkeypatch.setattr(mc, "rejection_rule", counted)
        mc.run_grid(self.GRID)
        assert len(calls) == len(self.GRID.cells()) * len(self.GRID.transforms)

    def test_degenerate_cell_fails_before_sampling(self, monkeypatch):
        # the second cell's optimal threshold is not defined (see
        # test_lost_step_fails_the_cell); no cell may be sampled first
        monkeypatch.setenv(mc.THREADS_ENV, "1")

        def refuse(*args):
            raise AssertionError("sample_r called before every threshold")

        refusing = dataclasses.replace(mo.SQUAREV, sample_r=refuse)
        monkeypatch.setattr(mc._models, "get_model", lambda name: refusing)
        grid = mc.ExperimentGrid("squarev", (0.47,), (0.0, 0.9), (10,), N=10,
                                 K=2)
        with pytest.raises(pe.DegenerateModelError):
            mc.run_grid(grid)


class TestRunGridThreads:
    GRID = mc.ExperimentGrid("squarev", (0.05,), (0.0, 0.5), (10,), N=50,
                             K=4)

    @pytest.fixture(autouse=True)
    def two_threads(self, monkeypatch):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        monkeypatch.setenv(mc.THREADS_ENV, "2")

    @staticmethod
    def use_sample_r(monkeypatch, sample_r):
        model = dataclasses.replace(mo.SQUAREV, sample_r=sample_r)
        monkeypatch.setattr(mc._models, "get_model", lambda name: model)

    def test_tasks_run_on_pool_threads(self, monkeypatch):
        # a pool of processes would record nothing in this process
        idents = []

        def recording(*args):
            idents.append(threading.get_ident())
            return mo.SQUAREV.sample_r(*args)

        self.use_sample_r(monkeypatch, recording)
        mc.run_grid(self.GRID)
        assert len(idents) == len(self.GRID.cells()) * self.GRID.K
        assert threading.main_thread().ident not in idents

    def test_draws_once_per_rho_n_and_worker(self, monkeypatch):
        # every (alpha, transform) rule counts one draw of R per worker
        grid = dataclasses.replace(self.GRID, alphas=(0.05, 0.01),
                                   ns=(10, 20))
        calls = []
        lock = threading.Lock()

        def counted(*args):
            with lock:
                calls.append(args[0])
            return mo.SQUAREV.sample_r(*args)

        self.use_sample_r(monkeypatch, counted)
        results = mc.run_grid(grid)
        assert len(calls) == len(grid.rhos) * len(grid.ns) * grid.K
        assert len(results) == len(grid.cells()) * len(grid.transforms)

    def test_failed_task_stops_the_queue(self, monkeypatch):
        grid = dataclasses.replace(self.GRID, rhos=(0.0,), K=200)
        calls = []
        lock = threading.Lock()

        def third_fails(*args):
            with lock:
                calls.append(None)
                number = len(calls)
            if number == 3:
                raise RuntimeError("task 3 failed")
            time.sleep(0.005)
            return mo.SQUAREV.sample_r(*args)

        self.use_sample_r(monkeypatch, third_fails)
        with pytest.raises(RuntimeError, match="task 3 failed"):
            mc.run_grid(grid)
        assert len(calls) <= 10


class TestStreamDigest:
    """SHA-256 of `run_grid`'s alpha_hats on small grids, one per sampling
    path: SquareV on its lattice (n 10, 20), its bits (n 200) and its
    binomials (n 600), and BVN.  numpy does not promise the same Generator
    streams across versions, so the digests hold for the numpy major.minor
    they were recorded with.  A change that moves the random stream updates
    them and says so in CHANGES.md."""

    NUMPY = "2.4"
    GRIDS = {
        "squarev-lattice": mc.ExperimentGrid(
            "squarev", (0.05, 0.01), (0.0, 0.5, 0.9), (10, 20), N=2000, K=2,
            master_seed=11),
        "squarev-bits": mc.ExperimentGrid(
            "squarev", (0.05, 0.01), (0.0, 0.5), (200,), N=2000, K=2,
            master_seed=12),
        "squarev-binomials": mc.ExperimentGrid(
            "squarev", (0.05, 0.01), (0.0, 0.5), (600,), N=2000, K=2,
            master_seed=13),
        "bvn": mc.ExperimentGrid(
            "bvn", (0.05, 0.01), (0.0, 0.5), (50,), N=2000, K=2,
            master_seed=14),
    }
    DIGESTS = {
        "squarev-lattice":
            "051c41236c0d2cf473d8e9be590670af70c9a868c005c8df91e2729552c52c36",
        "squarev-bits":
            "fa0c295fe8c454d67fe5504287426ea51fd08e41175b0e3b2a2bd61c5d901ca2",
        "squarev-binomials":
            "bfb4bc0776a0ff66112c6d50a91abae70ef3460856c9ec36170df496df3d1581",
        "bvn":
            "63e19b40af8c346300a34fdcdc878ad9ec16537cfc45deb98aec620961d922b6",
    }

    @staticmethod
    def digest(results) -> str:
        text = "\n".join(f"{key!r} {results[key].alpha_hats!r}"
                         for key in sorted(results))
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_stream_is_pinned(self, monkeypatch, name):
        version = ".".join(np.__version__.split(".")[:2])
        if version != self.NUMPY:
            pytest.skip(f"digests recorded with numpy {self.NUMPY}, "
                        f"running {version}")
        monkeypatch.setenv(mc.THREADS_ENV, "2")
        results = mc.run_grid(self.GRIDS[name])
        assert self.digest(results) == self.DIGESTS[name]
