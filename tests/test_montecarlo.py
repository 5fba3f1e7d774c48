import dataclasses
import math
import os
import threading
import time

import numpy as np
import pytest

from corrtrans import models as mo
from corrtrans import montecarlo as mc
from corrtrans import pearson as pe
from corrtrans.specfun import normal_quantile


class TestMix64:
    def test_deterministic(self):
        assert mc.mix64(1, 2, 3) == mc.mix64(1, 2, 3)

    def test_order_sensitive(self):
        assert mc.mix64(1, 2) != mc.mix64(2, 1)

    def test_range(self):
        for args in [(0,), (0, 0, 0), (2 ** 63, 17)]:
            assert 0 <= mc.mix64(*args) < 2 ** 64

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


class TestRejectionThreshold:
    def test_inverts_tau(self):
        z = normal_quantile(0.95)
        for kind in ("identity", "fisher", "optimal"):
            t = mo.transform_for(mo.BVN, kind, z)
            sigma = mo.BVN.sigma(0.5)
            cut = pe.rejection_threshold(t, 0.5, sigma, 100, 0.05)
            for dr in (1e-6, 1e-3):
                assert pe.tau(t, cut + dr, 0.5, sigma, 100) > z
                assert pe.tau(t, cut - dr, 0.5, sigma, 100) < z

    def test_unattainable(self):
        t = pe.identity_transform()
        # rho = 0.9, n = 2: cut beyond psi(1) = 1
        sigma = mo.BVN.sigma(0.9)
        cut = pe.rejection_threshold(t, 0.9, sigma, 2, 0.05)
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
            pe.rejection_threshold(t, 0.9, mo.SQUAREV.sigma(0.9), 10, 0.47)


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
        t = pe.identity_transform()
        exact = mo.squarev_exact_rejection(rho, n, t, alpha)
        rng = mc.substream(123, 0, 0)
        hat = mc.run_cell(mo.SQUAREV, t, alpha, rho, n, N, rng)
        bound = 5 * math.sqrt(exact * (1 - exact) / N)
        assert abs(hat - exact) <= bound

    def test_squarev_never_rejects_cell(self):
        t = pe.identity_transform()
        rng = mc.substream(123, 1, 0)
        hat = mc.run_cell(mo.SQUAREV, t, 0.05, 0.9, 10, 50_000, rng)
        assert hat == 0.0

    def test_bvn_null_calibration(self):
        # rho = 0: the leading error term vanishes, so the rejection rate
        # should sit near alpha already at moderate n
        alpha, n, N = 0.05, 1000, 40_000
        t = pe.identity_transform()
        rng = mc.substream(7, 0, 0)
        hat = mc.run_cell(mo.BVN, t, alpha, 0.0, n, N, rng)
        se = math.sqrt(alpha * (1 - alpha) / N)
        assert abs(hat - alpha) < 5 * se + 0.1 / n


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
        with pytest.raises(mc.ConfigError, match=mc.THREADS_ENV):
            mc.worker_pool_width()


def test_usable_cpus_within_cpu_count():
    assert 1 <= mc._usable_cpus() <= (os.cpu_count() or 1)


class TestRunGrid:
    GRID = mc.ExperimentGrid(
        model="squarev", alphas=(0.05,), rhos=(0.0, 0.5), ns=(10,),
        N=2000, K=3, master_seed=42,
    )

    def test_deterministic_across_thread_counts(self, monkeypatch):
        monkeypatch.setenv(mc.THREADS_ENV, "1")
        serial = mc.run_grid(self.GRID)
        monkeypatch.setenv(mc.THREADS_ENV, "3")
        parallel = mc.run_grid(self.GRID)
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert serial[key].alpha_hats == parallel[key].alpha_hats

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
            return pe.rejection_threshold(*args)

        monkeypatch.setattr(mc, "rejection_threshold", counted)
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
