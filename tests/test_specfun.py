import logging
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrtrans import specfun
from corrtrans.specfun import (
    IntegrationError,
    Tolerance,
    gamma_ratio_endpoint,
    gauss_2f1_half,
    integrate_adaptive,
    integrate_ode,
    log_gamma,
    normal_cdf,
    normal_pdf,
    normal_quantile,
)

mp.mp.dps = 30
TIGHT = Tolerance(1e-13, 1e-13, 20_000)


class TestNormalPdf:
    def test_at_zero(self):
        assert normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                                abs=1e-15)

    def test_derived_value(self):
        assert normal_pdf(1.6449) == pytest.approx(0.1031, abs=1e-4)

    @given(st.floats(-10, 10))
    def test_even(self, z):
        assert normal_pdf(z) == normal_pdf(-z)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            normal_pdf(math.nan)


class TestNormalCdf:
    def test_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_special_levels(self):
        # the two levels at which the identity transform is optimal
        assert 1.0 - normal_cdf(1.0) == pytest.approx(0.159, abs=5e-4)
        assert 1.0 - normal_cdf(1.0 / math.sqrt(2)) == pytest.approx(0.240,
                                                                     abs=5e-4)

    def test_limits(self):
        assert normal_cdf(math.inf) == 1.0
        assert normal_cdf(-math.inf) == 0.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            normal_cdf(math.nan)

    def test_absolute_accuracy(self):
        z = -8.0
        while z <= 8.0:
            assert abs(normal_cdf(z) - float(mp.ncdf(z))) < 1e-12
            z += 0.0625

    @given(st.floats(-8, 8))
    @settings(max_examples=200)
    def test_symmetry(self, z):
        assert normal_cdf(z) + normal_cdf(-z) == pytest.approx(1.0, abs=1e-12)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_critical_values(self):
        # frozen from bisection against normal_cdf
        assert normal_quantile(0.95) == pytest.approx(1.64485, abs=1e-4)
        assert normal_quantile(0.99) == pytest.approx(2.32635, abs=1e-4)

    def test_consistency_with_cdf(self):
        for p in (1e-8, 0.01, 0.3, 0.77, 0.999, 1 - 1e-8):
            z = normal_quantile(p)
            assert abs(normal_cdf(z) - p) < 1e-12

    @given(st.floats(-6, 6))
    @settings(max_examples=200)
    def test_roundtrip(self, z):
        assert normal_quantile(normal_cdf(z)) == pytest.approx(z, abs=1e-8)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.7])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)


class TestGauss2F1Half:
    def test_trivial_cases(self):
        assert gauss_2f1_half(0.0, 0.3) == 1.0
        assert gauss_2f1_half(0.0, 0.9) == 1.0
        assert gauss_2f1_half(1.7, 0.0) == 1.0

    def test_terminating_series(self):
        # p = 1 terminates: 1 - x/3
        assert gauss_2f1_half(1.0, 0.25) == pytest.approx(1 - 0.25 / 3,
                                                          abs=1e-14)

    @pytest.mark.parametrize("p", [-0.9, -0.5, 0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("x", [0.01, 0.25, 0.81, 0.98])
    def test_against_quadrature_oracle(self, p, x):
        # sqrt(x) * 2F1 = integral of (1-r^2)^p over [0, sqrt(x)]
        oracle = float(mp.quad(lambda r: (1 - r * r) ** p,
                               [0, math.sqrt(x)]))
        assert gauss_2f1_half(p, x) * math.sqrt(x) == pytest.approx(
            oracle, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [-0.99, -0.9, -1 / 3, 0.5, 1.0, 3.0, 20.0,
                                   50.0, 100.0, 530.0, 2122.0, 20000.0])
    @pytest.mark.parametrize("x", [0.01, 0.25, 0.5, 0.51, 0.81, 0.95, 0.98,
                                   0.999, 1 - 1e-9])
    def test_against_mpmath_hyp2f1(self, p, x):
        # both series and the switch between them at x = 1/2; the steep
        # exponents p >= 50 are those of levels near 0.5, and from p = 2122
        # on (1-x)^(p+1) underflows at some x <= 1/2
        want = float(mp.hyp2f1(0.5, -mp.mpf(p), 1.5, mp.mpf(x),
                               maxterms=10**6))
        assert gauss_2f1_half(p, x) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p, x", [(1e6, 1e-3), (1e7, 1e-4), (1e8, 1e-5)])
    def test_vanishing_tail_against_mpmath(self, p, x):
        # (1-x)^(p+1) underflows, and the complement's tail would need about
        # 37/x terms to sum although it is below 1e-296
        want = float(mp.hyp2f1(0.5, -mp.mpf(p), 1.5, mp.mpf(x),
                               maxterms=10**6))
        assert gauss_2f1_half(p, x) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gauss_2f1_half(0.5, 1.0)
        with pytest.raises(ValueError):
            gauss_2f1_half(-1.0, 0.5)
        for p, x in ((math.nan, 0.5), (0.5, math.nan)):
            with pytest.raises(ValueError):
                gauss_2f1_half(p, x)


    def test_series_that_does_not_converge_raises(self):
        # terms of 2F1(1, 1; 1; z) = 1/(1 - z) are z^k: at z = 1 - 1e-9 none
        # falls below 1e-16 of the sum within 1e5 terms
        with pytest.raises(IntegrationError, match="did not converge"):
            specfun._positive_2f1(1.0, 1.0, 1.0, 1.0 - 1e-9)


class TestTolerance:
    @pytest.mark.parametrize("abs_tol, rel_tol", [
        (0.0, 1e-12), (1e-12, 0.0), (-1e-12, 1e-12), (math.nan, 1e-12)])
    def test_rejects_tolerances_not_positive(self, abs_tol, rel_tol):
        with pytest.raises(ValueError, match="tolerances must be positive"):
            Tolerance(abs_tol, rel_tol)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_max_iter_below_one(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            Tolerance(1e-12, 1e-12, max_iter)


class TestGammaRatioEndpoint:
    def test_known_values(self):
        assert gamma_ratio_endpoint(0.0) == pytest.approx(1.0, abs=1e-13)
        assert gamma_ratio_endpoint(1.0) == pytest.approx(2 / 3, abs=1e-13)
        assert gamma_ratio_endpoint(-0.5) == pytest.approx(math.pi / 2,
                                                           abs=1e-12)

    @pytest.mark.parametrize("p", [10.0, 19.9, 20.0, 132.18, 530.07, 794.61,
                                   5000.0, 1e6])
    def test_against_mpmath_gamma(self, p):
        # above p = 20 a difference of two log-gammas would keep only
        # about 1e-12 (5e-13 at p = 794.61)
        want = float(mp.sqrt(mp.pi) * mp.gamma(mp.mpf(p) + 1)
                     / (2 * mp.gamma(mp.mpf(p) + 1.5)))
        assert gamma_ratio_endpoint(p) == pytest.approx(want, rel=1e-14,
                                                        abs=0.0)

    def test_quadrature_cross_check(self):
        oracle = float(mp.quad(lambda r: 1 - r * r, [0, 1]))
        assert gamma_ratio_endpoint(1.0) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_is_limit_of_2f1(self, p):
        for k in (4, 5, 6):
            x = 1.0 - 10.0 ** -k
            approx = math.sqrt(x) * gauss_2f1_half(p, x)
            if k == 6:
                assert approx == pytest.approx(gamma_ratio_endpoint(p),
                                               abs=1e-6)

    def test_rejects_pole(self):
        for p in (-1.0, math.nan):
            with pytest.raises(ValueError):
                gamma_ratio_endpoint(p)


def test_log_gamma_rejects_bad_arguments():
    for x in (0.0, -2.5, math.nan):
        with pytest.raises(ValueError):
            log_gamma(x)


class TestIntegrateAdaptive:
    def test_linear(self):
        assert integrate_adaptive(lambda r: r, 0, 1, TIGHT) == pytest.approx(
            0.5, abs=1e-13)

    def test_log_integrand(self):
        val = integrate_adaptive(lambda r: 2 * r / (1 - r * r), 0, 0.9, TIGHT)
        assert val == pytest.approx(-math.log(1 - 0.81), abs=1e-10)

    def test_empty_interval(self):
        assert integrate_adaptive(lambda r: r, 2.0, 2.0, TIGHT) == 0.0

    def test_reversed_limits(self):
        assert integrate_adaptive(lambda r: 1.0, 1.0, 0.0, TIGHT) == \
            pytest.approx(-1.0, abs=1e-13)

    def test_nonconvergence_is_distinct(self):
        starved = Tolerance(1e-300, 1e-300, 2)
        with pytest.raises(IntegrationError):
            integrate_adaptive(lambda r: math.sin(50 * r) / (1e-9 + r * r),
                               0, 1, starved)


class TestQuadratureBound:
    """integrate_adaptive is y' = f(t) through integrate_ode: it must keep
    its bound abs_tol + rel_tol |I| on integrals with closed forms."""

    CASES = {
        "log": (lambda r: 2 * r / (1 - r * r), 0.0, 0.9, -math.log(0.19)),
        "sin20": (lambda x: math.sin(20 * x), 0.0, 3.0,
                  (1 - math.cos(60)) / 20),
        "gauss": (lambda x: math.exp(-x * x), -4.0, 4.0,
                  math.sqrt(math.pi) * math.erf(4)),
        "poly10": (lambda r: (1 - r * r) ** 5, 0.0, 1.0, 256 / 693),
        "arcsin": (lambda r: 1 / math.sqrt(1 - r * r), 0.0, 0.999,
                   math.asin(0.999)),
        "cos100": (math.cos, 0.0, 100.0, math.sin(100)),
        # mpmath.quad misses this one; 2 atan 50 is exact
        "cauchy": (lambda x: 1 / (1 + x * x), -50.0, 50.0, 2 * math.atan(50)),
        "exp_down": (math.exp, 10.0, 0.0, 1 - math.exp(10)),
    }

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("case", list(CASES))
    def test_meets_the_bound(self, case, eps):
        f, a, b, exact = self.CASES[case]
        got = integrate_adaptive(f, a, b, Tolerance(eps, eps, 100_000))
        assert abs(got - exact) <= eps + eps * abs(exact)

    @pytest.mark.parametrize("x", [0.0, -3.5, 1e300])
    def test_empty_interval_is_exactly_zero_without_calling_f(self, x):
        def f(t):
            raise AssertionError("f called on an empty interval")

        got = integrate_adaptive(f, x, x)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0

    def test_evaluates_f_at_both_ends(self):
        seen = []
        integrate_adaptive(lambda t: seen.append(t) or t, 0.25, 2.0)
        assert seen[0] == 0.25 and 2.0 in seen
        assert all(0.25 <= t <= 2.0 for t in seen)

    def test_max_iter_counts_attempted_steps(self):
        # f = 1 has no error, so each step is 5 times the last from 0.01:
        # 0.01, 0.05, 0.25 and the remaining 0.69 cover [0, 1] in four
        calls = 0

        def one(t):
            nonlocal calls
            calls += 1
            return 1.0

        assert integrate_adaptive(one, 0.0, 1.0, Tolerance(1e-9, 1e-9, 4)) \
            == pytest.approx(1.0, abs=1e-15)
        assert calls == 1 + 6 * 4
        with pytest.raises(IntegrationError, match="within 3 steps"):
            integrate_adaptive(one, 0.0, 1.0, Tolerance(1e-9, 1e-9, 3))

    @pytest.mark.parametrize("f", [math.sin, lambda r: 1.0],
                             ids=["sin", "constant"])
    def test_starved_budget_raises(self, f):
        with pytest.raises(IntegrationError):
            integrate_adaptive(f, 0.0, 1.0, Tolerance(1e-300, 1e-300, 2))

    @pytest.mark.parametrize("max_iter", [2, 10_000])
    @pytest.mark.parametrize("f, exact", [
        (lambda r: 1.0, 1.0), (lambda r: r, 0.5), (math.exp, math.e - 1)],
        ids=["constant", "linear", "exp"])
    def test_smallest_tolerance_runs_or_raises_integration_error(
            self, f, exact, max_iter):
        # tol / margin rounds to 0 here, which Tolerance would refuse
        tiny = math.ulp(0.0)
        try:
            got = integrate_adaptive(f, 0.0, 1.0,
                                     Tolerance(tiny, tiny, max_iter))
        except IntegrationError:
            return
        assert got == pytest.approx(exact, rel=1e-12)


class TestIntegrateOde:
    def test_exponential(self):
        (y,) = integrate_ode(lambda t, y: (y[0],), 0.0, (1.0,), 1.0)
        assert y == pytest.approx(math.e, rel=1e-11)

    @pytest.mark.parametrize("rhs", [
        lambda t, y: (math.nan,),
        lambda t, y: (math.nan if t > 0.5 else 1.0,),
        lambda t, y: (math.inf,),
    ], ids=["nan", "nan_midway", "inf"])
    def test_non_finite_step_raises(self, rhs):
        # max(err, nan) keeps err, so a NaN state used to pass as converged
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate_ode(rhs, 0.0, (1.0,), 1.0)

    @pytest.mark.parametrize("t0, t1", [
        (0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0),
    ])
    def test_non_finite_end_raises_at_once(self, t0, t1):
        # refused before a step: a NaN t1 would set the direction to -1 and
        # step away from t0 until the state overflows
        start = time.perf_counter()
        with pytest.raises(ValueError, match="finite t0, t1"):
            integrate_ode(lambda t, y: (y[0],), t0, (1.0,), t1)
        with pytest.raises(ValueError, match="finite t0, t1"):
            integrate_adaptive(math.exp, t0, t1)
        assert time.perf_counter() - start < 0.5

    def test_nan_error_of_a_finite_state_raises(self):
        # the 7th rhs call is the last stage, at the new state: y5 is finite
        # and only the error is NaN, which max() alone would drop
        calls = 0

        def rhs(t, y):
            nonlocal calls
            calls += 1
            return (math.nan if calls == 7 else 1.0,)

        with pytest.raises(IntegrationError,
                           match=r"^non-finite ODE step from t=0\.0$"):
            integrate_ode(rhs, 0.0, (0.0,), 1.0)

    def test_error_overflowing_to_inf_rejects_the_step(self):
        # error / 5e-324 is inf for a finite step: h shrinks until the
        # budget runs out
        with pytest.raises(IntegrationError,
                           match="did not converge within 50 steps"):
            integrate_adaptive(math.exp, 0, 1,
                               Tolerance(5e-324, 5e-324, 50))

    @pytest.mark.parametrize("rate", [1.0, -60.0], ids=["smooth", "stiff"])
    def test_first_stage_is_the_last_of_the_step_before(self, rate, caplog):
        # first-same-as-last: 1 + 6 rhs calls per attempted step, also
        # where steps are rejected (y' = -60 y fails the first step h = 0.01)
        calls = 0

        def rhs(t, y):
            nonlocal calls
            calls += 1
            return (rate * y[0],)

        with caplog.at_level(logging.DEBUG, logger=specfun.__name__):
            (y,) = integrate_ode(rhs, 0.0, (1.0,), 1.0)
        assert y == pytest.approx(math.exp(rate), rel=1e-10, abs=1e-12)
        accepted, rejected, logged = caplog.records[-1].args
        assert calls % 6 == 1
        assert calls == 1 + 6 * (accepted + rejected) == logged
        assert (rejected > 0) == (rate < 0.0)

    def test_logs_its_counters_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger=specfun.__name__):
            integrate_ode(lambda t, y: (y[1], -y[0]), 0.0, (0.0, 1.0), 1.0)
        (record,) = caplog.records
        assert record.name == "corrtrans.specfun"
        assert record.levelno == logging.DEBUG
        accepted, rejected, calls = record.args
        assert accepted > 0
        assert record.getMessage() == (f"integrate_ode: {accepted} accepted, "
                                       f"{rejected} rejected steps, "
                                       f"{calls} rhs calls")

    def test_silent_at_the_default_level(self):
        src = str(Path(specfun.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([path] if path else [])))
        code = ("from corrtrans.specfun import integrate_ode\n"
                "print(integrate_ode(lambda t, y: (y[0],), 0.0, (1.0,), 1.0))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith("(2.718281828")
        assert proc.stderr == ""
