import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
