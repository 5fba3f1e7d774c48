import math
from collections import Counter

import numpy as np
import pytest

from corrtrans import models as mo
from corrtrans import pearson as pe
from corrtrans.specfun import Tolerance, normal_pdf, normal_quantile
from direct_samplers import (
    pearson_r,
    r_from_sums_reference,
    sample_bvn,
    sample_squarev,
)

Z05 = normal_quantile(0.95)
Z01 = normal_quantile(0.99)
RHO_GRID = np.linspace(-0.9, 0.9, 19)


class TestPearsonR:
    def test_perfect_line(self):
        assert pearson_r([(1, 1), (2, 2), (3, 3)]) == pytest.approx(1.0)

    def test_balanced_square(self):
        assert pearson_r([(1, 1), (-1, -1), (1, -1), (-1, 1)]) == 0.0

    def test_degenerate_convention(self):
        assert pearson_r([(1, 5), (1, 7), (1, 9)]) == 0.0

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            pearson_r([(1, 2)])

    def test_large_offset_does_not_cancel(self):
        # one-pass raw sums give 0.567 at a 1e8 shift and 0.0 at 1e9
        for shift in (1e8, 1e9):
            pairs = [(shift, 1), (shift + 1, 2), (shift + 2, 2.5)]
            assert pearson_r(pairs) == pytest.approx(0.9819805060619657,
                                                        abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 10, 100])
    def test_matches_numpy_corrcoef_when_shifted(self, n):
        rng = np.random.Generator(np.random.Philox(key=n))
        for rho in (-0.7, 0.0, 0.5, 0.95):
            yz = sample_bvn(rho, n, rng) + np.array([1e8, -3e8])
            want = np.corrcoef(yz[:, 0], yz[:, 1])[0, 1]
            assert pearson_r(yz) == pytest.approx(want, abs=1e-12)


class TestRFromSums:
    def test_matches_reference_bitwise(self):
        # raw sums of BVN samples, with rows where the variances are
        # exactly 0, rounded below 0, or NaN (R := 0 on each)
        n = 7
        rng = np.random.Generator(np.random.Philox(key=3))
        yz = sample_bvn(0.6, 4000 * n, rng).reshape(4000, n, 2) * 3.0 + 1.0
        y, z = yz[..., 0], yz[..., 1]
        sums = [y.sum(1), z.sum(1), (y * y).sum(1), (z * z).sum(1),
                (y * z).sum(1)]
        sums[2][:3] = sums[0][:3] ** 2 / n * np.array([1.0, 1 - 1e-16, 0.5])
        sums[3][3] = math.nan
        got = pe.r_from_sums(n, *sums)
        assert np.array_equal(got, r_from_sums_reference(n, *sums))
        assert np.all(got[:4] == 0.0)
        for row in (0, 4, 5):
            scalars = [float(s[row]) for s in sums]
            assert float(pe.r_from_sums(n, *scalars)) == float(
                r_from_sums_reference(n, *scalars))

    def test_leaves_its_arguments_unchanged(self):
        sums = [np.array([1.0, 2.0]), np.array([0.5, -1.0]),
                np.array([3.0, 4.0]), np.array([2.0, 5.0]),
                np.array([1.5, -0.5])]
        copies = [s.copy() for s in sums]
        pe.r_from_sums(3, *sums)
        for s, c in zip(sums, copies):
            assert np.array_equal(s, c)


class TestSigmaRho:
    def test_bvn_closed_form(self):
        for rho in (-0.9, 0.0, 0.5, 0.9):
            assert pe.sigma_rho(mo.BVN.moments, rho) == pytest.approx(
                1 - rho * rho, abs=1e-13)

    def test_squarev(self):
        assert pe.sigma_rho(mo.SQUAREV.moments, 0.5) == pytest.approx(
            math.sqrt(0.75), abs=1e-13)

    def test_independent_pair(self):
        spec = lambda rho, i, j: mo.bvn_moments(0.0, i, j)
        assert pe.sigma_rho(spec, 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_even_in_rho(self):
        for m in (mo.BVN.moments, mo.SQUAREV.moments):
            for rho in RHO_GRID:
                assert pe.sigma_rho(m, rho) == pytest.approx(
                    pe.sigma_rho(m, -rho), abs=1e-10)

    def test_nan_rho_is_degenerate(self):
        for m in (mo.BVN.moments, mo.SQUAREV.moments):
            with pytest.raises(pe.DegenerateModelError):
                pe.sigma_rho(m, math.nan)


class TestSkewLambda:
    def test_bvn_vanishes(self):
        for rho in (-0.9, 0.0, 0.5, 0.9):
            assert pe.skew_lambda(mo.BVN.moments, rho) == pytest.approx(
                0.0, abs=1e-12)

    def test_squarev_closed_form(self):
        rho = 0.5
        assert pe.skew_lambda(mo.SQUAREV.moments, rho) == pytest.approx(
            -2 * rho / math.sqrt(1 - rho * rho), abs=1e-12)

    def test_monte_carlo_oracle(self):
        # E Lambda^3 estimated directly from SquareV samples
        rho = 0.5
        rng = np.random.Generator(np.random.Philox(key=13))
        yz = sample_squarev(rho, 2_000_000, rng)
        y, z = yz[:, 0], yz[:, 1]
        w = y * z - (rho / 2) * (y * y + z * z)
        sigma = pe.sigma_rho(mo.SQUAREV.moments, rho)
        est = float(np.mean(w ** 3)) / sigma ** 3
        se = float(np.std(w ** 3)) / sigma ** 3 / math.sqrt(len(w))
        assert abs(est - pe.skew_lambda(mo.SQUAREV.moments, rho)) < 5 * se


class TestHz:
    def test_bvn_reduction_value(self):
        h = pe.h_z(mo.BVN.moments, 0.5, Z05)
        p_z = 1 / (2 * Z05 ** 2) - 1
        assert h == pytest.approx(p_z * (-1.0) / 0.75, abs=1e-10)
        assert h == pytest.approx(1.08696, abs=1e-4)

    def test_squarev_z1_vanishes(self):
        assert pe.h_z(mo.SQUAREV.moments, 0.5, 1.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_rho_zero(self):
        for m in (mo.BVN.moments, mo.SQUAREV.moments):
            assert pe.h_z(m, 0.0, 1.3) == 0.0

    def test_odd_in_rho(self):
        for m in (mo.BVN.moments, mo.SQUAREV.moments):
            for rho in RHO_GRID:
                assert pe.h_z(m, rho, Z05) == pytest.approx(
                    -pe.h_z(m, -rho, Z05), abs=1e-10)

    def test_rejects_z_zero(self):
        with pytest.raises(ValueError):
            pe.h_z(mo.BVN.moments, 0.5, 0.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_z(self, z):
        with pytest.raises(ValueError, match="finite z"):
            pe.h_z(mo.BVN.moments, 0.2, z)


class TestOptimalTransformNumeric:
    def test_initial_conditions(self):
        t = pe.optimal_transform_numeric(mo.SQUAREV.moments, Z05)
        assert t.psi(0.0) == 0.0
        assert t.dpsi(0.0) == 1.0

    def test_bvn_identity_case(self):
        t = pe.optimal_transform_numeric(mo.BVN.moments, 1 / math.sqrt(2))
        for rho in RHO_GRID:
            assert t.psi(rho) == pytest.approx(rho, abs=1e-8)

    def test_matches_closed_form(self):
        t = pe.optimal_transform_numeric(mo.BVN.moments, Z05)
        assert t.psi(0.5) == pytest.approx(mo.psi_closed(mo.BVN, Z05, 0.5),
                                           abs=1e-8)

    def test_odd(self):
        t = pe.optimal_transform_numeric(mo.SQUAREV.moments, Z01)
        for rho in (0.2, 0.5, 0.9):
            assert t.psi(-rho) == -t.psi(rho)

    def test_ode_consistency(self):
        # psi''/psi' = h_z: the numeric transform carries h_z itself, the
        # closed form carries -2 p rho / (1 - rho^2)
        for model in (mo.BVN, mo.SQUAREV):
            m = model.moments
            for t in (pe.optimal_transform_numeric(m, Z05),
                      mo.optimal_transform_closed(model, Z05)):
                for rho in np.linspace(-0.95, 0.95, 11):
                    resid = t.dlog_dpsi(rho) - pe.h_z(m, rho, Z05)
                    assert abs(resid) < 1e-8

    def test_endpoint_rejected(self):
        t = pe.optimal_transform_numeric(mo.BVN.moments, Z05)
        with pytest.raises(ValueError):
            t.psi(1.0 - 1e-8)

    def test_rejects_z_zero(self):
        with pytest.raises(ValueError):
            pe.optimal_transform_numeric(mo.BVN.moments, 0.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_z(self, z):
        # refused when built, not as a NaN psi on first use
        with pytest.raises(ValueError, match="finite z"):
            pe.optimal_transform_numeric(mo.SQUAREV.moments, z)


class TestDeltaPsi:
    def test_identity_is_delta_r(self):
        t = pe.identity_transform()
        for rho in (0.1, 0.5, -0.9):
            s = pe.sigma_rho(mo.BVN.moments, rho)
            expected = (normal_pdf(1.2)
                        * pe.delta_r_tilde(mo.BVN.moments, rho, 1.2)
                        / (96 * s ** 3))
            assert pe.delta_psi(mo.BVN.moments, t, rho, 1.2) == \
                pytest.approx(expected, abs=1e-14)

    def test_bvn_fisher_closed_form(self):
        t = pe.fisher_transform()
        for rho in (-0.9, 0.1, 0.5):
            for z in (0.7, Z05):
                assert pe.delta_psi(mo.BVN.moments, t, rho, z) == \
                    pytest.approx(-rho / 2 * normal_pdf(z), abs=1e-12)

    def test_optimal_vanishes_at_its_z(self):
        for m in (mo.BVN.moments, mo.SQUAREV.moments):
            for z in (Z05, Z01, 1.0):
                t = pe.optimal_transform_numeric(m, z)
                for rho in (-0.9, -0.5, 0.1, 0.5, 0.9):
                    assert abs(pe.delta_psi(m, t, rho, z)) < 1e-10


class CountingMoments:
    """Moments that count how often each order (i, j) is asked for."""

    def __init__(self, m):
        self.m = m
        self.asked = Counter()

    def __call__(self, rho, i, j):
        self.asked[i, j] += 1
        return self.m(rho, i, j)


MOMENT_READERS = {
    "sigma_rho": lambda m: pe.sigma_rho(m, 0.4),
    "skew_lambda": lambda m: pe.skew_lambda(m, 0.4),
    "delta_r_tilde": lambda m: pe.delta_r_tilde(m, 0.4, Z05),
    "h_z": lambda m: pe.h_z(m, 0.4, Z05),
    "delta_psi": lambda m: pe.delta_psi(m, pe.fisher_transform(), 0.4, Z05),
    "assemble_statistic_model":
        lambda m: pe.assemble_statistic_model(m, 0.4),
}


class TestMomentReads:
    @pytest.mark.parametrize("reader", MOMENT_READERS)
    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV],
                             ids=lambda model: model.name)
    def test_each_order_is_read_once(self, reader, model):
        m = CountingMoments(model.moments)
        MOMENT_READERS[reader](m)
        assert m.asked and max(m.asked.values()) == 1, m.asked
        assert all(i >= 0 and j >= 0 and i + j <= 6 for i, j in m.asked)


class TestTau:
    def test_zero_at_truth(self):
        t = pe.identity_transform()
        assert pe.tau(t, 0.5, 0.5, 1.0, 100) == 0.0

    def test_identity_form(self):
        t = pe.identity_transform()
        assert pe.tau(t, 0.6, 0.5, 0.75, 100) == pytest.approx(
            (0.6 - 0.5) * 10 / 0.75, abs=1e-14)

    def test_fisher_endpoint_always_rejects(self):
        t = pe.fisher_transform()
        assert pe.tau(t, 1.0, 0.9, 0.3, 10) == math.inf

    def test_rejects_out_of_range_r(self):
        with pytest.raises(ValueError):
            pe.tau(pe.identity_transform(), 1.5, 0.0, 1.0, 10)
        # n < 1 too, by tau and by its inverse
        with pytest.raises(ValueError, match="n must be"):
            pe.tau(pe.identity_transform(), 0.5, 0.0, 1.0, 0)
        with pytest.raises(ValueError, match="n must be"):
            pe.rejection_threshold(pe.identity_transform(), 0.0, 1.0, 0, 0.05)

    def test_rejects_non_positive_scale(self):
        # psi'(rho) sigma = 0: sigma = 0, or psi'(rho) underflows (the
        # SquareV optimal exponent is 530 at alpha = 0.49)
        steep = mo.transform_for(mo.SQUAREV, "optimal", normal_quantile(0.51))
        for t, rho, sigma in ((pe.identity_transform(), 0.5, 0.0),
                              (steep, 0.99, 0.14)):
            with pytest.raises(pe.DegenerateModelError):
                pe.tau(t, 0.5, rho, sigma, 10)
            with pytest.raises(pe.DegenerateModelError):
                pe.rejection_threshold(t, rho, sigma, 10, 0.49)


def _f_rho(rho, v):
    # R - rho as a function of the mean score vector v
    d1 = 1.0 + v[2] - v[0] * v[0]
    d2 = 1.0 + v[3] - v[1] * v[1]
    if d1 <= 0.0 or d2 <= 0.0:
        return 0.0
    return (rho + v[4] - v[0] * v[1]) / (math.sqrt(d1) * math.sqrt(d2)) - rho


def _hessian_fd(rho, dim=5, step=1e-5):
    # central differences of _f_rho at 0
    H = np.zeros((dim, dim))
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = step
        H[i, i] = (_f_rho(rho, ei) + _f_rho(rho, -ei)) / step ** 2
        for j in range(i + 1, dim):
            ej = np.zeros(dim)
            ej[j] = step
            H[i, j] = H[j, i] = (
                _f_rho(rho, ei + ej) - _f_rho(rho, ei - ej)
                - _f_rho(rho, -ei + ej) + _f_rho(rho, -ei - ej)
            ) / (4.0 * step ** 2)
    return 0.5 * (H + H.T)


class TestAssembleStatisticModel:
    def test_hessian_matches_finite_differences(self):
        for rho in np.linspace(-0.99, 0.99, 199):
            H = pe.assemble_statistic_model(mo.BVN.moments, rho).H
            assert np.array_equal(H, H.T)
            assert np.max(np.abs(H - _hessian_fd(rho))) < 1e-5, rho

    def test_sigma_field_consistent(self):
        for rho in (0.1, 0.5, 0.9):
            m = pe.assemble_statistic_model(mo.SQUAREV.moments, rho)
            assert m.sigma == pe.sigma_rho(mo.SQUAREV.moments, rho)
            assert m.skew == pe.skew_lambda(mo.SQUAREV.moments, rho)

    def test_rho_zero_delta_vanishes(self):
        from corrtrans import edgeworth as ed
        m = pe.assemble_statistic_model(mo.SQUAREV.moments, 0.0)
        for z in (0.5, 1.0, 2.0):
            assert ed.delta(m, z) == pytest.approx(0.0, abs=1e-8)


class TestMonotoneRatio:
    def test_psi_ratio_decreasing_in_rho_sq(self):
        # closed-form BVN: psi_z1 / psi_z2 decreases in rho^2 for |z1| < |z2|
        for z1, z2 in ((0.7, 1.2), (1.0, Z05), (Z05, Z01)):
            rhos = np.linspace(0.05, 0.95, 19)
            ratios = [mo.psi_closed(mo.BVN, z1, r) / mo.psi_closed(mo.BVN, z2, r)
                      for r in rhos]
            assert all(a > b for a, b in zip(ratios, ratios[1:]))
