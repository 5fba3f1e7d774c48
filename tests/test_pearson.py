import logging
import math
import os
import statistics
import subprocess
import sys
import time
from collections.abc import Mapping
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from corrtrans import edgeworth
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
        spec = lambda rho: mo.bvn_moments(0.0)
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


def skew_lambda(m, rho):
    """Third moment of Lambda = (YZ - (rho/2)(Y^2 + Z^2)) / sigma."""
    return pe.assemble_statistic_model(m, rho).skew


class TestSkewLambda:
    def test_bvn_vanishes(self):
        for rho in (-0.9, 0.0, 0.5, 0.9):
            assert skew_lambda(mo.BVN.moments, rho) == pytest.approx(
                0.0, abs=1e-12)

    def test_squarev_closed_form(self):
        rho = 0.5
        assert skew_lambda(mo.SQUAREV.moments, rho) == pytest.approx(
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
        assert abs(est - skew_lambda(mo.SQUAREV.moments, rho)) < 5 * se


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

    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV],
                             ids=lambda model: model.name)
    def test_extreme_z_gives_the_limit(self, model):
        # P / z^2 is below Q's last bit from |z| ~ 1e100 on, and 0.0 where
        # z^2 overflows to inf
        for rho in RHO_GRID.tolist():
            limit = pe.h_z(model.moments, rho, 1e100)
            for z in (1e155, 1e200, 1e300, -1e300):
                assert pe.h_z(model.moments, rho, z) == limit, (rho, z)

    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV],
                             ids=lambda model: model.name)
    @pytest.mark.parametrize("z", [1e-155, 1e-160, 1.2e-154])
    def test_rejects_z_where_p_over_z_squared_overflows(self, model, z):
        # z^2 is a positive subnormal or tiny normal, but P / z^2 is -inf;
        # at rho = 0, P = 0 and h_z is 0
        with pytest.raises(ValueError, match="finite z"):
            pe.h_z(model.moments, 0.5, z)
        assert pe.h_z(model.moments, 0.0, z) == 0.0

    def test_rejects_z_whose_square_underflows(self):
        for z in (1e-170, -1e-200, 5e-324):
            with pytest.raises(ValueError, match="finite z"):
                pe.h_z(mo.SQUAREV.moments, 0.5, z)
            with pytest.raises(ValueError, match="finite z"):
                pe.optimal_transform_numeric(mo.SQUAREV.moments, z)

    # the max relative error of h_z over H_Z_ZS at each rho, against the
    # closed form 2 rho (1 + B/z^2) / (k (1 - rho^2)) in mpmath at the same
    # floats, may not exceed that of the kernel that summed Delta_R in z,
    # rounded up to two digits; at 0.95 that of the expanded (P, Q)
    # polynomial, and BVN at 0.9 the factored kernel's own.  SquareV's h_z
    # is 0 at z = 1, where the error is taken relative to the z -> inf
    # limit 2 rho / (k (1 - rho^2)).
    H_Z_ZS = (0.3, 1.0, Z05, Z01, 5.0)
    H_Z_BOUNDS = {
        "bvn": {0.1: 7.7e-16, 0.5: 1.2e-15, 0.9: 8.7e-15, 0.95: 4.5e-12,
                0.99: 2.4e-10},
        "squarev": {0.1: 1.5e-15, 0.5: 1.6e-16, 0.9: 2.0e-15,
                    0.95: 2.6e-15, 0.99: 2.7e-14},
    }

    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV],
                             ids=lambda model: model.name)
    def test_matches_mpmath_to_the_old_kernels_accuracy(self, model):
        with mp.workdps(40):
            b = mp.mpf(model.delta_const)
            for rho, bound in self.H_Z_BOUNDS[model.name].items():
                limit = 2 * mp.mpf(rho) / (model.fisher_slope
                                           * (1 - mp.mpf(rho) ** 2))
                worst = 0.0
                for z in self.H_Z_ZS:
                    want = limit * (1 + b / mp.mpf(z) ** 2)
                    got = pe.h_z(model.moments, rho, z)
                    worst = max(worst, float(abs(got - want)
                                             / abs(want or limit)))
                assert worst <= bound, (rho, worst)


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
                      mo.transform_for(model, "optimal", Z05)):
                for rho in np.linspace(-0.95, 0.95, 11):
                    resid = t.dlog_dpsi(rho) - pe.h_z(m, rho, Z05)
                    assert abs(resid) < 1e-8

    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV],
                             ids=lambda model: model.name)
    def test_matches_closed_form_on_the_acceptance_grid(self, model):
        # 4.7e-12 measured; criterion 1 asks for the paper's 1e-8
        for z in (1.0, Z05, Z01):
            t = pe.optimal_transform_numeric(model.moments, z)
            for rho in sorted(RHO_GRID, key=abs):
                assert abs(t.psi(rho) - mo.psi_closed(model, z, rho)) <= 1e-10

    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV],
                             ids=lambda model: model.name)
    def test_h_z_once_per_node(self, model):
        # the stepper's last two stages share a node, and each integration
        # starts at the node where the one before ended
        for z in (1.0, Z05, Z01):
            m = RecordingMoments(model.moments)
            t = pe.optimal_transform_numeric(m, z)
            for rho in sorted(RHO_GRID, key=abs):
                t.psi(rho)
            assert len(m.rhos) > 100
            assert len(set(m.rhos)) == len(m.rhos)

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

    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV],
                             ids=lambda model: model.name)
    def test_extreme_z_matches_closed_form(self, model):
        # z^2 overflows: h_z is its limit Q / (48 sigma^4), and psi is the
        # closed form at p = -1/k (atanh for BVN)
        t = pe.optimal_transform_numeric(model.moments, 1e200)
        for rho in sorted(RHO_GRID, key=abs):
            assert abs(t.psi(rho) - mo.psi_closed(model, 1e200, rho)) <= 1e-10

    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV],
                             ids=lambda model: model.name)
    def test_z_where_h_z_overflows_fails_at_once(self, model):
        # built, since h_z(0) = 0, but refused by h_z on the first psi
        t = pe.optimal_transform_numeric(model.moments, 1e-155)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="finite z"):
            t.psi(0.5)
        assert time.perf_counter() - start < 0.5

    def test_nan_rho_fails_at_once(self):
        t = pe.optimal_transform_numeric(mo.BVN.moments, Z05)
        start = time.perf_counter()
        for f in (t.psi, t.dpsi):
            with pytest.raises(ValueError, match="valid only"):
                f(math.nan)
        assert time.perf_counter() - start < 0.5


class TestDeltaPsi:
    def test_identity_is_delta_r(self):
        t = mo.power_transform(0.0)
        for rho in (0.1, 0.5, -0.9):
            s = pe.sigma_rho(mo.BVN.moments, rho)
            expected = (normal_pdf(1.2)
                        * delta_r_tilde_reference(mo.BVN.moments(rho), rho,
                                                  1.2, s ** 2)
                        / (96 * s ** 3))
            assert pe.delta_psi(mo.BVN.moments, t, rho, 1.2) == \
                pytest.approx(expected, abs=1e-14)

    def test_bvn_fisher_closed_form(self):
        t = mo.power_transform(-1.0)
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


class RecordingMoments:
    """Moments that count the calls of a model, record the rho of each call
    and which orders (i, j) the returned tables are read at."""

    def __init__(self, m):
        self.m = m
        self.calls = 0
        self.rhos = []
        self.read = set()

    def __call__(self, rho):
        self.calls += 1
        self.rhos.append(rho)
        return ReadRecorder(self.m(rho), self.read)


class ReadRecorder(Mapping):
    """A moment table that adds each order read to a shared set."""

    def __init__(self, table, read):
        self.table = table
        self.read = read

    def __getitem__(self, order):
        self.read.add(order)
        return self.table[order]

    def __iter__(self):
        return iter(self.table)

    def __len__(self):
        return len(self.table)


MOMENT_READERS = {
    "sigma_rho": lambda m: pe.sigma_rho(m, 0.4),
    "h_z": lambda m: pe.h_z(m, 0.4, Z05),
    "delta_psi": lambda m: pe.delta_psi(m, mo.power_transform(-1.0), 0.4, Z05),
    "assemble_statistic_model":
        lambda m: pe.assemble_statistic_model(m, 0.4),
}


def delta_r_tilde_reference(mu, rho, z, s2):
    """96 sigma^3 Delta_R(z) / phi(z) summed term by term in z, one lookup
    per term, as `pearson` did before its kernel returned the pair (P, Q)."""
    t = z * z
    term0 = 16.0 * (
        (t - 1.0) * (6.0 * mu[1, 2] * mu[2, 1] - mu[3, 3])
        + 3.0 * s2 * t * (mu[1, 3] + mu[3, 1])
    )
    term1 = -12.0 * rho * (
        (t - 1.0) * (
            4.0 * mu[0, 3] * mu[2, 1] + 4.0 * mu[1, 2] * mu[3, 0]
            + 8.0 * mu[1, 2] ** 2 - 2.0 * mu[1, 3] * mu[3, 1]
            + mu[1, 3] ** 2 + 8.0 * mu[2, 1] ** 2 - 2.0 * mu[2, 4]
            + mu[3, 1] ** 2 - 2.0 * mu[4, 2]
        )
        + s2 * (
            (2.0 * t + 1.0) * (mu[0, 4] + mu[4, 0])
            + (4.0 * t - 2.0) * mu[2, 2]
        )
    )
    term2 = 12.0 * rho * rho * (t - 1.0) * (
        2.0 * mu[0, 3] * (3.0 * mu[1, 2] + mu[3, 0])
        + mu[0, 4] * (mu[1, 3] - mu[3, 1])
        + 10.0 * mu[1, 2] * mu[2, 1]
        - mu[1, 3] * mu[4, 0] - mu[1, 5]
        + 6.0 * mu[2, 1] * mu[3, 0]
        + mu[3, 1] * mu[4, 0] - 2.0 * mu[3, 3] - mu[5, 1]
    )
    term3 = -(rho ** 3) * (t - 1.0) * (
        24.0 * mu[0, 3] * mu[2, 1] + 12.0 * mu[0, 3] ** 2
        - 6.0 * mu[0, 4] * mu[4, 0] + 3.0 * mu[0, 4] ** 2 - 2.0 * mu[0, 6]
        + 24.0 * mu[1, 2] * mu[3, 0] + 12.0 * mu[1, 2] ** 2
        + 12.0 * mu[2, 1] ** 2 - 6.0 * mu[2, 4] + 12.0 * mu[3, 0] ** 2
        + 3.0 * mu[4, 0] ** 2 - 6.0 * mu[4, 2] - 2.0 * mu[6, 0]
    )
    return term0 + term1 + term2 + term3


class Magnitude(float):
    """A float whose + and - add absolute values and whose * and ** take
    them: a polynomial evaluated on Magnitudes gives the sum of the absolute
    values of its terms, which bounds the rounding of its float value."""

    def __add__(self, other):
        return Magnitude(abs(self) + abs(other))

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        return Magnitude(abs(self) * abs(other))

    __rmul__ = __mul__

    def __pow__(self, k):
        return Magnitude(abs(self) ** k)

    def __neg__(self):
        return Magnitude(abs(self))


# P + Q z^2 is the factored form of the reference's polynomial (sums of
# moments v = Sigma L, then v'Hv and the skewness sum), not a reordering of
# its terms, so the two agree only to rounding.  Each is at most ~25
# operations deep, so where the factored form's partial sums stay within
# the expanded terms' magnitude, each is within ~25 u of the exact value
# per unit of that magnitude (u = 2^-53), and the two within ~50 u = 25
# ulps of 1; the largest gap seen is 0.62 ulp (BVN)
KERNEL_ULPS = 32


@pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV],
                         ids=lambda model: model.name)
def test_delta_pq_matches_the_reference(model):
    for rho in np.linspace(-0.99, 0.99, 41).tolist():
        mu = model.moments(rho)
        s2, p, q = pe._delta_pq(model.moments, rho)
        size = {order: Magnitude(value) for order, value in mu.items()}
        for z in (0.3, 1.0, Z05, Z01, 3.0):
            terms = delta_r_tilde_reference(size, Magnitude(rho),
                                            Magnitude(z), Magnitude(s2))
            gap = abs(p + q * z * z - delta_r_tilde_reference(mu, rho, z, s2))
            assert gap <= KERNEL_ULPS * 2.0 ** -52 * terms, (rho, z, gap)


@pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV],
                         ids=lambda model: model.name)
def test_delta_pq_matches_the_matrix_path(model):
    # 96 sigma^3 Delta_R / phi = Q (z^2 - 1) + (P + Q), from the Edgeworth
    # matrices: Q = -96 sigma^3 (skew/6 + a3), P + Q = -96 sigma^3 a1.  The
    # largest gap seen is 3e-14 (BVN)
    for rho in [k / 100 for k in range(-95, 96) if k]:
        em = pe.assemble_statistic_model(model.moments, rho)
        s3 = em.sigma ** 3
        q_ref = -96.0 * s3 * (em.skew / 6.0 + edgeworth.coeff_a3(em))
        p_ref = -q_ref - 96.0 * s3 * edgeworth.coeff_a1(em)
        _, p, q = pe._delta_pq(model.moments, rho)
        assert p == pytest.approx(p_ref, rel=1e-13, abs=0.0), rho
        assert q == pytest.approx(q_ref, rel=1e-13, abs=0.0), rho


@pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV],
                         ids=lambda model: model.name)
def test_closed_form_constants_follow_from_the_moments(model):
    # Delta_R = phi g (z^2 + B) and h_z = 2 rho (1 + B/z^2) / (k (1 - rho^2))
    # make B = P/Q, g = Q / (96 sigma^3) and k = 96 rho sigma^4 /
    # (Q (1 - rho^2)): the hand-entered fields against the moment table
    for rho in [k / 20 for k in range(-18, 19) if k]:
        s2, p, q = pe._delta_pq(model.moments, rho)
        assert p / q == pytest.approx(model.delta_const, rel=1e-12), rho
        assert q / (96.0 * s2 * math.sqrt(s2)) == pytest.approx(
            model.odd_factor(rho), rel=1e-12), rho
        assert 96.0 * rho * s2 * s2 / (q * (1 - rho) * (1 + rho)) == \
            pytest.approx(model.fisher_slope, rel=1e-12), rho


class TestMomentReads:
    @pytest.mark.parametrize("reader", MOMENT_READERS)
    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV],
                             ids=lambda model: model.name)
    def test_each_order_is_read_once(self, reader, model):
        # the model builds its table, and so each order, once per call
        m = RecordingMoments(model.moments)
        MOMENT_READERS[reader](m)
        assert m.calls == 1
        assert m.read and all(i >= 0 and j >= 0 and i + j <= 6
                              for i, j in m.read), m.read


def rejection_threshold_80(t, rho, sigma, n, alpha):
    """r* by the fixed 80-step bisection on psi, which goes on evaluating
    psi after the bracket has closed to two neighbouring floats."""
    z_alpha = normal_quantile(1.0 - alpha)
    dpsi = t.dpsi(rho)
    if not dpsi * sigma > 0.0:
        raise pe.DegenerateModelError("scale")
    psi_rho = t.psi(rho)
    cut = psi_rho + z_alpha * dpsi * sigma / math.sqrt(n)
    if cut == psi_rho and z_alpha != 0.0:
        raise pe.DegenerateModelError("step")
    lo, hi = -1.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if t.psi(mid) > cut:
            hi = mid
        else:
            lo = mid
    if hi == 1.0 and not pe.tau(t, 1.0, rho, sigma, n) > z_alpha:
        return math.inf
    return 0.5 * (lo + hi)


def psi_root_mp(p, cut, r):
    """The root of psi(r) = cut for psi' = (1 - r^2)^p, at 40 digits, by
    Newton from r; returns it with psi' there."""
    with mp.workdps(40):
        p, cut, r = mp.mpf(p), mp.mpf(cut), mp.mpf(r)
        for _ in range(50):
            dpsi = (1 - r * r) ** p
            step = (r * mp.hyp2f1(0.5, -p, 1.5, r * r) - cut) / dpsi
            r -= step
            if abs(step) < 1e-20:
                return float(r), float(dpsi)
    raise AssertionError(f"no root of psi = {cut} near {r}")


# psi = r (1 - x)^(p+1) 2F1(1, p + 3/2; 3/2; x), x = r^2 (or its complement
# to psi(1) above x = 1/2), is steep where p is large.  (1 - x)^(p+1), from
# exp((p+1) log1p(-x)) of a rounded x, carries up to 3 k ulps, k = (p + 1)
# x / (1 - x).  The 2F1 series' terms are built by a recurrence with 6
# roundings per term and weigh most near index k, and the sum rounds once
# per term: up to about 7 k ulps more.  So psi's rounding is within
# STEEP_ULPS (1 + k) ulps of psi(1), and the float crossing of cut within
# that much, over psi', of the exact one.
STEEP_ULPS = 16


def steep_root_bound(p, r_star, r_mp, dpsi):
    x = max(r_star * r_star, r_mp * r_mp)
    rounding = (STEEP_ULPS * (1.0 + (p + 1.0) * x / (1.0 - x))
                * 2.0 ** -53 * mo.power_transform(p).psi(1.0))
    return pe._ROOT_TOL + rounding / dpsi


def check_against_the_bisection(model, alphas, rhos, ns):
    """r* against rejection_threshold_80 on a grid: the same cells raise
    and the same are +inf, and elsewhere r* is within 1e-12 of it, except
    for the optimal transform at alpha >= 0.45 (p ~ 21-795).  There psi'
    is so small against psi's own rounding that psi crosses cut at floats
    far apart, and r* is checked against mpmath's root of psi(r) = cut
    instead.  Returns the psi calls of each threshold and the count of
    r* = +inf."""
    calls, counts, infinite = [0], [], 0
    for alpha in alphas:
        z = normal_quantile(1.0 - alpha)
        for kind in mo.TRANSFORM_KINDS:
            p = mo.transform_exponent(model, kind, z)
            base = mo.power_transform(p)

            def psi(r, base=base):
                calls[0] += 1
                return base.psi(r)

            t = pe.Transform(psi, base.dpsi, base.dlog_dpsi)
            steep = kind == "optimal" and alpha >= 0.45
            for rho in rhos:
                sigma = model.sigma(rho)
                for n in ns:
                    case = (alpha, kind, rho, n)
                    try:
                        expected = rejection_threshold_80(
                            t, rho, sigma, n, alpha)
                    except pe.DegenerateModelError:
                        with pytest.raises(pe.DegenerateModelError):
                            pe.rejection_rule(t, rho, sigma, n, alpha)
                        continue
                    calls[0] = 0
                    r_star = pe.rejection_rule(t, rho, sigma, n, alpha).r_star
                    assert calls[0] <= 64, case
                    counts.append(calls[0])
                    if math.isinf(r_star) or math.isinf(expected):
                        assert r_star == expected, case
                        infinite += 1
                    elif steep:
                        cut = (base.psi(rho)
                               + z * base.dpsi(rho) * sigma / math.sqrt(n))
                        r_mp, dpsi = psi_root_mp(p, cut, r_star)
                        assert abs(r_star - r_mp) <= steep_root_bound(
                            p, r_star, r_mp, dpsi), (case, r_star, r_mp)
                    else:
                        assert abs(r_star - expected) <= 1e-12, case
    return counts, infinite


class TestRejectionThreshold:
    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV],
                             ids=lambda model: model.name)
    def test_matches_fixed_bisection(self, model):
        # to well inside the tie band, +inf and raises included, with a
        # median of at most 10 psi calls where the bisection takes ~80
        counts, infinite = check_against_the_bisection(
            model, (0.01, 0.05, 0.24, 0.4, 0.45),
            (-0.99, -0.9, -0.5, 0.0, 0.3, 0.5, 0.9, 0.99),
            (2, 3, 5, 10, 20, 100, 1000, 10_000))
        assert len(counts) - infinite > 800 and infinite > 50, \
            (len(counts), infinite)
        assert statistics.median(counts) <= 10, statistics.median(counts)

    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV],
                             ids=lambda model: model.name)
    def test_matches_fixed_bisection_on_a_wider_grid(self, model):
        # steep exponents (alpha 0.49: p ~ 800 for BVN, 530 for SquareV),
        # |rho| near 1 and the benchmark's n
        counts, _ = check_against_the_bisection(
            model, (0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.49),
            (-0.99, -0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 0.7, 0.9, 0.95, 0.99),
            (2, 5, 10, 50, 200, 1000, 10_000))
        assert len(counts) > 1500
        assert statistics.median(counts) <= 10, statistics.median(counts)

    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV],
                             ids=lambda model: model.name)
    def test_numeric_transform_matches_closed_form(self, model):
        # r* of the ODE transform, which stops at |R| = 1 - 1e-6, against
        # the closed form; cells where the closed-form r* is +inf or above
        # 0.999 would ask the numeric psi past its end
        cells = 0
        for alpha in (0.05, 0.01):
            z = normal_quantile(1.0 - alpha)
            numeric = pe.optimal_transform_numeric(model.moments, z)
            closed = mo.transform_for(model, "optimal", z)
            for rho in (-0.5, 0.0, 0.5, 0.9):
                sigma = model.sigma(rho)
                for n in (10, 100, 1000):
                    want = pe.rejection_rule(closed, rho, sigma, n,
                                             alpha).r_star
                    if not want <= 0.999:
                        continue
                    got = pe.rejection_rule(numeric, rho, sigma, n,
                                            alpha).r_star
                    assert got == pytest.approx(want, rel=0.0, abs=1e-10), \
                        (alpha, rho, n)
                    cells += 1
        assert cells >= 20

    def test_logs_its_counters_at_debug(self, caplog):
        base = mo.transform_for(mo.SQUAREV, "optimal", Z05)
        calls = [0]

        def psi(r):
            calls[0] += 1
            return base.psi(r)

        t = pe.Transform(psi, base.dpsi, base.dlog_dpsi)
        with caplog.at_level(logging.DEBUG, logger=pe.__name__):
            pe.rejection_rule(t, 0.5, mo.SQUAREV.sigma(0.5), 100, 0.05)
        (record,) = caplog.records
        assert record.name == "corrtrans.pearson"
        assert record.levelno == logging.DEBUG
        rho, n, z_alpha, logged, steps = record.args
        assert (rho, n, z_alpha) == (0.5, 100, Z05)
        assert logged == calls[0] <= 10
        assert 1 <= steps < logged
        assert record.getMessage() == (
            f"rejection_rule at rho=0.5, n=100, z_alpha={Z05!r}: "
            f"{logged} psi calls, {steps} Newton steps")

    def test_silent_at_the_default_level(self):
        src = str(Path(pe.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([path] if path else [])))
        code = ("from corrtrans import models as mo, pearson as pe\n"
                "t = mo.transform_for(mo.SQUAREV, 'optimal', 1.6448536269514722)\n"
                "print(pe.rejection_rule(t, 0.5, 0.75 ** 0.5, 100, 0.05)"
                ".r_star)")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith("0.6")
        assert proc.stderr == ""


def rule_80(t, rho, sigma, n, alpha):
    """`pearson.rejection_rule` built on rejection_threshold_80's r*."""
    z_alpha = normal_quantile(1.0 - alpha)
    r_star = rejection_threshold_80(t, rho, sigma, n, alpha)

    def rejects(r):
        reject = r > r_star + pe._TIE_BAND
        near = (r >= r_star - pe._TIE_BAND) & ~reject
        reject[near] = [pe.tau(t, v, rho, sigma, n) > z_alpha
                        for v in r[near].tolist()]
        return reject

    return rejects


class TestRejectionRule:
    def test_band_calls_psi_once_per_value(self):
        # R within 1e-9 of r* is decided by tau, from psi(R) alone: psi(rho)
        # and psi'(rho) sigma are computed once, with the rule
        base = mo.transform_for(mo.SQUAREV, "optimal", Z05)
        calls = [0]

        def psi(r):
            calls[0] += 1
            return base.psi(r)

        t = pe.Transform(psi, base.dpsi, base.dlog_dpsi)
        rho, sigma, n = 0.5, mo.SQUAREV.sigma(0.5), 100
        rule = pe.rejection_rule(t, rho, sigma, n, 0.05)
        r_star = rule.r_star
        band = [r_star - 5e-10, r_star, np.nextafter(r_star, 1.0),
                r_star + 5e-10]
        r = np.array(band * 3 + [0.0, 0.5, 0.99])
        calls[0] = 0
        got = rule(r)
        assert calls[0] == len(band)
        want = [pe.tau(base, v, rho, sigma, n) > Z05 for v in r.tolist()]
        assert got.tolist() == want

    def test_every_squarev_atom_as_with_the_bisection(self):
        # r* within 1e-13 of the root, inside the 1e-9 tie band, gives the
        # 80-step bisection's verdict on every atom of R for n <= 60
        rules = atoms = 0
        for n in (5, 10, 20, 40, 60):
            r = mo.SQUAREV.lattice.atoms(0.0, n)[0]
            for alpha in (0.01, 0.05, 0.24, 0.4, 0.45):
                z = normal_quantile(1.0 - alpha)
                for kind in mo.TRANSFORM_KINDS:
                    t = mo.transform_for(mo.SQUAREV, kind, z)
                    for rho in (-0.9, -0.5, 0.0, 0.1, 0.5, 0.9):
                        sigma = mo.SQUAREV.sigma(rho)
                        case = (n, alpha, kind, rho)
                        try:
                            want = rule_80(t, rho, sigma, n, alpha)(r)
                        except pe.DegenerateModelError:
                            with pytest.raises(pe.DegenerateModelError):
                                pe.rejection_rule(t, rho, sigma, n, alpha)
                            continue
                        got = pe.rejection_rule(t, rho, sigma, n, alpha)(r)
                        assert np.array_equal(got, want), case
                        rules += 1
                        atoms += len(r)
        assert (rules, atoms) == (444, 4_767_204)


class TestTau:
    @pytest.mark.parametrize("kind", mo.TRANSFORM_KINDS)
    @pytest.mark.parametrize("rho", [1.5, -1.5, math.inf])
    def test_rejects_rho_outside_minus_one_one(self, kind, rho):
        # SquareV's optimal (1 - rho^2)^p would be complex there
        t = mo.transform_for(mo.SQUAREV, kind, Z05)
        with pytest.raises(ValueError, match="rho must lie in"):
            pe.tau(t, 0.5, rho, 1.0, 10)
        with pytest.raises(ValueError, match="rho must lie in"):
            pe.rejection_rule(t, rho, 1.0, 10, 0.05)

    @pytest.mark.parametrize("kind", mo.TRANSFORM_KINDS)
    def test_nan_rho_is_degenerate(self, kind):
        # as bvn_moments states; the identity's psi' is 1 at NaN, and its
        # psi refuses NaN with ValueError
        t = mo.transform_for(mo.SQUAREV, kind, Z05)
        with pytest.raises(pe.DegenerateModelError):
            pe.tau(t, 0.5, math.nan, 1.0, 10)
        with pytest.raises(pe.DegenerateModelError):
            pe.rejection_rule(t, math.nan, 1.0, 10, 0.05)

    def test_zero_at_truth(self):
        t = mo.power_transform(0.0)
        assert pe.tau(t, 0.5, 0.5, 1.0, 100) == 0.0

    def test_identity_form(self):
        t = mo.power_transform(0.0)
        assert pe.tau(t, 0.6, 0.5, 0.75, 100) == pytest.approx(
            (0.6 - 0.5) * 10 / 0.75, abs=1e-14)

    def test_fisher_endpoint_always_rejects(self):
        t = mo.power_transform(-1.0)
        assert pe.tau(t, 1.0, 0.9, 0.3, 10) == math.inf

    def test_rejects_out_of_range_r(self):
        with pytest.raises(ValueError):
            pe.tau(mo.power_transform(0.0), 1.5, 0.0, 1.0, 10)
        # n < 1 too, by tau and by its inverse
        with pytest.raises(ValueError, match="n must be"):
            pe.tau(mo.power_transform(0.0), 0.5, 0.0, 1.0, 0)
        with pytest.raises(ValueError, match="n must be"):
            pe.rejection_rule(mo.power_transform(0.0), 0.0, 1.0, 0, 0.05)

    def test_rejects_non_positive_scale(self):
        # psi'(rho) sigma = 0: sigma = 0, or psi'(rho) underflows (the
        # SquareV optimal exponent is 530 at alpha = 0.49)
        steep = mo.transform_for(mo.SQUAREV, "optimal", normal_quantile(0.51))
        for t, rho, sigma in ((mo.power_transform(0.0), 0.5, 0.0),
                              (steep, 0.99, 0.14)):
            with pytest.raises(pe.DegenerateModelError):
                pe.tau(t, 0.5, rho, sigma, 10)
            with pytest.raises(pe.DegenerateModelError):
                pe.rejection_rule(t, rho, sigma, 10, 0.49)


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
