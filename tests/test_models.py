import math

import mpmath as mp
import numpy as np
import pytest

from corrtrans import models as mo
from corrtrans import pearson as pe
from corrtrans.specfun import (
    gamma_ratio_endpoint,
    log_gamma,
    normal_cdf,
    normal_pdf,
    normal_quantile,
)
from direct_samplers import (
    bvn_sample_r_reference,
    pearson_r,
    sample_bvn,
    sample_squarev,
    sample_squarev_via_bvn,
    squarev_sample_r_reference,
)

Z05 = normal_quantile(0.95)
Z01 = normal_quantile(0.99)
ORDERS = [(i, j) for i in range(7) for j in range(7) if i + j <= 6]


class TestBvnMoments:
    def test_basic(self):
        assert mo.bvn_moments(0.5, 1, 1) == pytest.approx(0.5)
        assert mo.bvn_moments(0.5, 2, 2) == pytest.approx(1.5)       # 1+2rho^2
        assert mo.bvn_moments(0.5, 3, 3) == pytest.approx(5.25)      # 9rho+6rho^3

    def test_isserlis_oracle(self):
        # brute-force Wick pairing over all pairings of the 2k coordinates
        from itertools import permutations

        def wick(rho, i, j):
            idx = [0] * i + [1] * j
            if len(idx) % 2:
                return 0.0
            cov = [[1.0, rho], [rho, 1.0]]
            total, count = 0.0, 0
            seen = set()
            for perm in permutations(range(len(idx))):
                pairs = tuple(sorted(tuple(sorted((perm[2 * k], perm[2 * k + 1])))
                                     for k in range(len(idx) // 2)))
                if pairs in seen:
                    continue
                seen.add(pairs)
                prod = 1.0
                for a, b in pairs:
                    prod *= cov[idx[a]][idx[b]]
                total += prod
                count += 1
            return total

        for (i, j) in [(2, 2), (3, 3), (4, 2), (1, 5), (2, 4), (6, 0)]:
            assert mo.bvn_moments(0.37, i, j) == pytest.approx(
                wick(0.37, i, j), abs=1e-12)

    def test_standardization(self):
        for rho in (0.0, 0.5, -0.8):
            assert mo.bvn_moments(rho, 0, 0) == 1.0
            assert mo.bvn_moments(rho, 1, 0) == 0.0
            assert mo.bvn_moments(rho, 2, 0) == pytest.approx(1.0)
            assert mo.bvn_moments(rho, 0, 2) == pytest.approx(1.0)

    def test_rejects_high_order(self):
        with pytest.raises(ValueError):
            mo.bvn_moments(0.5, 4, 4)


class TestSquarevMoments:
    def test_parity_rules(self):
        assert mo.squarev_moments(0.5, 1, 0) == 0.0
        assert mo.squarev_moments(0.5, 2, 2) == 1.0
        assert mo.squarev_moments(0.5, 1, 3) == 0.5   # Y^2=Z^2=1 a.s.
        assert mo.squarev_moments(0.7, 1, 1) == pytest.approx(0.7)

    def test_exact_four_point_oracle(self):
        for rho in (0.0, 0.3, 0.9):
            pts = [(1, 1, (1 + rho) / 4), (1, -1, (1 - rho) / 4),
                   (-1, 1, (1 - rho) / 4), (-1, -1, (1 + rho) / 4)]
            for (i, j) in ORDERS:
                exact = sum(p * y ** i * z ** j for y, z, p in pts)
                assert mo.squarev_moments(rho, i, j) == pytest.approx(
                    exact, abs=1e-14)


class TestSamplers:
    def test_bvn_determinism(self):
        a = sample_bvn(0.5, 1000, np.random.Generator(np.random.Philox(key=5)))
        b = sample_bvn(0.5, 1000, np.random.Generator(np.random.Philox(key=5)))
        assert np.array_equal(a, b)

    def test_bvn_calibration(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        yz = sample_bvn(0.0, 1_000_000, rng)
        r = pearson_r(yz)
        assert abs(r) < 4 / math.sqrt(1_000_000)
        rng = np.random.Generator(np.random.Philox(key=12))
        yz = sample_bvn(0.9, 1_000_000, rng)
        assert abs(yz[:, 0].mean()) < 4 / math.sqrt(1_000_000)

    def test_squarev_cells_uniform_at_rho0(self):
        rng = np.random.Generator(np.random.Philox(key=21))
        yz = sample_squarev(0.0, 1_000_000, rng)
        for ys, zs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            frac = np.mean((yz[:, 0] == ys) & (yz[:, 1] == zs))
            assert abs(frac - 0.25) < 4 * math.sqrt(0.25 * 0.75 / 1_000_000)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_moment_cross_validation(self, rho):
        n = 1_000_000
        for model, sampler, key in ((mo.BVN, sample_bvn, 31),
                                    (mo.SQUAREV, sample_squarev, 32)):
            rng = np.random.Generator(np.random.Philox(key=key))
            yz = sampler(rho, n, rng)
            y, z = yz[:, 0], yz[:, 1]
            for (i, j) in ORDERS:
                vals = y ** i * z ** j
                est = float(vals.mean())
                se = float(vals.std()) / math.sqrt(n)
                exact = model.moments(rho, i, j)
                assert abs(est - exact) <= 5 * se + 1e-12, (model.name, i, j)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_sign_transform_equivalence(self, rho):
        n = 1_000_000
        rng = np.random.Generator(np.random.Philox(key=41))
        direct = sample_squarev(rho, n, rng)
        rng = np.random.Generator(np.random.Philox(key=42))
        via = sample_squarev_via_bvn(rho, n, rng)
        for ys, zs, p in [(1, 1, (1 + rho) / 4), (1, -1, (1 - rho) / 4),
                          (-1, 1, (1 - rho) / 4), (-1, -1, (1 + rho) / 4)]:
            bound = 5 * math.sqrt(p * (1 - p) / n)
            for sample in (direct, via):
                frac = np.mean((sample[:, 0] == ys) & (sample[:, 1] == zs))
                assert abs(frac - p) < bound

    def test_theta_mapping(self):
        assert math.cos(math.pi * (1 - 0.0) / 2) == pytest.approx(0.0, abs=1e-15)
        assert math.cos(math.pi * (1 - 0.5) / 2) == pytest.approx(0.70711,
                                                                  abs=1e-5)


class TestPsiClosed:
    def test_bvn_pearson_is_member(self):
        for rho in np.linspace(-0.9, 0.9, 19):
            assert mo.psi_closed(mo.BVN, 1 / math.sqrt(2), rho) == \
                pytest.approx(rho, abs=1e-12)

    def test_squarev_pearson_is_member(self):
        for rho in np.linspace(-0.9, 0.9, 19):
            assert mo.psi_closed(mo.SQUAREV, 1.0, rho) == pytest.approx(
                rho, abs=1e-12)

    def test_fisher_limit(self):
        for rho in np.linspace(-0.9, 0.9, 19):
            assert abs(mo.psi_closed(mo.BVN, 100.0, rho)
                       - math.atanh(rho)) <= 5e-4

    def test_bvn_endpoints(self):
        for z in (1.0, Z05):
            p = mo.optimal_exponent(mo.BVN, z)
            assert mo.psi_closed(mo.BVN, z, 1.0) == pytest.approx(
                gamma_ratio_endpoint(p), abs=1e-12)
            assert mo.psi_closed(mo.BVN, z, -1.0) == pytest.approx(
                -gamma_ratio_endpoint(p), abs=1e-12)

    def test_rejects_z_zero(self):
        with pytest.raises(ValueError):
            mo.psi_closed(mo.BVN, 0.0, 0.5)

    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV])
    @pytest.mark.parametrize("alpha", [0.45, 0.48, 0.49])
    def test_steep_exponents_stay_in_range(self, model, alpha):
        # levels near 0.5 give exponents of 20 to 800; psi, the integral of
        # (1-r^2)^p over [0, rho], must then increase to psi(1) without
        # passing it, up to the 1e-12 relative accuracy of each value
        z = normal_quantile(1.0 - alpha)
        top = gamma_ratio_endpoint(mo.optimal_exponent(model, z))
        values = [mo.psi_closed(model, z, rho)
                  for rho in np.linspace(0.0, 1.0, 401)[1:]]
        assert values[-1] == top
        assert all(0.0 < v <= top * (1.0 + 1e-12) for v in values)
        assert all(b >= a * (1.0 - 1e-12) for a, b in zip(values, values[1:]))

    def test_squarev_exponent_above_fisher(self):
        # q_z > -1/3 for every z, so Fisher is never in the SquareV family
        for z in np.concatenate([np.linspace(0.05, 10, 40), [100.0, 1e4]]):
            assert mo.optimal_exponent(mo.SQUAREV, z) + 1 / 3 > 0


class TestFisher:
    def test_values(self):
        fisher = pe.fisher_transform().psi
        assert fisher(0.0) == 0.0
        assert fisher(0.5) == pytest.approx(0.549306, abs=1e-6)
        assert fisher(1.0) == math.inf
        assert fisher(-1.0) == -math.inf


class TestOptimalExponent:
    def test_paper_exponents(self):
        # BVN: p_z = 1/(2z^2) - 1; SquareV: q_z = 1/(3z^2) - 1/3
        for z in (0.3, 1 / math.sqrt(2), 1.0, Z05, Z01, -2.0, 10.0):
            assert mo.optimal_exponent(mo.BVN, z) == pytest.approx(
                1 / (2 * z ** 2) - 1, rel=1e-15, abs=1e-15)
            assert mo.optimal_exponent(mo.SQUAREV, z) == pytest.approx(
                1 / (3 * z ** 2) - 1 / 3, rel=1e-15, abs=1e-15)

    def test_rejects_z_zero(self):
        for z in (0.0, math.nan):
            with pytest.raises(ValueError):
                mo.optimal_exponent(mo.SQUAREV, z)


class TestDeltaClosed:
    def test_bvn_identity(self):
        assert mo.delta_closed(mo.BVN, "identity", 1.0, 0.5) == pytest.approx(
            0.25 * normal_pdf(1.0), abs=1e-12)

    def test_squarev_fisher(self):
        val = mo.delta_closed(mo.SQUAREV, "fisher", 1.0, 0.5)
        assert val == pytest.approx(-0.139702, abs=1e-6)

    def test_optimal_vanishes_at_z_ref(self):
        for model in (mo.BVN, mo.SQUAREV):
            assert mo.delta_closed(model, "optimal", Z05, 0.7, Z05) == 0.0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            mo.delta_closed(mo.BVN, "probit", 1.0, 0.5)

    def test_rejects_rho_outside_open_interval(self):
        for rho in (1.0, -1.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="rho"):
                mo.delta_closed(mo.BVN, "identity", 1.0, rho)

    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV])
    @pytest.mark.parametrize("kind", ["identity", "fisher", "optimal"])
    def test_matches_generic_pipeline(self, model, kind):
        for rho in (-0.9, -0.5, 0.1, 0.5, 0.9):
            for z in (0.7, 1.0, Z05, Z01):
                t = mo.transform_for(model, kind, Z05)
                closed = mo.delta_closed(model, kind, z, rho, Z05)
                generic = pe.delta_psi(model.moments, t, rho, z)
                assert closed == pytest.approx(generic, abs=1e-8)

    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV])
    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.45, 0.49, 0.495])
    def test_optimal_generic_at_steep_exponents(self, model, alpha):
        # psi'(rho) underflows near |rho| = 1 at these levels; the generic
        # pipeline reads psi''/psi', which does not
        z = normal_quantile(1.0 - alpha)
        t = mo.transform_for(model, "optimal", z)
        for rho in np.linspace(-0.995, 0.995, 200).tolist():
            closed = mo.delta_closed(model, "optimal", z, rho, z)
            generic = pe.delta_psi(model.moments, t, rho, z)
            assert closed == pytest.approx(generic, abs=1e-8), rho


class TestDominanceRange:
    def test_bvn_vs_identity(self):
        iv = mo.dominance_range(mo.BVN, 0.05, "identity")
        assert iv.lo == pytest.approx(0.0, abs=1e-6)
        assert iv.hi == pytest.approx(0.17912, abs=5e-5)

    def test_bvn_vs_fisher(self):
        iv = mo.dominance_range(mo.BVN, 0.01, "fisher")
        assert iv.lo == pytest.approx(0.00050, abs=5e-5)
        assert iv.hi == pytest.approx(0.5, abs=1e-6)

    def test_squarev_vs_identity(self):
        iv = mo.dominance_range(mo.SQUAREV, 0.05, "identity")
        assert iv.hi == pytest.approx(0.11344, abs=5e-5)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            mo.dominance_range(mo.BVN, 0.7, "identity")

    def test_rejects_level_where_identity_is_optimal(self):
        # t_alpha = 1 = |B|: the SquareV optimal transform is R itself
        with pytest.raises(ValueError, match="identity is itself optimal"):
            mo.dominance_range(mo.SQUAREV, 0.15865525393145707, "identity")

    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV])
    @pytest.mark.parametrize("competitor", ["identity", "fisher"])
    def test_matches_grid_search(self, model, competitor):
        for alpha in np.geomspace(1e-6, 0.2, 300):
            got = mo.dominance_range(model, alpha, competitor)
            want = _dominance_range_grid(model, alpha, competitor)
            assert abs(got.lo - want.lo) <= 1e-9, alpha
            assert abs(got.hi - want.hi) <= 1e-9, alpha

    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV])
    @pytest.mark.parametrize("competitor", ["identity", "fisher"])
    def test_endpoints_are_sign_changes(self, model, competitor):
        # up to alpha = 0.49, where t_alpha = 6e-4 is below the step of
        # _dominance_range_grid
        def gap(beta):
            t = normal_quantile(beta) ** 2
            return (abs(mo._delta_shape(model, "optimal", t, t_alpha))
                    - abs(mo._delta_shape(model, competitor, t, t_alpha)))

        for alpha in np.concatenate([np.geomspace(1e-6, 0.2, 40),
                                     np.linspace(0.2, 0.49, 30)]):
            t_alpha = normal_quantile(1.0 - alpha) ** 2
            if mo._delta_shape(model, competitor, t_alpha, None) == 0.0:
                continue
            iv = mo.dominance_range(model, alpha, competitor)
            assert gap(0.5 * (iv.lo + iv.hi)) < 0.0, alpha
            for end in (iv.lo, iv.hi):
                if 0.0 < end < 0.5:
                    assert gap(end * (1 - 1e-9)) * gap(end * (1 + 1e-9)) < 0.0, \
                        (alpha, end)


def _dominance_range_grid(model, alpha, competitor):
    # sign changes of the gap on a 20,001-point grid in t, then bisection
    t_alpha = normal_quantile(1.0 - alpha) ** 2

    def gap(t):
        return (abs(mo._delta_shape(model, "optimal", t, t_alpha))
                - abs(mo._delta_shape(model, competitor, t, t_alpha)))

    t_lo_cap, t_hi_cap = 1e-8, 50.0
    grid = np.linspace(t_lo_cap, t_hi_cap, 20_001)
    vals = gap(grid)
    assert gap(t_alpha) < 0.0

    def bisect(lo, hi):
        flo = gap(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = gap(mid)
            if abs(fmid) < 1e-12:
                return mid
            if (flo < 0.0) == (fmid < 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    idx = int(np.searchsorted(grid, t_alpha))
    lo_t = t_lo_cap
    for i in range(idx - 1, 0, -1):
        if vals[i] >= 0.0:
            lo_t = bisect(grid[i], grid[i + 1])
            break
    hi_t = t_hi_cap
    for i in range(idx, len(grid) - 1):
        if vals[i + 1] >= 0.0:
            hi_t = bisect(grid[i + 1], grid[i])
            break
    beta_hi = 0.5 if lo_t <= t_lo_cap else 1.0 - normal_cdf(math.sqrt(lo_t))
    beta_lo = 0.0 if hi_t >= t_hi_cap else 1.0 - normal_cdf(math.sqrt(hi_t))
    return mo.BetaInterval(beta_lo, beta_hi)


def _fisher_dominance_threshold_numeric(model):
    # bisection on alpha; dominance over all beta is checked in t = z_beta^2
    # on a window plus the slope of the gap beyond it
    def dominates_all(alpha):
        t_alpha = normal_quantile(1.0 - alpha) ** 2
        T = 10.0 * max(t_alpha, 1.0)

        def gap(t):
            return (abs(mo._delta_shape(model, "optimal", t, t_alpha))
                    - abs(mo._delta_shape(model, "fisher", t, t_alpha)))

        if any(gap(t) >= 0.0 for t in np.linspace(1e-8, T, 2001)[1:]):
            return False
        return gap(T + 1.0) - gap(T) <= 0.0

    lo, hi = 1e-6, 0.5 - 1e-6
    if not dominates_all(lo):
        return 0.0
    if dominates_all(hi):
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dominates_all(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFisherDominanceThreshold:
    def test_squarev(self):
        # boundary where z_alpha = 1/sqrt(2)
        got = mo.fisher_dominance_threshold(mo.SQUAREV)
        assert got == pytest.approx(1 - normal_cdf(1 / math.sqrt(2)),
                                    abs=1e-15)

    @pytest.mark.parametrize("model", [mo.BVN, mo.SQUAREV])
    def test_matches_numeric_search(self, model):
        assert mo.fisher_dominance_threshold(model) == pytest.approx(
            _fisher_dominance_threshold_numeric(model), abs=1e-15)

    def test_bvn_never_dominates_everywhere(self):
        assert mo.fisher_dominance_threshold(mo.BVN) == 0.0


def _count_vectors(n):
    # every cell-count vector (n11, n1m, nm1, nmm) of a sample of size n
    return np.array([(a, b, c, n - a - b - c)
                     for a in range(n + 1)
                     for b in range(n - a + 1)
                     for c in range(n - a - b + 1)])


def _kernel_r(n, vecs):
    # mo._squarev_r of cell-count vectors: a = n11 + nmm, u = n11, v = n1m
    n11, n1m, _, nmm = vecs.T
    return mo._squarev_r(n, n11 + nmm, n11, n1m)


def _squarev_r(n11, n1m, nm1, nmm, n):
    # Pearson R of a four-vertex sample from its cell counts, one at a time
    ybar = (n11 + n1m - nm1 - nmm) / n
    zbar = (n11 - n1m + nm1 - nmm) / n
    yzbar = (n11 - n1m - nm1 + nmm) / n
    vy = 1.0 - ybar * ybar
    vz = 1.0 - zbar * zbar
    if vy <= 0.0 or vz <= 0.0:
        return 0.0
    r = (yzbar - ybar * zbar) / math.sqrt(vy * vz)
    return min(1.0, max(-1.0, r))


class TestSquarevR:
    def test_kernel_matches_scalar_oracle_bitwise(self):
        # every count vector for n <= 30, including the degenerate ones
        # where every Y or every Z is equal (R := 0)
        for n in range(1, 31):
            vecs = _count_vectors(n)
            got = _kernel_r(n, vecs)
            want = [_squarev_r(*map(int, v), n) for v in vecs]
            assert np.array_equal(got, want), n


def _chi2_sf(x, df):
    return float(mp.gammainc(df / 2.0, x / 2.0, mp.inf, regularized=True))


def _ks_statistic(a, b):
    # two-sample Kolmogorov-Smirnov distance between empirical cdfs
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


class TestSampleR:
    """`sample_r` draws R from its sufficient statistics; these compare its
    law with the exact SquareV lattice pmf and with per-pair BVN samples."""

    @pytest.mark.parametrize("n", [2, 3, 10, 1000])
    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5, 0.99])
    def test_bvn_draws_match_reference_bitwise(self, rho, n):
        # 40,000 rows are above numpy's 256 KiB temporary-elision size
        for key, rows in ((0, 1), (7, 5000), (2 ** 64 - 1, 40_000)):
            got = mo.BVN.sample_r(
                rho, rows, n, np.random.Generator(np.random.Philox(key=key)))
            want = bvn_sample_r_reference(
                rho, rows, n, np.random.Generator(np.random.Philox(key=key)))
            assert np.array_equal(got, want), key

    @pytest.mark.parametrize("n", [1, 2, 10, 200])
    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5, 0.99])
    def test_squarev_draws_match_reference_bitwise(self, rho, n):
        for key, rows in ((0, 1), (7, 5000), (2 ** 64 - 1, 40_000)):
            got = mo.SQUAREV.sample_r(
                rho, rows, n, np.random.Generator(np.random.Philox(key=key)))
            want = squarev_sample_r_reference(
                rho, rows, n, np.random.Generator(np.random.Philox(key=key)))
            assert np.array_equal(got, want), key

    @pytest.mark.parametrize("n", [2, 10, 20])
    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5, 0.9])
    def test_squarev_atoms_follow_the_lattice_pmf(self, rho, n):
        vecs = _count_vectors(n)
        lf = np.array([log_gamma(k + 1.0) for k in range(n + 1)])
        logs = np.log([(1 + rho) / 4, (1 - rho) / 4, (1 - rho) / 4,
                       (1 + rho) / 4])
        logp = lf[n] - lf[vecs].sum(axis=1) + vecs @ logs
        atoms, atom_of = np.unique(_kernel_r(n, vecs),
                                   return_inverse=True)
        pmf = np.bincount(atom_of, weights=np.exp(logp))
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

        draws = 200_000
        rng = np.random.Generator(np.random.Philox(key=51))
        r = mo.SQUAREV.sample_r(rho, draws, n, rng)
        index = np.minimum(np.searchsorted(atoms, r), len(atoms) - 1)
        assert np.array_equal(atoms[index], r)  # every draw is an atom
        observed = np.bincount(index, minlength=len(atoms))
        expected = draws * pmf
        # the rarest atoms share one bin with an expected count of >= 5
        order = np.argsort(expected)
        pooled = np.searchsorted(np.cumsum(expected[order]), 5.0) + 1
        obs = np.append(observed[order[pooled:]],
                        observed[order[:pooled]].sum())
        exp = np.append(expected[order[pooled:]],
                        expected[order[:pooled]].sum())
        stat = float(np.sum((obs - exp) ** 2 / exp))
        assert len(exp) >= 2
        assert _chi2_sf(stat, len(exp) - 1) > 1e-5, (stat, len(exp))

    @pytest.mark.parametrize("n", [3, 5, 20])
    @pytest.mark.parametrize("rho", [-0.5, 0.5, 0.9])
    def test_bvn_matches_per_pair_sampling(self, rho, n):
        draws = 20_000
        rng = np.random.Generator(np.random.Philox(key=61))
        fast = mo.BVN.sample_r(rho, draws, n, rng)
        # per-pair samples through the centred pearson_r
        pairs = sample_bvn(rho, draws * n, rng).reshape(draws, n, 2)
        direct = np.array([pearson_r(sample) for sample in pairs])
        # two-sample KS at level 1e-4
        crit = math.sqrt(-math.log(0.5e-4) / 2.0) * math.sqrt(2.0 / draws)
        assert _ks_statistic(fast, direct) < crit

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5, 0.9])
    def test_bvn_sign_law_at_n2(self, rho):
        # at n = 2, R = sign((Y1 - Y2)(Z1 - Z2)) and the differences are
        # BVN(rho), so P(R > 0) = 1/2 + arcsin(rho)/pi
        draws = 200_000
        rng = np.random.Generator(np.random.Philox(key=71))
        r = mo.BVN.sample_r(rho, draws, 2, rng)
        assert np.all(np.abs(np.abs(r) - 1.0) <= 1e-12)
        p = 0.5 + math.asin(rho) / math.pi
        hits = int(np.count_nonzero(r > 0.0))
        assert abs(hits - draws * p) <= 5 * math.sqrt(draws * p * (1 - p))


def _squarev_exact_rejection_loop(rho, n, t, alpha):
    # one Python step per lattice point: tau of every atom against z_alpha,
    # and the probabilities of the rejected atoms summed in order
    probs = np.array([(1 + rho) / 4, (1 - rho) / 4, (1 - rho) / 4,
                      (1 + rho) / 4])
    logs = np.log(np.maximum(probs, 1e-300))
    lf = tuple(log_gamma(k + 1.0) for k in range(n + 1))
    z_alpha = normal_quantile(1.0 - alpha)
    sigma = mo.SQUAREV.sigma(rho)  # an input of the rule, as in the oracle
    sqrt_n = math.sqrt(n)
    psi_rho = t.psi(rho)
    dpsi_rho = t.dpsi(rho)
    total = 0.0
    for n11 in range(n + 1):
        rest = n - n11
        counts = np.arange(rest + 1)
        n1ms, nm1s = np.nonzero(np.add.outer(counts, counts) <= rest)
        nmms = rest - n1ms - nm1s
        r_slice = pe.r_from_sums(n, n11 + n1ms - nm1s - nmms,
                                 n11 - n1ms + nm1s - nmms, n, n,
                                 n11 - n1ms - nm1s + nmms)
        for n1m, nm1, nmm, r in zip(n1ms.tolist(), nm1s.tolist(),
                                    nmms.tolist(), r_slice.tolist()):
            psi_r = t.psi(r)
            if math.isinf(psi_r):
                tau_val = psi_r
            else:
                tau_val = (psi_r - psi_rho) * sqrt_n / (dpsi_rho * sigma)
            if tau_val > z_alpha:
                logp = (lf[n] - lf[n11] - lf[n1m] - lf[nm1] - lf[nmm]
                        + n11 * logs[0] + n1m * logs[1]
                        + nm1 * logs[2] + nmm * logs[3])
                total += math.exp(logp)
    return min(1.0, total)


def _squarev_exact_rejection_slices(rho, n, t, alpha):
    # the multinomial enumeration of the four cell counts, one n11 slice of
    # (n1m, nm1) at a time, decided by the rule Monte Carlo counts by
    logs = np.log([(1 + rho) / 4, (1 - rho) / 4, (1 - rho) / 4,
                   (1 + rho) / 4])
    lf = np.array([log_gamma(k + 1.0) for k in range(n + 1)])
    rejects = pe.rejection_rule(t, rho, mo.SQUAREV.sigma(rho), n, alpha)
    probs = []
    for n11 in range(n + 1):
        rest = n - n11
        counts = np.arange(rest + 1)
        n1m, nm1 = np.nonzero(np.add.outer(counts, counts) <= rest)
        nmm = rest - n1m - nm1
        reject = rejects(pe.r_from_sums(n, n11 + n1m - nm1 - nmm,
                                        n11 - n1m + nm1 - nmm, n, n,
                                        n11 - n1m - nm1 + nmm))
        n1m, nm1, nmm = n1m[reject], nm1[reject], nmm[reject]
        logp = (lf[n] - lf[n11] - lf[n1m] - lf[nm1] - lf[nmm]
                + n11 * logs[0] + n1m * logs[1]
                + nm1 * logs[2] + nmm * logs[3])
        probs.extend(np.exp(logp).tolist())
    return min(1.0, math.fsum(probs))


def _lattice_r_values(n):
    # the distinct values of R over all cell-count vectors of size n
    return np.unique(_kernel_r(n, _count_vectors(n))).tolist()


KINDS = ("identity", "fisher", "optimal")
# Levels stop at 0.4: above about 0.45 the SquareV optimal exponent exceeds
# 20, psi is numerically flat past rho, and the lattice loop itself decides
# on rounding.
EXACT_ALPHAS = (0.01, 0.05, 0.24, 0.4)


class TestSquarevExactRejection:
    def test_n1_degenerate(self):
        t = pe.identity_transform()
        assert mo.squarev_exact_rejection(0.5, 1, t, 0.05) == 0.0

    def test_table_row_small_n(self):
        t = pe.identity_transform()
        p = mo.squarev_exact_rejection(0.5, 10, t, 0.05)
        eps = p / 0.05 - 1
        assert abs(eps - 0.125) < 5 * 0.00110

    def test_table_row_never_rejects(self):
        t = pe.identity_transform()
        assert mo.squarev_exact_rejection(0.9, 10, t, 0.05) == 0.0

    def test_probabilities_sum_to_one(self):
        # alpha so large that z_alpha < all attainable tau except ties
        t = pe.identity_transform()
        p = mo.squarev_exact_rejection(0.3, 5, t, 0.49)
        assert 0.0 <= p <= 1.0

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            mo.squarev_exact_rejection(0.5, 201, pe.identity_transform(), 0.05)

    def test_rejects_rho_at_the_boundary(self):
        for rho in (-1.0, 1.0):
            with pytest.raises(ValueError, match=f"rho={rho}"):
                mo.squarev_exact_rejection(rho, 10, pe.identity_transform(),
                                           0.05)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_lattice_loop(self, kind):
        for rho in (-0.95, -0.5, 0.0, 0.3, 0.5, 0.9, 0.99):
            for alpha in EXACT_ALPHAS:
                t = mo.transform_for(mo.SQUAREV, kind,
                                     normal_quantile(1.0 - alpha))
                for n in (1, 2, 5, 10, 20, 30):
                    got = mo.squarev_exact_rejection(rho, n, t, alpha)
                    want = _squarev_exact_rejection_loop(rho, n, t, alpha)
                    assert (got == 0.0) == (want == 0.0), (rho, alpha, n)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), \
                        (rho, alpha, n)

    # fewer rhos at n = 200 keep the enumeration's cost down
    @pytest.mark.parametrize("n, rhos", [(50, (-0.5, 0.0, 0.5, 0.9)),
                                         (100, (-0.5, 0.0, 0.5, 0.9)),
                                         (200, (0.5, 0.9))])
    def test_matches_cell_count_enumeration(self, n, rhos):
        # beyond the loop oracle's reach: the four-cell multinomial sum
        for kind in KINDS:
            for rho in rhos:
                for alpha in (0.01, 0.05):
                    t = mo.transform_for(mo.SQUAREV, kind,
                                         normal_quantile(1.0 - alpha))
                    got = mo.squarev_exact_rejection(rho, n, t, alpha)
                    want = _squarev_exact_rejection_slices(rho, n, t, alpha)
                    assert (got == 0.0) == (want == 0.0), (kind, rho, alpha)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), \
                        (kind, rho, alpha)

    def test_refuses_a_non_integer_n(self):
        t = pe.identity_transform()
        for n in (10.0, 10.5, True, "10"):
            with pytest.raises(ValueError, match="integer"):
                mo.squarev_exact_rejection(0.5, n, t, 0.05)
        assert mo.squarev_exact_rejection(0.5, np.int64(10), t, 0.05) == \
            mo.squarev_exact_rejection(0.5, 10, t, 0.05)

    # every second lattice value at n = 20 keeps the loop oracle's cost down
    @pytest.mark.parametrize("n, stride", [(5, 1), (10, 1), (20, 2)])
    def test_atoms_on_the_threshold(self, n, stride):
        # alpha = 1 - Phi(tau(R0)) puts the lattice value R0 on the rejection
        # threshold, where rounding decides between R > r* and tau > z_alpha
        ties = 0
        lattice = np.array(_lattice_r_values(n))
        # at rho = -0.9 sqrt(1 - rho^2) and SQUAREV.sigma differ in the last
        # bit; n = 20 is left out there to keep the loop oracle's cost down
        for rho in (0.0, 0.3, 0.5) + ((-0.9,) if n <= 10 else ()):
            sigma = mo.SQUAREV.sigma(rho)
            for kind in KINDS:
                for r0 in lattice[::stride].tolist():
                    z = 1.0
                    # the optimal transform depends on its own level:
                    # iterate z -> tau(R0) towards a fixed point
                    for _ in range(20 if kind == "optimal" else 1):
                        t = mo.transform_for(mo.SQUAREV, kind, z)
                        z = pe.tau(t, r0, rho, sigma, n)
                        if not 0.0 < z < math.inf:
                            break
                    alpha = 1.0 - normal_cdf(z)
                    if not 0.0 < alpha <= EXACT_ALPHAS[-1]:
                        continue
                    z_alpha = normal_quantile(1.0 - alpha)
                    t = mo.transform_for(mo.SQUAREV, kind, z_alpha)
                    got = mo.squarev_exact_rejection(rho, n, t, alpha)
                    want = _squarev_exact_rejection_loop(rho, n, t, alpha)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), \
                        (rho, kind, r0)
                    # the rule Monte Carlo counts by is tau > z_alpha on
                    # every atom, the tie included
                    rule = pe.rejection_rule(t, rho, sigma, n, alpha)
                    by_tau = [pe.tau(t, r, rho, sigma, n) > z_alpha
                              for r in lattice.tolist()]
                    assert rule(lattice).tolist() == by_tau, (rho, kind, r0)
                    ties += 1
        assert ties >= 30
