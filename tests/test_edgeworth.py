import math

import numpy as np
import pytest

from corrtrans import edgeworth as ed
from corrtrans import models as mo
from corrtrans import pearson as pe
from corrtrans.specfun import normal_cdf, normal_pdf, normal_quantile


def edgeworth_tail(m, z, n):
    """Second-order approximation to P(T_n > z), clamped to [0, 1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tail = 1.0 - normal_cdf(z) - ed.delta(m, z) / np.sqrt(n)
    return float(min(1.0, max(0.0, tail)))


def simple_model(L, H, Sigma, skew=0.0):
    L = np.asarray(L, float)
    Sigma = np.asarray(Sigma, float)
    sigma = math.sqrt(float(L @ Sigma @ L))
    return ed.EdgeworthModel(len(L), L, np.asarray(H, float), Sigma, sigma, skew)


class TestCoefficients:
    def test_a1_zero_hessian(self):
        m = simple_model([1, 0], np.zeros((2, 2)), np.eye(2))
        assert ed.coeff_a1(m) == 0.0

    def test_a1_trace_arithmetic(self):
        m = simple_model([1, 0, 0, 0, 0], np.eye(5), np.eye(5))
        assert ed.coeff_a1(m) == pytest.approx(2.5, abs=1e-14)

    def test_a1_bvn_assembly(self):
        m = pe.assemble_statistic_model(mo.BVN.moments, 0.5)
        assert ed.coeff_a1(m) == pytest.approx(-0.25, abs=1e-12)

    def test_a3_zero_hessian(self):
        m = simple_model([1, 0], np.zeros((2, 2)), np.eye(2))
        assert ed.coeff_a3(m) == 0.0

    def test_a3_diagonal(self):
        H = np.diag([3.0, 7.0])
        m = simple_model([1, 0], H, np.eye(2))
        assert ed.coeff_a3(m) == pytest.approx(1.5, abs=1e-14)

    def test_a3_bvn_assembly(self):
        m = pe.assemble_statistic_model(mo.BVN.moments, 0.5)
        assert ed.coeff_a3(m) == pytest.approx(-0.5, abs=1e-12)


class TestDelta:
    def test_vanishes_without_curvature_or_skew(self):
        m = simple_model([1, 0], np.zeros((2, 2)), np.eye(2))
        for z in (0.0, 0.7, 2.0):
            assert ed.delta(m, z) == 0.0

    def test_bvn_closed_form(self):
        m = pe.assemble_statistic_model(mo.BVN.moments, 0.5)
        expected = 0.25 * normal_pdf(1.0)
        assert ed.delta(m, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_bvn_rho_zero(self):
        m = pe.assemble_statistic_model(mo.BVN.moments, 0.0)
        for z in (0.5, 1.0, 2.0):
            assert ed.delta(m, z) == pytest.approx(0.0, abs=1e-8)

    def test_two_forms_agree(self):
        # -[(skew/6 + a3)(z^2-1) + a1] phi(z)  ==  (A z^2 + B) phi(z)
        m = simple_model([1, 0.5], [[0.3, -0.1], [-0.1, 0.9]],
                         [[2.0, 0.4], [0.4, 1.0]], skew=0.7)
        a1, a3 = ed.coeff_a1(m), ed.coeff_a3(m)
        A = -(m.skew / 6 + a3)
        B = -A - a1
        for z in (-2.0, -0.5, 0.0, 1.3, 3.0):
            assert ed.delta(m, z) == pytest.approx(
                (A * z * z + B) * normal_pdf(z), abs=1e-14)

    def test_even_in_z(self):
        m = pe.assemble_statistic_model(mo.SQUAREV.moments, 0.5)
        for z in (0.3, 1.1, 2.7):
            assert ed.delta(m, z) == pytest.approx(ed.delta(m, -z), abs=1e-14)

    def test_matches_closed_form_grid(self):
        for rho in (-0.9, -0.5, 0.1, 0.0):
            m = pe.assemble_statistic_model(mo.BVN.moments, rho)
            for z in (0.5, 1.0, 1.6449, 2.3263):
                assert ed.delta(m, z) == pytest.approx(
                    mo.delta_closed(mo.BVN, "identity", z, rho), abs=1e-7)


class TestEdgeworthTail:
    def test_no_correction(self):
        m = simple_model([1, 0], np.zeros((2, 2)), np.eye(2))
        assert edgeworth_tail(m, 1.3, 50) == pytest.approx(
            1 - normal_cdf(1.3), abs=1e-15)

    def test_bvn_table_prediction(self):
        # alpha=0.05, rho=0.9, n=10^4: predicted relative error ~ -0.0409,
        # the simulation-reported value is -0.0425 +/- 0.00124
        alpha, rho, n = 0.05, 0.9, 10_000
        z = normal_quantile(1 - alpha)
        m = pe.assemble_statistic_model(mo.BVN.moments, rho)
        rel = edgeworth_tail(m, z, n) / alpha - 1.0
        assert rel == pytest.approx(-0.0409, abs=2e-4)
        assert abs(rel - (-0.0425)) < 5 * 0.00124

    def test_clamped(self):
        m = simple_model([1, 0], np.zeros((2, 2)), np.eye(2), skew=1e6)
        assert 0.0 <= edgeworth_tail(m, 1.0, 1) <= 1.0


class TestValidation:
    def test_rejects_asymmetric_sigma(self):
        with pytest.raises(ValueError):
            ed.EdgeworthModel(2, np.array([1.0, 0]), np.zeros((2, 2)),
                              np.array([[1.0, 0.5], [0.2, 1.0]]), 1.0, 0.0)

    def test_rejects_inconsistent_sigma(self):
        with pytest.raises(ValueError):
            ed.EdgeworthModel(2, np.array([1.0, 0]), np.zeros((2, 2)),
                              np.eye(2), 2.0, 0.0)
