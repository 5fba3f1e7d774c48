"""Acceptance suite: ten end-to-end checks, one printed pass/fail line each.

Frozen reference values are standard published simulation/table figures for
the two built-in models; tolerances are stated next to each check.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

from corrtrans import edgeworth as ed
from corrtrans import models as mo
from corrtrans import montecarlo as mc
from corrtrans import pearson as pe
from corrtrans.specfun import normal_cdf, normal_quantile

Z05 = normal_quantile(0.95)
Z01 = normal_quantile(0.99)
Z_GRID = (1.0, Z05, Z01)
RHO_GRID = tuple(np.linspace(-0.9, 0.9, 19))
MODELS = (mo.BVN, mo.SQUAREV)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_closed_vs_numeric_transform():
    worst = 0.0
    start = time.time()
    for model in MODELS:
        for z in Z_GRID:
            t = pe.optimal_transform_numeric(model.moments, z)
            for rho in sorted(RHO_GRID, key=abs):
                diff = abs(t.psi(rho) - mo.psi_closed(model, z, rho))
                worst = max(worst, diff)
    elapsed = time.time() - start
    _report(1, "numeric-ODE transform matches closed form to 1e-8",
            worst <= 1e-8 and elapsed < 10,
            f"worst |diff| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_ode_reduction_identities():
    worst = 0.0
    for model in MODELS:
        for z in Z_GRID:
            expo = mo.optimal_exponent(model, z)
            for rho in RHO_GRID:
                if rho == 0.0:
                    continue
                generic = pe.h_z(model.moments, rho, z)
                reduced = expo * (-2.0 * rho) / (1.0 - rho * rho)
                worst = max(worst, abs(generic - reduced))
    _report(2, "generic ODE right-hand side reduces to the closed form "
            "to 1e-10", worst <= 1e-10, f"worst |diff| = {worst:.2e}")


def test_criterion_03_two_path_delta_equality():
    worst = 0.0
    for model in MODELS:
        for rho in RHO_GRID:
            em = pe.assemble_statistic_model(model.moments, rho)
            for z in Z_GRID:
                diff = abs(ed.delta(em, z)
                           - mo.delta_closed(model, "identity", z, rho))
                worst = max(worst, diff)
    _report(3, "moment-assembly delta equals closed-form delta to 1e-12",
            worst <= 1e-12, f"worst |diff| = {worst:.2e}")


def test_criterion_04_leading_term_vanishes_at_design_level():
    worst = 0.0
    for model in MODELS:
        for z in Z_GRID:
            t = mo.transform_for(model, "optimal", z)
            for rho in RHO_GRID:
                worst = max(worst, abs(pe.delta_psi(model.moments, t, rho, z)))
    _report(4, "optimal transform kills the leading error term at its own "
            "critical value (<= 1e-8)", worst <= 1e-8,
            f"worst |Delta| = {worst:.2e}")


def test_criterion_05_dominance_endpoints():
    checks = [
        (mo.dominance_range(mo.BVN, 0.05, "identity").hi, 0.17912, 5e-5),
        (mo.dominance_range(mo.BVN, 0.01, "identity").hi, 0.16933, 5e-5),
        (mo.dominance_range(mo.BVN, 0.05, "fisher").lo, 0.01000, 5e-5),
        (mo.dominance_range(mo.BVN, 0.01, "fisher").lo, 0.00050, 5e-5),
        (mo.dominance_range(mo.SQUAREV, 0.05, "identity").hi, 0.11344, 5e-5),
        (mo.dominance_range(mo.SQUAREV, 0.01, "identity").hi, 0.096927, 5e-7),
    ]
    ok = all(abs(got - want) <= tol for got, want, tol in checks)
    threshold = mo.fisher_dominance_threshold(mo.SQUAREV)
    ok = ok and abs(threshold - 0.23975) <= 5e-5
    worst = max(abs(got - want) for got, want, _ in checks)
    _report(5, "dominance-range endpoints and the four-point-vs-Fisher "
            "threshold match reference values", ok,
            f"worst endpoint diff = {worst:.1e}, threshold = {threshold:.5f}")


def _identity_level_z(model):
    # the z at which the model's optimal exponent reaches R's, p = 0: p_z
    # falls with z, so bisect on its sign until the bracket ends are
    # neighbouring floats, and keep the end closer to 0
    lo, hi = 0.1, 10.0
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        p = mo.optimal_exponent(model, mid)
        if p == 0.0:
            return mid
        lo, hi = (mid, hi) if p > 0.0 else (lo, mid)
    return min(lo, hi, key=lambda z: abs(mo.optimal_exponent(model, z)))


def test_criterion_06_special_constants():
    c1 = 1.0 - normal_cdf(1.0 / math.sqrt(2.0))
    c2 = 1.0 - normal_cdf(1.0)
    ok = abs(c1 - 0.2397) <= 1e-4 and abs(c2 - 0.1587) <= 1e-4
    # the same levels as model outputs: where R itself is optimal, and its
    # Delta vanishes.  SquareV's p_z is exactly 0.0 at z = 1; no float z
    # gives BVN's 0.0, whose p_z is -2.2e-16 at z = sqrt(1/2) and +2.2e-16
    # one float below.
    levels = {}
    for model, want in ((mo.BVN, 0.2397), (mo.SQUAREV, 0.1587)):
        z = _identity_level_z(model)
        levels[model.name] = 1.0 - normal_cdf(z)
        ok = ok and abs(levels[model.name] - want) <= 1e-4
        p = mo.optimal_exponent(model, z)
        ok = ok and abs(p) <= 2.3e-16
        ok = ok and (p == 0.0) == (model is mo.SQUAREV)
        for rho in np.linspace(-0.9, 0.9, 19):
            d = mo.delta_closed(model, "identity", z, rho)
            ok = ok and (d == 0.0 if p == 0.0 else abs(d) <= 1e-16)
    # BVN's p_z = 1/(2 z^2) - 1 is Fisher's -1.0 exactly from z = 1e8 on
    for z in np.geomspace(1e8, 1e300, 50).tolist():
        ok = ok and mo.optimal_exponent(mo.BVN, z) == -1.0
        ok = ok and mo.psi_closed(mo.BVN, z, 0.5) == math.atanh(0.5)
    ok = ok and mo.optimal_exponent(mo.BVN, 1e7) > -1.0
    worst = 0.0
    for rho in np.linspace(-0.9, 0.9, 19):
        worst = max(worst, abs(mo.psi_closed(mo.BVN, 100.0, rho)
                               - math.atanh(rho)))
    ok = ok and worst <= 5e-4
    _report(6, "tail constants at z = 1/sqrt(2) and z = 1, the levels "
            "where each model's optimal exponent is R's, and the large-z "
            "Fisher limit", ok,
            f"1-Phi(1/sqrt2) = {c1:.5f}, levels {levels['bvn']:.5f} "
            f"{levels['squarev']:.5f}, worst Fisher gap = {worst:.1e}")


def test_criterion_07_exact_oracle_reproduces_table():
    z05 = normal_quantile(0.95)
    z01 = normal_quantile(0.99)
    cases = [
        # (alpha, rho, n, transform, reference eps, reference spread)
        (0.05, 0.5, 10, mo.transform_for(mo.SQUAREV, "identity"),
         0.125, 0.00110),
        (0.05, 0.9, 10, mo.transform_for(mo.SQUAREV, "identity"),
         -1.0, 0.0),
        (0.01, 0.5, 100, mo.transform_for(mo.SQUAREV, "optimal", z01),
         0.0887, 0.00237),
        (0.05, 0.9, 100, mo.transform_for(mo.SQUAREV, "identity"),
         -0.258, 0.000722),
    ]
    ok = True
    details = []
    for alpha, rho, n, t, want, spread in cases:
        prob = mo.squarev_exact_rejection(rho, n, t, alpha)
        eps = prob / alpha - 1.0
        tol = 5 * spread if spread > 0 else 5e-13
        ok = ok and abs(eps - want) <= tol
        details.append(f"{eps:+.4f}")
    _report(7, "exact four-point oracle reproduces reference simulation "
            "rows within 5 spreads", ok, "eps = " + ", ".join(details))


def test_criterion_08_desk_scale_monte_carlo():
    # reduced-budget rerun of three reference cells: N = 1e5 x K = 8
    # against tables computed at N = 1e6 x K = 12, so the reference
    # spreads scale by sqrt(12e6 / 8e5)
    scale = math.sqrt(12e6 / 8e5)
    cells = [
        # (alpha, rho, n, {transform: (reference eps, reference spread)})
        (0.05, 0.5, 100, {"identity": (-0.218, 0.000924),
                          "optimal": (0.0435, 0.00111)}),
        (0.05, 0.9, 1000, {"identity": (-0.128, 0.000776),
                           "optimal": (0.00463, 0.000964)}),
        (0.01, 0.5, 1000, {"identity": (-0.200, 0.00274),
                           "optimal": (0.00697, 0.00278)}),
    ]
    ok = True
    details = []
    for alpha, rho, n, refs in cells:
        grid = mc.ExperimentGrid(
            model="bvn", alphas=(alpha,), rhos=(rho,), ns=(n,),
            N=100_000, K=8, master_seed=20260823,
            transforms=tuple(refs),
        )
        results = mc.run_grid(grid)
        for kind, (want, spread) in refs.items():
            got = results[(kind, alpha, rho, n)].eps_mean
            ok = ok and abs(got - want) <= 5 * scale * spread
            details.append(f"{kind}@({alpha},{rho},{n}): {got:+.4f}")
    _report(8, "desk-scale Monte Carlo reproduces reference table cells "
            "within 5 scaled spreads", ok, "; ".join(details))


def test_criterion_09_prediction_vs_reference_tables():
    cases = [
        # (model, transform, alpha, rho, reference eps, reference spread)
        (mo.BVN, "identity", 0.05, 0.0, 0.00131, 0.00121),
        (mo.BVN, "identity", 0.05, 0.9, -0.0425, 0.00124),
        (mo.BVN, "fisher", 0.05, 0.9, 0.00825, 0.00118),
        (mo.BVN, "optimal", 0.05, 0.9, -0.00118, 0.00122),
        (mo.SQUAREV, "fisher", 0.05, 0.5, 0.0271, 0.000660),
        (mo.SQUAREV, "optimal", 0.01, 0.5, -0.000646, 0.00182),
    ]
    n = 10_000
    ok = True
    details = []
    for model, kind, alpha, rho, want, spread in cases:
        pred = mc.predicted_relative_error(model, kind, alpha, rho, n)
        tol = max(0.15 * abs(want), 5 * spread)
        ok = ok and abs(pred - want) <= tol
        details.append(f"{pred:+.4f} vs {want:+.4f}")
    _report(9, "second-order predictions match reference table values at "
            "n = 1e4 within max(15%, 5 spreads)", ok, "; ".join(details))


def test_criterion_10_bit_identical_parallel_runs(monkeypatch, tmp_path):
    import json

    from corrtrans.cli import main

    outs = []
    for threads, name in ((1, "a.csv"), (4, "b.csv")):
        out = tmp_path / name
        cfg = tmp_path / f"cfg{threads}.json"
        cfg.write_text(json.dumps({
            "model": "squarev", "alphas": [0.05], "rhos": [0.0, 0.5],
            "ns": [10], "N": 1000, "K": 4, "master_seed": 7,
            "output_path": str(out),
        }))
        monkeypatch.setenv(mc.THREADS_ENV, str(threads))
        assert main(["simulate", "--config", str(cfg)]) == 0
        outs.append(out.read_bytes())
    _report(10, "identical CSV output across worker-pool widths",
            outs[0] == outs[1])
