"""Regenerate ``reference.json``: exact rejection probabilities the
benchmark checks its Monte Carlo and exact-oracle outputs against, so no
run pays oracle time in its measured phase.

- SquareV: ``squarev_exact_rejection`` for every SquareV cell of
  ``mc_large_n`` and ``mc_small_n`` and every stored ``exact_squarev`` call.
- BVN: P(R > r*) from the closed-form density of R (Fisher 1915; Hotelling
  1953), integrated in mpmath, with r* derived here from each transform's
  own formula, not from the program.

Run with ``python3 bench/make_reference.py`` (about two minutes; needs
mpmath).  ``test_bench.py`` re-derives every value.
"""

from __future__ import annotations

import json
import sys

import mpmath as mp

import workloads as wl

mp.mp.dps = 30


def squarev_cells() -> list[tuple[float, float, int, str]]:
    cells = {(a, r, n, kind)
             for cfg in wl.MC_LARGE_N + wl.MC_SMALL_N if cfg.model == "squarev"
             for a, r, n in cfg.cells() for kind in wl.KINDS}
    cells.update(wl.EXACT_EXTRA)
    return sorted(cells)


def bvn_cells() -> list[tuple[float, float, int, str]]:
    return sorted((a, r, n, kind)
                  for cfg in wl.MC_LARGE_N if cfg.model == "bvn"
                  for a, r, n in cfg.cells() for kind in wl.KINDS)


def squarev_probability(alpha: float, rho: float, n: int, kind: str) -> float:
    z = wl.sf.normal_quantile(1.0 - alpha)
    t = wl.mo.transform_for(wl.mo.SQUAREV, kind, z)
    return wl.mo.squarev_exact_rejection(rho, n, t, alpha)


def bvn_threshold(alpha: float, rho: float, n: int, kind: str) -> mp.mpf:
    """r* with tau > z_alpha iff R > r*, for BVN (sigma = 1 - rho^2)."""
    z = mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(alpha))
    rho = mp.mpf(rho)
    step = z * (1 - rho ** 2) / mp.sqrt(n)
    if kind == "identity":
        return rho + step
    if kind == "fisher":
        return mp.tanh(mp.atanh(rho) + z / mp.sqrt(n))
    p = 1 / (2 * z ** 2) - 1

    def psi(r):
        return r * mp.hyp2f1(0.5, -p, 1.5, r ** 2)

    cut = psi(rho) + (1 - rho ** 2) ** p * step
    return mp.findroot(lambda r: psi(r) - cut, (rho, mp.mpf(1)),
                       solver="anderson")


def bvn_density(rho: float, n: int):
    """Density of the sample correlation of n BVN pairs."""
    rho, n = mp.mpf(rho), mp.mpf(n)
    log_c = (mp.log(n - 2) + mp.loggamma(n - 1)
             + (n - 1) / 2 * mp.log(1 - rho ** 2)
             - mp.log(mp.sqrt(2 * mp.pi)) - mp.loggamma(n - 0.5))

    def f(r):
        return (mp.exp(log_c + (n - 4) / 2 * mp.log(1 - r ** 2)
                       - (n - 1.5) * mp.log(1 - rho * r))
                * mp.hyp2f1(0.5, 0.5, n - 0.5, (1 + rho * r) / 2))
    return f


def bvn_probability(alpha: float, rho: float, n: int, kind: str) -> float:
    cut = bvn_threshold(alpha, rho, n, kind)
    f = bvn_density(rho, n)
    # split the range where the density is concentrated
    sd = (1 - mp.mpf(rho) ** 2) / mp.sqrt(n)
    knots = [cut] + [rho + k * sd for k in range(-12, 13)
                     if cut < rho + k * sd < 1] + [mp.mpf(1)]
    return float(mp.quad(f, sorted(knots)))


def derive() -> dict[str, dict[str, float]]:
    return {
        "squarev": {wl.ref_key(*c): squarev_probability(*c)
                    for c in squarev_cells()},
        "bvn": {wl.ref_key(*c): bvn_probability(*c) for c in bvn_cells()},
    }


def main() -> int:
    doc = {
        "about": "Exact rejection probabilities P(tau > z_alpha), keyed "
                 "alpha|rho|n|transform; written by make_reference.py.",
        "probabilities": derive(),
    }
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
