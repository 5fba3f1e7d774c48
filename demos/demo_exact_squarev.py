"""
Exact rejection probabilities, from small samples to n = 10^4
=============================================================

The four-point vertex model ("SquareV") puts (Y, Z) on the corners of the
square [-1, 1]^2: Y is a fair sign and W = YZ an independent sign with
P(W = 1) = (1 + rho)/2.  A sample of size n is then three binomial counts
(the W = 1 pairs, and the Y = 1 pairs among those with W = 1 and with
W = -1), and every rejection probability can be computed exactly by summing
over them -- no Monte Carlo noise at all, in a fraction of a second even at
n = 10^4.  This script reproduces a few quirks of the small-sample behavior
that simulations can only estimate, and follows the level out to n = 10^4.
"""

from corrtrans import (
    SQUAREV,
    normal_quantile,
    squarev_exact_rejection,
    transform_for,
)

alpha = 0.05
z_alpha = normal_quantile(1 - alpha)

# --- relative error of the nominal level, exactly ------------------------

print(f"exact relative error (P[reject] / alpha - 1) at alpha = {alpha}")
print(f"{'rho':>5} {'n':>5} {'identity':>12} {'fisher':>12} {'optimal':>12}")
for rho in (0.1, 0.5, 0.9):
    for n in (10, 100, 1000, 10_000):
        row = []
        for kind in ("identity", "fisher", "optimal"):
            t = transform_for(SQUAREV, kind, z_alpha)
            p = squarev_exact_rejection(rho, n, t, alpha)
            row.append(p / alpha - 1.0)
        print(f"{rho:>5.1f} {n:>5d} " + " ".join(f"{e:>12.5f}" for e in row))

# Two things worth noticing:
#
# 1. At (rho, n) = (0.9, 10) the relative error is exactly -1: the test
#    *never* rejects.  With rho = 0.9 only ~5% of pairs land on the two
#    discordant corners, and at n = 10 no attainable value of R clears the
#    critical value.  An asymptotic approximation cannot see this.
#
# 2. At (rho, n) = (0.5, 10) all three transforms give the same number.
#    R takes few distinct values at n = 10, and all three (strictly
#    increasing) transforms happen to induce the same rejection region.

# --- convergence of the discrete test to its nominal level ---------------

print()
print("identity transform at rho = 0.5: exact eps as n grows")
t = transform_for(SQUAREV, "identity", z_alpha)
for n in (10, 25, 50, 100, 200, 1000, 10_000):
    p = squarev_exact_rejection(0.5, n, t, alpha)
    print(f"  n = {n:>5}: eps = {p / alpha - 1.0:+.5f}")
