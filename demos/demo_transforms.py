"""
Optimal transforms of the sample correlation
============================================

For a one-sided test at level alpha, there is a transform psi of the sample
correlation R whose leading normal-approximation error term vanishes at the
critical value z_alpha, for every true correlation rho.  Every transform
here is one exponent p of psi' = (1 - r^2)^p: R itself is p = 0, Fisher's
z-transform is p = -1, and the optimal one for the bivariate normal (BVN)
model is p_z = 1/(2 z^2) - 1.  This script shows that family, checks it
against direct ODE integration, and finds the two classical choices in it.
"""

import math

import numpy as np

from corrtrans import (
    BVN,
    SQUAREV,
    normal_quantile,
    optimal_transform_numeric,
    power_transform,
    psi_closed,
)
from corrtrans.models import optimal_exponent

# --- the family, evaluated on a rho grid --------------------------------

rhos = np.linspace(-0.9, 0.9, 7)
z05 = normal_quantile(0.95)
z01 = normal_quantile(0.99)
fisher = power_transform(-1.0).psi  # p = -1

print("BVN optimal transforms (columns: alpha = 0.05, alpha = 0.01, Fisher)")
print(f"{'rho':>6} {'psi_0.05':>10} {'psi_0.01':>10} {'atanh':>10}")
for rho in rhos:
    print(f"{rho:>6.2f} {psi_closed(BVN, z05, rho):>10.5f} "
          f"{psi_closed(BVN, z01, rho):>10.5f} {fisher(rho):>10.5f}")

# Two distinguished members of the BVN family:
#  - z = 1/sqrt(2) gives p = 0, the identity (alpha ~ 0.240),
#  - z -> infinity drives p to -1, Fisher's transform, which p_z reaches in
#    floating point from z = 1e8 on.
print()
print("exponents p_z:", ", ".join(
    f"z = {z:g}: {optimal_exponent(BVN, z):.6f}"
    for z in (z05, z01, 1 / math.sqrt(2), 100.0, 1e8)))
print("psi at z = 1/sqrt(2) is the identity:",
      f"psi(0.5) = {psi_closed(BVN, 1 / math.sqrt(2), 0.5):.12f}")
print("psi at z = 100 is nearly Fisher's transform:",
      f"psi(0.5) = {psi_closed(BVN, 100.0, 0.5):.6f}, "
      f"atanh(0.5) = {math.atanh(0.5):.6f}")
print("psi at z = 1e8 is Fisher's transform:",
      f"psi(0.5) = {psi_closed(BVN, 1e8, 0.5):.6f}")

# --- cross-check: generic ODE integration -------------------------------
# The same transforms come out of the optimality ODE psi''/psi' = h_z(rho)
# driven only by the model's joint moments, with no closed form in sight.

t = optimal_transform_numeric(BVN.moments, z05)
worst = max(abs(t.psi(r) - psi_closed(BVN, z05, r)) for r in rhos)
print()
print(f"ODE vs closed form on the grid: worst |diff| = {worst:.2e}")

# The four-point vertex model has its own family with a different exponent;
# there the identity is optimal at alpha ~ 0.159 (z = 1).
print()
print("SquareV: psi at z = 1 is the identity:",
      f"psi(0.5) = {psi_closed(SQUAREV, 1.0, 0.5):.12f}")
