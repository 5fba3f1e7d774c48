"""
Seeded Monte Carlo calibration runs
===================================

Rejection rates for the bivariate normal model have no exact oracle, so we
estimate them by simulation.  The grid runner assigns every (rho, n,
worker) task its own counter-based random substream, which makes results
bit-identical no matter how many threads are used.  This script runs a
small grid, compares the estimates to the second-order predictions, and
shows the determinism property directly.

Budget note: the table-scale runs behind the reference values used
N = 10^6 samples x 12 workers per cell; here we use a much smaller budget
so the script finishes in seconds.  Expect correspondingly wider error
bars.
"""

import os
import time

from corrtrans import (
    BVN,
    ExperimentGrid,
    predicted_relative_error,
    run_grid,
)

grid = ExperimentGrid(
    model="bvn",
    alphas=(0.05,),
    rhos=(0.0, 0.5, 0.9),
    ns=(100,),
    N=20_000,
    K=4,
    master_seed=12345,
)

start = time.time()
results = run_grid(grid)
print(f"ran {len(grid.cells())} cells x {grid.K} workers "
      f"in {time.time() - start:.1f}s")

# --- estimates vs. second-order predictions ------------------------------

print()
print(f"{'transform':>9} {'rho':>5} {'eps_hat':>10} {'+/- se':>9} "
      f"{'predicted':>10}")
for kind in grid.transforms:
    for rho in grid.rhos:
        cell = results[(kind, 0.05, rho, 100)]
        pred = predicted_relative_error(BVN, kind, 0.05, rho, 100)
        print(f"{kind:>9} {rho:>5.1f} {cell.eps_mean:>10.4f} "
              f"{cell.eps_se:>9.4f} {pred:>10.4f}")

# The identity's under-rejection grows with rho; the optimal transform's
# prediction is 0 by construction, and the estimates sit within a few
# standard errors of it (higher-order terms contribute at this n).

# --- determinism across worker-pool widths -------------------------------

print()
os.environ["CORRTRANS_THREADS"] = "1"
serial = run_grid(grid)
os.environ["CORRTRANS_THREADS"] = "4"
parallel = run_grid(grid)
same = all(serial[k].alpha_hats == parallel[k].alpha_hats for k in serial)
print(f"serial == 4-way parallel, worker by worker: {same}")
