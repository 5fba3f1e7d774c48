"""Asymptotically optimal transforms of Pearson's correlation statistic.

For any dependence model parametrized by its correlation coefficient rho,
and any significance level alpha, there is a transform of the sample
correlation R whose leading normal-approximation error term vanishes at the
critical value for every rho.  This package computes those transforms
(closed-form for the bivariate normal and four-point vertex models, by ODE
integration for any moment-specified model), evaluates the leading error
term for arbitrary smooth transforms, and checks the asymptotics by exact
enumeration and seeded Monte Carlo simulation.
"""

from .edgeworth import EdgeworthModel, coeff_a1, coeff_a3, delta
from .models import (
    BVN,
    SQUAREV,
    BetaInterval,
    DependenceModel,
    delta_closed,
    dominance_range,
    fisher_dominance_threshold,
    get_model,
    psi_closed,
    squarev_exact_rejection,
    transform_for,
)
from .montecarlo import (
    CellResult,
    ExperimentGrid,
    aggregate,
    predicted_relative_error,
    run_cell,
    run_grid,
)
from .pearson import (
    Transform,
    assemble_statistic_model,
    delta_psi,
    fisher_transform,
    h_z,
    identity_transform,
    optimal_transform_numeric,
    sigma_rho,
    skew_lambda,
    tau,
)
from .specfun import (
    Tolerance,
    gamma_ratio_endpoint,
    gauss_2f1_half,
    integrate_adaptive,
    normal_cdf,
    normal_pdf,
    normal_quantile,
)

__version__ = "0.1.0"
