"""Double ultraspherical expansions of two-variable power kernels.

Closed-form expansion coefficients, sheared plus-part integrals, classical
specializations and limits, an independent singular-quadrature oracle, and
verification suites tying them together.
"""

from .expansion import (
    CoeffTable,
    ExpansionParams,
    HypothesisError,
    SeriesEvalResult,
    coeff_table,
    cosine_expansion,
    dotsenko_fateev,
    expansion_coeff,
    hermite_kernel_integral,
    kernel_value,
    mehta2,
    moment_of_plus_integral,
    plus_base_integral,
    plus_part_integral,
    projection_integral,
    selberg2,
    series_eval,
    series_eval_grid,
    sheared_integral,
    shear_averaged_projection,
    tail_bound,
    tarasov_varchenko,
    truncation_order,
    warnaar,
    weighted_power_mass,
)
from .oracle import (
    OracleConvergenceError,
    QuadResult,
    QuadratureSpec,
    integrate_hermite_2d,
    refine_until,
    regularized_inverse_square,
)
from .orthopoly import (
    QuadratureRule,
    gauss_gegenbauer_rule,
    gauss_hermite_rule,
    gauss_jacobi_rule,
    gegenbauer,
    gegenbauer_endpoint,
    gegenbauer_norm_sq,
    hermite,
    u_weighted,
)
from .specfun import (
    ConvergenceError,
    DomainError,
    HypResult,
    HypStatus,
    PoleError,
    beta,
    gamma,
    hyp2f1,
    hyp2f1_half,
    log_gamma,
    pochhammer,
    rgamma,
)
from .verify import VerifyReport, run_suite

__version__ = "0.1.0"
