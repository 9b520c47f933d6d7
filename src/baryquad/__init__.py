"""Stable barycentric Gegenbauer integration matrices and quadratures.

The package builds spectral integration operators from barycentric
Lagrange interpolation at Gegenbauer-Gauss nodes: square and rectangular
first- and higher-order integration matrices, per-row parameter-optimized
rectangular variants, the feasibility tests guarding their construction,
and collocation solvers that use them on two benchmark problems.
"""

from .barycentric import BarycentricBasis, bary_eval, bary_weights_gg
from .errors import CollisionError, ConvergenceError
from .gim import (SQUARE_VARIANTS, FeasibilityReport, IntegrationMatrix, apply_quadrature,
                  build_basis_gim, build_gim_arbitrary, build_gim_gg, check_gg_condition,
                  map_to_unit, matrix_to_csv, qth_order_gim)
from .optimal import (OptimalConfig, build_optimal_gim, build_optimal_gim_symmetric,
                      check_condition_mmax, optimize_alpha)
from .polynomials import (EPS_MACH, GegenbauerParam, NormAndLeading, discrete_gegenbauer_transform,
                          error_bound, eta, gegenbauer_eval, gegenbauer_norm_leading,
                          integrate_gegenbauer)
from .rules import QuadratureRule, gg_rule, lg_rule, rule_from_csv, rule_to_csv
from .solvers import (CollocationSolution, condition_number_2, newton_solve, solution_to_csv,
                      solve_example1, solve_example2)

__version__ = "0.1.0"

__all__ = [
    "BarycentricBasis", "CollisionError", "CollocationSolution", "ConvergenceError",
    "EPS_MACH", "FeasibilityReport", "GegenbauerParam", "IntegrationMatrix",
    "NormAndLeading", "OptimalConfig", "QuadratureRule", "SQUARE_VARIANTS",
    "apply_quadrature", "bary_eval", "bary_weights_gg",
    "build_basis_gim", "build_gim_arbitrary", "build_gim_gg", "build_optimal_gim",
    "build_optimal_gim_symmetric", "check_condition_mmax", "check_gg_condition", "condition_number_2",
    "discrete_gegenbauer_transform", "error_bound", "eta", "gegenbauer_eval",
    "gegenbauer_norm_leading", "gg_rule", "integrate_gegenbauer", "lg_rule", "map_to_unit",
    "matrix_to_csv", "newton_solve", "optimize_alpha", "qth_order_gim",
    "rule_from_csv", "rule_to_csv", "solution_to_csv", "solve_example1", "solve_example2",
]
