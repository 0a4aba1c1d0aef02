"""Spectral zeta values on regular trees: exact tables, generating
functions, quadrature, and the lattice-word combinatorics behind them.
"""

from .errors import (
    ConsistencyError,
    CutViolationError,
    DomainError,
    NonConvergedError,
    OutOfRangeError,
    PoleError,
)
from .exact import IntPoly, poly_eval, poly_is_palindromic
from .special_values import (
    count_closed_walks,
    moment_polynomials,
    negative_value_table,
    positive_value_sequence,
    two_step_defect,
    value_polynomials,
    zeta_integer,
    zeta_neg,
    zeta_pos,
)
from .genfun import (
    cut_sqrt,
    entire_combination,
    moment_genfun,
    neg_value_genfun,
    pos_value_genfun,
    quadratic_residual_series,
    spectral_edges,
    spectrum_cut,
    symmetry_defect,
)
from .spectral import (
    QuadratureSpec,
    ZetaEval,
    complex_gamma,
    heat_trace,
    resolvent_transform,
    xi_sato_tate,
    xi_value,
    zeta_line,
    zeta_numeric,
    zeta_sato_tate,
)
from .dyck import (
    DyckWord,
    enumerate_dyck,
    verify_weight_value_identity,
    weight_polynomial,
    weight_profile,
)
from .verify import CheckResult, run_battery

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConsistencyError",
    "CutViolationError",
    "DomainError",
    "DyckWord",
    "IntPoly",
    "NonConvergedError",
    "OutOfRangeError",
    "PoleError",
    "QuadratureSpec",
    "ZetaEval",
    "complex_gamma",
    "count_closed_walks",
    "cut_sqrt",
    "entire_combination",
    "enumerate_dyck",
    "heat_trace",
    "moment_genfun",
    "moment_polynomials",
    "neg_value_genfun",
    "negative_value_table",
    "poly_eval",
    "poly_is_palindromic",
    "pos_value_genfun",
    "positive_value_sequence",
    "quadratic_residual_series",
    "resolvent_transform",
    "run_battery",
    "spectral_edges",
    "spectrum_cut",
    "symmetry_defect",
    "two_step_defect",
    "value_polynomials",
    "verify_weight_value_identity",
    "weight_polynomial",
    "weight_profile",
    "xi_sato_tate",
    "xi_value",
    "zeta_integer",
    "zeta_line",
    "zeta_neg",
    "zeta_numeric",
    "zeta_pos",
    "zeta_sato_tate",
]
