"""Spectral zeta values on regular trees: exact tables, generating
functions, quadrature, and the lattice-word combinatorics behind them.

Only ``errors`` and the quadrature engine ``spectral`` (with numpy) load with
the package.  Every other public name loads its home module on first access,
through the module ``__getattr__`` of PEP 562, and is then cached here, so a
process imports only the modules it uses: ``import treezeta`` does not load
the exact tables, the Dyck code or the verification battery.
"""

import importlib

from .errors import (
    ConsistencyError,
    CutViolationError,
    DomainError,
    NonConvergedError,
    OutOfRangeError,
    PoleError,
)

# spectral, and numpy with it, stays eager: perfbench's setup probe reads
# numpy's version from sys.modules right after ``import treezeta`` (ROADMAP item 1).
from .spectral import (
    QuadratureSpec,
    ZetaEval,
    complex_gamma,
    heat_eval,
    heat_trace,
    resolvent_transform,
    xi_sato_tate,
    xi_value,
    zeta_line,
    zeta_numeric,
    zeta_sato_tate,
)

__version__ = "0.1.0"

_LAZY_MODULES = {
    "exact": ("IntPoly", "poly_eval", "poly_is_palindromic"),
    "special_values": (
        "count_closed_walks",
        "moment_polynomials",
        "negative_value_table",
        "positive_value_sequence",
        "two_step_defect",
        "value_polynomials",
        "zeta_integer",
        "zeta_neg",
        "zeta_pos",
    ),
    "genfun": (
        "cut_sqrt",
        "entire_combination",
        "moment_genfun",
        "neg_value_genfun",
        "pos_value_genfun",
        "quadratic_residual_series",
        "spectral_edges",
        "spectrum_cut",
        "symmetry_defect",
    ),
    "dyck": (
        "DyckWord",
        "enumerate_dyck",
        "verify_weight_value_identity",
        "weight_polynomial",
        "weight_profile",
    ),
    "verify": ("CheckResult", "run_battery"),
}
_HOME = {name: module for module, names in _LAZY_MODULES.items() for name in names}

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
    "heat_eval",
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


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
