"""Spectral zeta values on regular trees: exact tables, generating
functions, quadrature, and the lattice-word combinatorics behind them.

Only ``errors`` and the quadrature engine ``spectral`` (with numpy) load with
the package.  Every public name resolves on first access, through the module
``__getattr__`` of PEP 562, which loads its home module if need be, and is
then cached here, so a process imports only the modules it uses:
``import treezeta`` does not load the exact tables, the Dyck code or the
verification battery.
"""

import importlib

# spectral, and numpy with it, stays eager: perfbench's setup probe reads
# numpy's version from sys.modules right after ``import treezeta`` (ROADMAP item 1).
from . import errors, spectral

__version__ = "0.1.0"

_MODULES = {
    "errors": (
        "ConsistencyError",
        "CutViolationError",
        "DomainError",
        "NonConvergedError",
        "OutOfRangeError",
        "PoleError",
    ),
    "spectral": (
        "QuadratureSpec",
        "ZetaEval",
        "heat_eval",
        "heat_trace",
        "resolvent_transform",
        "xi_sato_tate",
        "xi_value",
        "zeta_line",
        "zeta_numeric",
        "zeta_sato_tate",
    ),
    "exact": ("IntPoly", "poly_eval", "poly_is_palindromic"),
    "special_values": (
        "count_closed_walks",
        "moment_polynomials",
        "negative_value_table",
        "positive_value_sequence",
        "two_step_defect",
        "value_polynomials",
        "zeta_integer",
        "zeta_pos",
    ),
    "genfun": (
        "entire_combination",
        "neg_value_genfun",
        "pos_value_genfun",
        "quadratic_residual_series",
        "spectral_edges",
        "spectrum_cut",
        "symmetry_defect",
    ),
    "dyck": (
        "enumerate_dyck",
        "verify_weight_value_identity",
        "weight_polynomial",
    ),
    "verify": ("CheckResult", "run_battery"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}
__all__ = sorted(_HOME)


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
