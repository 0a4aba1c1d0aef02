"""Argument validators shared by the public functions.

Each returns its argument in canonical form (a Python ``int`` or a
``complex``) or raises ``DomainError``, in O(1) work.  Integers are taken
through ``operator.index``, so numpy integers pass and floats, even integral
ones, are refused; ``bool`` is refused although it is an ``int`` subclass.
"""

from __future__ import annotations

import cmath
import operator

from .errors import DomainError


def integer(n, name: str) -> int:
    """Return n as an int; refuse bools and non-integers."""
    if isinstance(n, bool):
        raise DomainError(f"{name} must be an integer, not a bool")
    try:
        return operator.index(n)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {type(n).__name__}") from None


def integer_at_least(n, lo: int, name: str) -> int:
    """Return n as an int no smaller than lo."""
    n = integer(n, name)
    if n < lo:
        raise DomainError(f"{name} must be at least {lo}, got {n}")
    return n


def branching_number(q) -> int:
    """Return the branching number q of a tree as an int, at least 2."""
    return integer_at_least(q, 2, "branching number")


def finite_point(z) -> complex:
    """Return the evaluation point z as a complex number with finite parts."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"evaluation point must be finite, got {z}")
    return z
