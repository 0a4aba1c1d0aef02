"""Argument validators shared by the public functions.

Each returns its argument in canonical form (a Python ``int``, ``float`` or
``complex``; a tolerance comes back as given) or raises ``DomainError``, in
O(1) work.  Integers are taken through ``operator.index``, so numpy integers
pass and floats, even integral ones, are refused; ``bool`` is refused
although it is an ``int`` subclass.  Points and real numbers are taken from
any number type (numpy scalars, ``Fraction``, ``Decimal``), and refused when
they are strings, bools or any other object.  ``finite_result`` wraps a
function so that a float overflow inside it raises ``OutOfRangeError``.

A point near a branch cut is refused here too: ``SpectrumCut`` is a closed
real segment that raises ``CutViolationError`` for a point within its
clearance, and ``_edges`` gives the spectral segment of the (q+1)-regular
tree that the quadrature and the generating functions both cut along.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import operator
import reprlib
import sys
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable

from .errors import CutViolationError, DomainError, OutOfRangeError

EPS_CUT = 1e-3
# Deepest index that poly --n, values --neg/--pos and the battery's exact checks
# take (twostep, in integers at each q, takes twice it).  The exact tables cost more
# than linearly in their depth (on a 2-core VM, values --q 3 --neg 1000 took
# 2.7 s and 124 MB, against 0.5 s at this cap); a refused depth builds none.
DEPTH_CAP = 256


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
    """Return the branching number q of a tree as an int, at least 2.

    A plain int (not a bool or a numpy integer) that passes is returned after
    one type test; anything else takes the general validator.
    """
    if type(q) is int and q >= 2:
        return q
    return integer_at_least(q, 2, "branching number")


def finite_result(fn: Callable) -> Callable:
    """Turn a float overflow inside fn, or a non-finite number it returns, into OutOfRangeError.

    An integer argument too large for a float, a branching number of 10**200
    say, overflows wherever it first meets float arithmetic; wrapped, that is
    an input out of range rather than a crash.  A result that is neither a
    float nor a complex number passes through unchecked.
    """

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            shown = [reprlib.repr(a) for a in args]
            shown += [f"{k}={reprlib.repr(v)}" for k, v in kwargs.items()]
            raise OutOfRangeError(f"{fn.__name__} at {', '.join(shown)} is out of floating-point range")
        return value

    return checked


_PLAIN_NUMBERS = (float, complex, int)


def finite_point(z) -> complex:
    """Return the evaluation point z as a complex number with finite parts."""
    if type(z) in _PLAIN_NUMBERS:
        z = complex(z)
    elif isinstance(z, bool) or not isinstance(z, numbers.Number):
        raise DomainError(f"evaluation point must be a number, got {type(z).__name__}")
    else:
        z = _to(complex, z)
    if not cmath.isfinite(z):
        raise DomainError(f"evaluation point must be finite, got {z}")
    return z


def nonnegative_real(x, name: str) -> float:
    """Return the real number x >= 0 as a float; NaN is refused."""
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, (numbers.Real, Decimal)):
            raise DomainError(f"{name} must be a real number, got {type(x).__name__}")
        x = _to(float, x)
    if not x >= 0:  # also refuses NaN
        raise DomainError(f"{name} must be non-negative, got {x}")
    return x


def _to(kind, x):
    """kind(x), with a signalling-NaN Decimal read as NaN rather than raising ValueError."""
    try:
        return kind(x)
    except ValueError:
        return kind(math.nan)


def tolerance(x, name: str):
    """Return the tolerance x unchanged once 0 < x <= the largest float.

    The bounds are compared against x itself, not float(x), so a huge
    integer is refused rather than overflowing, and NaN fails both.
    """
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {type(x).__name__}")
    if not 0 < x <= sys.float_info.max:
        raise DomainError(f"{name} must be positive and finite, got {x!r}")
    return x


def _edges(q: int) -> tuple[float, float]:
    rq = math.sqrt(q)
    return ((rq - 1) ** 2, (rq + 1) ** 2)


@dataclass(frozen=True, slots=True)
class SpectrumCut:
    """A closed real segment acting as a branch cut."""

    lo: float
    hi: float

    def distance(self, z: complex) -> float:
        x = min(max(z.real, self.lo), self.hi)
        return math.hypot(z.real - x, z.imag)

    def refuse_near(self, z: complex, eps: float = EPS_CUT) -> None:
        d = self.distance(z)
        if d < eps:
            raise CutViolationError(
                f"point {z} lies within {eps} of the cut [{self.lo}, {self.hi}] (distance {d:.3g})"
            )
