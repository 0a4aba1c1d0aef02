"""Exact arithmetic substrate: dense univariate polynomials over the integers,
and a packed layout that turns a polynomial into one big integer.

Polynomials are stored as coefficient sequences from the constant term up,
with trailing zeros trimmed, so the zero polynomial has an empty coefficient
tuple.  The degree of the zero polynomial is the marker ``NEG_INFINITY``
rather than an integer, which keeps degree comparisons honest.

The packed layout puts coefficient k in byte slot k of an integer, so a
product of packed polynomials is one big-integer product (Kronecker
substitution); ``_pack`` and ``_unpack`` convert in both directions.

No floating point enters any computation in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConsistencyError, DomainError

NEG_INFINITY = float("-inf")


def _trimmed(coeffs: list) -> list:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


class IntPoly:
    """Dense polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = []
        for c in coeffs:
            if not isinstance(c, int):
                if isinstance(c, Fraction) and c.denominator == 1:
                    c = c.numerator
                else:
                    raise DomainError(f"integer coefficient expected, got {c!r}")
            cs.append(c)
        object.__setattr__(self, "coeffs", tuple(_trimmed(cs)))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def constant(cls, c: int) -> "IntPoly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "IntPoly":
        return cls((0, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == (() if other == 0 else (other,))
        return NotImplemented

    def __hash__(self):
        return hash(("IntPoly", self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __neg__(self):
        return IntPoly(-c for c in self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly.constant(other)
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, IntPoly):
            return self + (-other)
        if isinstance(other, int):
            return self + IntPoly.constant(-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return IntPoly()
            return IntPoly(c * other for c in self.coeffs)
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        result = IntPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divexact(self, d) -> "IntPoly":
        """Quotient by a nonzero int or IntPoly known to divide this one.

        Long division over the integers; a remainder, or a leading
        coefficient that does not divide, means an exactness invariant broke
        upstream and raises ConsistencyError.
        """
        if isinstance(d, int):
            d = IntPoly.constant(d)
        if not d:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        lead = d.coeffs[-1]
        k = len(d.coeffs) - 1
        out = [0] * max(len(rem) - k, 0)
        for i in range(len(out) - 1, -1, -1):
            quo, r = divmod(rem[i + k], lead)
            if r:
                raise ConsistencyError(f"inexact division by {d!r}")
            out[i] = quo
            if quo:
                for j, dj in enumerate(d.coeffs):
                    rem[i + j] -= quo * dj
        if any(rem[:k]):
            raise ConsistencyError(f"nonzero remainder on division by {d!r}")
        return IntPoly(out)

    def evaluate(self, x):
        """Horner evaluation; exact for int or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shifted(self, k: int) -> "IntPoly":
        """Multiply by the k-th power of the variable."""
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"


def poly_eval(p, x) -> Fraction:
    """Evaluate a polynomial at a rational point, exactly.

    At an integer point an ``IntPoly`` runs Horner in integers, and the
    result is wrapped in a Fraction once, at the end.
    """
    if not isinstance(x, (int, Fraction)):
        raise DomainError("evaluation point must be an integer or Fraction")
    return Fraction(p.evaluate(x))


def _half_slots(size: int, length: int) -> int:
    # half a slot, 2**(8*size-1), in each of ``length`` byte slots of ``size`` bytes
    return int.from_bytes((1 << (8 * size - 1)).to_bytes(size, "little") * length, "little")


def _pack(coeffs: Sequence[int], size: int) -> int:
    """The polynomial evaluated at 2**(8*size): coefficient k in byte slot k.

    Signed coefficients are biased by half a slot, so the slots are laid out
    as plain bytes and the bias is taken off the whole integer at once.  A
    coefficient that does not fit a slot raises ConsistencyError.
    """
    half = 1 << (8 * size - 1)
    try:
        raw = b"".join((c + half).to_bytes(size, "little") for c in coeffs)
    except OverflowError:
        raise ConsistencyError(f"a coefficient does not fit a {size}-byte slot") from None
    return int.from_bytes(raw, "little") - _half_slots(size, len(coeffs))


def _unpack(packed: int, size: int, length: int) -> IntPoly:
    """Inverse of ``_pack`` for a polynomial of at most ``length`` coefficients.

    Every coefficient must lie in [-2**(8*size-1), 2**(8*size-1)); the caller
    sizes the slots so.  A value that does not fit ``length`` such slots
    cannot round-trip and raises ConsistencyError rather than come back
    truncated.
    """
    half = 1 << (8 * size - 1)
    biased = packed + _half_slots(size, length)
    if biased < 0 or biased.bit_length() > 8 * size * length:
        raise ConsistencyError(f"packed value does not fit {length} slots of {size} bytes")
    raw = biased.to_bytes(size * length, "little")
    return IntPoly(
        [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, size * length, size)]
    )


def poly_is_palindromic(p) -> bool:
    """True when the coefficient sequence reads the same in both directions.

    The zero polynomial has no sensible reversal, so it is rejected.
    """
    if p.is_zero():
        raise DomainError("palindromicity is undefined for the zero polynomial")
    return p.coeffs == tuple(reversed(p.coeffs))
