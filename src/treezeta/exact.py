"""Exact arithmetic substrate: dense univariate polynomials over the integers.

Polynomials are stored as coefficient sequences from the constant term up,
with trailing zeros trimmed, so the zero polynomial has an empty coefficient
tuple.  The degree of the zero polynomial is the marker ``NEG_INFINITY``
rather than an integer, which keeps degree comparisons honest.

``IntPoly`` multiplies by Kronecker substitution once both operands have
``KRONECKER_MIN_TERMS`` coefficients: ``_pack`` puts coefficient k in byte
slot k of one integer, the two integers are multiplied once, and ``_unpack``
reads the product's coefficients back.  Shorter products run the schoolbook
loop.  ``SumOfProducts`` does the same for a whole sum of c * a * b terms:
one slot size bounds every coefficient of the sum, each operand is packed
once, the packed products are added as plain integers, and the sum is
unpacked once.  An instance keeps its packs across calls, so a table build
that meets the same operands in many sums packs each once per slot size.
No other module knows the packed layout.

No floating point enters any computation in this module.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConsistencyError, DomainError
from .validate import integer

NEG_INFINITY = float("-inf")
# the shorter operand's length from which a product packs its operands; below
# it the schoolbook loop is faster for coefficients of 10 to 200 bits
KRONECKER_MIN_TERMS = 16


def _trimmed(coeffs: list) -> list:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


class IntPoly:
    """Dense polynomial with integer coefficients."""

    __slots__ = ("coeffs", "__weakref__")

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
        shorter = min(len(a), len(b))
        if shorter >= KRONECKER_MIN_TERMS:
            size = _slot_size(max(map(abs, a)) * max(map(abs, b)) * shorter)
            packed = _pack(a, size)
            return _unpack(
                packed * (packed if b is a else _pack(b, size)), size, len(a) + len(b) - 1
            )
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

    The point is a ``Fraction`` or an integer by the validators' rule (numpy
    integers pass, bools are refused).  At an integer point an ``IntPoly``
    runs Horner in integers, and the result is wrapped in a Fraction once, at
    the end.
    """
    if not isinstance(x, Fraction):
        x = integer(x, "evaluation point")
    return Fraction(p.evaluate(x))


class SumOfProducts:
    """Called on terms (c, a, b) of an int c and two IntPoly operands: the IntPoly sum of c*a*b.

    The slot size comes from the bound sum |c| max|a| max|b| min(len a, len b)
    on the sum's coefficients.  The instance keeps each live operand's pack,
    so a later call at the same slot size reuses it and an operand met at a
    new size is packed again.  A pack goes when its operand does, and all of
    them when the instance does: one instance serves one table build.
    """

    __slots__ = ("_packs", "__weakref__")

    def __init__(self):
        # id(operand) -> [weak reference to it, coefficients, max |coefficient|, slot size, pack]
        self._packs: dict[int, list] = {}

    def _entry(self, p: IntPoly) -> list:
        entry = self._packs.get(id(p))
        if entry is None or entry[0]() is not p:  # new, or left by a dead operand of this id
            ref = weakref.ref(p, _forget_pack(weakref.ref(self), id(p)))
            entry = self._packs[id(p)] = [ref, p.coeffs, max(map(abs, p.coeffs)), 0, 0]
        return entry

    def __call__(self, terms: Iterable[tuple[int, IntPoly, IntPoly]]) -> IntPoly:
        entry = self._entry
        rows = [(c, entry(a), entry(b)) for c, a, b in terms if c and a.coeffs and b.coeffs]
        bound = sum(abs(c) * ea[2] * eb[2] * min(len(ea[1]), len(eb[1])) for c, ea, eb in rows)
        length = max((len(ea[1]) + len(eb[1]) - 1 for _, ea, eb in rows), default=0)
        size = _slot_size(bound)
        total = sum(c * (_packed(ea, size) * _packed(eb, size)) for c, ea, eb in rows)
        return _unpack(total, size, length)


def _packed(entry: list, size: int) -> int:
    if entry[3] != size:
        entry[3:] = size, _pack(entry[1], size)
    return entry[4]


def _forget_pack(owner: weakref.ref, key: int):
    # drops an operand's entry when the operand dies; it holds the SumOfProducts
    # weakly, so no reference cycle keeps a finished build's packs alive
    def forget(_dead):
        sums = owner()
        if sums is not None:
            sums._packs.pop(key, None)

    return forget


def _slot_size(bound: int) -> int:
    """The fewest bytes per slot whose half, 2**(8*size-1), exceeds bound."""
    return (bound.bit_length() + 8) // 8


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
