"""Exact arithmetic substrate: dense univariate polynomials over the integers
and the rationals, quotients of polynomials, and truncated power series whose
coefficients live in any of those rings.

Polynomials are stored as coefficient sequences from the constant term up,
with trailing zeros trimmed, so the zero polynomial has an empty coefficient
tuple.  The degree of the zero polynomial is the marker ``NEG_INFINITY``
rather than an integer, which keeps degree comparisons honest.

No floating point enters any computation in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import ConsistencyError, DomainError

NEG_INFINITY = float("-inf")

Scalar = Union[int, Fraction]


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

    def to_ratpoly(self) -> "RatPoly":
        return RatPoly(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"


class RatPoly:
    """Dense polynomial with rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        object.__setattr__(self, "coeffs", tuple(_trimmed(cs)))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    @classmethod
    def constant(cls, c: Scalar) -> "RatPoly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "RatPoly":
        return cls((0, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == (() if other == 0 else (Fraction(other),))
        if isinstance(other, IntPoly):
            return self.coeffs == other.to_ratpoly().coeffs
        return NotImplemented

    def __hash__(self):
        return hash(("RatPoly", self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __neg__(self):
        return RatPoly(-c for c in self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly.constant(other)
        elif isinstance(other, IntPoly):
            other = other.to_ratpoly()
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, IntPoly, RatPoly)):
            return self + (-other if isinstance(other, (IntPoly, RatPoly)) else RatPoly.constant(-other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return RatPoly()
            return RatPoly(c * other for c in self.coeffs)
        if isinstance(other, IntPoly):
            other = other.to_ratpoly()
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RatPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return RatPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            return RatPoly(c / other for c in self.coeffs)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        result = RatPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "RatPoly":
        """Multiplicative inverse; defined only for nonzero constants."""
        if self.degree == 0:
            return RatPoly.constant(1 / self.coeffs[0])
        raise DomainError("only degree-0 polynomials are invertible in the polynomial ring")

    def evaluate(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shifted(self, k: int) -> "RatPoly":
        if not self.coeffs:
            return self
        return RatPoly((Fraction(0),) * k + self.coeffs)

    def to_intpoly(self) -> IntPoly:
        """Convert back to integer coefficients; non-integral entries mean a bug upstream."""
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise ConsistencyError(f"expected integer coefficients, found {c}")
            out.append(c.numerator)
        return IntPoly(out)

    def __repr__(self):
        return f"RatPoly({[str(c) for c in self.coeffs]!r})"


class PolyFrac:
    """Quotient of two rational polynomials, normalised to a monic denominator.

    No polynomial gcd is attempted; equality is decided by cross-multiplication.
    This is only used where series coefficients genuinely leave the polynomial
    ring (square roots with a non-constant leading behaviour), always at tiny
    truncation orders, so the absence of cancellation never hurts.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = RatPoly.constant(num)
        elif isinstance(num, IntPoly):
            num = num.to_ratpoly()
        if den is None:
            den = RatPoly.constant(1)
        elif isinstance(den, (int, Fraction)):
            den = RatPoly.constant(den)
        elif isinstance(den, IntPoly):
            den = den.to_ratpoly()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = RatPoly.constant(1)
        else:
            lead = den.coeffs[-1]
            if lead != 1:
                num = num / lead
                den = den / lead
            if den.degree == 0:
                # collapse constant denominators into the numerator
                den = RatPoly.constant(1)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("PolyFrac is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, IntPoly, RatPoly)):
            other = PolyFrac(other)
        if not isinstance(other, PolyFrac):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("PolyFrac is not hashable (no canonical form)")

    def __neg__(self):
        return PolyFrac(-self.num, self.den)

    def _coerced(self, other):
        if isinstance(other, (int, Fraction, IntPoly, RatPoly)):
            return PolyFrac(other)
        if isinstance(other, PolyFrac):
            return other
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return PolyFrac(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return PolyFrac(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int) and other == 0:
            return PolyFrac(0)
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return PolyFrac(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero polynomial fraction")
        return PolyFrac(self.num * o.den, self.den * o.num)

    def inverse(self) -> "PolyFrac":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return PolyFrac(self.den, self.num)

    def as_ratpoly(self) -> RatPoly:
        if self.den.degree == 0:
            return self.num / self.den.coeffs[0]
        raise DomainError("denominator is not constant")

    def evaluate(self, x) -> Fraction:
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {x}")
        return self.num.evaluate(x) / d

    def __repr__(self):
        return f"PolyFrac({self.num!r}, {self.den!r})"


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


def _ring_inverse(c):
    if isinstance(c, (int, Fraction)):
        if c == 0:
            raise DomainError("constant term must be invertible")
        return Fraction(1) / c
    if c.is_zero():
        raise DomainError("constant term must be invertible")
    return c.inverse()


class Series:
    """Truncated power series; ``coeffs[k]`` is the order-k coefficient.

    The coefficient ring is whatever the entries support: Fraction, IntPoly,
    RatPoly and PolyFrac all work.  Binary operations truncate to the shorter
    operand, so an order-n series never pretends to know more than n terms.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = list(coeffs)
        if not cs:
            raise DomainError("a series needs at least its constant term")
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def _zero(self):
        return self.coeffs[0] * 0

    def truncated(self, n: int) -> "Series":
        if n < 1:
            raise DomainError("truncation order must be at least 1")
        return Series(self.coeffs[:n]) if n < self.order else self

    def padded(self, n: int) -> "Series":
        if n <= self.order:
            return self
        z = self._zero()
        return Series(self.coeffs + (z,) * (n - self.order))

    def shifted(self, k: int) -> "Series":
        """Multiply by the k-th power of the series variable, keeping the order."""
        if k == 0:
            return self
        z = self._zero()
        return Series(((z,) * k + self.coeffs)[: self.order])

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __neg__(self):
        return Series([-c for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if not isinstance(other, Series):
            # scalar from the coefficient ring
            return Series([c * other for c in self.coeffs])
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(n):
            acc = a[0] * b[k]
            for i in range(1, k + 1):
                acc = acc + a[i] * b[k - i]
            out.append(acc)
        return Series(out)

    def inverse(self) -> "Series":
        """Multiplicative inverse; the constant term must be a unit."""
        c0inv = _ring_inverse(self.coeffs[0])
        out = [c0inv]
        for k in range(1, self.order):
            acc = self.coeffs[1] * out[k - 1]
            for i in range(2, k + 1):
                acc = acc + self.coeffs[i] * out[k - i]
            out.append(-(c0inv * acc))
        return Series(out)

    def __truediv__(self, other):
        if not isinstance(other, Series):
            return Series([c / other for c in self.coeffs])
        n = min(self.order, other.order)
        return self.truncated(n) * other.truncated(n).inverse()

    def __repr__(self):
        return f"Series({list(self.coeffs)!r})"


def _rational_sqrt(c: Fraction) -> Fraction:
    if c <= 0:
        raise DomainError(f"constant term {c} is not a positive rational square")
    n, d = c.numerator, c.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise DomainError(f"constant term {c} is not the square of a rational")
    return Fraction(rn, rd)


def _ratpoly_sqrt(p: RatPoly) -> RatPoly:
    """Exact polynomial square root with positive leading coefficient."""
    if p.is_zero():
        raise DomainError("the zero polynomial has no usable square root here")
    d = p.degree
    if d % 2 != 0:
        raise DomainError("odd-degree polynomial is not a square")
    m = d // 2
    g = [Fraction(0)] * (m + 1)
    g[m] = _rational_sqrt(p.coeffs[-1])
    for k in range(m - 1, -1, -1):
        acc = p.coeffs[m + k]
        for i in range(k + 1, m):
            acc -= g[i] * g[m + k - i]
        g[k] = acc / (2 * g[m])
    root = RatPoly(g)
    if root * root != p:
        raise DomainError("polynomial is not a perfect square")
    return root


def _canonical_root(c0):
    """Square root of a series constant term, positive leading coefficient."""
    if isinstance(c0, int):
        c0 = Fraction(c0)
    if isinstance(c0, Fraction):
        return _rational_sqrt(c0)
    if isinstance(c0, IntPoly):
        c0 = c0.to_ratpoly()
    if isinstance(c0, RatPoly):
        if c0.degree == 0:
            return RatPoly.constant(_rational_sqrt(c0.coeffs[0]))
        return _ratpoly_sqrt(c0)
    if isinstance(c0, PolyFrac):
        return PolyFrac(_ratpoly_sqrt(c0.num * c0.den), c0.den)
    raise DomainError(f"cannot take a square root over {type(c0).__name__}")


def series_sqrt(f: Series) -> Series:
    """Square root of a truncated series by Newton iteration.

    The constant term must be the square of a nonzero element; the root with
    positive leading coefficient is chosen.  When that root is a genuine
    polynomial of positive degree the later coefficients leave the polynomial
    ring, so the computation (and the result) is lifted to PolyFrac entries.
    """
    c0 = f.coeffs[0]
    if isinstance(c0, int):
        f = Series([Fraction(c) for c in f.coeffs])
    elif isinstance(c0, IntPoly):
        f = Series([c.to_ratpoly() for c in f.coeffs])
    root0 = _canonical_root(f.coeffs[0])
    if isinstance(root0, RatPoly) and root0.degree != 0:
        f = Series([PolyFrac(c) for c in f.coeffs])
        root0 = PolyFrac(root0)
    n = f.order
    y = Series([root0])
    while y.order < n:
        m = min(2 * y.order, n)
        y = y.padded(m)
        y = (y + f.truncated(m) / y) / 2
    return y
