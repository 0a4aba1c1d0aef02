"""Exact arithmetic substrate: dense univariate polynomials over the integers.

Polynomials are stored as coefficient sequences from the constant term up,
with trailing zeros trimmed, so the zero polynomial has an empty coefficient
tuple.  The degree of the zero polynomial is the marker ``NEG_INFINITY``
rather than an integer, which keeps degree comparisons honest.

``IntPoly`` multiplies by Kronecker substitution once both operands have
``KRONECKER_MIN_TERMS`` coefficients: ``_pack`` puts coefficient k in byte
slot k of one integer, the two integers are multiplied once, and ``_unpack``
reads the product's coefficients back.  Shorter products run the schoolbook
loop; this is the one product of two polynomials.  ``first_nonzero_sum``
tests a run of sums of c * a * b terms against zero while still packed, each
longer operand packed once and scaled by the shorter one's coefficients.
``binomial_transform`` runs a difference table on packed integers, and
``two_step_numerator`` forms one step of the two-step relation with shifts
and adds alone.  Each sizes one slot per call from a bound stated in its
docstring, packs each operand once and keeps nothing between calls.  No other
module knows the packed layout.

``IntPoly`` divides only by an int, coefficient by coefficient, and
``p_recursive`` runs a P-recursive sequence, one exact division by an int
per term, on ints and on ``IntPoly`` alike.

No floating point enters any computation in this module.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import count
from operator import mul

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


def _trusted(coeffs: list) -> "IntPoly":
    """An IntPoly of a list of ints this package made: trimmed, but not checked again."""
    p = object.__new__(IntPoly)
    object.__setattr__(p, "coeffs", tuple(_trimmed(coeffs)))
    return p


class IntPoly:
    """Dense polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        try:
            items = iter(coeffs)
        except TypeError:
            raise DomainError(
                f"coeffs must be an iterable of integers, got {type(coeffs).__name__}"
            ) from None
        cs = []
        for c in items:
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
        # a constant equals its int, so it hashes as that int
        cs = self.coeffs
        return hash(("IntPoly", cs)) if len(cs) > 1 else hash(cs[0] if cs else 0)

    def __bool__(self):
        return bool(self.coeffs)

    def __neg__(self):
        return _trusted([-c for c in self.coeffs])

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
        return _trusted(out)

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
            return _trusted([c * other for c in self.coeffs])
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
        return _trusted(out)

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

    def __divmod__(self, d):
        """Quotients and remainders of the coefficients by a nonzero int, one by one."""
        if not isinstance(d, int):
            return NotImplemented
        if not d:
            raise ZeroDivisionError("division of a polynomial by zero")
        pairs = [divmod(c, d) for c in self.coeffs]
        return _trusted([quo for quo, _ in pairs]), _trusted([r for _, r in pairs])

    def divexact(self, d: int) -> "IntPoly":
        """Quotient by a nonzero int known to divide every coefficient.

        A remainder means an exactness invariant broke upstream and raises
        ConsistencyError.
        """
        quo, rest = divmod(self, d)
        if rest:
            raise ConsistencyError(f"inexact division by {d!r}")
        return quo

    def evaluate(self, x):
        """Horner evaluation; exact for int or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"


def poly_eval(p, x) -> Fraction:
    """Evaluate a polynomial at a rational point, exactly.

    The point is a ``Fraction`` or an integer by the validators' rule (numpy
    integers pass, bools are refused).  At an integer point an ``IntPoly``
    runs Horner in integers, and the result is wrapped in a Fraction once, at
    the end.
    """
    _intpoly(p, "p")
    if not isinstance(x, Fraction):
        x = integer(x, "evaluation point")
    return Fraction(p.evaluate(x))


def _intpoly(p, name: str) -> None:
    if not isinstance(p, IntPoly):
        raise DomainError(f"{name} must be an IntPoly, got {type(p).__name__}")


def _poly_table(polys, count: int, name: str) -> Sequence[IntPoly]:
    """The first count entries of an injected table; each must be an IntPoly."""
    if not isinstance(polys, Sequence):
        raise DomainError(f"{name} must be a sequence of IntPoly, got {type(polys).__name__}")
    if len(polys) < count:
        raise DomainError(f"{name} needs at least {count} polynomials, got {len(polys)}")
    table = polys[:count]
    for p in table:
        _intpoly(p, f"{name} entry")
    return table


def p_recursive(seeds: Sequence, step, order: int, name: str) -> Iterator:
    """The seeds, then t_k for k = len(seeds), len(seeds) + 1, ... without end.

    Each t_k solves d t_k = c_1 t_{k-1} + ... + c_order t_{k-order} with
    (d, (c_1, ..., c_order)) = step(k), a term before the first seed
    counting as 0.  Only *, + and divmod by the int d are used, so the same
    code runs on ints and on ``IntPoly``.  A remainder raises
    ConsistencyError naming the sequence and k.
    """
    terms = [0] * order + list(seeds)
    yield from seeds
    for k in count(len(seeds)):
        d, cs = step(k)
        products = map(mul, cs, reversed(terms))  # the first starts the sum: no int 0 + IntPoly
        term, rest = divmod(sum(products, next(products)), d)
        if rest:
            raise ConsistencyError(f"{name}: term {k} leaves a remainder on division by {d}")
        terms.append(term)
        yield term


def first_nonzero_sum(sums: Iterable[Iterable[tuple[int, IntPoly, IntPoly]]]) -> int:
    """The index of the first of ``sums`` of c * a * b terms that is not zero, else their count.

    One slot size serves the whole pass, from the largest of the sums' bounds
    sum |c| max|a| max|b| min(len a, len b), and each distinct longer operand
    is packed once however many sums read it.  A term adds the longer
    operand's pack times c times each coefficient of the shorter one, shifted
    to that coefficient's slot; the shorter operand is never packed.  No sum
    is unpacked: with every coefficient inside half a slot, a packed int is 0
    only when every coefficient is, since the top nonzero coefficient c_k X^k
    outweighs all the slots below it, which sum to less than X^k in size.
    """
    # each sum's nonzero terms as (c, longer operand's coefficients, shorter operand's)
    runs = [
        [
            (c, *sorted((a.coeffs, b.coeffs), key=len, reverse=True))
            for c, a, b in terms
            if c and a and b
        ]
        for terms in sums
    ]
    size = _slot_size(
        max(
            (sum(abs(c) * max(map(abs, a)) * max(map(abs, b)) * len(b) for c, a, b in run)
             for run in runs),
            default=0,
        )
    )
    bits = 8 * size
    packs: dict[int, int] = {}
    for run in runs:
        for _, a, _ in run:
            if id(a) not in packs:
                packs[id(a)] = _pack(a, size)
    for k, run in enumerate(runs):
        total = 0
        for c, a, b in run:
            packed = packs[id(a)]
            total += sum((c * bj * packed) << (bits * j) for j, bj in enumerate(b) if bj)
        if total:
            return k
    return len(runs)


def two_step_numerator(p: IntPoly, a: IntPoly, b: IntPoly, m: int) -> IntPoly:
    """q (q-1)^2 p - (q+1)^m (a - 2 (q+1) b), formed on packed integers.

    No coefficient exceeds 4 max|p| + 2^m (max|a| + 4 max|b|) in size, since
    ||q (q-1)^2||_1 = 4, ||2 (q+1)||_1 = 4 and ||(q+1)^m||_1 = 2^m; that
    bound sizes one slot, and p, a and b are packed once at it.  The product
    by q (q-1)^2 = q^3 - 2 q^2 + q is three shifts, and each of the m + 1
    factors q + 1 a shift and an add.  The m shift-adds for (q+1)^m are m
    linear passes over the packed integer; they measured faster than one
    product by the packed Pascal row of (q+1)^m at every m up to 255.
    """
    tops = [max(map(abs, x.coeffs), default=0) for x in (p, a, b)]
    size = _slot_size(4 * tops[0] + ((tops[1] + 4 * tops[2]) << m))
    bits = 8 * size
    packed_p, packed_b = _pack(p.coeffs, size), _pack(b.coeffs, size)
    lifted = _pack(a.coeffs, size) - 2 * (packed_b + (packed_b << bits))
    for _ in range(m):
        lifted += lifted << bits
    total = (packed_p << 3 * bits) - (packed_p << 2 * bits + 1) + (packed_p << bits) - lifted
    length = max(len(p.coeffs) + 3, m + max(len(a.coeffs), len(b.coeffs) + 1))
    return _unpack(total, size, length)


def binomial_transform(polys: Sequence[IntPoly]) -> list[IntPoly]:
    """N_m = sum_j (-1)^j C(m, j) p_j (q+1)^(m-j) for m < len(polys).

    Runs the difference table d[0][j] = p_j, d[i+1][j] = (q+1) d[i][j] - d[i][j+1]
    to N_m = d[m][0].  Every coefficient of d[i][j] is at most 3^i max_j ||p_j||_1
    (||(q+1)^k||_1 = 2^k), which at the last row sizes one slot for the whole
    table: each p_j is packed once and a product by q+1 is a shift and an add.
    """
    if not polys:
        return []
    size = _slot_size(3 ** (len(polys) - 1) * max(sum(map(abs, p.coeffs)) for p in polys))
    row = [_pack(p.coeffs, size) for p in polys]
    lengths = [len(p.coeffs) for p in polys]
    out = []
    while row:
        out.append(_unpack(row[0], size, lengths[0]))
        row = [a + (a << 8 * size) - b for a, b in zip(row, row[1:])]
        lengths = [max(k + 1, n) for k, n in zip(lengths, lengths[1:])]
    return out


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
    return _trusted(
        [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, size * length, size)]
    )


def poly_is_palindromic(p) -> bool:
    """True when the coefficient sequence reads the same in both directions.

    The zero polynomial has no sensible reversal, so it is rejected.
    """
    _intpoly(p, "p")
    if p.is_zero():
        raise DomainError("palindromicity is undefined for the zero polynomial")
    return p.coeffs == tuple(reversed(p.coeffs))
