"""Exact special values of the spectral zeta function of a (q+1)-regular tree.

The Laplacian spectrum of the infinite (q+1)-regular tree induces a spectral
zeta function whose values at negative integers are integer polynomials N_m in
the branching number q, and whose values at positive integers are rationals
built from a family of monic palindromic integer polynomials P_n.  Everything
here runs on integer recurrences over Z[q], and every division in them is
checked to be exact: a remainder raises ``ConsistencyError``.

Negative values come by three independent routes that cross-check each other:

* ``closed_form`` sums products of binomials and shares no code with the others;
* ``moments`` binomially transforms the closed-walk counts, the coefficients of
  ((q+1) sqrt(1 - 4 q z^2) - (q-1)) / (2 (1 - (q+1)^2 z^2));
* ``series`` reads them off ((q+1) sqrt(1 - 2(q+1) z + (q-1)^2 z^2) + z (q^2-1)
  - (q-1)) / (2 (1 - 2(q+1) z)).

Both radicals are D-finite, so their coefficients follow a three-term
recurrence, and the divisions by the denominators are two-term recurrences.

The value polynomials come by two routes.  ``value_polynomials`` rearranges
the two-step functional relation between the values at n and at -n into

    2q(q+1) P_n = q(q-1)^2(q+1) P_{n-1} - (q+1)^n (N_n - 2(q+1) N_{n-1}),

one exact division per polynomial, fed by the closed-form N_m.  The internal
quadratic route keeps the convolution recursion of the quadratic functional
equation of their generating series, O(n^4) to depth n, as the oracle that
the checks hold the two-step table to.  Each route keeps one table that only
ever grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .exact import IntPoly, poly_eval
from .validate import branching_number, integer, integer_at_least

MAX_WALK_LENGTH = 64

_ONE = IntPoly.constant(1)
_QP1 = IntPoly((1, 1))  # q + 1
_QM1 = IntPoly((-1, 1))  # q - 1
_QM1_SQ = _QM1 * _QM1


def count_closed_walks(q: int, n: int) -> int:
    """Number of length-n closed walks at a vertex of the (q+1)-regular tree.

    Dynamic programming over the distance from the starting vertex: from the
    root there are q+1 outward steps, from anywhere else q outward and one
    inward.  Serves as the independent oracle for the generating-function
    route.
    """
    q = integer_at_least(q, 1, "branching number")
    n = integer_at_least(n, 0, "walk length")
    if n > MAX_WALK_LENGTH:
        raise DomainError(f"walk length capped at {MAX_WALK_LENGTH}")
    ways = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for d, c in ways.items():
            out = c * (q + 1 if d == 0 else q)
            nxt[d + 1] = nxt.get(d + 1, 0) + out
            if d >= 1:
                nxt[d - 1] = nxt.get(d - 1, 0) + c
        ways = nxt
    return ways.get(0, 0)


def _radical_coefficients(b: IntPoly, c: IntPoly, order: int) -> list[IntPoly]:
    """The first ``order`` coefficients of sqrt(1 + b z + c z^2) over Z[q].

    The root f is D-finite: 2 (1 + b z + c z^2) f' = (b + 2 c z) f, which
    gives 2 (n+1) a_{n+1} = b (1 - 2n) a_n + 2 c (2 - n) a_{n-1} with a_0 = 1.
    """
    a = [_ONE]
    before = IntPoly()
    for n in range(order - 1):
        step = b * a[n] * (1 - 2 * n) + c * before * (2 * (2 - n))
        before = a[n]
        a.append(step.divexact(2 * (n + 1)))
    return a


def _series_quotient(num: list[IntPoly], den: tuple[IntPoly, ...]) -> list[IntPoly]:
    """Coefficients of num / den for a polynomial den in z with constant term 1."""
    out: list[IntPoly] = []
    for n, c in enumerate(num):
        for k in range(1, min(n, len(den) - 1) + 1):
            c = c - den[k] * out[n - k]
        out.append(c)
    return out


@lru_cache(maxsize=None, typed=True)
def moment_polynomials(n_max: int) -> tuple[IntPoly, ...]:
    """Closed-walk counts at the root as polynomials in q, for lengths 0..n_max.

    Expands the closed form of the walk generating function
    ((q+1) sqrt(1 - 4 q z^2) - (q - 1)) / (2 (1 - (q+1)^2 z^2)).
    """
    n_max = integer_at_least(n_max, 0, "n_max")
    radical = _radical_coefficients(IntPoly(), IntPoly((0, -4)), n_max + 1)
    num = [_QP1 * r for r in radical]
    num[0] = num[0] - _QM1
    half = [c.divexact(2) for c in num]
    return tuple(_series_quotient(half, (_ONE, IntPoly(), -(_QP1 * _QP1))))


NEG_VALUE_METHODS = ("closed_form", "moments", "series")


@lru_cache(maxsize=None, typed=True)
def negative_value_table(m_max: int, method: str = "closed_form") -> tuple[IntPoly, ...]:
    """Zeta values at 0, -1, ..., -m_max as integer polynomials in q.

    ``method`` picks one of the three independent routes in
    ``NEG_VALUE_METHODS``: the binomial closed form (the default), the
    binomial transform of the closed-walk counts, or the coefficients of the
    closed generating function.  Each table is cached on (m_max, method).
    """
    m_max = integer_at_least(m_max, 0, "m_max")
    if method == "closed_form":
        return tuple(_neg_value_closed_form(m) for m in range(m_max + 1))
    if method == "moments":
        walks = moment_polynomials(m_max)
        lifts = [_QP1**k for k in range(m_max + 1)]
        return tuple(_neg_value_from_moments(m, walks, lifts) for m in range(m_max + 1))
    if method == "series":
        return _neg_values_series(m_max)
    raise DomainError(f"unknown method {method!r}; choose from {NEG_VALUE_METHODS}")


def zeta_neg(m: int, method: str = "closed_form") -> IntPoly:
    """Zeta value at -m as an integer polynomial in the branching number."""
    m = integer_at_least(m, 0, "m")
    return negative_value_table(m, method)[m]


def _neg_value_closed_form(m: int) -> IntPoly:
    # sum of squared binomials minus a (q-1)-weighted correction double sum
    coeffs = [0] * (m + 2)
    for k in range(m + 1):
        coeffs[m - k] += math.comb(m, k) ** 2
    for j in range(1, m // 2 + 1):
        for k in range(m - 2 * j + 1):
            b = math.comb(m, k) * math.comb(m, 2 * j + k)
            e = m - 2 * j - k
            coeffs[e + 1] -= b
            coeffs[e] += b
    return IntPoly(coeffs)


def _neg_value_from_moments(m: int, walks, lifts) -> IntPoly:
    # binomial transform of the walk counts against the powers lifts[k] = (q+1)^k
    acc = IntPoly()
    for j in range(m + 1):
        term = walks[j] * lifts[m - j] * math.comb(m, j)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def _neg_values_series(m_max: int) -> tuple[IntPoly, ...]:
    # coefficient extraction from the closed generating function
    # ((q+1) sqrt(1 - 2(q+1) z + (q-1)^2 z^2) + z (q^2-1) - (q-1)) / (2 (1 - 2(q+1) z))
    radical = _radical_coefficients(_QP1 * -2, _QM1_SQ, m_max + 1)
    num = [_QP1 * r for r in radical]
    num[0] = num[0] - _QM1
    if m_max >= 1:
        num[1] = num[1] + _QP1 * _QM1
    half = [c.divexact(2) for c in num]
    return tuple(_series_quotient(half, (_ONE, _QP1 * -2)))


# P_1, P_2, ... as far as the quadratic route has been asked for; only ever grown
_quadratic_polys: list[IntPoly] = [_ONE]


def _quadratic_table(n_max: int) -> list[IntPoly]:
    """The live quadratic-route table, grown first to hold at least n_max polynomials.

    The quadratic functional equation of the generating series gives
    P_{n+1} = 2q sum_{j=1}^{n} P_j P_{n+1-j} - q (q-1)^2 sum_{j=1}^{n-1} P_j P_{n-j}
    + (q-1)^2 P_n, O(n^4) integer work to depth n.
    """
    p = _quadratic_polys
    while len(p) < n_max:
        n = len(p)  # p[i] is P_{i+1}; this step appends P_{n+1}
        conv_a = sum((p[j] * p[n - 1 - j] for j in range(n)), IntPoly())
        conv_b = sum((p[j] * p[n - 2 - j] for j in range(n - 1)), IntPoly())
        p.append((conv_a * 2 - _QM1_SQ * conv_b).shifted(1) + _QM1_SQ * p[n - 1])
    return p


# P_1, P_2, ... as far as the two-step route has been asked for; only ever grown
_value_polys: list[IntPoly] = [_ONE]

_TWO_STEP_CARRY = (_QM1_SQ * _QP1).shifted(1)  # q (q-1)^2 (q+1)
_TWO_STEP_DIVISOR = IntPoly((0, 2, 2))  # 2 q (q+1)


def _two_step_table(n_max: int) -> list[IntPoly]:
    """The live two-step table, grown first to hold at least n_max polynomials."""
    polys = _value_polys
    n = len(polys)
    if n < n_max:
        before = _neg_value_closed_form(n)
        lift = _QP1**n
        while n < n_max:
            n += 1
            lift = lift * _QP1
            neg = _neg_value_closed_form(n)
            rhs = _TWO_STEP_CARRY * polys[-1] - lift * (neg - _QP1 * before * 2)
            polys.append(rhs.divexact(_TWO_STEP_DIVISOR))
            before = neg
    return polys


def value_polynomials(n_max: int) -> tuple[IntPoly, ...]:
    """The monic palindromic polynomials P_1..P_n_max carrying the positive values.

    Index k of the returned tuple holds the polynomial for the value at k+1.
    Each polynomial is built from the one before and two closed-form negative
    values by the two-step relation (the ``quadratic`` route stays internal,
    as the oracle of the checks).  The table only grows, exactly as deep as
    the deepest call so far; a call returns a prefix of it, each polynomial
    built and wrapped once.
    """
    n_max = integer_at_least(n_max, 1, "n_max")
    return tuple(_two_step_table(n_max)[:n_max])


def _pos_value(q: int, n: int, poly: IntPoly) -> Fraction:
    # zeta(n) = q P_n(q) / ((q-1)^(2n-1) (q+1)^n)
    return Fraction(q * poly.evaluate(q), (q - 1) ** (2 * n - 1) * (q + 1) ** n)


def zeta_pos(q: int, n: int) -> Fraction:
    """Zeta value at the positive integer n, exactly (q = 1 has its own line function)."""
    q = branching_number(q)
    n = integer_at_least(n, 1, "n")
    return _pos_value(q, n, _two_step_table(n)[n - 1])


def positive_value_sequence(q: int, n_max: int) -> list[Fraction]:
    """Positive-integer zeta values a_0..a_n_max via the quadratic recursion.

    Independent of the value-polynomial route: only the closed-walk quadratic
    feeds this recursion, so it cross-checks ``zeta_pos``.
    """
    q = branching_number(q)
    n_max = integer_at_least(n_max, 0, "n_max")
    a = [Fraction(1)]
    if n_max >= 1:
        a.append(Fraction(q, q * q - 1))
    for n in range(2, n_max + 1):
        acc = Fraction(0)
        for j in range(1, n):
            acc += a[j] * a[n - j]
        acc *= 2 * (q + 1)
        for j in range(1, n - 1):
            acc -= a[j] * a[n - 1 - j]
        acc += (q - 1) * a[n - 1]
        a.append(acc / (q * q - 1))
    return a


def zeta_integer(q: int, k: int) -> Fraction:
    """Zeta value at any integer: polynomial evaluation for k <= 0, exact rational for k >= 1.

    For k <= 0 any q >= 1 is taken (q = 1 gives the line's values C(2m, m));
    ``zeta_pos`` asks q >= 2 for k >= 1.
    """
    q = integer_at_least(q, 1, "branching number")
    k = integer(k, "k")
    if k >= 1:
        return zeta_pos(q, k)
    return poly_eval(zeta_neg(-k), q)


def two_step_defect(q: int, n: int) -> Fraction:
    """Residual of the exact two-step functional relation at integer offset n.

    Zero for every integer n; computed with exact rationals on both sides so
    a nonzero result is a genuine counterexample, not round-off.  The
    positive values come from the quadratic route and the negative ones from
    the closed form: the default value-polynomial table is built from this
    very relation, so reading it here would check the identity with itself.
    """
    q = branching_number(q)
    n = integer(n, "n")
    polys = _quadratic_table(max(n, 1 - n))

    def value(k: int) -> Fraction:
        if k >= 1:
            return _pos_value(q, k, polys[k - 1])
        return poly_eval(zeta_neg(-k), q)

    lhs = value(-n) - 2 * (q + 1) * value(1 - n)
    rhs = Fraction(q - 1) ** (2 * n - 1) * (value(n - 1) - 2 * (q + 1) * value(n))
    return lhs - rhs


DEFAULT_TABLE_DEPTH = 50


@dataclass(frozen=True)
class SpecialValueTable:
    """Bundled exact special values for one branching number.

    ``neg_values[m]`` is the integer zeta value at -m; ``pos_values[n-1]`` the
    rational value at n; ``value_polys[n-1]`` the polynomial behind it.
    """

    q: int
    neg_values: tuple[int, ...]
    pos_values: tuple[Fraction, ...]
    value_polys: tuple[IntPoly, ...]

    @classmethod
    def build(cls, q: int, depth: int = DEFAULT_TABLE_DEPTH) -> "SpecialValueTable":
        q = branching_number(q)
        depth = integer_at_least(depth, 1, "depth")
        polys = value_polynomials(depth)
        neg = tuple(int(poly_eval(p, q)) for p in negative_value_table(depth))
        pos = tuple(_pos_value(q, n, p) for n, p in enumerate(polys, start=1))
        return cls(q=q, neg_values=neg, pos_values=pos, value_polys=polys)


SMALL_ROOT_CANDIDATES = tuple(
    Fraction(s * n, d)
    for s in (1, -1)
    for n, d in ((1, 1), (2, 1), (3, 1), (5, 1), (7, 1), (1, 2), (1, 3), (1, 5), (1, 7))
)


def value_poly_small_rational_roots(n: int) -> list[Fraction]:
    """Small-candidate rational roots of the n-th value polynomial.

    Monic with constant coefficient 1, so the rational root theorem already
    confines candidates to ±1; a few more candidates are checked for free.
    Expected to be empty for every n.
    """
    n = integer_at_least(n, 1, "n")
    p = _two_step_table(n)[n - 1]
    return [x for x in SMALL_ROOT_CANDIDATES if p.evaluate(x) == 0]
