"""Exact special values of the spectral zeta function of a (q+1)-regular tree.

The Laplacian spectrum of the infinite (q+1)-regular tree induces a spectral
zeta function whose values at negative integers are integer polynomials N_m in
the branching number q, and whose values at positive integers are rationals
built from a family of monic palindromic integer polynomials P_n.  Everything
here runs on integer recurrences over Z[q], and every division in them is
checked to be exact: a remainder raises ``ConsistencyError``.

Negative values come by three independent routes that cross-check each other:

* ``closed_form`` sums products of binomials and shares no code with the others;
* ``moments`` binomially transforms the closed-walk counts w_j, the coefficients
  of ((q+1) sqrt(1 - 4 q z^2) - (q-1)) / (2 (1 - (q+1)^2 z^2)), into
  N_m = sum_j (-1)^j C(m, j) w_j (q+1)^(m-j);
* ``series`` reads them off ((q+1) sqrt(1 - 2(q+1) z + (q-1)^2 z^2) + z (q^2-1)
  - (q-1)) / (2 (1 - 2(q+1) z)).

Both radicals are D-finite, so their coefficients follow a three-term
recurrence, run by ``exact.p_recursive``, and the divisions by the
denominators are two-term recurrences.

The value polynomials come by two routes.  ``value_polynomials`` rearranges
the two-step functional relation between the values at n and at -n, divided
through by q+1, into

    2q P_n = q(q-1)^2 P_{n-1} - (q+1)^(n-1) (N_n - 2(q+1) N_{n-1}),

fed by the closed-form N_m.  The right side is formed on packed integers at
one slot size (``exact.two_step_numerator``), and it must have no constant
term and only even coefficients, or ``ConsistencyError`` is raised; P_n is
then a shift and a halving.  No division by q+1 is checked: in the undivided
form, 2q(q+1) on the left, every term on the right carries the factor q+1,
so its division could only fail if the code's own products did.  The
quadratic functional equation of their generating series
gives a second recurrence, ``_quadratic_recurrence``, with three users:
``positive_value_sequence`` and ``two_step_defect`` run it in integers at
their q, O(n^2) products per call and nothing cached, and
``genfun.quadratic_residual_series`` runs it over Z[q] only from the first
entry its table breaks the series' linear recurrence at, so not at all on a
correct table.  The recurrence uses only * and +, so one piece of code runs
on ints and on ``IntPoly``.  The residual's linear pass runs on
``exact.first_nonzero_sum``, and the ``moments`` route's transform on
``exact.binomial_transform``.  The two-step and closed-form tables only ever
grow.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import mul

from .errors import ConsistencyError, DomainError
from .exact import IntPoly, _trusted, binomial_transform, poly_eval, two_step_numerator
from .exact import p_recursive
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


def _radical_coefficients(b: IntPoly, c: IntPoly, order: int, name: str) -> list[IntPoly]:
    """The first ``order`` coefficients of sqrt(1 + b z + c z^2) over Z[q].

    The root f is D-finite: 2 (1 + b z + c z^2) f' = (b + 2 c z) f, which
    gives 2k a_k = b (3 - 2k) a_{k-1} + 2 c (3 - k) a_{k-2} with a_0 = 1,
    run by ``p_recursive`` under ``name``.
    """
    steps = p_recursive((_ONE,), lambda k: (2 * k, (b * (3 - 2 * k), c * (6 - 2 * k))), 2, name)
    return list(itertools.islice(steps, order))


def _series_quotient(num: list[IntPoly], den: tuple[IntPoly, ...]) -> list[IntPoly]:
    """Coefficients of num / den for a polynomial den in z with constant term 1."""
    out: list[IntPoly] = []
    for n, c in enumerate(num):
        for k in range(1, min(n, len(den) - 1) + 1):
            c = c - den[k] * out[n - k]
        out.append(c)
    return out


def _cached(fn):
    """fn behind ``lru_cache(typed=True)``, keyed on its arguments as given.

    An argument the cache cannot hash goes to fn itself, whose validators
    refuse it with ``DomainError``; a ``TypeError`` raised by fn passes
    through.  ``cache_info`` and ``cache_clear`` are the cache's.
    """
    cached = functools.lru_cache(maxsize=None, typed=True)(fn)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        try:
            return cached(*args, **kwargs)
        except TypeError:
            try:
                hash((args, *kwargs.values()))
            except TypeError:
                return fn(*args, **kwargs)
            raise

    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


@_cached
def moment_polynomials(n_max: int) -> tuple[IntPoly, ...]:
    """Closed-walk counts at the root as polynomials in q, for lengths 0..n_max.

    Expands the closed form of the walk generating function
    ((q+1) sqrt(1 - 4 q z^2) - (q - 1)) / (2 (1 - (q+1)^2 z^2)).
    """
    n_max = integer_at_least(n_max, 0, "n_max")
    radical = _radical_coefficients(IntPoly(), IntPoly((0, -4)), n_max + 1, "the walk radical")
    num = [_QP1 * r for r in radical]
    num[0] = num[0] - _QM1
    half = [c.divexact(2) for c in num]
    return tuple(_series_quotient(half, (_ONE, IntPoly(), -(_QP1 * _QP1))))


NEG_VALUE_METHODS = ("closed_form", "moments", "series")


@_cached
def negative_value_table(m_max: int, method: str = "closed_form") -> tuple[IntPoly, ...]:
    """Zeta values at 0, -1, ..., -m_max as integer polynomials in q.

    ``method`` picks one of the three independent routes in
    ``NEG_VALUE_METHODS``: the binomial closed form (the default), the
    binomial transform of the closed-walk counts, or the coefficients of the
    closed generating function.  Each table is cached on (m_max, method); the
    closed-form tables are prefixes of one table that only ever grows, which
    the two-step route reads as well.
    """
    m_max = integer_at_least(m_max, 0, "m_max")
    if method == "closed_form":
        return tuple(_closed_form_table(m_max)[: m_max + 1])
    if method == "moments":
        return tuple(binomial_transform(moment_polynomials(m_max)))
    if method == "series":
        return _neg_values_series(m_max)
    raise DomainError(f"unknown method {method!r}; choose from {NEG_VALUE_METHODS}")


def _neg_value_closed_form(m: int) -> IntPoly:
    # q^e has coefficient C(m, e) P[m-e] - C(m, e-1) P[m-e-1], where P[k] sums C(m, i)
    # over i <= k, i = k (mod 2): one Pascal row and one same-parity running sum
    row = [math.comb(m, i) for i in range(m + 1)]
    sums = [0, 0]  # sums[k + 2] = P[k], so P[-2] = P[-1] = 0
    for c in row:
        sums.append(c + sums[-2])
    below = [0] + row  # below[e] = C(m, e - 1)
    return IntPoly([row[e] * sums[m - e + 2] - below[e] * sums[m - e + 1] for e in range(m + 1)])


# N_0, N_1, ... by the closed form as far as any caller has asked; only ever grown
_closed_forms: list[IntPoly] = []


def _closed_form_table(m_max: int) -> list[IntPoly]:
    """The live closed-form table, grown first to hold N_0..N_m_max."""
    table = _closed_forms
    while len(table) <= m_max:
        table.append(_neg_value_closed_form(len(table)))
    return table


def _neg_values_series(m_max: int) -> tuple[IntPoly, ...]:
    # coefficient extraction from the closed generating function
    # ((q+1) sqrt(1 - 2(q+1) z + (q-1)^2 z^2) + z (q^2-1) - (q-1)) / (2 (1 - 2(q+1) z))
    radical = _radical_coefficients(_QP1 * -2, _QM1_SQ, m_max + 1, "the series radical")
    num = [_QP1 * r for r in radical]
    num[0] = num[0] - _QM1
    if m_max >= 1:
        num[1] = num[1] + _QP1 * _QM1
    half = [c.divexact(2) for c in num]
    return tuple(_series_quotient(half, (_ONE, _QP1 * -2)))


def _quadratic_recurrence(table, start, q, one):
    """Yield T_k for k = start, start+1, ..., each formed from T_0..T_{k-1} in ``table``.

    T_0 = one, T_k = 2q S_{k-1} - q (q-1)^2 S_{k-2} + (q-1)^2 T_{k-1} with
    S_j = sum_i T_i T_{j-i}, each S_j formed once and each unordered pair in it
    multiplied once.  Only * and + are used, so the same code runs in integers
    at a fixed q (q an int, one = 1) and over Z[q] (q the IntPoly variable).
    """

    def pair_sum(j):  # S_j; S_{-1} is the empty sum
        pairs = (j + 1) // 2  # T_i T_{j-i} for i < pairs, each unordered pair once
        s = 2 * sum(map(mul, table[:pairs], table[j : j - pairs : -1]))
        return s + table[j // 2] * table[j // 2] if j % 2 == 0 else s

    if start == 0:
        yield one
        start = 1
    qm1_sq = (q - 1) * (q - 1)
    q_qm1_sq = q * qm1_sq
    before = pair_sum(start - 2)
    for k in itertools.count(start):
        s = pair_sum(k - 1)
        yield 2 * q * s - q_qm1_sq * before + qm1_sq * table[k - 1]
        before = s


def _grow(n_max: int, q, one) -> list:
    """A fresh list of the first n_max entries of the quadratic recurrence at q."""
    table: list = []
    steps = _quadratic_recurrence(table, 0, q, one)
    while len(table) < n_max:
        table.append(next(steps))
    return table


def _values_at(q: int, n_max: int) -> list[int]:
    """P_1(q)..P_n_max(q) by the quadratic recurrence in integers at this q."""
    return _grow(n_max, q, 1)


# P_1, P_2, ... as far as the two-step route has been asked for; only ever grown
_value_polys: list[IntPoly] = [_ONE]


def _two_step_table(n_max: int) -> list[IntPoly]:
    """The live two-step table, grown first to hold at least n_max polynomials."""
    polys = _value_polys
    if len(polys) < n_max:
        neg = _closed_form_table(n_max)
        for n in range(len(polys) + 1, n_max + 1):
            rhs = two_step_numerator(polys[-1], neg[n], neg[n - 1], n - 1).coeffs  # 2q P_n
            if any(rhs[:1]):
                raise ConsistencyError(f"the two-step relation leaves 2q P_{n} a constant term")
            if any(c & 1 for c in rhs):
                raise ConsistencyError(f"the two-step relation leaves 2q P_{n} an odd coefficient")
            polys.append(_trusted([c >> 1 for c in rhs[1:]]))
    return polys


def value_polynomials(n_max: int) -> tuple[IntPoly, ...]:
    """The monic palindromic polynomials P_1..P_n_max carrying the positive values.

    Index k of the returned tuple holds the polynomial for the value at k+1.
    Each polynomial is built from the one before and two closed-form negative
    values by the two-step relation, on packed integers.  The table only
    grows, exactly as deep as the deepest call so far; a call returns a
    prefix of it, each polynomial built and wrapped once.
    """
    n_max = integer_at_least(n_max, 1, "n_max")
    return tuple(_two_step_table(n_max)[:n_max])


def _pos_value(q: int, n: int, p_n: int) -> Fraction:
    # zeta(n) = q P_n(q) / ((q-1)^(2n-1) (q+1)^n), given p_n = P_n(q)
    return Fraction(q * p_n, (q - 1) ** (2 * n - 1) * (q + 1) ** n)


def zeta_pos(q: int, n: int) -> Fraction:
    """Zeta value at the positive integer n, exactly (q = 1 has its own line function)."""
    q = branching_number(q)
    n = integer_at_least(n, 1, "n")
    return _pos_value(q, n, _two_step_table(n)[n - 1].evaluate(q))


def positive_value_sequence(q: int, n_max: int) -> list[Fraction]:
    """Positive-integer zeta values a_0..a_n_max via the quadratic recursion.

    Runs the quadratic recurrence in integers at this q, in O(n_max^2) products, and
    shares no code with the two-step table behind ``zeta_pos``, which it cross-checks.
    """
    q = branching_number(q)
    n_max = integer_at_least(n_max, 0, "n_max")
    values = _values_at(q, n_max)
    return [Fraction(1)] + [_pos_value(q, n, values[n - 1]) for n in range(1, n_max + 1)]


def zeta_integer(q: int, k: int) -> Fraction:
    """Zeta value at any integer: polynomial evaluation for k <= 0, exact rational for k >= 1.

    For k <= 0 any q >= 1 is taken (q = 1 gives the line's values C(2m, m));
    ``zeta_pos`` asks q >= 2 for k >= 1.
    """
    q = integer_at_least(q, 1, "branching number")
    k = integer(k, "k")
    if k >= 1:
        return zeta_pos(q, k)
    return poly_eval(negative_value_table(-k, "closed_form")[-k], q)


def _two_step_residual(q: int, n: int, pos: list[int], neg) -> Fraction:
    """``two_step_defect`` at offset n, given pos[k-1] = P_k(q) and neg[m] = N_m(q).

    With N = max(n, 1 - n), the offset reads P_k for k <= N and N_m only at
    m = N - 1 and m = N, so ``neg`` may be a list or a dict of those two; one
    pair of lists reaching N serves every offset with |n| < N.
    """

    def value(k: int) -> Fraction:
        return _pos_value(q, k, pos[k - 1]) if k >= 1 else neg[-k]

    lhs = value(-n) - 2 * (q + 1) * value(1 - n)
    rhs = Fraction(q - 1) ** (2 * n - 1) * (value(n - 1) - 2 * (q + 1) * value(n))
    return lhs - rhs


def two_step_defect(q: int, n: int) -> Fraction:
    """Residual of the exact two-step functional relation at integer offset n.

    Zero for every integer n; computed with exact rationals on both sides so
    a nonzero result is a genuine counterexample, not round-off.  The
    positive values come from the quadratic recurrence in integers at this q,
    run afresh to N = max(n, 1 - n) in O(N^2) products, and the negative ones
    from the closed form: the default value-polynomial table is built from
    this very relation, so reading it here would check the identity with
    itself.  A check over every |n| <= N reuses one run per q through
    ``_two_step_residual`` and so costs O(N^2) as well.
    """
    q = branching_number(q)
    n = integer(n, "n")
    depth = max(n, 1 - n)
    neg = {m: poly_eval(negative_value_table(m, "closed_form")[m], q) for m in (depth - 1, depth)}
    return _two_step_residual(q, n, _values_at(q, depth), neg)
