"""Two-coloured Dyck words and their block-weight polynomials.

A word over U, B, R is valid when U counts +1, both B and R count -1, every
prefix stays non-negative, and the total is zero.  Its weight is the number of
U letters, plus the number of maximal B-runs, minus the number of maximal
R-runs.  The distribution polynomial of this weight over all words of
half-length n coincides with the value polynomial of index n + 1; the
verifier at the bottom checks that coincidence against two independent
computations of the distribution.

The two computations share no code.  The closed-form count works on runs,
not letters.  Every maximal down-run follows a U, so its colouring starts
fresh, and a run of length l adds +1 when it starts and ends in B, -1 when
it starts and ends in R, and 0 otherwise.  Summed over its 2**l colourings
that is f(1) = q + 1/q and f(l) = 2**(l-2) * (q + 1/q + 2) for l >= 2, so a
path's colourings weigh the product of g(l) = q**l * f(l) over its runs.
Written backwards with U and the down-steps swapped, a path's down-runs
become up-runs; the up-run just before each down-step (empty after another
down-step), read as a node's number of children, plus a final leaf, is the
Lukasiewicz code of a plane tree with n + 1 nodes.  Raney's cycle lemma
(Lagrange inversion) counts such weighted trees: W_n(q) = [t**n]
psi(t)**(n+1) / (n+1) with psi(t) = 1 + sum of g(l) * t**l =
(1 + (q-1)**2 * t * (1 - q*t)) / (1 - 2*q*t).  Expanded, W_n is a sum of
non-negative integers a_k times q**(n-k) * (q-1)**(2k), palindromic by
construction.  The a_k come from a three-term recurrence in k, run down
from a_n = 1 with one exact division per step, whose last value must come
out as a_0 = W_n(1) = Catalan(n) * 2**n.  Each a_k goes straight into a
signed but exact Horner's rule at a power of two whose slots hold the
coefficients; a carry between slots lowers their sum below W_n(1), which is
checked.  That one pass takes O(n) steps on Python ints, and nothing is
cached between calls.

The brute-force oracle stays letter-level.  It walks the words letter by
letter, keeping for each height the weight polynomial of the prefixes there
whose last letter is U, B or R, so a down-step sees whether it starts a run
from the letter before it, which is the definition.  It uses none of the
closed form's parts: no run sums, no cycle coefficients, not even its slot
reader.  It takes O(n**2) adds and shifts of packed Python ints, so it runs
to ``DP_CAP`` as the closed form does.  Its own reference, the definition
applied to each word that ``enumerate_dyck`` lists, stays in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import ConsistencyError, DomainError
from .exact import IntPoly, _poly_table
from .special_values import value_polynomials
from .validate import integer_at_least

ENUM_CAP = 9  # caps the word enumeration only
DP_CAP = 200


def catalan(n: int) -> int:
    n = integer_at_least(n, 0, "Catalan index")
    return math.comb(2 * n, n) // (n + 1)


def _word_strings(n: int) -> Iterator[str]:
    # depth-first in alphabet order U, B, R gives lexicographic output
    def rec(prefix: list, height: int, ups: int) -> Iterator[str]:
        if len(prefix) == 2 * n:
            yield "".join(prefix)
            return
        if ups < n:
            prefix.append("U")
            yield from rec(prefix, height + 1, ups + 1)
            prefix.pop()
        if height > 0:
            for down in "BR":
                prefix.append(down)
                yield from rec(prefix, height - 1, ups)
                prefix.pop()

    return rec([], 0, 0)


def enumerate_dyck(n: int) -> Iterator[str]:
    """All 2-coloured Dyck words of half-length n as letter strings, lexicographic in U < B < R."""
    n = integer_at_least(n, 0, "half-length")
    if n > ENUM_CAP:
        raise DomainError(
            f"exhaustive enumeration is capped at n = {ENUM_CAP}; "
            "use the dp route of weight_polynomial instead"
        )
    yield from _word_strings(n)


def _weight_poly_walk(n: int) -> IntPoly:
    """Weight distribution by a letter-level prefix walk, one slot per coefficient.

    ``ups[h]``, ``blues[h]`` and ``reds[h]`` hold the weight polynomials of
    the prefixes at height h whose last letter is U, B or R (the empty prefix
    counts as ending in U), divided by q**h, in slots of ``width`` bits.
    Appending U moves a polynomial up a height unshifted; a down-step
    multiplies it by q, a B that opens a B-run by q once more, and an R that
    opens an R-run takes that factor back.  Heights above ``top`` cannot
    return to the axis in time and are dropped, so every slot counts
    distinct completable prefixes, at most Catalan(n) * 2**n of them, and
    no slot carries.
    """
    width = (catalan(n) << n).bit_length()
    ups, blues, reds = [1], [0], [0]
    for step in range(2 * n):
        top = min(step + 1, 2 * n - step - 1)
        new_ups, new_blues, new_reds = [0] * (top + 1), [0] * (top + 1), [0] * (top + 1)
        for h in range(step % 2, len(ups), 2):
            u, b, r = ups[h], blues[h], reds[h]
            if h < top:
                new_ups[h + 1] = u + b + r
            if h:
                new_blues[h - 1] = (((u + r) << width) + b) << width
                new_reds[h - 1] = u + b + (r << width)
        ups, blues, reds = new_ups, new_blues, new_reds
    total = ups[0] + blues[0] + reds[0]
    mask = (1 << width) - 1
    return IntPoly([(total >> (k * width)) & mask for k in range(2 * n + 1)])


def _cycle_coefficients(n: int) -> Iterator[int]:
    """The a_k of W_n(q) = sum over k of a_k * q**(n-k) * (q-1)**(2k), from k = n down to 0.

    With z = (q-1)**2, psi(t) = (1 + z*t*(1 - q*t)) / (1 - 2*q*t) and
    (1 - q*t) / (1 - 2*q*t) = 1 + t / (1 - 2*q*t), the binomial theorem
    twice gives [t**n] psi**(n+1) / (n+1) = sum of a_k * q**(n-k) * z**k
    with a_k = C(n+1, k) / (n+1) * S_k and, for m = n - k,
    S_k = sum over i of C(k, i) * C(2m, m-i) * 2**(m-i).  Every term is
    non-negative, and each a_k is an integer: every f(l), so W_n / q**n, is
    a polynomial over the integers in y = q + 1/q, and
    q**(n-k) * z**k = q**n * (y - 2)**k.

    The sums are not formed.  The a_k follow a three-term recurrence in k,
    run downwards from its own boundary values a_{n+1} = 0 and a_n = 1 (at
    k = n the sum S_n is the single term 1): with m = n - k and
    0 <= k <= n - 1,
    m**2 (m+1) * a_k
    = 8(k+2)(m-1)(2m-3) * a_{k+2} - m (3m**2 - 6km - k**2 - 13m + k + 6) * a_{k+1}.
    Its divisor is nonzero as m >= 1, and at k = n - 1 the a_{n+1} term
    carries the factor m - 1 = 0.  Every division must be exact: a
    remainder raises ``ConsistencyError``.  The last value, a_0, is computed
    and nothing forces it: ``_weight_poly_dp`` holds it to W_n(1), a free end
    check.  The recurrence was found by fitting a nullspace of polynomial
    coefficients to the a_k of n <= 40 and is not proved here; run this way
    it was held equal to the sums for every n <= 400, and the tests hold it
    to them for every n <= ``DP_CAP``, so raising ``DP_CAP`` means raising
    that range with it.  That is O(n) small-by-large steps.
    """
    above, a = 0, 1  # a_{k+2} and a_{k+1}
    yield a
    for k in range(n - 1, -1, -1):
        m = n - k
        middle = m * (3 * m * m - 6 * k * m - k * k - 13 * m + k + 6)
        total = 8 * (k + 2) * (m - 1) * (2 * m - 3) * above - middle * a
        below, rest = divmod(total, m * m * (m + 1))
        if rest:
            raise ConsistencyError(f"cycle coefficient {k} of {n} is not an integer")
        above, a = a, below
        yield a


def _weight_poly_dp(n: int) -> IntPoly:
    """Weight distribution by the cycle lemma (module docstring), in one packed int.

    As ``_cycle_coefficients`` yields a_k for k from n down, W_n is
    evaluated at X = 2**width by Horner's rule:
    packed = packed * (X - 1)**2 + a_k * X**(n-k), that is three shifts and
    adds per step.  The partial sums are polynomials with signed
    coefficients, but Python ints are exact, so the final int is W_n(X)
    whatever the signs on the way.  The last a_k must be
    a_0 = W_n(1) = Catalan(n) * 2**n, or ``ConsistencyError`` is raised.
    Every coefficient of W_n is at most that number, and ``width`` is its bit
    length, so the coefficients lie in [0, X) and are read off the slots
    [k*width, (k+1)*width) by ``_slots``.  Were the slots too narrow, each
    carry out of a slot would trade m * X there for m in the next one, and
    the read coefficients' sum would fall below Catalan(n) * 2**n by a
    multiple of X - 1: a sum other than that number raises
    ``ConsistencyError``.
    """
    words = catalan(n) << n
    width = words.bit_length()
    packed = 0
    for m, a in enumerate(_cycle_coefficients(n)):
        packed += (packed << 2 * width) - (packed << width + 1) + (a << m * width)
    if a != words:
        raise ConsistencyError(f"cycle coefficient 0 of {n} is {a}, not {words}")
    coeffs = _slots(packed, width, 2 * n + 1)
    if sum(coeffs) != words:
        raise ConsistencyError(f"packed weight polynomial {n} carried between slots")
    return IntPoly(coeffs)


def _slots(packed: int, width: int, count: int) -> list[int]:
    """The low ``count`` slots of ``width`` bits of ``packed``, lowest first.

    Halves the slot range down to at most 16 slots, read one shift each, so
    each bit of ``packed`` is shifted O(log count) times rather than once per
    slot; below about 16 slots the halving costs more than the shifts it saves.
    """
    if count <= 16:
        mask = (1 << width) - 1
        return [(packed >> (k * width)) & mask for k in range(count)]
    low = count // 2
    split = low * width
    return _slots(packed & ((1 << split) - 1), width, low) + _slots(
        packed >> split, width, count - low
    )


WEIGHT_POLY_METHODS = ("dp", "bruteforce")


def weight_polynomial(n: int, method: str = "dp") -> IntPoly:
    """Distribution polynomial of the block weight over words of half-length n."""
    n = integer_at_least(n, 0, "half-length")
    if method not in WEIGHT_POLY_METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {WEIGHT_POLY_METHODS}")
    if n > DP_CAP:
        raise DomainError(f"{method} route is capped at n = {DP_CAP}")
    return _weight_poly_dp(n) if method == "dp" else _weight_poly_walk(n)


@dataclass(frozen=True, slots=True)
class IdentityReport:
    """Outcome of checking the weight polynomials against the value polynomials."""

    ok: bool
    dp_checked: int
    brute_checked: int
    brute_words: int  # coloured words the brute force counted, Catalan(n) * 2**n summed
    mismatches: tuple[str, ...]
    mismatch_ns: tuple[int, ...]  # the half-length n of each mismatch, in the same order

    def first_mismatch(self) -> Optional[str]:
        return self.mismatches[0] if self.mismatches else None


def verify_weight_value_identity(
    n_max: int,
    brute_max: int = 9,
    value_polys: Optional[Sequence[IntPoly]] = None,
) -> IdentityReport:
    """Compare weight polynomials with value polynomials, and dp with brute force.

    A value-polynomial table may be injected, so corrupted data is reported
    rather than trusted; failures land in the report, never in an exception.
    Its entries must be ``IntPoly``; anything else is an input error.
    """
    n_max = integer_at_least(n_max, 0, "n_max")
    brute_max = integer_at_least(brute_max, 0, "brute_max")
    if n_max > DP_CAP:
        raise DomainError(f"dp route is capped at n = {DP_CAP}")
    if value_polys is None:
        value_polys = value_polynomials(n_max + 1)
    value_polys = _poly_table(value_polys, n_max + 1, "value_polys")
    mismatches = []  # (n, message) pairs
    for n in range(n_max + 1):
        dp = weight_polynomial(n, "dp")
        if dp != value_polys[n]:
            k = next(i for i, c in enumerate((dp - value_polys[n]).coeffs) if c != 0)
            mismatches.append((n, f"weight polynomial {n} differs from value polynomial {n + 1} "
                                  f"first at coefficient {k}"))
        if n <= brute_max and weight_polynomial(n, "bruteforce") != dp:
            mismatches.append((n, f"dp and bruteforce disagree at n = {n}"))
    brute_checked = min(brute_max, n_max) + 1
    return IdentityReport(
        ok=not mismatches,
        dp_checked=n_max + 1,
        brute_checked=brute_checked,
        brute_words=sum(catalan(n) << n for n in range(brute_checked)),
        mismatches=tuple(message for _, message in mismatches),
        mismatch_ns=tuple(n for n, _ in mismatches),
    )
