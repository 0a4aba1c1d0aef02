"""Two-coloured Dyck words and their block-weight polynomials.

A word over U, B, R is valid when U counts +1, both B and R count -1, every
prefix stays non-negative, and the total is zero.  Its weight is the number of
U letters, plus the number of maximal B-runs, minus the number of maximal
R-runs.  The distribution polynomial of this weight over all words of
half-length n coincides with the value polynomial of index n + 1; the
verifier at the bottom checks that coincidence against two independent
computations of the distribution.

The two computations share no code.  The dynamic program walks prefixes by
(height, last letter).  The brute-force oracle visits each of the Catalan(n)
uncoloured paths once and colours it in all 2**n ways at once: one letter
array per path, with a column per colouring whose down-steps are B or R by
the bits of the column index.  It counts run starts literally, by comparing
every letter with the one before it.  The string-level definition
(``enumerate_dyck`` with ``word_weight``) is kept as the oracle's own
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError
from .exact import IntPoly
from .special_values import value_polynomials
from .validate import integer_at_least

ENUM_CAP = 9
DP_CAP = 200

_ALPHABET = "UBR"  # also the lexicographic order of enumeration


def catalan(n: int) -> int:
    n = integer_at_least(n, 0, "Catalan index")
    return math.comb(2 * n, n) // (n + 1)


def _validate_letters(letters: str) -> int:
    """Check the lattice-path invariants; return the half-length."""
    height = 0
    ups = 0
    for ch in letters:
        if ch == "U":
            height += 1
            ups += 1
        elif ch in ("B", "R"):
            height -= 1
            if height < 0:
                raise DomainError(f"prefix dips below the axis in {letters!r}")
        else:
            raise DomainError(f"letter {ch!r} is not one of U, B, R")
    if height != 0:
        raise DomainError(f"word {letters!r} does not return to the axis")
    return ups


@dataclass(frozen=True)
class DyckWord:
    """A validated 2-coloured Dyck word."""

    letters: str

    def __post_init__(self):
        _validate_letters(self.letters)

    @property
    def half_length(self) -> int:
        return len(self.letters) // 2

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters


@dataclass(frozen=True)
class WeightProfile:
    """Block statistics of one word and the weight they induce."""

    n: int
    b_blocks: int
    r_blocks: int
    weight: int

    def __post_init__(self):
        if self.weight != self.n + self.b_blocks - self.r_blocks:
            raise DomainError("inconsistent weight profile")
        if not 0 <= self.weight <= 2 * self.n:
            raise DomainError("weight outside its provable range")
        if self.b_blocks + self.r_blocks > self.n:
            raise DomainError("more blocks than down-steps")


def weight_profile(word) -> WeightProfile:
    """Block counts and weight of a word, straight from the definition."""
    letters = word.letters if isinstance(word, DyckWord) else str(word)
    n = _validate_letters(letters)
    runs = [ch for ch, _ in groupby(letters)]
    b = runs.count("B")
    r = runs.count("R")
    return WeightProfile(n=n, b_blocks=b, r_blocks=r, weight=n + b - r)


def word_weight(word) -> int:
    return weight_profile(word).weight


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


def enumerate_dyck(n: int) -> Iterator[DyckWord]:
    """All 2-coloured Dyck words of half-length n, lexicographic in U < B < R."""
    n = integer_at_least(n, 0, "half-length")
    if n > ENUM_CAP:
        raise DomainError(
            f"exhaustive enumeration is capped at n = {ENUM_CAP}; "
            "use the dp route of weight_polynomial instead"
        )
    for s in _word_strings(n):
        yield DyckWord(s)


_U, _B, _R = 0, 1, 2  # letter codes of the colouring array


def _up_masks(n: int) -> Iterator[list]:
    """Uncoloured Dyck paths of half-length n, as up-step masks."""

    def rec(mask: list, height: int, ups: int) -> Iterator[list]:
        if len(mask) == 2 * n:
            yield mask
            return
        if ups < n:
            mask.append(True)
            yield from rec(mask, height + 1, ups + 1)
            mask.pop()
        if height > 0:
            mask.append(False)
            yield from rec(mask, height - 1, ups)
            mask.pop()

    return rec([], 0, 0)


def _weight_poly_bruteforce(n: int) -> IntPoly:
    """Weight distribution by exhausting every coloured word, one path at a time.

    For each uncoloured path the 2**n colourings form one int8 letter array,
    stored letter-major as (2n, 2**n) so that each letter position is a
    contiguous row and the per-word sums run over rows.  The U rows are
    constant, and down-step j of colouring k is B or R as bit j of k is 0 or
    1.  A letter starts a run when it differs from the letter before it (the
    first letter always does), and each word weighs
    n + (B-run starts) - (R-run starts).  The weights of a path are tallied
    with ``np.bincount``, so no more than 2**n words are held at once.
    """
    cols = 1 << n
    downs = _B + ((np.arange(cols) >> np.arange(n)[:, None]) & 1).astype(np.int8)
    letters = np.empty((2 * n, cols), dtype=np.int8)
    starts = np.ones((2 * n, cols), dtype=bool)
    counts = np.zeros(2 * n + 1, dtype=np.int64)
    for mask in _up_masks(n):
        up = np.array(mask, dtype=bool)
        letters[up] = _U
        letters[~up] = downs
        np.not_equal(letters[1:], letters[:-1], out=starts[1:])
        b_runs = np.count_nonzero(starts & (letters == _B), axis=0)
        r_runs = np.count_nonzero(starts & (letters == _R), axis=0)
        counts += np.bincount(n + b_runs - r_runs, minlength=2 * n + 1)
    return IntPoly([int(c) for c in counts])


_START = "^"


def _weight_poly_dp(n: int) -> IntPoly:
    """Prefix dynamic programming over (height, last letter).

    Appending U always raises the weight; appending B raises it exactly when
    it opens a new B-run; appending R lowers it exactly when it opens a new
    R-run.  Every reachable prefix weight is non-negative (each R-run consumes
    a down-step, and down-steps never outnumber ups), so the coefficient
    tables need no exponent offset.
    """
    states: dict[tuple[int, str], list] = {(0, _START): [1]}
    for _ in range(2 * n):
        nxt: dict[tuple[int, str], list] = {}

        def add(key, coeffs, shift):
            if shift == -1:
                if coeffs[0] != 0:
                    raise AssertionError("prefix weight went negative")
                moved = coeffs[1:]
            elif shift == 1:
                moved = [0] + coeffs
            else:
                moved = coeffs
            slot = nxt.get(key)
            if slot is None:
                nxt[key] = list(moved)
            else:
                if len(moved) > len(slot):
                    slot.extend([0] * (len(moved) - len(slot)))
                for i, c in enumerate(moved):
                    slot[i] += c

        for (height, last), coeffs in states.items():
            if height < n:
                add((height + 1, "U"), coeffs, 1)
            if height > 0:
                add((height - 1, "B"), coeffs, 1 if last != "B" else 0)
                add((height - 1, "R"), coeffs, -1 if last != "R" else 0)
        states = nxt
    total = [0]
    for (height, last), coeffs in states.items():
        if height == 0:
            if len(coeffs) > len(total):
                total.extend([0] * (len(coeffs) - len(total)))
            for i, c in enumerate(coeffs):
                total[i] += c
    return IntPoly(total)


WEIGHT_POLY_METHODS = ("dp", "bruteforce")


def weight_polynomial(n: int, method: str = "dp") -> IntPoly:
    """Distribution polynomial of the block weight over words of half-length n."""
    n = integer_at_least(n, 0, "half-length")
    if method == "dp":
        if n > DP_CAP:
            raise DomainError(f"dp route is capped at n = {DP_CAP}")
        return _weight_poly_dp(n) if n else IntPoly([1])
    if method == "bruteforce":
        if n > ENUM_CAP:
            raise DomainError(f"bruteforce route is capped at n = {ENUM_CAP}")
        return _weight_poly_bruteforce(n)
    raise DomainError(f"unknown method {method!r}; choose from {WEIGHT_POLY_METHODS}")


def decompose(word) -> tuple[str, str, str]:
    """Split a nonempty word as (left, inner, colour) with word = left + U + inner + colour.

    The marked U is the last rise from the axis, which makes left and inner
    valid words themselves and the split unique.
    """
    letters = word.letters if isinstance(word, DyckWord) else str(word)
    _validate_letters(letters)
    if not letters:
        raise DomainError("the empty word has no decomposition")
    height = 0
    mark = -1
    for i, ch in enumerate(letters):
        if ch == "U":
            if height == 0:
                mark = i
            height += 1
        else:
            height -= 1
    left, inner, colour = letters[:mark], letters[mark + 1 : -1], letters[-1]
    _validate_letters(left)
    _validate_letters(inner)
    if colour not in ("B", "R"):
        raise AssertionError("final letter of a balanced nonempty word must be a down-step")
    return left, inner, colour


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking the weight polynomials against the value polynomials."""

    ok: bool
    dp_checked: int
    brute_checked: int
    mismatches: tuple[str, ...]

    def first_mismatch(self) -> Optional[str]:
        return self.mismatches[0] if self.mismatches else None


def verify_weight_value_identity(
    n_max: int,
    brute_max: int = ENUM_CAP,
    value_polys: Optional[Sequence[IntPoly]] = None,
) -> IdentityReport:
    """Compare weight polynomials with value polynomials, and dp with brute force.

    A value-polynomial table may be injected, so corrupted data is reported
    rather than trusted; failures land in the report, never in an exception.
    """
    n_max = integer_at_least(n_max, 0, "n_max")
    brute_max = integer_at_least(brute_max, 0, "brute_max")
    if n_max > DP_CAP:
        raise DomainError(f"dp route is capped at n = {DP_CAP}")
    if value_polys is None:
        value_polys = value_polynomials(n_max + 1)
    if len(value_polys) < n_max + 1:
        raise DomainError("value polynomial table is too short")
    mismatches = []
    brute_checked = 0
    for n in range(n_max + 1):
        dp = weight_polynomial(n, "dp")
        expected = value_polys[n]
        if dp != expected:
            diff = dp - expected
            k = next(i for i, c in enumerate(diff.coeffs) if c != 0)
            mismatches.append(
                f"weight polynomial {n} differs from value polynomial {n + 1} "
                f"first at coefficient {k}"
            )
        if n <= brute_max:
            brute = weight_polynomial(n, "bruteforce")
            brute_checked += 1
            if brute != dp:
                mismatches.append(f"dp and bruteforce disagree at n = {n}")
    return IdentityReport(
        ok=not mismatches,
        dp_checked=n_max + 1,
        brute_checked=brute_checked,
        mismatches=tuple(mismatches),
    )