"""Noncrossing partitions, Fuss-Catalan counting, and colored-word balance.

Everything here is exact: partitions are tuples of tuples, counts and
polynomial coefficients are ``fractions.Fraction``.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import Sequence

DEFAULT_ENUM_BOUND = 14

U = 1
UBAR = -1


class ArgumentError(ValueError):
    """Raised for an input outside the domain of the function it is passed to."""


class EnumerationBoundError(ArgumentError):
    """Raised when an enumeration would exceed the configured ground-size bound."""


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1..m} into nonempty disjoint blocks, kept in canonical form.

    Canonical form: blocks sorted by minimum element, elements ascending
    within each block.
    """

    ground_size: int
    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_blocks(blocks: Sequence[Sequence[int]]) -> "SetPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        elements = [x for b in canon for x in b]
        m = len(elements)
        if sorted(elements) != list(range(1, m + 1)):
            raise ValueError("blocks must partition {1..m}")
        return SetPartition(m, canon)

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def is_noncrossing(p: SetPartition) -> bool:
    """True iff no two blocks of ``p`` cross (no a < x < b < y with a~b, x~y, a!~x)."""
    for i, b1 in enumerate(p.blocks):
        for b2 in p.blocks[i + 1:]:
            # blocks cross iff b2 has elements both inside and outside some
            # gap of b1; equivalently the merged sequence alternates
            inside = [b1[0] < x < b1[-1] for x in b2]
            if any(inside):
                # b2 starts after b1's min (canonical order), so crossing
                # happens iff some element of b2 escapes past b1's max,
                # or b2 straddles a gap of b1 containing an element of b1
                if not all(inside):
                    return False
                lo, hi = b2[0], b2[-1]
                if any(lo < a < hi for a in b1):
                    return False
    return True


def _enumerate_weighted(weights: tuple[int, ...], s: int) -> list[SetPartition]:
    """Noncrossing partitions of {1..m} whose blocks weigh 0 mod s.

    Point x weighs ``weights[x - 1]``.  First-block decomposition over a table
    built once per call: ``parts(lo, hi, r)`` holds the partitions of the points
    lo..hi-1 in which lo's block weighs r mod s and every other block 0.  Either
    lo closes its block, or the block goes on at some nxt: the gap lo+1..nxt-1
    is partitioned on its own (pruned unless it weighs 0 mod s) and nxt's block
    must weigh r - weight(lo).  Blocks come out in canonical order.
    """
    m = len(weights)
    if sum(weights) % s:
        return []
    weight = (0,) + weights

    @cache
    def parts(lo: int, hi: int, r: int) -> list[tuple[tuple[int, ...], ...]]:
        if lo == hi:
            return [()] if r == 0 else []
        r_next = (r - weight[lo]) % s
        out = [((lo,),) + rest for rest in parts(lo + 1, hi, 0)] if r_next == 0 else []
        gap_weight = 0
        for nxt in range(lo + 1, hi):
            if gap_weight % s == 0 and (tails := parts(nxt, hi, r_next)):
                out += [((lo,) + tail[0],) + gap + tail[1:]
                        for gap in parts(lo + 1, nxt, 0) for tail in tails]
            gap_weight += weight[nxt]
        return out

    # the table and the list add no reference cycles, yet the cyclic collector
    # would scan them as they grow: pause it, then restore the caller's setting
    collecting = gc.isenabled()
    gc.disable()
    try:
        return [SetPartition(m, blocks) for blocks in parts(1, m + 1, 0)]
    finally:
        parts.cache_clear()  # parts refers to itself: free the table now, not at the next full collection
        if collecting:
            gc.enable()


def _count_weighted(weights: tuple[int, ...], s: int) -> list[int]:
    """Block-count histogram of ``_enumerate_weighted(weights, s)``, built without its list.

    Entry b counts the partitions with b blocks, b = 0..m.  The same first-block
    table, with coefficient lists in the block count as entries: ``counts(lo, hi,
    r)`` has length hi - lo + 1.  Where lo closes its block, the tail entry shifts
    up by one; where the block goes on at nxt, the gap entry is multiplied by the
    tail entry.
    """
    weight = (0,) + weights

    @cache
    def counts(lo: int, hi: int, r: int) -> list[int]:
        if lo == hi:
            return [int(r == 0)]
        r_next = (r - weight[lo]) % s
        out = [0] + counts(lo + 1, hi, 0) if r_next == 0 else [0] * (hi - lo + 1)
        gap_weight = 0
        for nxt in range(lo + 1, hi):
            if gap_weight % s == 0 and any(tail := counts(nxt, hi, r_next)):
                for i, g in enumerate(counts(lo + 1, nxt, 0)):
                    if g:
                        for j, c in enumerate(tail, i):
                            out[j] += g * c
            gap_weight += weight[nxt]
        return out

    try:
        return counts(1, len(weights) + 1, 0)
    finally:
        counts.cache_clear()


def _check_size(s: int, size: int, bound: int = DEFAULT_ENUM_BOUND) -> None:
    if s < 1:
        raise ValueError("s must be >= 1")
    if size > bound:
        raise EnumerationBoundError(f"ground size {size} exceeds the enumeration bound {bound}")


def enumerate_nc_s(s: int, k: int, bound: int = DEFAULT_ENUM_BOUND) -> list[SetPartition]:
    """All noncrossing partitions of {1..sk} whose block sizes are multiples of s.

    ``k = 0`` returns the single empty partition.
    """
    _check_size(s, s * k, bound)
    return _enumerate_weighted((1,) * (s * k), s)


def count_nc_s(s: int, k: int) -> list[int]:
    """The count form of enumerate_nc_s: entry b counts its partitions with b blocks."""
    _check_size(s, s * k)
    return _count_weighted((1,) * (s * k), s)


def enumerate_nc(m: int, bound: int = DEFAULT_ENUM_BOUND) -> list[SetPartition]:
    """All noncrossing partitions of {1..m}."""
    return enumerate_nc_s(1, m, bound=bound)


def fuss_catalan(s, k: int) -> Fraction:
    """The generalized Fuss-Catalan number (1/(sk+1)) * binom(sk+k, k).

    Computed through the polynomial form (sk+2)(sk+3)...(sk+k)/k!, which is
    defined for any rational s > 0.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return Fraction(1)
    sk = Fraction(s) * k
    num = Fraction(1)
    for j in range(2, k + 1):
        num *= sk + j
    return num / factorial(k)


def fuss_narayana_poly(s, k: int) -> tuple[Fraction, ...]:
    """Coefficients (c_0..c_k) of the block-count refinement of fuss_catalan.

    c_b = (1/b) * binom(k-1, b-1) * binom(sk, b-1), for any rational s > 0.
    For integer s, c_b counts partitions in NC_s(k) with exactly b blocks,
    and sum_b c_b t^b is the k-th moment of the free Bessel law pi_st.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sk = Fraction(s) * k
    coeffs = [Fraction(0)]
    binom_sk = Fraction(1)  # binom(sk, b-1), updated one factor per step
    for b in range(1, k + 1):
        coeffs.append(comb(k - 1, b - 1) * binom_sk / b)
        binom_sk *= (sk - b + 1) / b
    return tuple(coeffs)


@dataclass(frozen=True)
class ColoredWord:
    """A word in the two letters U and its conjugate, stored as +1 / -1 signs."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if any(x not in (U, UBAR) for x in self.signs):
            raise ValueError("letters must be U (+1) or UBAR (-1)")

    @staticmethod
    def from_string(text: str) -> "ColoredWord":
        """Parse a word like "uu**": 'u'/'U' is the letter U, '*' or 'b' its conjugate."""
        signs = []
        for ch in text:
            if ch in "uU":
                signs.append(U)
            elif ch in "*bB":
                signs.append(UBAR)
            else:
                raise ValueError(f"unknown letter {ch!r}")
        return ColoredWord(tuple(signs))

    @staticmethod
    def same_color(k: int) -> "ColoredWord":
        return ColoredWord((U,) * k)

    @staticmethod
    def alternating(k: int) -> "ColoredWord":
        return ColoredWord(tuple(U if i % 2 == 0 else UBAR for i in range(k)))

    def __len__(self) -> int:
        return len(self.signs)

    def __str__(self) -> str:
        return "".join("u" if x == U else "*" for x in self.signs)


def enumerate_balanced(s: int, word: ColoredWord) -> list[SetPartition]:
    """Noncrossing partitions of {1..len(word)} whose every block is color-balanced mod s.

    A block is balanced when its letters' signs sum to 0 mod s.
    """
    _check_size(s, len(word))
    return _enumerate_weighted(word.signs, s)


def count_balanced(s: int, word: ColoredWord) -> list[int]:
    """The count form of enumerate_balanced: entry b counts its partitions with b blocks."""
    _check_size(s, len(word))
    return _count_weighted(word.signs, s)


def star_moment(s: int, t, word: ColoredWord) -> Fraction:
    """Sum of t^(number of blocks) over the balanced noncrossing partitions of the word.

    Horner's rule on the block counts, in exact rationals.
    """
    tf, value = Fraction(t), Fraction(0)
    for c in reversed(count_balanced(s, word)):
        value = value * tf + c
    return value


def join(p: SetPartition, q: SetPartition) -> SetPartition:
    """Join in the partition lattice: finest partition coarser than both p and q."""
    if p.ground_size != q.ground_size:
        raise ValueError("ground sizes differ")
    parent = list(range(p.ground_size + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for block in p.blocks + q.blocks:
        for x in block[1:]:
            parent[find(x)] = find(block[0])
    groups: dict[int, list[int]] = {}
    for x in range(1, p.ground_size + 1):
        groups.setdefault(find(x), []).append(x)
    # the sweep meets each block's points in order, and the blocks in order of minima
    return SetPartition(p.ground_size, tuple(map(tuple, groups.values())))
