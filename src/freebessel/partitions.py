"""Noncrossing partitions, Fuss-Catalan counting, and colored-word balance.

Everything here is exact: partitions are tuples of tuples, counts and
polynomial coefficients are ``fractions.Fraction``.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, isfinite, prod
from numbers import Integral
from typing import Sequence

DEFAULT_ENUM_BOUND = 14
BESSEL_MAX_P = 1000  # classical.bessel_law's bounds; here, the CLI's help does not load classical
BESSEL_MAX_WORK = 2 * 10**6

U = 1
UBAR = -1


class ArgumentError(ValueError):
    """Raised for an input outside the domain of the function it is passed to."""


class EnumerationBoundError(ArgumentError):
    """Raised when an enumeration would exceed the configured ground-size bound."""


def _as_float(name: str, value) -> float:
    """float(value) for a parameter computed on in floats, refused outside the finite doubles."""
    try:
        if isfinite(out := float(value)):
            return out
    except OverflowError:
        pass
    raise ArgumentError(f"{name} must be a finite number within the double range")


def _check_count(name: str, value, floor: int) -> None:
    """Refuse a count or an order that is not an integer at or above floor."""
    if not ((type(value) is int or isinstance(value, Integral)) and value >= floor):
        raise ArgumentError(f"{name} must be >= {floor} and an integer")


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1..m} into nonempty disjoint blocks, kept in canonical form.

    Canonical form: blocks sorted by minimum element, elements ascending
    within each block.  Building one checks the blocks and puts them in that form.
    """

    ground_size: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_count("ground_size", m := self.ground_size, 0)
        # one pass: point x sets bit x, and the blocks are canonical already when each ascends
        # from above the last one's least point.  m points in all with bits 1..m partition {1..m}
        blocks, seen, count, low, ordered = tuple(map(tuple, self.blocks)), 0, 0, 0, True
        try:
            for b in blocks:
                count, prev, low = count + len(b), low, b[0]  # IndexError: an empty block
                for x in b:
                    ordered, prev = ordered and x > prev, x
                    seen |= 1 << x
        except (IndexError, TypeError, ValueError):  # or a point that is not an integer >= 0
            seen = -1
        if count != m or seen != (2 << m) - 2:
            raise ArgumentError("blocks must be nonempty and partition {1..m}")
        if not ordered:  # disjoint blocks sort by their least points
            blocks = tuple(sorted(map(tuple, map(sorted, blocks))))
        object.__setattr__(self, "blocks", blocks)

    @staticmethod
    def from_blocks(blocks: Sequence[Sequence[int]]) -> "SetPartition":
        return SetPartition(sum(map(len, blocks)), tuple(map(tuple, blocks)))

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def _canonical(m: int, blocks: tuple[tuple[int, ...], ...]) -> SetPartition:
    """A SetPartition of blocks canonical by construction, as the enumerations build them,
    without __post_init__'s check, which would make an enumeration about five times as slow."""
    p = object.__new__(SetPartition)
    p.__dict__.update(ground_size=m, blocks=blocks)
    return p


def is_noncrossing(p: SetPartition) -> bool:
    """True iff no two blocks of ``p`` cross (no a < x < b < y with a~b, x~y, a!~x).

    One scan of the points in order, with a stack of the open blocks (met, not yet
    finished): a point crosses exactly when its block is open but not on top.
    """
    block_of = {x: i for i, b in enumerate(p.blocks) for x in b}
    last = [max(b) for b in p.blocks]
    stack: list[int] = []
    for x, i in sorted(block_of.items()):
        if i not in stack:
            stack.append(i)
        elif stack[-1] != i:
            return False
        if x == last[i]:
            stack.pop()
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
        return [_canonical(m, blocks) for blocks in parts(1, m + 1, 0)]
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
    _check_count("s", s, 1)
    if size > bound:
        raise EnumerationBoundError(f"ground size {size} exceeds the enumeration bound {bound}")


def enumerate_nc_s(s: int, k: int, bound: int = DEFAULT_ENUM_BOUND) -> list[SetPartition]:
    """All noncrossing partitions of {1..sk} whose block sizes are multiples of s.

    ``k = 0`` returns the single empty partition.
    """
    _check_count("k", k, 0)
    _check_size(s, s * k, bound)
    return _enumerate_weighted((1,) * (s * k), s)


def count_nc_s(s: int, k: int) -> list[int]:
    """The count form of enumerate_nc_s: entry b counts its partitions with b blocks."""
    _check_count("k", k, 0)
    _check_size(s, s * k)
    return _count_weighted((1,) * (s * k), s)


def fuss_catalan(s, k: int) -> Fraction:
    """The generalized Fuss-Catalan number (1/(sk+1)) * binom(sk+k, k).

    Computed through the polynomial form (sk+2)(sk+3)...(sk+k)/k!, which is
    defined for any rational s > 0.
    """
    _check_count("k", k, 0)
    p, q = Fraction(s).numerator, Fraction(s).denominator  # in integers: s = p/q
    return Fraction(prod(p * k + j * q for j in range(2, k + 1)), q ** max(k - 1, 0) * factorial(k))


def _fuss_narayana_ints(p: int, q: int, k: int) -> tuple[list[int], int]:
    """fuss_narayana_poly(p/q, k), q > 0, as c_b = nums[b]/d in lowest terms: over q^(k-1) k!,
    c_b = binom(k-1, b-1) prod_(i < b-1) (pk - iq)/(q^(b-1) (b-1)! b) carries q^(k-b) k!/b!."""
    nums, falling, scale = [0] * (k + 1), 1, 1
    for b in range(1, k + 1):
        nums[b], falling = comb(k - 1, b - 1) * falling, falling * (p * k - (b - 1) * q)
    for b in range(k, 0, -1):
        nums[b], scale = nums[b] * scale, scale * q * b
    g = gcd(d := scale // q, *nums)
    return [n // g for n in nums], d // g


def fuss_narayana_poly(s, k: int) -> tuple[Fraction, ...]:
    """Coefficients (c_0..c_k) of the block-count refinement of fuss_catalan.

    c_b = (1/b) * binom(k-1, b-1) * binom(sk, b-1), for any rational s > 0.
    For integer s, c_b counts partitions in NC_s(k) with exactly b blocks,
    and sum_b c_b t^b is the k-th moment of the free Bessel law pi_st.
    """
    _check_count("k", k, 1)
    s = Fraction(s)
    nums, d = _fuss_narayana_ints(s.numerator, s.denominator, k)
    return tuple(Fraction(n, d) for n in nums)


@dataclass(frozen=True)
class ColoredWord:
    """A word in the two letters U and its conjugate, stored as +1 / -1 signs."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if any(x not in (U, UBAR) for x in self.signs):
            raise ArgumentError("letters must be U (+1) or UBAR (-1)")

    @staticmethod
    def from_string(text: str) -> "ColoredWord":
        """Parse a word like "uu**": 'u'/'U' is the letter U, '*' or 'b' its conjugate."""
        letters = dict.fromkeys("uU", U) | dict.fromkeys("*bB", UBAR)
        try:
            return ColoredWord(tuple(letters[ch] for ch in text))
        except KeyError as exc:
            raise ArgumentError(f"unknown letter {exc.args[0]!r}") from None

    @staticmethod
    def same_color(k: int) -> "ColoredWord":
        return ColoredWord((U,) * k)

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


def _block_masks(*parts: SetPartition) -> list[list[int]]:
    """Each partition's blocks as bitmasks, point x as bit x, for partitions of one ground size."""
    if len({p.ground_size for p in parts}) > 1:
        raise ArgumentError("ground sizes differ")
    return [[sum(1 << x for x in b) for b in p.blocks] for p in parts]


def _merge(blocks: list[int], q: list[int]) -> list[int]:
    """The blocks of the join as bitmasks: each block of q ORs together the blocks it meets."""
    for qb in q:
        rest = []
        for b in blocks:
            if b & qb:
                qb |= b
            else:
                rest.append(b)
        blocks = rest + [qb]
    return blocks


def join(p: SetPartition, q: SetPartition) -> SetPartition:
    """Join in the partition lattice: finest partition coarser than both p and q."""
    merged = sorted(_merge(*_block_masks(p, q)), key=lambda b: b & -b)  # by least point
    return SetPartition(p.ground_size, tuple(
        tuple(x for x in range(b.bit_length()) if b >> x & 1) for b in merged))


def join_block_count(p: SetPartition, q: SetPartition) -> int:
    """The number of blocks of join(p, q), without building the partition."""
    return len(_merge(*_block_masks(p, q)))


def join_block_counts(parts: Sequence[SetPartition]) -> list[list[int]]:
    """The lower triangle of |p join q| over parts: row i holds the pairs (parts[i], parts[j]),
    j <= i.  Each partition's masks are built once."""
    masks = _block_masks(*parts)
    return [[len(_merge(a, b)) for b in masks[:i + 1]] for i, a in enumerate(masks)]
