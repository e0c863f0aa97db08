"""Exact combinatorics: noncrossing enumeration, counting formulas, balance, join."""

import gc
import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebessel import cli, freelaws, partitions, series
from freebessel.partitions import (
    ArgumentError,
    ColoredWord,
    EnumerationBoundError,
    SetPartition,
    _count_weighted,
    _enumerate_weighted,
    _fuss_narayana_ints,
    count_balanced,
    count_nc_s,
    enumerate_balanced,
    enumerate_nc_s,
    fuss_catalan,
    fuss_narayana_poly,
    is_noncrossing,
    join,
    join_block_count,
    join_block_counts,
    star_moment,
)
from freebessel.series import _over_common_denominator


def generalized_binomial(x, j: int) -> Fraction:
    """binom(x, j) via the falling factorial: the oracle for the counting formulas."""
    num = Fraction(1)
    for i in range(j):
        num *= Fraction(x) - i
    return num / factorial(j)


def nc_by_first_block(points: tuple[int, ...]):
    """All noncrossing partitions of ``points``, by the unweighted first-block walk.

    The block of the least point is grown as an increasing subsequence and
    the gaps it leaves are partitioned independently.  This is the walk the
    weighted enumerator replaced; it fixes the order the oracles expect.
    """
    if not points:
        yield ()
        return
    yield from _grow_first_block((points[0],), points[1:])


def _grow_first_block(block: tuple[int, ...], rest: tuple[int, ...]):
    for tail in nc_by_first_block(rest):
        yield (block,) + tail
    for j, nxt in enumerate(rest):
        for gap_part in nc_by_first_block(rest[:j]):
            for res in _grow_first_block(block + (nxt,), rest[j + 1:]):
                yield (res[0],) + gap_part + res[1:]


def _enum_nc(lo, hi, weight, s):
    """Noncrossing partitions of the points lo..hi-1 whose blocks weigh 0 mod s.

    The recursive generator walk that the interval table of
    ``_enumerate_weighted`` replaced: the oracle for its lists and their order.
    """
    if lo == hi:
        yield ()
        return
    yield from _grow_block((lo,), weight[lo], lo + 1, hi, weight, s)


def _grow_block(block, block_weight, lo, hi, weight, s):
    if block_weight % s == 0:
        for tail in _enum_nc(lo, hi, weight, s):
            yield (block,) + tail
    gap_weight = 0
    for nxt in range(lo, hi):
        if gap_weight % s == 0:
            for gap_part in _enum_nc(lo, nxt, weight, s):
                for res in _grow_block(
                    block + (nxt,), block_weight + weight[nxt], nxt + 1, hi, weight, s
                ):
                    yield (res[0],) + gap_part + res[1:]
        gap_weight += weight[nxt]


def weighted_walk(weights: tuple[int, ...], s: int) -> list[SetPartition]:
    m = len(weights)
    if sum(weights) % s:
        return []
    return [SetPartition(m, b) for b in _enum_nc(1, m + 1, (0,) + weights, s)]


@lru_cache(maxsize=None)
def _nc(m: int) -> list[SetPartition]:
    return [SetPartition.from_blocks(b) for b in nc_by_first_block(tuple(range(1, m + 1)))]


def balanced_by_filter(s: int, word: ColoredWord) -> list[SetPartition]:
    """The balanced partitions by filtering all of NC(k): the oracle for the weighted walk."""
    return [
        p
        for p in _nc(len(word))
        if all(sum(word.signs[x - 1] for x in b) % s == 0 for b in p.blocks)
    ]


def all_set_partitions(m: int):
    """Every set partition of {1..m}, by inserting m into a partition of {1..m-1}."""
    if m == 0:
        yield []
        return
    for p in all_set_partitions(m - 1):
        for i in range(len(p)):
            yield p[:i] + [p[i] + [m]] + p[i + 1:]
        yield p + [[m]]


def part(*blocks):
    return SetPartition.from_blocks(blocks)


class TestSetPartition:
    def test_built_directly_equals_from_blocks(self):
        # equality and hash compare the stored blocks, so every way in must store one form
        direct = SetPartition(4, ((4, 2), (3,), (1,)))
        assert direct == part([1], [2, 4], [3])
        assert hash(direct) == hash(part([1], [2, 4], [3]))
        assert direct.blocks == ((1,), (2, 4), (3,))
        assert SetPartition(2, ((2,), (1,))) == SetPartition.from_blocks([[1], [2]])

    def test_enumerations_are_canonical(self):
        # the enumerations skip the check: rebuilding each through it must change nothing
        for p in enumerate_nc_s(1, 7) + enumerate_balanced(2, ColoredWord.from_string("uu**uu**")):
            assert SetPartition(p.ground_size, p.blocks).blocks == p.blocks


class TestIsNoncrossing:
    def test_minimal_crossing(self):
        assert not is_noncrossing(part([1, 3], [2, 4]))

    def test_nesting(self):
        assert is_noncrossing(part([1, 4], [2, 3]))

    def test_single_block(self):
        assert is_noncrossing(part([1, 2, 3, 4]))

    def test_longer_crossing(self):
        assert not is_noncrossing(part([1, 2, 5], [3, 6], [4]))

    def test_interval_blocks(self):
        assert is_noncrossing(part([1, 2], [3, 4], [5, 6]))

    def test_block_order_does_not_matter(self):
        # blocks stored out of canonical order: [1, 3] and [2, 4] still cross
        assert not is_noncrossing(SetPartition(4, ((3, 1), (2, 4))))
        assert is_noncrossing(SetPartition(4, ((3, 2), (4, 1))))

    def test_matches_brute_force_on_shuffled_partitions(self):
        # every set partition of m <= 8 (5296), with blocks and points in shuffled order
        rng = random.Random(1)
        checked = 0
        for m in range(9):
            for blocks in all_set_partitions(m):
                want = not any(a < x < b < y
                               for one, two in itertools.permutations(blocks, 2)
                               for a, b in itertools.combinations(sorted(one), 2)
                               for x, y in itertools.combinations(sorted(two), 2))
                shuffled = [rng.sample(b, len(b)) for b in rng.sample(blocks, len(blocks))]
                assert is_noncrossing(SetPartition(m, tuple(map(tuple, shuffled)))) == want
                checked += 1
        assert checked == 5296


class TestEnumeration:
    # counts by block-size divisibility class, rows k = 0..4
    TABLE = {1: [1, 1, 2, 5, 14], 2: [1, 1, 3, 12, 55], 3: [1, 1, 4, 22, 140]}

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_count_table(self, s):
        counts = [len(enumerate_nc_s(s, k)) for k in range(5)]
        assert counts == self.TABLE[s]

    def test_counts_match_closed_form(self):
        for s in range(1, 5):
            for k in range(0, 12 // s + 1):
                assert len(enumerate_nc_s(s, k)) == fuss_catalan(s, k)

    def test_all_noncrossing_and_block_sizes(self):
        for s in (2, 3):
            for p in enumerate_nc_s(s, 3):
                assert is_noncrossing(p)
                assert all(len(b) % s == 0 for b in p.blocks)

    def test_k_zero_is_empty_partition(self):
        assert enumerate_nc_s(3, 0) == [SetPartition(0, ())]

    def test_bound_error(self):
        with pytest.raises(EnumerationBoundError):
            enumerate_nc_s(3, 5)

    def test_bound_error_is_an_argument_error(self):
        assert issubclass(EnumerationBoundError, ArgumentError)
        assert issubclass(ArgumentError, ValueError)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: count_nc_s(0, 3), id="check_size"),
        pytest.param(lambda: fuss_catalan(2, -1), id="fuss_catalan"),
        pytest.param(lambda: fuss_narayana_poly(2, 0), id="fuss_narayana_poly"),
        # each of these returned a wrong answer (a negative k) or raised a bare TypeError
        pytest.param(lambda: count_nc_s(2, -1), id="count_nc_s-negative"),
        pytest.param(lambda: enumerate_nc_s(2, -1), id="enumerate_nc_s-negative"),
        pytest.param(lambda: count_nc_s(2, 2.5), id="count_nc_s-float"),
        pytest.param(lambda: enumerate_nc_s(2.5, 2), id="enumerate_nc_s-float-s"),
        pytest.param(lambda: fuss_catalan(2, 2.5), id="fuss_catalan-float"),
        pytest.param(lambda: fuss_narayana_poly(2, 2.5), id="fuss_narayana_poly-float"),
        pytest.param(lambda: freelaws.moment(2, 0.5, 2.5), id="moment-float"),
        pytest.param(lambda: freelaws.existence_probe(2, 0.5, 2.5), id="existence_probe-float"),
        pytest.param(lambda: freelaws.quadrature_moments(2, 0.5, 2.5),
                     id="quadrature_moments-float"),
        pytest.param(lambda: freelaws.density_grid(2, 0.5, 2.5), id="density_grid-float-n"),
        pytest.param(lambda: freelaws.density_grid(2, 0.5, 5, 2.5), id="density_grid-float-k"),
        # the series layer's orders: an IndexError, a bare TypeError or an empty sequence before
        pytest.param(lambda: freelaws.moments_via_series(2, 0.5, 0), id="moments_via_series-zero"),
        pytest.param(lambda: freelaws.moments_via_series(2, 0.5, -1),
                     id="moments_via_series-negative"),
        pytest.param(lambda: freelaws.moments_via_series(2, 0.5, 2.5), id="moments_via_series-float"),
        pytest.param(lambda: series.catalan_moments(-1), id="catalan_moments-negative"),
        pytest.param(lambda: series.bernoulli_moments(0.5, -1), id="bernoulli_moments-negative"),
        pytest.param(lambda: series.free_poisson_moments(0.5, 2.5), id="free_poisson_moments-float"),
        # S(z/t)/t has no t = 0: zeros at s = 1 and a bare ValueError elsewhere before
        pytest.param(lambda: freelaws.moments_via_series(1, 0, 4), id="moments_via_series-t-zero-1"),
        pytest.param(lambda: freelaws.moments_via_series(2, 0, 4), id="moments_via_series-t-zero-2"),
        pytest.param(lambda: freelaws.moments_via_series(0.5, 0, 4),
                     id="moments_via_series-t-zero-half"),
        pytest.param(lambda: freelaws.support(0, 1), id="support-s-zero-t-one"),
        # a bare IndexError from an empty block, and plain ValueErrors, before
        pytest.param(lambda: SetPartition.from_blocks([[1], []]), id="from_blocks-empty-block"),
        pytest.param(lambda: ColoredWord((2,)), id="ColoredWord-sign"),
        pytest.param(lambda: ColoredWord.from_string("ux"), id="from_string-letter"),
        pytest.param(lambda: join(part([1, 2]), part([1], [2], [3])), id="join-sizes"),
        pytest.param(lambda: join_block_count(part([1, 2]), part([1], [2], [3])),
                     id="join_block_count-sizes"),
        pytest.param(lambda: join_block_counts([part([1, 2]), part([1], [2], [3])]),
                     id="join_block_counts-sizes"),
        # a SetPartition built directly was stored as given, unchecked
        pytest.param(lambda: SetPartition(3, ((1,),)), id="SetPartition-missing-points"),
        pytest.param(lambda: SetPartition(2, ((1, 2), ())), id="SetPartition-empty-block"),
        pytest.param(lambda: SetPartition(2, ((1, 2), (2,))), id="SetPartition-overlap"),
        pytest.param(lambda: SetPartition(-1, ()), id="SetPartition-negative-size"),
        pytest.param(lambda: SetPartition(2.0, ((1,), (2,))), id="SetPartition-float-size"),
        pytest.param(lambda: SetPartition(2, ((1,), (2.0,))), id="SetPartition-float-point"),
    ])
    def test_domain_error_is_an_argument_error(self, call):
        with pytest.raises(ArgumentError):
            call()

    @pytest.mark.parametrize("m", range(9))
    def test_nc_is_all_noncrossing_set_partitions(self, m):
        found = enumerate_nc_s(1, m)
        brute = {part(*b) for b in all_set_partitions(m)}
        assert len(found) == len(set(found))
        assert set(found) == {p for p in brute if is_noncrossing(p)}

    def test_matches_filter_oracle(self):
        # same partitions in the same order as filtering NC(sk) by block size
        for s in range(1, 9):
            for k in range(0, 10 // s + 1):
                word = ColoredWord.same_color(s * k)
                assert enumerate_nc_s(s, k) == balanced_by_filter(s, word)

    def test_cut_recurrence(self):
        # C_{k+1} = sum over compositions k_0 + ... + k_s = k of C_{k_0}...C_{k_s}
        for s in (1, 2, 3):
            counts = [len(enumerate_nc_s(s, k)) for k in range(0, 12 // s + 1)]

            def conv(k, parts):
                if parts == 1:
                    return counts[k]
                return sum(counts[j] * conv(k - j, parts - 1) for j in range(k + 1))

            for k in range(len(counts) - 1):
                assert counts[k + 1] == conv(k, s + 1)


class TestFussCatalan:
    def test_values(self):
        assert fuss_catalan(2, 3) == 12
        assert fuss_catalan(1, 4) == 14
        assert fuss_catalan(Fraction(1, 2), 2) == Fraction(3, 2)

    def test_k_zero(self):
        assert fuss_catalan(7, 0) == 1

    def test_matches_binomial_form(self):
        for s in (1, 2, 3, 4, Fraction(1, 2), Fraction(7, 3), Fraction(5, 2), Fraction(2, 9)):
            for k in range(0, 9):
                sk = s * k
                binom = generalized_binomial(sk + k, k)
                assert fuss_catalan(s, k) == binom / (sk + 1)


class TestFussNarayana:
    def test_small_polys(self):
        assert fuss_narayana_poly(1, 2) == (0, 1, 1)  # t + t^2
        assert fuss_narayana_poly(2, 2) == (0, 1, 2)  # t + 2t^2
        for s in (1, 2, 3):
            assert fuss_narayana_poly(s, 1) == (0, 1)  # t

    def test_refines_enumeration(self):
        for s in (1, 2, 3):
            for k in range(1, 12 // s + 1):
                coeffs = fuss_narayana_poly(s, k)
                hist = [0] * (k + 1)
                for p in enumerate_nc_s(s, k):
                    hist[p.block_count] += 1
                assert list(coeffs) == hist

    def test_matches_binomial_formula(self):
        for s in (1, 3, Fraction(5, 2), Fraction(1, 3), Fraction(7, 3)):
            for k in range(1, 13):
                expected = (0,) + tuple(
                    Fraction(1, b)
                    * generalized_binomial(k - 1, b - 1)
                    * generalized_binomial(s * k, b - 1)
                    for b in range(1, k + 1)
                )
                assert fuss_narayana_poly(s, k) == expected

    def test_sums_to_fuss_catalan(self):
        for s in (1, 2, 3, 4):
            for k in range(1, 7):
                assert sum(fuss_narayana_poly(s, k)) == fuss_catalan(s, k)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.sampled_from([0, 1, 2, 3, Fraction(1, 2), Fraction(5, 2), Fraction(1, 3), 0.3]),
            st.fractions(min_value=0, max_value=12, max_denominator=50),
        ),
        st.integers(min_value=1, max_value=40),
    )
    def test_integer_row_matches_fraction_loop(self, s, k):
        s = Fraction(s)
        want = _over_common_denominator(fraction_narayana(s, k))
        assert _fuss_narayana_ints(s.numerator, s.denominator, k) == want
        assert fuss_narayana_poly(s, k) == fraction_narayana(s, k)


def fraction_narayana(s: Fraction, k: int) -> tuple[Fraction, ...]:
    """The Fraction loop that the integer row replaced: c_b = binom(k-1, b-1) binom(sk, b-1)/b,
    binom(sk, b-1) updated by one factor per step.  The oracle for _fuss_narayana_ints."""
    sk, binom_sk, coeffs = s * k, Fraction(1), [Fraction(0)]
    for b in range(1, k + 1):
        coeffs.append(comb(k - 1, b - 1) * binom_sk / b)
        binom_sk *= (sk - b + 1) / b
    return tuple(coeffs)


class TestBalanced:
    def test_two_points(self):
        found = enumerate_balanced(2, ColoredWord.from_string("u*"))
        assert found == [part([1, 2])]

    def test_mod_one_is_all_noncrossing(self):
        word = ColoredWord.from_string("uu*u*")
        assert len(enumerate_balanced(1, word)) == 42  # Catalan(5)

    def test_four_points(self):
        found = enumerate_balanced(2, ColoredWord.from_string("uu**"))
        expected = {part([1, 2, 3, 4]), part([1, 2], [3, 4]), part([1, 4], [2, 3])}
        assert set(found) == expected

    def test_subset_of_noncrossing_and_balance(self):
        word = ColoredWord.from_string("uu*u**")
        for s in (2, 3):
            for p in enumerate_balanced(s, word):
                assert is_noncrossing(p)
                for b in p.blocks:
                    assert sum(word.signs[x - 1] for x in b) % s == 0

    @pytest.mark.parametrize("length", range(7))
    def test_every_short_word_matches_filter_oracle(self, length):
        for letters in itertools.product((1, -1), repeat=length):
            word = ColoredWord(letters)
            for s in range(1, 5):
                assert enumerate_balanced(s, word) == balanced_by_filter(s, word)

    def test_random_words_match_filter_oracle(self):
        rng = random.Random(20071031)
        for _ in range(24):
            word = ColoredWord(tuple(rng.choice((1, -1)) for _ in range(rng.randint(7, 10))))
            for s in range(1, 5):
                assert enumerate_balanced(s, word) == balanced_by_filter(s, word)


class TestWeightedTable:
    """The interval table gives the generator walk's lists, in the walk's order."""

    @pytest.mark.parametrize("length", range(9))
    def test_every_short_word(self, length):
        for letters in itertools.product((1, -1), repeat=length):
            for s in range(1, 5):
                assert _enumerate_weighted(letters, s) == weighted_walk(letters, s)

    def test_random_words(self):
        rng = random.Random(71)
        walks = {}  # the walk reads weights only mod s: at s = 1 it depends on the length
        for _ in range(40):
            letters = tuple(rng.choice((1, -1)) for _ in range(rng.randint(9, 12)))
            for s in range(1, 5):
                key = (tuple(x % s for x in letters), s)
                if key not in walks:
                    walks[key] = weighted_walk(letters, s)
                assert _enumerate_weighted(letters, s) == walks[key]

    def test_nc_s(self):
        for s in range(1, 13):
            for k in range(0, 12 // s + 1):
                assert enumerate_nc_s(s, k) == weighted_walk((1,) * (s * k), s)


def histogram(parts: list[SetPartition], m: int) -> list[int]:
    counts = [0] * (m + 1)
    for p in parts:
        counts[p.block_count] += 1
    return counts


class TestCountTable:
    """The count form of the table gives the block-count histogram of the lists."""

    def test_nc_s_matches_lists(self):
        for s in range(1, 5):
            for k in range(0, 12 // s + 1):
                assert count_nc_s(s, k) == histogram(enumerate_nc_s(s, k), s * k)

    def test_random_words_match_lists(self):
        rng = random.Random(12)
        for _ in range(60):
            letters = tuple(rng.choice((1, -1)) for _ in range(rng.randint(1, 11)))
            for s in range(1, 4):
                want = histogram(_enumerate_weighted(letters, s), len(letters))
                assert _count_weighted(letters, s) == want

    @pytest.mark.parametrize("s, k", [(1, 30), (2, 20), (3, 20)])
    def test_fuss_narayana_past_the_list_bound(self, s, k):
        counts = _count_weighted((1,) * (s * k), s)
        assert counts[:k + 1] == list(fuss_narayana_poly(s, k))
        assert not any(counts[k + 1:])

    def test_edge_cases(self):
        assert count_nc_s(3, 0) == [1]
        assert count_balanced(2, ColoredWord(())) == [1]
        unbalanced = ColoredWord.from_string("uuu")
        assert not any(count_balanced(2, unbalanced))
        assert star_moment(2, Fraction(1, 3), unbalanced) == 0

    def test_same_bound_as_the_lists(self):
        with pytest.raises(EnumerationBoundError, match="ground size 15"):
            count_nc_s(3, 5)
        with pytest.raises(EnumerationBoundError, match="ground size 15"):
            count_balanced(1, ColoredWord.same_color(15))

    @pytest.mark.parametrize("argv, shown", [
        (["partitions", "--s", "1", "--k", "12"], '"count": 208012'),
        (["moments", "--s", "3", "--t", "1/2", "--k", "4"], '"partitions": "1/2"'),
    ])
    def test_cli_builds_no_partition(self, monkeypatch, capsys, argv, shown):
        def fail(m, blocks):
            raise AssertionError("a partition was built")

        monkeypatch.setattr(partitions, "SetPartition", fail)
        monkeypatch.setattr(partitions, "_canonical", fail)  # the enumerations build through it
        assert cli.main(argv) == 0
        assert shown in capsys.readouterr().out


@pytest.fixture
def collector():
    """Yields a setter for the collector's state, and restores the state found."""
    found = gc.isenabled()
    yield lambda on: gc.enable() if on else gc.disable()
    if found:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    """The enumeration pauses the cyclic collector and gives the caller its state back."""

    @pytest.mark.parametrize("on", [True, False])
    def test_lists_unchanged_and_state_restored(self, collector, on):
        collector(on)
        assert enumerate_nc_s(2, 5) == weighted_walk((1,) * 10, 2)
        assert gc.isenabled() is on
        word = ColoredWord.from_string("uu*u**")
        assert enumerate_balanced(2, word) == weighted_walk(word.signs, 2)
        assert gc.isenabled() is on

    def test_paused_while_building(self, collector, monkeypatch):
        collector(True)
        seen = []

        def record(m, blocks):
            seen.append(gc.isenabled())
            return SetPartition(m, blocks)

        monkeypatch.setattr(partitions, "_canonical", record)
        assert len(enumerate_nc_s(1, 4)) == 14
        assert seen and not any(seen)
        assert gc.isenabled()

    @pytest.mark.parametrize("on", [True, False])
    def test_state_restored_on_error(self, collector, monkeypatch, on):
        collector(on)

        def fail(m, blocks):
            raise RuntimeError("no partition")

        monkeypatch.setattr(partitions, "_canonical", fail)
        with pytest.raises(RuntimeError):
            enumerate_nc_s(1, 4)
        assert gc.isenabled() is on


class TestStarMoment:
    def test_examples(self):
        t = Fraction(2, 3)
        assert star_moment(2, t, ColoredWord.from_string("u*")) == t
        assert star_moment(2, t, ColoredWord.from_string("uu**")) == t + 2 * t**2
        assert star_moment(1, 1, ColoredWord.from_string("uuu")) == 5

    def test_same_color_matches_narayana(self):
        t = Fraction(1, 2)
        for k in range(1, 6):
            poly = fuss_narayana_poly(1, k)
            value = sum(c * t**b for b, c in enumerate(poly))
            assert star_moment(1, t, ColoredWord.same_color(k)) == value


def random_partitions(m):
    """Strategy: a uniform-ish random set partition of {1..m} via growth labels."""

    def build(labels):
        blocks = {}
        next_label = 0
        assigned = []
        for x, raw in zip(range(1, m + 1), labels):
            choice = raw % (next_label + 1)
            if choice == next_label:
                next_label += 1
            assigned.append(choice)
        for x, lab in enumerate(assigned, start=1):
            blocks.setdefault(lab, []).append(x)
        return SetPartition.from_blocks(list(blocks.values()))

    return st.lists(
        st.integers(min_value=0, max_value=m), min_size=m, max_size=m
    ).map(build)


class TestJoin:
    def test_examples(self):
        p = part([1, 2], [3, 4])
        q = part([2, 3], [1], [4])
        assert join(p, q) == part([1, 2, 3, 4])
        assert join(p, p) == p
        singles = part([1], [2], [3], [4])
        assert join(singles, q) == q

    @settings(max_examples=60, deadline=None)
    @given(random_partitions(6), random_partitions(6), random_partitions(6))
    def test_lattice_laws(self, p, q, r):
        assert join(p, q) == join(q, p)
        assert join(p, join(q, r)) == join(join(p, q), r)
        assert join(p, p) == p
        assert join(p, q).block_count <= min(p.block_count, q.block_count)

    def test_canonical_without_from_blocks(self):
        nc6 = enumerate_nc_s(1, 6)
        for p in nc6:
            for q in nc6:
                joined = join(p, q)
                assert joined == SetPartition.from_blocks(joined.blocks)

    @pytest.mark.parametrize("s,text", [(1, "uuuuu"), (2, "uu**uu**"), (3, "uuu***u*"),
                                        (2, "u*u*u*")])
    def test_block_count_on_balanced_pairs(self, s, text):
        parts = enumerate_balanced(s, ColoredWord.from_string(text))
        for p in parts:
            for q in parts:
                want = join_by_merging(p, q)
                assert join(p, q) == want
                assert join_block_count(p, q) == want.block_count


def join_by_merging(p: SetPartition, q: SetPartition) -> SetPartition:
    """Oracle for join: each block of q merges the blocks (of p, or merged) that it meets."""
    blocks = [set(b) for b in p.blocks]
    for qb in map(set, q.blocks):
        hit = [b for b in blocks if b & qb]
        blocks = [b for b in blocks if not b & qb] + [set().union(*hit)]
    return SetPartition.from_blocks(blocks)


class TestColoredWord:
    def test_parsing(self):
        w = ColoredWord.from_string("uU*b")
        assert w.signs == (1, 1, -1, -1)
        assert len(w) == 4
        assert str(w) == "uu**"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            ColoredWord.from_string("ux")

    def test_helpers(self):
        assert ColoredWord.same_color(3).signs == (1, 1, 1)
