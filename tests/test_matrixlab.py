"""Matrix models, exact permutation sums, characters, Weingarten integration."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from freebessel import matrixlab
from freebessel.classical import bessel_law
from freebessel.matrixlab import (
    EXACT_WEINGARTEN_MAX_DIM,
    _dw_matrix,
    _gram_trace,
    _trace_powers,
    _trial_rng,
    dw_model_mc,
    dw_model_mc_multi,
    geodesic_count,
    glm_eval,
    glm_exact,
    hns_character_mc,
    product_model_mc,
    product_model_mc_multi,
    sample_ginibre,
    splitmix64,
    weingarten_finite_n,
)
from freebessel.partitions import (
    ArgumentError,
    ColoredWord,
    EnumerationBoundError,
    enumerate_balanced,
    enumerate_nc_s,
    fuss_catalan,
    join,
    star_moment,
)


def cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    seen, out = set(), []
    for i in range(len(perm)):
        length = 0
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length:
            out.append(length)
    return out


def geodesic_walk(s: int, k: int) -> int:
    """The oracle for geodesic_count: a walk over every permutation of S_sk.

    Counts sigma with cycle lengths divisible by s and d(e,sigma) +
    d(sigma,pi) = d(e,pi), where d(a,b) = K - #cycles(a^-1 b) on the Cayley
    graph and pi is the full cycle i -> i+1.
    """
    K = s * k
    pi = tuple((i + 1) % K for i in range(K))
    d_total = K - len(cycle_lengths(pi))
    count = 0
    for perm in itertools.permutations(range(K)):
        lengths = cycle_lengths(perm)
        if any(length % s for length in lengths):
            continue
        inv = [0] * K
        for i, v in enumerate(perm):
            inv[v] = i
        d_e = K - len(lengths)
        d_pi = K - len(cycle_lengths(tuple(inv[pi[i]] for i in range(K))))
        if d_e + d_pi == d_total:
            count += 1
    return count


def glm_walk(K: int, s: int | None = None, d_spec: str = "identity") -> dict[int, Fraction]:
    """The oracle for glm_exact: a walk over every permutation of S_K.

    sigma adds M^(#cycles(sigma) + #cycles(sigma^-1 pi) - K - 1); for "roots"
    only sigma with every cycle length divisible by s count.
    """
    poly: dict[int, int] = {}
    for perm in itertools.permutations(range(K)):
        lengths = cycle_lengths(perm)
        if d_spec == "roots" and any(length % s for length in lengths):
            continue
        # sigma^-1 pi (pi the full cycle i -> i+1) has as many cycles as its
        # conjugate-inverse sigma pi^-1, which is perm rotated by one place
        gamma_rel = len(cycle_lengths(perm[-1:] + perm[:-1]))
        exponent = gamma_rel + len(lengths) - K - 1
        poly[exponent] = poly.get(exponent, 0) + 1
    return {e: Fraction(c) for e, c in sorted(poly.items(), reverse=True)}


def divisible_cycle_count(n: int, s: int) -> int:
    """#{sigma in S_n: every cycle length divisible by s}, by the cycle of n.

    a(n) = sum over L = s, 2s, ... <= n of (n-1)!/(n-L)! a(n-L): choose the
    other L - 1 points of n's cycle in order.
    """
    a = [1] + [0] * n
    for m in range(1, n + 1):
        a[m] = sum(math.perm(m - 1, L - 1) * a[m - L] for L in range(s, m + 1, s))
    return a[n]


def within_3se(report, target):
    return abs(report.estimate - target) <= 3 * report.std_error


class TestSeeding:
    def test_splitmix_deterministic_and_distinct(self):
        assert splitmix64(7, 0) == splitmix64(7, 0)
        assert splitmix64(7, 0) != splitmix64(7, 1)
        assert splitmix64(8, 0) != splitmix64(7, 0)

    def test_reports_reproducible(self):
        a = product_model_mc(2, N=32, k=2, trials=10, seed=5)
        b = product_model_mc(2, N=32, k=2, trials=10, seed=5)
        assert a == b

    def test_report_json(self):
        rep = product_model_mc(1, N=16, k=1, trials=5, seed=1)
        data = rep.as_dict()
        assert set(data) == {"statistic", "estimate", "std_error", "trials", "N", "seed"}


class TestGinibre:
    def test_entry_variance(self):
        rng = _trial_rng(3, 0)
        g = sample_ginibre(300, 300, 2.0, rng)
        samples = (np.abs(g) ** 2).ravel()
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - 2.0) <= 3 * se

    def test_mean_zero(self):
        rng = _trial_rng(4, 0)
        g = sample_ginibre(200, 200, 1.0, rng)
        se = np.abs(g).std() / math.sqrt(g.size)
        assert abs(g.mean()) <= 3 * se

    def test_trace_normalization(self):
        rng = _trial_rng(5, 0)
        n = 128
        vals = []
        for _ in range(20):
            g = sample_ginibre(n, n, 1.0 / n, rng)
            vals.append((g @ g.conj().T).trace().real / n)
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - 1.0) <= 3 * se

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            sample_ginibre(2, 2, 0.0, _trial_rng(0, 0))

    def test_bit_equal_to_scaled_sum(self):
        rng = _trial_rng(6, 2)
        scale = math.sqrt(0.3 / 2)
        want = scale * (rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5)))
        got = sample_ginibre(7, 5, 0.3, _trial_rng(6, 2))
        assert got.tobytes() == want.tobytes()


class CountingArray(np.ndarray):
    """An array that counts the matrix products taken with it on the left."""

    matmuls = 0

    def __matmul__(self, other):
        CountingArray.matmuls += 1
        return super().__matmul__(other)


def power_loop_traces(A: np.ndarray, m_max: int) -> list[complex]:
    """The oracle for _trace_powers: tr(A^m), m = 1..m_max, by repeated products."""
    P, out = A, []
    for m in range(1, m_max + 1):
        if m > 1:
            P = P @ A
        out.append(complex(P.trace()))
    return out


class TestTracePowers:
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_matches_power_loop(self, hermitian):
        A = sample_ginibre(24, 24, 1.0 / 24, _trial_rng(31, int(hermitian)))
        if hermitian:
            A = A @ A.conj().T
        powers = [7, 3, 12, 1, 3, 10, 2, 11, 5, 4, 9, 6, 8]  # unsorted, 3 twice
        got = _trace_powers(A, powers)
        assert sorted(got) == list(range(1, 13))
        for m, want in enumerate(power_loop_traces(A, 12), start=1):
            assert abs(got[m] - want) <= 1e-12 * abs(want)

    # the fewest products for which every power is a sum of two formed powers
    PRODUCTS = {(1,): 0, (2,): 0, (1, 2): 0, (3,): 1, (4, 2): 1, (3, 6, 9): 3, (2, 4, 6): 2,
                (12, 1): 3, (11,): 4}

    @pytest.mark.parametrize("powers", [[1], [2], [1, 2], [3], [4, 2], [3, 6, 9], [2, 4, 6],
                                        [12, 1], [11]])
    def test_products_up_to_half_the_largest_power(self, powers):
        A = sample_ginibre(8, 8, 1.0, _trial_rng(32, 0)).view(CountingArray)
        CountingArray.matmuls = 0
        got = _trace_powers(A, powers)
        assert CountingArray.matmuls == self.PRODUCTS[tuple(powers)]
        assert CountingArray.matmuls <= (max(powers) + 1) // 2 - 1
        loop = power_loop_traces(A, max(powers))
        for m in powers:  # rounding grows with the norm of the products
            assert abs(got[m] - loop[m - 1]) <= 1e-13 * np.linalg.norm(A) ** m


class TestProductModel:
    @pytest.mark.parametrize("s,k", [(1, 1), (2, 2), (3, 2)])
    def test_limits(self, s, k):
        rep = product_model_mc(s, N=128, k=k, trials=60, seed=11)
        assert within_3se(rep, float(fuss_catalan(s, k)))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_multi_equals_single(self, s):
        multi = product_model_mc_multi(s, N=16, powers=[1, 2, 3], trials=6, seed=18)
        for k in (1, 2, 3):
            assert multi[k] == product_model_mc(s, N=16, k=k, trials=6, seed=18)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: dw_model_mc_multi(2, 8, [2], 0, 1), id="dw trials 0"),
    pytest.param(lambda: dw_model_mc_multi(2, 8, [0], 3, 1), id="dw power 0"),
    pytest.param(lambda: dw_model_mc_multi(0, 8, [2], 3, 1), id="dw s 0"),
    pytest.param(lambda: dw_model_mc_multi(2, 0, [2], 3, 1), id="dw N 0"),
    pytest.param(lambda: dw_model_mc_multi(2, 8, [], 3, 1), id="dw no powers"),
    pytest.param(lambda: dw_model_mc(2, 8, 0, 3, 1), id="dw single power 0"),
    pytest.param(lambda: product_model_mc(2, 8, 2, 0, 1), id="product trials 0"),
    pytest.param(lambda: product_model_mc(2, 8, 0, 3, 1), id="product k 0"),
    pytest.param(lambda: product_model_mc_multi(2, 8, [1, 2], 0, 1), id="product multi trials 0"),
    pytest.param(lambda: product_model_mc_multi(2, 8, [1, 0], 3, 1), id="product multi power 0"),
    pytest.param(lambda: product_model_mc_multi(0, 8, [1], 3, 1), id="product multi s 0"),
    pytest.param(lambda: product_model_mc_multi(2, 0, [1], 3, 1), id="product multi N 0"),
    pytest.param(lambda: product_model_mc_multi(2, 8, [], 3, 1), id="product multi no powers"),
    pytest.param(lambda: hns_character_mc(1, 8, 0.5, 0, 1, ColoredWord.from_string("u*")),
                 id="character trials 0"),
    pytest.param(lambda: hns_character_mc(0, 8, 0.5, 3, 1, ColoredWord.from_string("u*")),
                 id="character s 0"),
])
def test_mc_refuses_inputs_without_an_estimate(call):
    with pytest.raises(ArgumentError, match="must be >= 1"):
        call()


class TestDWModel:
    def test_wishart_case(self):
        rep = dw_model_mc(1, N=128, k=2, trials=60, seed=12)
        assert within_3se(rep, 2.0)

    def test_roots_case(self):
        rep = dw_model_mc(2, N=128, k=2, trials=60, seed=13)
        assert within_3se(rep, 3.0)

    def test_non_multiple_power_vanishes(self):
        rep = dw_model_mc(2, N=128, k=1, trials=60, seed=14, power=3)
        assert abs(rep.estimate) <= 3 * rep.std_error + 0.05

    def test_matches_exact_finite_dim(self):
        for s, k, N in ((1, 2, 16), (2, 2, 16), (1, 3, 32)):
            rep = dw_model_mc(s, N=N, k=k, trials=400, seed=15)
            exact = glm_eval(glm_exact(s * k, s, "roots"), s * N)
            assert within_3se(rep, exact)

    def test_single_power_matches_reference_loop(self):
        s, N, m, trials, seed = 2, 16, 3, 5, 17
        samples = []
        for i in range(trials):
            DW = _dw_matrix(s, N, _trial_rng(seed, i))
            loop = power_loop_traces(DW, m)[-1].real / (s * N)
            samples.append(_trace_powers(DW, [m])[m].real / (s * N))
            assert abs(samples[-1] - loop) <= 1e-12
        rep = dw_model_mc(s, N, k=0, trials=trials, seed=seed, power=m)
        assert rep.estimate == float(np.mean(samples))
        assert rep.std_error == float(np.std(samples, ddof=1) / math.sqrt(trials))

    def test_multi_matches_single(self):
        multi = dw_model_mc_multi(2, N=32, powers=[2, 4], trials=20, seed=16)
        single = dw_model_mc(2, N=32, k=2, trials=20, seed=16)
        assert multi[4].estimate == single.estimate

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_dw_matrix_bit_equal_to_scaled_wishart(self, s):
        N = 5
        G = sample_ginibre(s * N, s * N, 1.0 / (s * N), _trial_rng(19, s))
        d = np.repeat(np.exp(2j * np.pi / s) ** np.arange(s), N)
        want = d[:, None] * (G.conj().T @ G)
        assert _dw_matrix(s, N, _trial_rng(19, s)).tobytes() == want.tobytes()


class TestGLMExact:
    def test_k1_identity(self):
        assert glm_exact(1, d_spec="identity") == {0: 1}

    def test_k2_identity(self):
        assert glm_exact(2, d_spec="identity") == {0: 2}

    def test_k4_roots(self):
        poly = glm_exact(4, 2, "roots")
        assert poly[0] == 3
        assert all(e <= 0 for e in poly)

    @pytest.mark.parametrize("K", range(1, 9))
    def test_matches_permutation_walk(self, K):
        cases = [(None, "identity")] + [(s, "roots") for s in range(1, K + 1) if K % s == 0]
        for s, d_spec in cases:
            got, want = glm_exact(K, s, d_spec), glm_walk(K, s, d_spec)
            assert got == want and list(got) == list(want)

    def test_constant_terms_count_partitions(self):
        for s in (1, 2, 3):
            for k in range(1, 9):
                if s * k > 8:
                    break
                poly = glm_exact(s * k, s, "roots")
                assert poly.get(0, Fraction(0)) == len(enumerate_nc_s(s, k))
                assert all(e <= 0 for e in poly)

    @pytest.mark.parametrize("K", range(9, 21))
    def test_above_the_walk(self, K):
        identity = glm_exact(K)
        assert sum(identity.values()) == math.factorial(K)
        polys = [identity]
        for s in (s for s in range(1, K + 1) if K % s == 0):
            poly = glm_exact(K, s, "roots")
            assert poly[0] == fuss_catalan(s, K // s)
            assert sum(poly.values()) == divisible_cycle_count(K, s)
            polys.append(poly)
        for poly in polys:
            assert all(e <= 0 and e % 2 == 0 for e in poly)
            assert all(c != 0 and c.denominator == 1 for c in poly.values())
            assert list(poly) == sorted(poly, reverse=True)

    def test_k20_constant_term(self):
        assert glm_exact(20)[0] == 6_564_120_420

    def test_recurrence_counts_small_cases(self):
        assert [divisible_cycle_count(n, 1) for n in range(6)] == [1, 1, 2, 6, 24, 120]
        assert [divisible_cycle_count(n, 2) for n in (2, 4, 6)] == [1, 9, 225]

    def test_bound(self):
        with pytest.raises(EnumerationBoundError):
            glm_exact(21)
        with pytest.raises(EnumerationBoundError):
            geodesic_count(3, 7)

    def test_roots_requires_divisibility(self):
        for K, s in ((3, 2), (8, 3), (4, None)):
            with pytest.raises(ArgumentError):
                glm_exact(K, s, "roots")


class TestGeodesics:
    def test_examples(self):
        assert geodesic_count(2, 1) == 1
        assert geodesic_count(2, 2) == 3
        assert geodesic_count(1, 3) == 5

    def test_matches_fuss_catalan(self):
        for s in (1, 2, 3):
            for k in range(1, 9):
                if s * k > 8:
                    break
                assert geodesic_count(s, k) == fuss_catalan(s, k)

    def test_matches_permutation_walk(self):
        for s in range(1, 9):
            for k in range(0, 8 // s + 1):
                assert geodesic_count(s, k) == geodesic_walk(s, k)


class TestCharacters:
    def test_fixed_point_count(self):
        rep = hns_character_mc(
            1, n=200, t=1.0, trials=4000, seed=21, word=ColoredWord.from_string("u")
        )
        assert within_3se(rep, 1.0)

    def test_second_moment(self):
        rep = hns_character_mc(
            2, n=200, t=1.0, trials=4000, seed=22, word=ColoredWord.from_string("u*")
        )
        assert within_3se(rep, 1.0)

    def test_against_atom_sum(self):
        for s, text in ((3, "u*"), (2, "uu**"), (3, "uu**")):
            word = ColoredWord.from_string(text)
            target = bessel_law(s, 0.5, p_max=30).moment(word.signs).real
            rep = hns_character_mc(s, n=200, t=0.5, trials=8000, seed=23, word=word)
            assert within_3se(rep, target)

    def test_rejects_bad_t(self):
        for n, t in ((50, 1.5), (50, 2.0), (3, 0.5)):  # and n below 4
            with pytest.raises(ArgumentError):
                hns_character_mc(1, n, t, 10, 0, ColoredWord.from_string("u"))


class TestWeingarten:
    def test_empty_word(self):
        assert weingarten_finite_n(2, ColoredWord(()), 16, 1.0) == 1.0

    def test_pair_word_approaches_t(self):
        word = ColoredWord.from_string("u*")
        # single balanced pair partition: the value is t at every n
        for n in (8, 16, 32, 64):
            assert weingarten_finite_n(2, word, n, 1.0) == pytest.approx(1.0, abs=1e-12)
        # at t = 1/2 truncation rounding gives a genuine, shrinking error
        errors = [
            abs(weingarten_finite_n(2, word, n, 0.5) - 0.5) for n in (8, 16, 32, 64)
        ]
        assert all(e * n < 4.0 for e, n in zip(errors, (8, 16, 32, 64)))
        assert errors[-1] <= errors[0]

    def test_length_four_limit(self):
        word = ColoredWord.from_string("uu**")
        value = weingarten_finite_n(2, word, 512, 1.0)
        assert value == pytest.approx(3.0, abs=0.05)

    def test_linear_error_decay(self):
        for s in (1, 2):
            for text in ("u*", "uu**"):
                word = ColoredWord.from_string(text)
                limit = float(star_moment(s, Fraction(1, 2), word))
                errs = [
                    abs(weingarten_finite_n(s, word, n, 0.5) - limit)
                    for n in (8, 16, 32, 64)
                ]
                # error * n stays bounded along the doubling sequence
                scaled = [e * n for e, n in zip(errs, (8, 16, 32, 64))]
                assert max(scaled) <= 2 * scaled[0] + 1e-9

    def test_rejects_t_outside_unit_interval(self):
        for t in (2.0, -1.0, 0.0):
            with pytest.raises(ArgumentError):
                weingarten_finite_n(2, ColoredWord.from_string("uu**"), 8, t)

    def test_rejects_small_n(self):
        with pytest.raises(ArgumentError):
            weingarten_finite_n(2, ColoredWord.from_string("uu**"), 3, 1.0)

    def test_gram_bound(self):
        # u^7 (dim 429) is admitted; u^8 (dim 1430) is refused before its join table
        with pytest.raises(EnumerationBoundError, match="Gram dimension 1430"):
            weingarten_finite_n(1, ColoredWord.same_color(8), 8, 1.0)

    def test_gram_bound_before_the_list(self, monkeypatch):
        def fail(s, word):
            raise AssertionError("the partitions were listed")

        monkeypatch.setattr(matrixlab, "enumerate_balanced", fail)
        with pytest.raises(EnumerationBoundError, match="Gram dimension 2674440"):
            weingarten_finite_n(1, ColoredWord.same_color(14), 8, 1.0)


def fraction_matrix_inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse over Fraction: the oracle for the integer solve."""
    n = len(m)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise np.linalg.LinAlgError("singular Gram matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def join_table(s: int, text: str) -> tuple[tuple[int, ...], ...]:
    parts = enumerate_balanced(s, ColoredWord.from_string(text))
    return tuple(tuple(join(p, q).block_count for q in parts) for p in parts)


@functools.cache
def fraction_trace(table: tuple[tuple[int, ...], ...], n: int, m: int) -> Fraction:
    """sum_{p,q} W_n(p,q) m^{table[p][q]} with W_n from the Fraction inverse."""
    wg = fraction_matrix_inverse([[Fraction(n) ** b for b in row] for row in table])
    return sum(
        (w * Fraction(m) ** b for w_row, row in zip(wg, table) for w, b in zip(w_row, row)),
        Fraction(0),
    )


SHORT_WORDS = ["".join(w) for k in range(1, 6) for w in itertools.product("u*", repeat=k)]

# one word for each Gram dimension in 21..55 that words of up to 10 letters reach at s <= 4
DIM_WORDS = {
    22: (3, "uu**uu**"), 24: (4, "uuuuuuu***"), 26: (3, "uu*u**u*"), 28: (3, "uuuuuu***"),
    29: (4, "uuuu*uuu**"), 30: (3, "uu*u*u**"), 32: (3, "uuu*uuu**"), 33: (4, "uuuu*u****"),
    35: (4, "uuuu**u***"), 36: (3, "uuuu*uu**"), 37: (3, "uuuuu*u**"), 42: (1, "uuuuu"),
    48: (4, "uuu**uu***"), 49: (4, "uuu*u***u*"), 52: (3, "uuuuuuuu**"),
    54: (3, "uuuuu*****"), 55: (2, "uu**uu**"),
}


class TestExactWeingarten:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_fraction_inverse(self, s):
        words = SHORT_WORDS + (["uu**uu**"] if s == 2 else [])
        for table in {join_table(s, w) for w in words} - {()}:
            for n in (4, 8, 64):
                for m in (n // 2, n):
                    assert _gram_trace(table, n, m) == fraction_trace(table, n, m)

    def test_value_is_dim_at_t_one(self):
        cases = [(s, w) for s in (1, 2, 3) for w in SHORT_WORDS] + list(DIM_WORDS.values())
        for s, text in cases:
            dim = len(enumerate_balanced(s, ColoredWord.from_string(text)))
            assert dim <= EXACT_WEINGARTEN_MAX_DIM
            for n in (4, 64):
                value = weingarten_finite_n(s, ColoredWord.from_string(text), n, 1.0)
                assert value == float(dim)
        for dim, (s, text) in DIM_WORDS.items():
            assert len(enumerate_balanced(s, ColoredWord.from_string(text))) == dim

    def test_zero_pivot_is_singular(self):
        with pytest.raises(np.linalg.LinAlgError, match="singular Gram matrix"):
            _gram_trace([[1, 1], [1, 1]], 8, 4)
