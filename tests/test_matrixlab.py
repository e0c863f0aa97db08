"""Matrix models, exact permutation sums, characters, Weingarten integration."""

import functools
import gc
import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from freebessel import matrixlab
from freebessel.classical import bessel_law
from freebessel.matrixlab import (
    EXACT_WEINGARTEN_MAX_DIM,
    _check_character_args,
    _dw_matrix,
    _gram_trace,
    _half,
    _product_wishart,
    _report,
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
    join_block_counts,
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


def glm_walk(K: int, s: int | None = None) -> dict[int, Fraction]:
    """The oracle for glm_exact: a walk over every permutation of S_K.

    sigma adds M^(#cycles(sigma) + #cycles(sigma^-1 pi) - K - 1); for a given s
    only sigma with every cycle length divisible by s count.
    """
    poly: dict[int, int] = {}
    for perm in itertools.permutations(range(K)):
        lengths = cycle_lengths(perm)
        if s is not None and any(length % s for length in lengths):
            continue
        # sigma^-1 pi (pi the full cycle i -> i+1) has as many cycles as its
        # conjugate-inverse sigma pi^-1, which is perm rotated by one place
        gamma_rel = len(cycle_lengths(perm[-1:] + perm[:-1]))
        exponent = gamma_rel + len(lengths) - K - 1
        poly[exponent] = poly.get(exponent, 0) + 1
    return {e: Fraction(c) for e, c in sorted(poly.items(), reverse=True)}


def class_sums(K: int, step: int) -> dict[int, list[int]]:
    """{l: sum of |C_lambda| prod_i (1 - (-y)^lambda_i)} over lambda |- K with l parts.

    Only cycle types whose parts are all multiples of ``step`` are summed; the
    values are coefficient lists in y.  A depth-first walk over the parts in
    non-increasing order extends the product one factor per part, and tracks
    z_lambda = prod_i i^(m_i) m_i!, so |C_lambda| = K!/z_lambda.
    """
    fact = math.factorial(K)
    sums: dict[int, list[int]] = {}

    def walk(rest: int, top: int, poly: list[int], length: int, z: int, mult: int) -> None:
        if rest == 0:
            acc = sums.setdefault(length, [0] * (K + 1))
            size = fact // z
            for i, c in enumerate(poly):
                acc[i] += size * c
            return
        for part in range(min(rest, top) // step * step, 0, -step):
            times = mult + 1 if part == top else 1
            sign = -1 if part % 2 else 1
            nxt = poly[:]
            for i in range(part, K + 1):
                nxt[i] -= sign * poly[i - part]
            walk(rest - part, part, nxt, length + 1, z * part * times, times)

    walk(K, K, [1] + [0] * K, 0, 1, 0)
    return sums


def glm_by_cycle_types(K: int, s: int) -> dict[int, Fraction]:
    """The oracle for glm_exact above the permutation walk: the hook characters class by class.

    Over a class C_lambda, sum q^#cycles(sigma^-1 pi) is |C_lambda|/K! sum_r (-1)^r
    chi_r(lambda) prod_(c=-r..K-r-1) (q + c), with chi_r(lambda) the y^r coefficient of
    prod_i (1 - (-y)^lambda_i)/(1 + y).  The classes are summed per cycle count before
    the hook sum, in integers, and divided by K! once.
    """
    contents = []
    for r in range(K):
        poly = [1]
        for c in range(-r, K - r):
            poly = [a * c + b for a, b in zip(poly + [0], [0] + poly)]
        contents.append(poly)
    total: dict[int, int] = {}
    for length, sums in class_sums(K, s).items():
        chi = [sums[0]]  # divide by 1 + y
        for a in sums[1:K]:
            chi.append(a - chi[-1])
        assert sums[K] == chi[-1], "1 + y divides the class sum"
        for r, c_r in enumerate(chi):
            weight = -c_r if r % 2 else c_r
            for j, coeff in enumerate(contents[r]):
                e = j + length - K - 1
                total[e] = total.get(e, 0) + weight * coeff
    out = {}
    for e in sorted(total, reverse=True):
        count, rem = divmod(total[e], math.factorial(K))
        assert rem == 0, "K! divides the class-weighted hook sum"
        if count:
            out[e] = Fraction(count)
    return out


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

    def test_report_of_samples_near_1e200(self):
        # finite samples whose squares pass the float64 range: mean 2e200/3, std sqrt(19/3) 1e200
        rep = _report("x", [1e200, -2e200, 3e200], 4, 0)
        assert rep.estimate == pytest.approx(2e200 / 3, rel=1e-15)
        assert rep.std_error == pytest.approx(math.sqrt(19 / 3) * 1e200 / math.sqrt(3), rel=1e-15)


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
    """An array that keeps a weak reference to each matrix product taken with it on the left."""

    products: list[weakref.ref] = []

    def __matmul__(self, other):
        out = super().__matmul__(other)
        CountingArray.products.append(weakref.ref(out))
        return out


def power_loop_traces(A: np.ndarray, m_max: int) -> list[complex]:
    """The oracle for _trace_powers: tr(A^m), m = 1..m_max, by repeated products."""
    P, out = A, []
    for m in range(1, m_max + 1):
        if m > 1:
            P = P @ A
        out.append(complex(P.trace()))
    return out


def chain_traces(A: np.ndarray, powers) -> dict[int, complex]:
    """tr(A^m) by _trace_powers' split at _half(m), with no renormalisation, in A's dtype and
    with traces accumulated in complex128: on complex128 input, the chain before complex64."""

    @functools.cache
    def power(p):
        return A if p == 1 else power(_half(p)) @ power(p - _half(p))

    return {m: complex(np.trace(A, dtype=complex) if m == 1 else
                       np.einsum("ij,ji->", power(_half(m)), power(m - _half(m)), dtype=complex))
            for m in powers}


def complex128_samples(model: str, s: int, N: int, powers, trials: int, seed: int):
    """The matrix models' samples from the same draws as the library's, with the products in
    complex128: the reference that bounds the move to complex64 products."""
    samples = {m: [] for m in powers}
    for i in range(trials):
        rng = _trial_rng(seed, i)
        if model == "dw":
            G = sample_ginibre(s * N, s * N, 1.0 / (s * N), rng)
            d = np.repeat(np.exp(2j * np.pi / s) ** np.arange(s), N)
            A, norm = d[:, None] * (G.conj().T @ G), s * N
        else:
            M = sample_ginibre(N, N, 1.0 / N, rng)
            for _ in range(s - 1):
                M = M @ sample_ginibre(N, N, 1.0 / N, rng)
            A, norm = M @ M.conj().T, N
        for m, tr in chain_traces(A, powers).items():
            samples[m].append(tr.real / norm)
    return samples


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

    # the products formed by splitting every power at the largest power of two below it; not
    # the fewest for every set ({7, 14, 21} takes 7, where 6 suffice), but for these it is
    PRODUCTS = {(1,): 0, (2,): 0, (1, 2): 0, (3,): 1, (4, 2): 1, (3, 6, 9): 3, (2, 4, 6): 2,
                (12, 1): 3, (11,): 4, (1, 2, 3): 1, (4,): 1}

    @pytest.mark.parametrize("powers", list(PRODUCTS))
    def test_products_up_to_half_the_largest_power(self, powers):
        A = sample_ginibre(8, 8, 1.0, _trial_rng(32, 0)).view(CountingArray)
        CountingArray.products = []
        got = _trace_powers(A, powers)
        assert len(CountingArray.products) == self.PRODUCTS[tuple(powers)]
        assert len(CountingArray.products) <= (max(powers) + 1) // 2 - 1
        loop = power_loop_traces(A, max(powers))
        for m in powers:  # rounding grows with the norm of the products
            assert abs(got[m] - loop[m - 1]) <= 1e-13 * np.linalg.norm(A) ** m

    def test_formed_powers_are_freed_without_the_collector(self):
        # a memo filled by a closure that calls itself would hold them until gc runs
        A = sample_ginibre(8, 8, 1.0, _trial_rng(33, 0)).view(CountingArray)
        CountingArray.products = []
        gc.disable()
        try:
            _trace_powers(A, [3, 6, 9, 11])
            alive = [ref() is not None for ref in CountingArray.products]
        finally:
            gc.enable()
        assert alive and not any(alive)


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

    def test_multi_equals_single_bit_for_bit(self):
        multi = product_model_mc_multi(3, 8, range(1, 7), 3, 7)
        for k in range(1, 7):
            assert multi[k] == product_model_mc(3, 8, k, 3, 7)

    def test_pinned_bits(self):
        # estimate and std_error as float.hex: a reordered draw or product changes the last bits
        want = {1: ("0x1.12a0750555555p+0", "0x1.3ead02c262d33p-5"),
                2: ("0x1.90291379c624dp+1", "0x1.85bed10848552p-2"),
                3: ("0x1.6359e2ee8fdffp+3", "0x1.15e4544ed871dp+1")}
        got = product_model_mc_multi(2, 8, [1, 2, 3], 3, 7)
        assert {k: (r.estimate.hex(), r.std_error.hex()) for k, r in got.items()} == want


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
            exact = glm_eval(glm_exact(s * k, s), s * N)
            assert within_3se(rep, exact)

    def test_single_power_matches_reference_loop(self):
        s, N, m, trials, seed = 2, 16, 3, 5, 17
        samples = []
        for i in range(trials):
            DW = _dw_matrix(s, N, _trial_rng(seed, i))
            wide = DW.astype(complex)  # the 1e-12 bound is for complex128 loops and chains
            loop = power_loop_traces(wide, m)[-1].real / (s * N)
            assert abs(_trace_powers(wide, [m])[m].real / (s * N) - loop) <= 1e-12
            samples.append(_trace_powers(DW, [m])[m].real / (s * N))
        rep = dw_model_mc(s, N, k=0, trials=trials, seed=seed, power=m)
        assert rep.estimate == float(np.mean(samples))
        assert rep.std_error == float(np.std(samples, ddof=1) / math.sqrt(trials))

    def test_multi_matches_single(self):
        multi = dw_model_mc_multi(2, N=32, powers=[2, 4], trials=20, seed=16)
        single = dw_model_mc(2, N=32, k=2, trials=20, seed=16)
        assert multi[4].estimate == single.estimate

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_multi_equals_single_bit_for_bit(self, s):
        # a power's chain of products depends on the power alone, not on the others requested
        powers = [s, 2 * s, 3 * s]
        multi = dw_model_mc_multi(s, 8, powers, 3, 7)
        for m in powers:
            assert multi[m] == dw_model_mc(s, 8, 0, 3, 7, power=m)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_dw_matrix_bit_equal_to_scaled_wishart(self, s):
        N = 5
        G = sample_ginibre(s * N, s * N, 1.0 / (s * N), _trial_rng(19, s)).astype(np.complex64)
        d = np.repeat(np.exp(2j * np.pi / s) ** np.arange(s), N).astype(np.complex64)
        want = d[:, None] * (G.conj().T @ G)
        assert _dw_matrix(s, N, _trial_rng(19, s)).tobytes() == want.tobytes()

    # estimate and std_error as float.hex of dw_model_mc_multi(s, 8, [s, 2s, 3s], 3, 7)
    PINNED = {
        1: {1: ("0x1.14380c8aaaaabp+0", "0x1.4ced2a41e27f9p-7"),
            2: ("0x1.32f828a15e012p+1", "0x1.8c9bb672cba45p-3"),
            3: ("0x1.a46cd5f4067cdp+2", "0x1.13a1e7fc648abp+0")},
        2: {2: ("0x1.f07f7045f1bc4p-1", "0x1.bb118f85487f6p-5"),
            4: ("0x1.3f7e0fd34b343p+1", "0x1.aeff472765512p-2"),
            6: ("0x1.08e8eb68e083fp+3", "0x1.3e68cdf315e7ep+1")},
        3: {3: ("0x1.dcaa764a0c2d8p-1", "0x1.bd9b8893e52c3p-4"),
            6: ("0x1.d87613d5c185bp+1", "0x1.754cb198ae0f0p-1"),
            9: ("0x1.35a4d78cdd6d3p+4", "0x1.31c1f78bd12d1p+2")},
    }

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pinned_bits(self, s):
        # the bit tests above compare one version with itself; these pin the draws and products
        got = dw_model_mc_multi(s, 8, [s, 2 * s, 3 * s], 3, 7)
        assert {m: (r.estimate.hex(), r.std_error.hex()) for m, r in got.items()} == self.PINNED[s]

    @pytest.mark.parametrize("s,N,powers", [(3, 64, [3, 6, 9]), (2, 64, [4]), (1, 128, [1, 2, 3])])
    @pytest.mark.parametrize("trials", [1, 4])
    def test_working_set(self, s, N, powers, trials):
        # numpy reports its data to tracemalloc, so the traced peak counts M x M arrays however
        # the heap lays them out: W = G^H G needs three, and no trial may hold more
        dw_model_mc_multi(s, N, powers, 1, 1)  # imports and first-call allocations
        tracemalloc.start()
        try:
            dw_model_mc_multi(s, N, powers, trials, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * (s * N) ** 2 * 16


class TestComplex64Products:
    """The models multiply in complex64 on the draws that complex128 products would use."""

    @pytest.mark.parametrize("model", ["dw", "product"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("N", [8, 64, 256])
    def test_same_draws_as_complex128(self, model, s, N):
        powers = [s, 2 * s, 3 * s] if model == "dw" else [1, 2, 3]
        run = dw_model_mc_multi if model == "dw" else product_model_mc_multi
        got = run(s, N, powers, 3, 11)
        for m, vals in complex128_samples(model, s, N, powers, 3, 11).items():
            assert got[m].estimate == pytest.approx(np.mean(vals), rel=1e-5)

    @pytest.mark.parametrize("model", ["dw", "product"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_scaled_chain_equals_unscaled(self, model, s):
        # powers of two round nothing while the entries stay normal
        rng = _trial_rng(23, s)
        A = _dw_matrix(s, 16, rng) if model == "dw" else _product_wishart(s, 16, rng)[0]
        assert A.dtype == np.complex64
        powers = range(1, 13)
        assert _trace_powers(A, powers) == chain_traces(A, powers)

    @pytest.mark.parametrize("s", [20, 40, 80])
    def test_product_draw_equals_unscaled(self, s):
        # the product draw renormalises M after each factor, which moves no bit either; at N = 2
        # a product of s factors shrinks, so the scale leaves 1
        A, e = _product_wishart(s, 2, _trial_rng(24, s))
        rng = _trial_rng(24, s)
        M = sample_ginibre(2, 2, 1 / 2, rng).astype(np.complex64)
        for _ in range(s - 1):
            M = M @ sample_ginibre(2, 2, 1 / 2, rng).astype(np.complex64)
        powers = range(1, 7)
        assert e != 0
        assert _trace_powers(A, powers, e) == chain_traces(M @ M.conj().T, powers)

    def test_long_product_does_not_underflow(self):
        # M of 600 factors 2 x 2 shrinks to about 1e-28, so M M* to about 1e-55; unscaled,
        # complex64 rounds it to 0.  Bound: s N u, as for the high powers below
        s, N = 600, 2
        got = product_model_mc(s, N, 1, 3, 0)
        want = np.mean(complex128_samples("product", s, N, [1], 3, 0)[1])
        assert 0 < want < 1e-50
        assert got.estimate == pytest.approx(want, rel=s * N * 2.0**-24, abs=0)

    @pytest.mark.parametrize("k", [60, 100])
    def test_high_powers_at_dim_4(self, k):
        # tr (DW)^(3k) reaches 1e63 and 1e107: unscaled complex64 overflows past 3.4e38.  Bound:
        # m M u, the first-order error of a chain of m products of length M = 12, u = 2^-24
        m = 3 * k
        got = dw_model_mc(3, 4, k, 3, 0)
        want = np.mean(complex128_samples("dw", 3, 4, [m], 3, 0)[m])
        assert abs(want) > 1e60
        assert got.estimate == pytest.approx(want, rel=m * 12 * 2.0**-24)


class TestGLMExact:
    def test_k1_identity(self):
        assert glm_exact(1) == {0: 1}

    def test_k2_identity(self):
        assert glm_exact(2) == {0: 2}

    def test_k4_roots(self):
        poly = glm_exact(4, 2)
        assert poly[0] == 3
        assert all(e <= 0 for e in poly)

    @pytest.mark.parametrize("K", range(1, 9))
    def test_matches_permutation_walk(self, K):
        # None: the unfiltered walk, against glm_exact's default s = 1
        for s in [None] + [s for s in range(1, K + 1) if K % s == 0]:
            got, want = glm_exact(K) if s is None else glm_exact(K, s), glm_walk(K, s)
            assert got == want and list(got) == list(want)

    def test_constant_terms_count_partitions(self):
        for s in (1, 2, 3):
            for k in range(1, 9):
                if s * k > 8:
                    break
                poly = glm_exact(s * k, s)
                assert poly.get(0, Fraction(0)) == len(enumerate_nc_s(s, k))
                assert all(e <= 0 for e in poly)

    @pytest.mark.parametrize("K", range(9, 21))
    def test_matches_cycle_type_sum(self, K):
        for s in (s for s in range(1, K + 1) if K % s == 0):
            got, want = glm_exact(K, s), glm_by_cycle_types(K, s)
            assert got == want and list(got) == list(want)

    @pytest.mark.parametrize("K", [*range(9, 21), 24, 30, 36, 48, 60])
    def test_above_the_walk(self, K):
        identity = glm_exact(K)
        assert sum(identity.values()) == math.factorial(K)
        polys = [identity]
        for s in (s for s in range(1, K + 1) if K % s == 0):
            poly = glm_exact(K, s)
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
            glm_exact(61)
        with pytest.raises(EnumerationBoundError):
            geodesic_count(3, 21)

    def test_roots_requires_divisibility(self):
        for K, s in ((3, 2), (8, 3), (4, 0)):
            with pytest.raises(ArgumentError):
                glm_exact(K, s)

    def test_typed_refusals(self):
        for args, name in (((4.0,), "K"), ((4, 2.0), "s"), ((2.5,), "K"), ((0,), "K"),
                           ((-3, 1), "K"), ((4, -2), "s")):
            with pytest.raises(ArgumentError, match=f"^{name} must be >= 1 and an integer"):
                glm_exact(*args)


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

    def test_typed_refusals(self):
        for (s, k), name in (((0, 0), "s"), ((-1, 0), "s"), ((1.5, 2), "s"), ((2, -1), "k"),
                             ((2, 1.0), "k")):
            with pytest.raises(ArgumentError, match=f"^{name} must be >= "):
                geodesic_count(s, k)


def hns_character_mc_by_phases(s, n, t, trials, seed, word):
    """Test oracle: the character model with one complex exponential per diagonal entry."""
    m = _check_character_args(n, t)
    samples = []
    for i in range(trials):
        rng = _trial_rng(seed, i)
        perm = rng.permutation(n)
        fixed = np.nonzero(perm[:m] == np.arange(m))[0]
        phases = np.exp(2j * np.pi * rng.integers(0, s, size=n) / s)
        chi = phases[fixed].sum() if fixed.size else 0j
        val = 1.0 + 0j
        for sg in word.signs:
            val *= chi if sg == 1 else np.conj(chi)
        samples.append(val.real)
    return _report(f"chi_t word {word}, s={s}, t={float(t)}", samples, n, seed)


def hns_character_mc_drawing_every_trial(s, n, t, trials, seed, word):
    """Test oracle: the character model drawing the n root indices in every trial, fixed
    points or none."""
    m = _check_character_args(n, t)
    roots = np.exp(2j * np.pi * np.arange(s) / s)
    samples = []
    for i in range(trials):
        rng = _trial_rng(seed, i)
        perm = rng.permutation(n)
        fixed = np.nonzero(perm[:m] == np.arange(m))[0]
        k = rng.integers(0, s, size=n)
        chi = roots[k[fixed]].sum() if fixed.size else 0j
        val = 1.0 + 0j
        for sg in word.signs:
            val *= chi if sg == 1 else np.conj(chi)
        samples.append(val.real)
    return _report(f"chi_t word {word}, s={s}, t={float(t)}", samples, n, seed)


class TestCharacters:
    @pytest.mark.parametrize("s,text", [(1, "u*"), (3, "u*"), (3, "uuu"), (4, "uu**u*"),
                                        (5, "uuuuu")])
    def test_root_table_matches_phases(self, s, text):
        # the roots of unity, taken once per call, are the phases each trial once computed
        word = ColoredWord.from_string(text)
        args = (s, 200, Fraction(5, 8), 2000, 11, word)
        assert hns_character_mc(*args) == hns_character_mc_by_phases(*args)

    @pytest.mark.parametrize("s,n,t,text", [(1, 200, 1.0, "u*"), (3, 200, 0.5, "u*"),
                                            (3, 60, 0.1, "uuu"), (4, 12, 0.25, "uu**u*"),
                                            (5, 4, 0.25, "uuuuu")])
    def test_draws_only_at_fixed_points(self, s, n, t, text):
        # a trial without a fixed point among the first m skips the draw its value never reads
        args = (s, n, t, 3000, 5, ColoredWord.from_string(text))
        rep, every = hns_character_mc(*args), hns_character_mc_drawing_every_trial(*args)
        assert (rep.estimate, rep.std_error) == (every.estimate, every.std_error)

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
        for n, t in ((50, 1.5), (50, 2.0), (3, 0.5), (8.0, 0.5)):  # and n below 4 or a float
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
        for n in (3, 8.0, 16.5):  # and n not an integer
            with pytest.raises(ArgumentError):
                weingarten_finite_n(2, ColoredWord.from_string("uu**"), n, 1.0)

    def test_truncation_is_exact(self):
        # floor(float(a/n) * n) falls one short for 755 of these pairs (0.29 * 100 = 28.99...)
        assert all(_check_character_args(n, Fraction(a, n)) == a
                   for n in range(4, 201) for a in range(1, n + 1))
        assert _check_character_args(150, Fraction(29, 100)) == 43
        # u* at s = 1: two balanced partitions, value m (m + n - 2) / (n (n - 1))
        value = weingarten_finite_n(1, ColoredWord.from_string("u*"), 100, Fraction(29, 100))
        assert value == float(Fraction(29 * 127, 100 * 99))

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

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_lower_triangle_matches_square(self, s):
        # weingarten_finite_n passes only the rows' entries up to the diagonal
        words = SHORT_WORDS + (["uu**uu**"] if s == 2 else [])
        for table in {join_table(s, w) for w in words} - {()}:
            half = [row[:i + 1] for i, row in enumerate(table)]
            for n in (4, 8, 64):
                for m in (n // 2, n):
                    assert _gram_trace(half, n, m) == _gram_trace(table, n, m)

    @pytest.mark.parametrize("s,text", [*DIM_WORDS.values(), (1, "uuuuuu"), (1, "uuuuuuu")])
    def test_table_matches_pairwise_joins(self, s, text, monkeypatch):
        # the |p join q| triangle weingarten_finite_n solves, against join(p, q) pair by pair
        seen = []

        def recording(parts):
            seen.append(join_block_counts(parts))
            return seen[-1]

        monkeypatch.setattr(matrixlab, "join_block_counts", recording)
        weingarten_finite_n(s, ColoredWord.from_string(text), 64, Fraction(1, 2))
        assert seen == [[list(row[:i + 1]) for i, row in enumerate(join_table(s, text))]]

    def test_zero_pivot_is_singular(self):
        with pytest.raises(np.linalg.LinAlgError, match="singular Gram matrix"):
            _gram_trace([[1, 1], [1, 1]], 8, 4)

    def test_zero_pivot_mid_elimination_is_singular(self):
        # the first pivot is 8, the second the 2 x 2 leading minor 8 * 8 - 8 * 8
        with pytest.raises(np.linalg.LinAlgError, match="singular Gram matrix"):
            _gram_trace([[1, 1, 2], [1, 1, 2], [2, 2, 3]], 8, 4)

    @pytest.mark.parametrize("s,text,t", [(2, "uu**uu**", Fraction(1, 2)),
                                          (1, "uuuuuu", Fraction(1, 2)),
                                          (3, "uuu***uuu***", Fraction(3, 4))])
    def test_values_from_the_join_table(self, s, text, t):
        # the Gram matrix of |p join q| from join(p, q), solved as weingarten_finite_n does:
        # exactly up to dimension 55 (the first case), in floats above (132 and 215)
        table, n, m = join_table(s, text), 64, math.floor(t * 64)
        if len(table) <= EXACT_WEINGARTEN_MAX_DIM:
            want = float(_gram_trace(table, n, m))
        else:
            blocks = np.array(table, dtype=float)
            want = float(np.sum(np.linalg.inv(float(n) ** blocks) * float(m) ** blocks))
        assert weingarten_finite_n(s, ColoredWord.from_string(text), n, t) == want
