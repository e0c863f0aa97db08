"""Discrete Bessel laws: cyclotomic atoms, level-s exponentials, Poisson limits."""

import cmath
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freebessel import classical
from freebessel.classical import (
    BESSEL_MAX_P,
    BESSEL_MAX_WORK,
    CyclotomicInt,
    DiscreteMeasure,
    _convolution_work,
    bessel_function,
    bessel_law,
    bessel_s2_weight,
    convolve,
    cyclotomic_polynomial,
    dirac,
    exp_s,
    fourier,
    poisson_limit,
    power_pushforward,
    roots_of_unity_measure,
    total_variation,
)
from freebessel.partitions import ArgumentError, EnumerationBoundError
from freebessel.series import MomentSequence, classical_cumulants


def brute_force_bessel_law(s, t, p_max):
    """Test oracle: enumerate every tuple (a_1..a_s), a_k <= p_max, and merge
    the atoms sum(a_k w^k) exactly; returns (atoms, deficit)."""
    lam = t / s
    log_fact = [0.0]
    for p in range(1, p_max + 1):
        log_fact.append(log_fact[-1] + math.log(p))
    atoms = {}

    def rec(k, atom, log_w):
        if k > s:
            atoms[atom] = atoms.get(atom, 0.0) + math.exp(log_w)
            return
        wk = CyclotomicInt.root_power(s, k)
        for p in range(p_max + 1):
            contrib = p * math.log(lam) - log_fact[p] if p else 0.0
            shift = CyclotomicInt.from_coeffs(s, [p * c for c in wk.coeffs])
            rec(k + 1, atom + shift, log_w + contrib)

    rec(1, CyclotomicInt.zero(s), -t)
    term = total = math.exp(-lam)
    for p in range(1, p_max + 1):
        term *= lam / p
        total += term
    return atoms, max(1.0 - total**s, 0.0)


def convolve_by_tuples(m1, m2, prune=0.0):
    """Test oracle: convolve keyed by coefficient tuples, one tuple built and hashed per pair."""
    items2 = [(a.coeffs, w) for a, w in m2.atoms.items()]
    sums = {}
    for a1, w1 in m1.atoms.items():
        for c2, w2 in items2:
            key = tuple(map(add, a1.coeffs, c2))
            sums[key] = sums.get(key, 0.0) + w1 * w2
    deficit = 1.0 - (1.0 - m1.deficit) * (1.0 - m2.deficit)
    if prune > 0.0:
        deficit += sum(w for w in sums.values() if w < prune)
        sums = {c: w for c, w in sums.items() if w >= prune}
    return DiscreteMeasure(m1.s, {CyclotomicInt(m1.s, c): w for c, w in sums.items()}, deficit)


@st.composite
def measures(draw, s):
    """Up to 25 atoms of Z[w] with coefficients in [-60, 60] and weights in [0, 1]."""
    deg = len(cyclotomic_polynomial(s)) - 1
    atoms = draw(st.dictionaries(st.tuples(*[st.integers(-60, 60)] * deg),
                                 st.floats(0.0, 1.0), max_size=25))
    deficit = draw(st.sampled_from([0.0, 0.25]))
    return DiscreteMeasure(s, {CyclotomicInt(s, c): w for c, w in atoms.items()}, deficit)


def same_measure(got, want):
    """Atoms with their weights, in order, and the deficit, all bit for bit."""
    return list(got.atoms.items()) == list(want.atoms.items()) and got.deficit == want.deficit


class TestCyclotomic:
    def test_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_root_power_wraps(self):
        w = CyclotomicInt.root_power(4, 1)
        assert w.power(4) == CyclotomicInt.integer(4, 1)
        assert w.power(2) == CyclotomicInt.from_coeffs(4, [0, 0, 1])

    @pytest.mark.parametrize("s", [*range(1, 9), 12])
    def test_power_is_repeated_product(self, s):
        rng = random.Random(s)
        deg = len(cyclotomic_polynomial(s)) - 1
        for _ in range(3):
            x = CyclotomicInt(s, tuple(rng.randint(-9, 9) for _ in range(deg)))
            want = CyclotomicInt.integer(s, 1)
            for n in range(13):
                assert x.power(n) == want
                want = want * x

    def test_exact_merging_versus_embedding(self):
        # (w + w^2 + ... + w^s) = -1 in Z[w] for prime s
        s = 5
        total = CyclotomicInt.zero(s)
        for k in range(1, s):
            total = total + CyclotomicInt.root_power(s, k)
        assert total == CyclotomicInt.integer(s, -1)
        assert abs(total.to_complex() - (-1)) < 1e-12

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            CyclotomicInt.integer(2, 1) + CyclotomicInt.integer(3, 1)

    @pytest.mark.parametrize("s", range(1, 13))
    def test_embedding_is_the_power_sum(self, s):
        # the cached root powers are the ones each call once computed
        w = cmath.exp(2j * cmath.pi / s)
        deg = len(cyclotomic_polynomial(s)) - 1
        for coeffs in ([1] + [0] * (deg - 1), [-7 + 3 * j for j in range(deg)], [60] * deg):
            atom = CyclotomicInt(s, tuple(coeffs))
            assert atom.to_complex() == sum(c * w**k for k, c in enumerate(coeffs))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: cyclotomic_polynomial(0), id="cyclotomic_polynomial"),
    pytest.param(lambda: exp_s(0, 1.0), id="exp_s"),
    pytest.param(lambda: poisson_limit(2, 0), id="poisson_limit"),
    # a non-integer count raised a bare TypeError
    pytest.param(lambda: cyclotomic_polynomial(2.5), id="cyclotomic_polynomial-float"),
    # a float equal to a cached integer key must not be served from the cache (an untyped
    # lru_cache keys a keyword call on the value alone, so s=2.0 would hit s=2)
    pytest.param(lambda: (cyclotomic_polynomial(s=2), cyclotomic_polynomial(s=2.0)),
                 id="cyclotomic_polynomial-float-after-int"),
    pytest.param(lambda: exp_s(2.5, 1), id="exp_s-float"),
    pytest.param(lambda: poisson_limit(2, 2.5), id="poisson_limit-float-n"),
    pytest.param(lambda: poisson_limit(2.5, 2), id="poisson_limit-float-s"),
    pytest.param(lambda: roots_of_unity_measure(2.5), id="roots_of_unity_measure-float"),
    pytest.param(lambda: bessel_law(2.5, 1), id="bessel_law-float-s"),
    pytest.param(lambda: bessel_law(2, 1, p_max=2.5), id="bessel_law-float-p_max"),
])
def test_domain_error_is_an_argument_error(call):
    with pytest.raises(ArgumentError, match="must be >= 1"):
        call()


class TestExpS:
    def test_level_one_and_two(self):
        for z in (0.3, 1.7, -0.8, 0.5 + 0.25j):
            assert exp_s(1, z) == pytest.approx(cmath.exp(z), abs=1e-12)
            assert exp_s(2, z) == pytest.approx(cmath.cosh(z), abs=1e-12)

    def test_at_zero(self):
        for s in range(1, 6):
            assert exp_s(s, 0) == pytest.approx(1.0)

    def test_series_matches_average_form(self):
        # both evaluation branches agree near the |z| = 1 switchover
        for s in (3, 4):
            for r in (0.9, 1.1):
                direct = sum(r**(s * k) / math.factorial(s * k) for k in range(40))
                assert exp_s(s, r) == pytest.approx(direct, rel=1e-12)

    def test_real_input_gives_real_output(self):
        assert isinstance(exp_s(3, 1.5), float)


class TestBesselLaw:
    def test_s_one_is_poisson(self):
        t = 1.3
        m = bessel_law(1, t, p_max=40)
        for r in range(6):
            expected = math.exp(-t) * t**r / math.factorial(r)
            assert m.weight_at(CyclotomicInt.integer(1, r)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_s2_atom_at_zero(self):
        m = bessel_law(2, 1.0, p_max=30)
        assert m.weight_at(CyclotomicInt.integer(2, 0)) == pytest.approx(
            0.4657596075936404, abs=1e-10
        )

    def test_s2_weights_match_bessel_function(self):
        m = bessel_law(2, 1.0, p_max=30)
        for r in range(-5, 6):
            assert m.weight_at(CyclotomicInt.integer(2, r)) == pytest.approx(
                bessel_s2_weight(1.0, r), abs=1e-10
            )

    def test_mass_accounting(self):
        for s in (1, 2, 3):
            for t in (0.5, 1.0, 2.5):
                m = bessel_law(s, t)
                assert m.total_mass() + m.deficit == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_in_r(self):
        assert bessel_s2_weight(0.7, 3) == bessel_s2_weight(0.7, -3)

    def test_rejects_non_integral_r(self):
        for call in (lambda: bessel_s2_weight(1.0, 2.5), lambda: bessel_function(2.5, -1.0),
                     lambda: bessel_s2_weight(1e300, 0.5), lambda: bessel_s2_weight(100.0, 1.5)):
            with pytest.raises(ArgumentError, match="^r must be an integer"):
                call()
        assert bessel_s2_weight(0.7, 3.0) == bessel_s2_weight(0.7, 3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ArgumentError):
            bessel_law(2, -1.0)  # negative Poisson weights otherwise
        with pytest.raises(ArgumentError):
            bessel_law(2, 0.0)
        with pytest.raises(ArgumentError):
            bessel_law(2, 1.0, p_max=0)
        with pytest.raises(ArgumentError, match="t must be a finite number"):
            bessel_law(2, Fraction(10**400))

    def test_p_max_bound(self):
        # the default ceil(10 + 5t) reaches the bound at t = 198; 10 + 5t is inf at 1e308
        assert len(bessel_law(1, 198.0).atoms) == BESSEL_MAX_P + 1
        assert len(bessel_law(1, 1.0, p_max=BESSEL_MAX_P).atoms) == BESSEL_MAX_P + 1
        for t, p_max in ((198.1, None), (1e308, None), (1.0, BESSEL_MAX_P + 1)):
            with pytest.raises(EnumerationBoundError, match="p_max exceeds the bound"):
                bessel_law(1, t, p_max=p_max)

    def test_convolution_work_bound(self):
        # admitted: every call of the tests and the benchmark, up to s = 2 with p_max = 1000
        for s, p_max in ((1, BESSEL_MAX_P), (2, BESSEL_MAX_P), (3, 98), (4, 68), (5, 12), (7, 4)):
            assert _convolution_work(s, p_max) <= BESSEL_MAX_WORK
        for s, p_max in ((3, 99), (5, 13), (5, 20), (7, 6), (11, 2), (11, 15), (17, 1),
                         (10**30, 1)):
            assert _convolution_work(s, p_max) > BESSEL_MAX_WORK
            with pytest.raises(EnumerationBoundError, match="exceeds the convolution bound"):
                bessel_law(s, 1.0, p_max=p_max)
        with pytest.raises(EnumerationBoundError, match="convolution bound"):
            bessel_law(11, 1.0)  # the default p_max = 15
        with pytest.raises(ArgumentError, match="s >= 1"):
            bessel_law(-4, 1.0)

    @pytest.mark.parametrize("s", range(1, 13))
    def test_convolution_work_is_an_upper_bound(self, s, monkeypatch):
        # the bound counts the chain of s factors; it also bounds the paired form of even s
        deg, work = len(cyclotomic_polynomial(s)) - 1, []

        def counting(m1, m2, prune=0.0):
            work.append(deg * len(m1.atoms) * len(m2.atoms))
            return convolve(m1, m2, prune)

        monkeypatch.setattr(classical, "convolve", counting)
        admitted = [p for p in range(1, BESSEL_MAX_P + 1)
                    if _convolution_work(s, p) <= BESSEL_MAX_WORK]
        for p_max in sorted({1, 2, 3, max(admitted)} & set(admitted)):
            work.clear()
            bessel_law(s, 1.0, p_max)
            assert len(work) == s - 1
            assert sum(work) <= _convolution_work(s, p_max)

    def test_fraction_t_is_its_float(self):
        exact, rounded = bessel_law(3, Fraction(1, 3), p_max=8), bessel_law(3, 1 / 3, p_max=8)
        assert list(exact.atoms.items()) == list(rounded.atoms.items())
        assert exact.deficit == rounded.deficit

    def test_atom_past_the_doubles(self):
        # 4 r^2 was an int converted to float: OverflowError, for an r near 1e154 too
        for call in (lambda: bessel_s2_weight(5.0, 10**400), lambda: bessel_function(10**400, 1.0)):
            with pytest.raises(ArgumentError, match="^r must be a finite number"):
                call()
        assert bessel_s2_weight(5.0, 10**154) == bessel_s2_weight(5.0, -(10**200)) == 0.0

    def test_weight_below_the_subnormals(self):
        # Chernoff's bound, e^-5e99 here, returns 0.0 before the series (10^6 terms in about
        # 0.5 s, then ValueError); where it does not decide, the value is the series' own
        started = time.perf_counter()
        assert bessel_s2_weight(1e300, 10**200) == 0.0
        assert time.perf_counter() - started < 0.1
        # e^(-r^2/2t)/sqrt(2 pi t) = 2.42e-151, with relative corrections far below 1e-12
        want = math.exp(-0.5) / math.sqrt(2 * math.pi * 1e300)
        assert bessel_s2_weight(1e300, 10**150) == pytest.approx(want, rel=1e-12, abs=0)
        # the series raised OverflowError here, from a peak exponent lost in rounding
        assert bessel_s2_weight(1e32, 10**20) == 0.0

    def test_weight_to_zero_t(self):
        assert bessel_s2_weight(1e-12, 0) == pytest.approx(1.0)

    def test_bessel_function_base(self):
        assert bessel_function(0, 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("t,r,want", [(700, 0, 0.015081295651531358),
                                          (700, 3, 0.014984586661719439),
                                          (720, 0, 0.014870284185509175),
                                          (720, 3, 0.014777570639016565)])
    def test_s2_weight_at_large_t(self, t, r, want):
        # e^-t I_r(t) by mpmath 1.3.0; the terms of phi_r(t/2) alone overflow past t = 710
        assert bessel_s2_weight(t, r) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("t,r,want", [(1e20, 10**11, 7.6945986267064193765e-33),
                                          (1e32, 10**17, 7.6945986267064397842e-39),
                                          (5e15, 2 * 10**8, 1.0333492677046028565e-10),
                                          (3e15, 10**8, 1.3757049563820733742e-9),
                                          (1.2e15, 0, 1.1516471649044517175e-8),
                                          (2e15, 3 * 10**7, 7.1232602151386320545e-9),
                                          (1e18, 10**9, 2.4197072451914334978e-10)])
    def test_s2_weight_far_out(self, t, r, want):
        # e^-t I_r(t) by mpmath 1.3.0 besseli at 40 digits; from hypot(t, r) = 2^50 on, Debye's
        # leading term.  The first four once read 0.0, raised OverflowError, and raised
        # ValueError (twice) after 10^6 series terms.
        assert bessel_s2_weight(t, r) == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("t,r,want", [(1e4, 1000, 8.0011515728609480062e-25),
                                          (1e5, 1000, 8.5005188998705893461e-6),
                                          (1e5, 2000, 2.6017588727684126357e-12),
                                          (1e6, 3000, 4.431853951745946085e-6),
                                          (1e6, 6000, 6.0761570276049284558e-12)])
    def test_s2_weight_by_the_series_at_large_t(self, t, r, want):
        # e^-t I_r(t) by mpmath 1.3.0 besseli at 50 digits.  Hankel's expansion diverges here, so
        # the series serves them; its peak exponent as lgamma differences lost 1.1e-11 to 9.9e-10.
        assert bessel_s2_weight(t, r) == pytest.approx(want, rel=1e-12, abs=0)

    def test_s2_weight_across_the_expansion_switch(self):
        # Hankel's expansion from about t = 20 at r = 0, the folded series below; both sum to 1
        for t in (0.5, 5.0, 19.0, 21.0, 60.0, 150.0):
            total = math.fsum(bessel_s2_weight(t, r) for r in range(-int(t) - 80, int(t) + 81))
            assert total == pytest.approx(1.0, abs=1e-13)
        assert bessel_s2_weight(-2.0, 3) == pytest.approx(-math.exp(2.0) * bessel_function(3, 1.0))

    def test_non_finite_and_overflowing_bessel_arguments(self):
        # run apart, with a timeout: each of these once looped forever
        code = """if True:
            import json, math
            from freebessel.classical import bessel_function, bessel_s2_weight
            out = [bessel_s2_weight(1000, 0), bessel_s2_weight(1000, 3), bessel_s2_weight(1e300, 1)]
            for f, args in ((bessel_function, (0, math.nan)), (bessel_function, (2, -math.inf)),
                            (bessel_s2_weight, (math.nan, 0)), (bessel_s2_weight, (math.inf, 1)),
                            (bessel_function, (0, 400.0))):
                try:
                    out.append(f(*args))
                except (ValueError, OverflowError) as e:
                    out.append(type(e).__name__)
            print(json.dumps(out))
        """
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=30)
        assert done.returncode == 0, done.stderr
        w0, w3, huge, *errors = json.loads(done.stdout)
        assert w0 == pytest.approx(0.012617240455891257, rel=1e-12, abs=0)
        assert w3 == pytest.approx(0.012560562182547120, rel=1e-12, abs=0)
        assert huge == pytest.approx((2 * math.pi * 1e300) ** -0.5, rel=1e-15, abs=0)
        assert errors == ["ArgumentError"] * 4 + ["OverflowError"]


class TestBesselLawAgainstEnumeration:
    @pytest.mark.parametrize("s,p_max", [(1, 20), (2, 15), (3, 10), (4, 8), (5, 6), (6, 3),
                                         (8, 2)])
    def test_matches_tuple_enumeration(self, s, p_max):
        t = 0.9
        m = bessel_law(s, t, p_max=p_max)
        atoms, deficit = brute_force_bessel_law(s, t, p_max)
        assert set(m.atoms) == set(atoms)
        for atom, w in atoms.items():
            assert m.atoms[atom] == pytest.approx(w, rel=1e-13, abs=0)
        assert m.deficit == deficit

    def test_s4_atom_count(self):
        # the atom is (a_4 - a_2) + i (a_1 - a_3), each difference in [-p_max, p_max]
        p_max = 12
        assert len(bessel_law(4, 0.8, p_max=p_max).atoms) == (2 * p_max + 1) ** 2


class TestPushforward:
    def test_squares(self):
        m = bessel_law(2, 0.8, p_max=25)
        p = power_pushforward(m, 2)
        one = CyclotomicInt.integer(2, 1)
        minus_one = CyclotomicInt.integer(2, -1)
        assert p.weight_at(one) == pytest.approx(
            m.weight_at(one) + m.weight_at(minus_one), abs=1e-14
        )
        assert p.total_mass() == pytest.approx(m.total_mass(), abs=1e-12)

    def test_identity_for_s_one(self):
        m = bessel_law(1, 0.6, p_max=20)
        p = power_pushforward(m, 1)
        assert p.atoms == m.atoms


class TestFourier:
    def test_log_at_one(self):
        m = bessel_law(2, 1.0, p_max=40)
        assert math.log(fourier(m, 1.0).real) == pytest.approx(
            math.cosh(1.0) - 1, abs=1e-10
        )

    def test_at_zero(self):
        assert fourier(bessel_law(3, 0.5), 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_level_exponential_identity(self, s):
        t = 0.7
        m = bessel_law(s, t, p_max=40)
        for j in range(10):
            z = 1.5 * cmath.exp(2j * cmath.pi * j / 10)
            lhs = fourier(m, z)
            rhs = cmath.exp(t * (exp_s(s, z) - 1))
            assert abs(lhs - rhs) <= max(1e-9, m.deficit * math.exp(abs(z)))

    def test_additive_in_t(self):
        s = 3
        m1 = bessel_law(s, 0.4, p_max=40)
        m2 = bessel_law(s, 0.9, p_max=40)
        m12 = bessel_law(s, 1.3, p_max=40)
        for z in (0.3, 1.0 + 0.5j):
            assert abs(fourier(m12, z) - fourier(m1, z) * fourier(m2, z)) < 1e-9


class TestConvolve:
    def test_dirac_neutral(self):
        m = bessel_law(2, 0.5, p_max=20)
        out = convolve(m, dirac(2, 0))
        assert out.atoms == pytest.approx(m.atoms)

    def test_poisson_semigroup(self):
        a, b = 0.4, 0.7
        pa = bessel_law(1, a, p_max=40)
        pb = bessel_law(1, b, p_max=40)
        pab = bessel_law(1, a + b, p_max=40)
        conv = convolve(pa, pb)
        for r in range(8):
            atom = CyclotomicInt.integer(1, r)
            assert conv.weight_at(atom) == pytest.approx(
                pab.weight_at(atom), abs=1e-10
            )

    @given(st.integers(1, 8).flatmap(lambda s: st.tuples(measures(s), measures(s))),
           st.sampled_from([0.0, 1e-3, 0.05, 0.3]))
    @example((DiscreteMeasure(4, {}), DiscreteMeasure(4, {CyclotomicInt(4, (60, -60)): 1.0})), 0.0)
    @example((DiscreteMeasure(2, {CyclotomicInt(2, (-60,)): 0.5, CyclotomicInt(2, (60,)): 0.5}),
              DiscreteMeasure(2, {CyclotomicInt(2, (60,)): 0.5, CyclotomicInt(2, (-60,)): 0.5})),
             0.3)
    @settings(max_examples=150, deadline=None)
    def test_matches_tuple_keys(self, pair, prune):
        a, b = pair
        assert same_measure(convolve(a, b, prune), convolve_by_tuples(a, b, prune))

    @pytest.mark.parametrize("s,b1,b2", [(1, 0, 0), (1, 0, 5), (3, 1, 1), (5, 2, 7), (8, 60, 60),
                                         (7, 13, 4)])
    def test_sums_at_the_digit_bounds(self, s, b1, b2):
        # every sign pattern of +-b_i: the sums reach +-(b1 + b2), the outermost balanced digits
        deg = len(cyclotomic_polynomial(s)) - 1
        def corners(b):
            atoms = [tuple(b * (1 - 2 * (i >> j & 1)) for j in range(deg)) for i in range(2**deg)]
            atoms += [(0,) * deg, (b,) + (0,) * (deg - 1)]
            return DiscreteMeasure(s, {CyclotomicInt(s, c): 1.0 / (i + 2)
                                       for i, c in enumerate(dict.fromkeys(atoms))})
        m1, m2 = corners(b1), corners(b2)
        for a, b in ((m1, m2), (m2, m1), (m1, m1)):
            out = convolve(a, b)
            assert same_measure(out, convolve_by_tuples(a, b))
            bound = max(abs(c) for atom in out.atoms for c in atom.coeffs)
            assert bound == max(abs(c) for atom in a.atoms for c in atom.coeffs) + \
                max(abs(c) for atom in b.atoms for c in atom.coeffs)

    def test_empty_measure(self):
        m = bessel_law(3, 0.5, p_max=4)
        empty = DiscreteMeasure(3, {}, 0.5)
        for a, b in ((empty, m), (m, empty), (empty, empty)):
            out = convolve(a, b, prune=1e-3)
            assert out.atoms == {}
            assert same_measure(out, convolve_by_tuples(a, b, prune=1e-3))

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6, 12])
    def test_bessel_law_is_the_tuple_chain(self, s):
        for t in (0.3, 1.0, 2.5):
            p_max = math.ceil(10 + 5 * t)  # the default, cut to a quarter of the work bound
            while _convolution_work(s, p_max) > BESSEL_MAX_WORK // 4:
                p_max -= 1
            lam = t / s
            pmf = [math.exp(-lam)]
            for p in range(1, p_max + 1):
                pmf.append(pmf[-1] * (lam / p))
            laws = [DiscreteMeasure(s, {CyclotomicInt.from_coeffs(s, [0] * (k % s) + [p]): w
                                        for p, w in enumerate(pmf)}) for k in range(1, s + 1)]
            if s % 2 == 0:  # the factors k and k + s/2 first, on their common line
                laws = [convolve_by_tuples(laws[k], laws[k + s // 2]) for k in range(s // 2)]
            law = laws[0]
            for factor in laws[1:]:
                law = convolve_by_tuples(law, factor)
            got = bessel_law(s, t, p_max)
            assert list(got.atoms.items()) == list(law.atoms.items())
            assert got.deficit == max(1.0 - sum(pmf) ** s, 0.0)

    def test_roots_measure_self_convolution(self):
        rho = roots_of_unity_measure(2)
        out = convolve(rho, rho)
        assert out.weight_at(CyclotomicInt.integer(2, -2)) == pytest.approx(0.25)
        assert out.weight_at(CyclotomicInt.integer(2, 0)) == pytest.approx(0.5)
        assert out.weight_at(CyclotomicInt.integer(2, 2)) == pytest.approx(0.25)


class TestPoissonLimit:
    def test_n_one_is_mixture(self):
        # at n = 1 the mixture (1-1/n) delta_0 + (1/n) rho is rho itself
        m = poisson_limit(2, 1)
        assert m.weight_at(CyclotomicInt.integer(2, 1)) == pytest.approx(0.5)
        assert m.weight_at(CyclotomicInt.integer(2, -1)) == pytest.approx(0.5)
        m = poisson_limit(2, 2)
        # ((1/2) delta_0 + (1/2) rho)^{*2}: atom at 0 from 0+0 and 1+(-1)
        assert m.weight_at(CyclotomicInt.integer(2, 0)) == pytest.approx(0.375)

    def test_s_one_converges_to_poisson(self):
        m = poisson_limit(1, 512)
        target = bessel_law(1, 1.0, p_max=30)
        assert total_variation(m, target) < 1e-3

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_mass_plus_deficit(self, s):
        for n in (4, 16, 64, 256):
            m = poisson_limit(s, n)
            assert m.total_mass() + m.deficit == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_tv_decreasing(self, s):
        target = bessel_law(s, 1.0, p_max=30)
        tvs = [total_variation(poisson_limit(s, n), target) for n in (4, 16, 64, 256)]
        assert all(a > b for a, b in zip(tvs, tvs[1:]))
        # empirical O(1/n) decay: quadrupling n cuts the distance by ~4
        assert tvs[-1] < tvs[0] / 16


class TestClassicalCumulantsOfTheLaw:
    @pytest.mark.parametrize("s", [1, 2])
    def test_lattice_cumulants(self, s):
        t = 0.75
        m = bessel_law(s, t, p_max=60)
        moments = [Fraction(v).limit_denominator(10**12) for v in m.real_moments(8)]
        cums = classical_cumulants(MomentSequence.from_values(moments))
        for n in range(1, 9):
            expected = t if n % s == 0 else 0.0
            assert float(cums[n]) == pytest.approx(expected, abs=1e-8)
