"""Discrete Bessel laws: cyclotomic atoms, level-s exponentials, Poisson limits."""

import cmath
import math
from fractions import Fraction

import pytest

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


@pytest.mark.parametrize("call", [
    pytest.param(lambda: cyclotomic_polynomial(0), id="cyclotomic_polynomial"),
    pytest.param(lambda: exp_s(0, 1.0), id="exp_s"),
    pytest.param(lambda: poisson_limit(2, 0), id="poisson_limit"),
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
    def test_convolution_work_is_an_upper_bound(self, s):
        deg = len(cyclotomic_polynomial(s)) - 1
        for p_max in (1, 2, 3):
            if (bound := _convolution_work(s, p_max)) > BESSEL_MAX_WORK:
                continue
            law, work = dirac(s, 0), 0
            for k in range(1, s + 1):
                work += deg * len(law.atoms) * (p_max + 1)
                factor = {CyclotomicInt.from_coeffs(s, [0] * (k % s) + [p]): 1.0
                          for p in range(p_max + 1)}
                law = convolve(law, DiscreteMeasure(s, factor))
            assert work <= bound

    def test_fraction_t_is_its_float(self):
        exact, rounded = bessel_law(3, Fraction(1, 3), p_max=8), bessel_law(3, 1 / 3, p_max=8)
        assert list(exact.atoms.items()) == list(rounded.atoms.items())
        assert exact.deficit == rounded.deficit

    def test_weight_to_zero_t(self):
        assert bessel_s2_weight(1e-12, 0) == pytest.approx(1.0)

    def test_bessel_function_base(self):
        assert bessel_function(0, 0.0) == pytest.approx(1.0)


class TestBesselLawAgainstEnumeration:
    @pytest.mark.parametrize("s,p_max", [(1, 20), (2, 15), (3, 10), (4, 8), (5, 6)])
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
