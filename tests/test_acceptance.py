"""Acceptance suite: one check per shipped guarantee, one printed verdict line each."""

import math
from fractions import Fraction

import numpy as np
import pytest

from freebessel.classical import (
    CyclotomicInt,
    bessel_law,
    bessel_s2_weight,
    exp_s,
    fourier,
    poisson_limit,
    total_variation,
)
from freebessel.freelaws import (
    density,
    existence_probe,
    moment,
    moments_via_series,
    quadrature_moments,
    support,
)
from freebessel.matrixlab import (
    dw_model_mc,
    dw_model_mc_multi,
    geodesic_count,
    glm_eval,
    glm_exact,
    hns_character_mc,
    product_model_mc_multi,
    weingarten_finite_n,
)
from freebessel.partitions import ColoredWord, enumerate_nc_s, fuss_catalan, star_moment
from freebessel.series import (
    CumulantSequence,
    MomentSequence,
    bernoulli_moments,
    boxplus_power,
    boxtimes_power,
    catalan_moments,
    classical_cumulants,
    free_cumulants,
    free_mult,
    moments_from_free_cumulants,
)

F = Fraction


@pytest.fixture
def verdict(capsys):
    def _verdict(number: int, description: str, ok: bool):
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
        assert ok, f"acceptance criterion {number} failed: {description}"

    return _verdict


def test_01_partition_tables(verdict):
    table = {1: [1, 1, 2, 5, 14], 2: [1, 1, 3, 12, 55], 3: [1, 1, 4, 22, 140]}
    ok = all(
        [len(enumerate_nc_s(s, k)) for k in range(5)] == row
        for s, row in table.items()
    )
    verdict(1, "partition enumeration reproduces the counting tables exactly", ok)


def test_02_moment_triple_agreement(verdict):
    ok = True
    for s in (1, 2, 3):
        for t in (F(1, 4), F(1, 2), F(1)):
            series_m = moments_via_series(s, t, 6)
            for k in range(1, 7):
                closed = moment(s, t, k)
                part_sum = sum(
                    (t ** p.block_count for p in enumerate_nc_s(s, k, bound=18)),
                    F(0),
                )
                ok = ok and closed == series_m[k] == part_sum
    verdict(
        2, "closed form = series route = partition sum, exact rational equality", ok
    )


def test_03_two_route_identity(verdict):
    ok = True
    pi = catalan_moments(8)
    for s in (2, 3):
        for t in (F(1, 4), F(1, 2), F(3, 4)):
            route1 = free_mult(boxtimes_power(pi, s - 1), boxplus_power(pi, t))
            route2 = free_mult(bernoulli_moments(t, 8), boxtimes_power(pi, s))
            ok = ok and all(route1[k] == route2[k] for k in range(1, 9))
    verdict(3, "both defining routes give identical moments to order 8, exactly", ok)


def test_04_cumulant_laws(verdict):
    ok = True
    # free side: cumulants t on the multiples of s, zero elsewhere, exact
    for s in (1, 2):
        t = F(2, 3)
        kappa = CumulantSequence.from_values(
            "free", [t if n % s == 0 else F(0) for n in range(1, 9)]
        )
        m = moments_from_free_cumulants(kappa)
        back = free_cumulants(m)
        ok = ok and all(back[n] == kappa[n] for n in range(1, 9))
        # the nonzero pattern reproduces the law's moments on the s-grid
        ok = ok and all(m[s * k] == moment(s, t, k) for k in range(1, 8 // s + 1))
        ok = ok and all(m[n] == 0 for n in range(1, 9) if n % s != 0)
    # classical side: numeric moments of the atomic law give the same pattern
    for s in (1, 2):
        t = 0.75
        measure = bessel_law(s, t, p_max=60)
        moments = [F(v).limit_denominator(10**12) for v in measure.real_moments(8)]
        cums = classical_cumulants(MomentSequence.from_values(moments))
        for n in range(1, 9):
            expected = t if n % s == 0 else 0.0
            ok = ok and abs(float(cums[n]) - expected) < 1e-8
    verdict(4, "free cumulants exactly and classical cumulants within 1e-8", ok)


def test_05_support_formulas(verdict):
    ok = True
    for t in (0.25, 4.0):
        sup = support(1, t)
        r = math.sqrt(t)
        ok = ok and abs(float(sup.K_minus) - (1 - r) ** 2) < 1e-10
        ok = ok and abs(float(sup.K_plus) - (1 + r) ** 2) < 1e-10
    for s in (1, 2, 3):
        sup = support(s, 1)
        ok = ok and sup.K_plus == F((s + 1) ** (s + 1), s**s)
    verdict(5, "support endpoints match the closed formulas", ok)


def test_06_density(verdict):
    ok = True
    for s in (1, 2, 3):
        for t in (0.5, 1.0, 2.0):
            vals = quadrature_moments(s, t, 6)
            ok = ok and abs(vals[0] - min(t, 1.0)) < 1e-5
            for k in range(1, 7):
                ok = ok and abs(vals[k] - float(moment(s, t, k))) < 1e-5
        x = 1e-6
        edge = math.pi * density(s, 1.0, x) * x ** (s / (s + 1))
        target = math.sin(math.pi * s / (s + 1))
        ok = ok and abs(edge / target - 1) < 0.05
    verdict(6, "quadrature mass/moments within 1e-5 and edge law within 5%", ok)


def test_07_random_matrices(verdict):
    ok = True
    for s in (1, 2, 3):
        rep_dw = dw_model_mc_multi(s, N=256, powers=[s * k for k in (1, 2, 3)],
                                   trials=100, seed=7)
        rep_prod = product_model_mc_multi(s, N=256, powers=[1, 2, 3], trials=100, seed=7)
        for k in (1, 2, 3):
            target = float(fuss_catalan(s, k))
            prod = rep_prod[k]
            ok = ok and abs(prod.estimate - target) <= 3 * prod.std_error
            dw = rep_dw[s * k]
            ok = ok and abs(dw.estimate - target) <= 3 * dw.std_error
    for s in (1, 2, 3):
        for k in range(1, 9):
            if s * k > 8:
                break
            poly = glm_exact(s * k, s)
            ok = ok and poly.get(0, F(0)) == len(enumerate_nc_s(s, k))
    for s, k in ((1, 2), (2, 2)):
        rep = dw_model_mc(s, N=16, k=k, trials=400, seed=13)
        exact = glm_eval(glm_exact(s * k, s), 16 * s)
        ok = ok and abs(rep.estimate - exact) <= 3 * rep.std_error
    verdict(7, "matrix models within 3 SE and exact trace polynomial verified", ok)


def test_08_geodesic_correspondence(verdict):
    ok = True
    for s in (1, 2, 3):
        for k in range(1, 21):
            if s * k > 20:
                break
            ok = ok and geodesic_count(s, k) == fuss_catalan(s, k)
    verdict(8, "geodesic permutation counts equal the Fuss-Catalan numbers", ok)


def test_09_classical_laws(verdict):
    ok = True
    m2 = bessel_law(2, 1.0, p_max=30)
    for r in range(-5, 6):
        got = m2.weight_at(CyclotomicInt.integer(2, r))
        ok = ok and abs(got - bessel_s2_weight(1.0, r)) < 1e-10
    for s in (1, 2, 3, 4):
        t = 0.7
        m = bessel_law(s, t, p_max=40)
        for j in range(10):
            z = 1.2 * complex(math.cos(2 * math.pi * j / 10),
                              math.sin(2 * math.pi * j / 10))
            lhs = fourier(m, z)
            rhs = np.exp(t * (exp_s(s, z) - 1))
            ok = ok and abs(lhs - rhs) < 1e-9
    for s in (1, 2, 3):
        target = bessel_law(s, 1.0, p_max=30)
        tvs = [total_variation(poisson_limit(s, n), target) for n in (4, 16, 64, 256)]
        ok = ok and all(a > b for a, b in zip(tvs, tvs[1:]))
    verdict(9, "atom weights, Fourier identity, and Poisson-limit convergence", ok)


def test_10_characters_and_weingarten(verdict):
    ok = True
    for s in (1, 2, 3):
        for text in ("u*", "uu**"):
            word = ColoredWord.from_string(text)
            target = bessel_law(s, 0.5, p_max=30).moment(word.signs).real
            rep = hns_character_mc(s, n=200, t=0.5, trials=10_000, seed=3, word=word)
            ok = ok and abs(rep.estimate - target) <= 3 * rep.std_error
    for s in (1, 2):
        for text in ("u*", "uu**"):
            word = ColoredWord.from_string(text)
            limit = float(star_moment(s, F(1, 2), word))
            errs = {
                n: abs(weingarten_finite_n(s, word, n, 0.5) - limit)
                for n in (8, 16, 32, 64)
            }
            bound = max(errs[8] * 8, 1e-9)  # C from the first point
            ok = ok and all(errs[n] <= 1.5 * bound / n for n in (16, 32, 64))
    verdict(10, "character moments within 3 SE and Weingarten error O(1/n)", ok)


def test_11_critical_rectangle_probe(verdict):
    ok = True
    for s in (0.2, 0.6, 1.0, 2.0, 3.0):
        for t in (0.25, 0.5, 1.0):
            ok = ok and existence_probe(s, t, 6).passed
    found_failure = any(
        not existence_probe(s, t, 6).passed
        for s in (0.2, 0.3, 0.5, 0.7, 0.9)
        for t in (1.5, 2.0, 4.0, 6.0, 8.0)
    )
    ok = ok and found_failure
    verdict(
        11, "positivity probe passes on the safe grid and fails inside the rectangle",
        ok,
    )
