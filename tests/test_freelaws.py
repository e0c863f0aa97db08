"""Moments, supports, densities, and the positivity probe of the two-parameter family."""

import math
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebessel import freelaws, series
from freebessel.freelaws import (
    _curve,
    _hankel_minors,
    _scaled_moment,
    _theta_min,
    density,
    density_grid,
    existence_probe,
    in_defined_region,
    moment,
    moments_via_series,
    phi,
    quadrature_moments,
    support,
)
from freebessel.partitions import ArgumentError, enumerate_nc_s, fuss_catalan, fuss_narayana_poly
from freebessel.series import (
    _over_common_denominator,
    bernoulli_moments,
    boxplus_power,
    boxtimes_power,
    catalan_moments,
    free_mult,
)

F = Fraction


def _stieltjes_poly_coeffs(s: int, t: float, x: float) -> np.ndarray:
    """Coefficients (descending) of x^s G^(s+1) + (t-1) x^(s-1) G^s - x G + 1."""
    coeffs = np.zeros(s + 2, dtype=float)
    coeffs[0] = x**s
    # accumulate: for s = 1 the G^s and G terms share an index
    coeffs[1] += (t - 1) * x ** (s - 1)
    coeffs[s] += -x
    coeffs[s + 1] += 1.0
    return coeffs


def physical_roots(s: int, t: float, xs: np.ndarray) -> np.ndarray:
    """G(x - i0) at each x in (K_-, K_+), each point on its own: the companion oracle.

    Of the roots of x^s G^(s+1) + (t-1) x^(s-1) G^s - x G + 1, the physical
    one has Im G <= 0 and the largest real part.  The companion matrices are
    those np.roots builds, with the coefficients raised by scalar powers, and
    are solved in one stacked eigvals call.  x^s underflows at large s.
    """
    coeffs = np.zeros((len(xs), s + 2))
    coeffs[:, 0] = [x**s for x in xs.tolist()]
    # accumulate: for s = 1 the G^s and G terms share a column
    coeffs[:, 1] += [(t - 1) * x ** (s - 1) for x in xs.tolist()]
    coeffs[:, s] += -xs
    coeffs[:, s + 1] = 1.0
    companion = np.zeros((len(xs), s + 1, s + 1))
    companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    companion[:, np.arange(1, s + 1), np.arange(s)] = 1.0
    roots = np.linalg.eigvals(companion)
    real = np.where(roots.imag <= 0, roots.real, -np.inf)
    return polish(s, t, xs, roots[np.arange(len(xs)), np.argmax(real, axis=1)])


def polish(s: int, t: float, xs, gs) -> np.ndarray:
    """Newton steps in extended precision on x^s G^(s+1) + (t-1) x^(s-1) G^s - x G + 1.

    Near an edge two roots meet, and a root from eigvals or np.roots is good only to
    about the square root of the double precision there.
    """
    x = np.asarray(xs, dtype=np.longdouble)
    g = np.asarray(gs, dtype=np.clongdouble)
    a, b, t1 = x**s, x ** (s - 1), np.longdouble(t) - 1
    for _ in range(8):
        gs_1 = g ** (s - 1)
        value = (a * g * g + t1 * b * g) * gs_1 - x * g + 1
        slope = ((s + 1) * a * g + s * t1 * b) * gs_1 - x
        g = g - value / slope
    return g.astype(complex)


def companion_density(s: int, t: float, xs) -> np.ndarray:
    """The density by the companion oracle, 0 outside (K_-, K_+)."""
    xs = np.asarray(xs, dtype=float)
    sup = support(s, t)
    rho = np.zeros(xs.shape)
    bulk = (xs > float(sup.K_minus)) & (xs < float(sup.K_plus))
    rho[bulk] = np.maximum(-physical_roots(s, t, xs[bulk]).imag / np.pi, 0.0)
    return rho


def g_tail(s, t, x: float, terms: int = 60) -> complex:
    """G(x) from the moment expansion, valid well outside the support."""
    total = 1.0 / x
    xf = float(x)
    for k in range(1, terms + 1):
        total += float(moment(s, t, k)) / xf ** (k + 1)
    return complex(total)


def continue_branch(s: int, t: float, xs, x0: float, g0: complex) -> np.ndarray:
    """Track the physical root of the Stieltjes polynomial along descending xs.

    Steps are bisected adaptively whenever the nearest candidate root is not
    clearly separated from the others.
    """
    out = np.empty(len(xs), dtype=complex)
    x_prev, g_prev = x0, g0

    def step_to(x: float, depth: int = 0) -> complex:
        nonlocal x_prev, g_prev
        roots = np.roots(_stieltjes_poly_coeffs(s, t, x))
        dists = np.abs(roots - g_prev)
        order = np.argsort(dists)
        i = int(order[0])
        if len(order) > 1:
            j = int(order[1])
            scale = 1.0 + abs(roots[i])
            conjugate_pair = (
                abs(roots[i] - np.conj(roots[j])) < 1e-7 * scale
                and abs(roots[i].imag) > 1e-12 * scale
            )
            if conjugate_pair and dists[j] < 2 * dists[i]:
                # crossing a support edge: the branch turns complex; take the
                # lower-half-plane member (boundary value from above)
                i = i if roots[i].imag <= 0 else j
                x_prev, g_prev = x, roots[i]
                return roots[i]
        rest = np.delete(dists, np.argmin(dists))
        ambiguous = rest.size > 0 and dists.min() > 0.4 * rest.min()
        if ambiguous and dists.min() > 1e-13:
            if depth >= 48:
                raise RuntimeError(f"could not continue the branch at x = {x}")
            mid = 0.5 * (x_prev + x)
            if mid in (x_prev, x):
                raise RuntimeError(f"could not continue the branch at x = {x}")
            step_to(mid, depth + 1)
            return step_to(x, depth + 1)
        x_prev, g_prev = x, roots[i]
        return roots[i]

    for j, x in enumerate(xs):
        out[j] = step_to(float(x))
    return out


def continued_density(s: int, t: float, xs) -> np.ndarray:
    """The density by continuation: the oracle for the per-point root rule.

    The branch is seeded by the moment series at 2.5 K_+ and continued down
    through the points (all inside the support) in descending order, so the
    answer is only right when the points are dense enough near the edges.
    """
    xs = np.asarray(xs, dtype=float)
    order = np.argsort(-xs)
    x0 = max(2.5 * float(support(s, t).K_plus), 2.5 * xs[order[0]])
    gs = np.empty(len(xs), dtype=complex)
    gs[order] = continue_branch(s, t, xs[order], x0, g_tail(s, t, x0))
    gs = polish(s, t, xs, gs)
    return np.maximum(-gs.imag / np.pi, 0.0)


def graded_path(s: int, t: float) -> np.ndarray:
    """240 points from each support edge to the middle, graded geometrically toward the edge."""
    sup = support(s, t)
    a, b = float(sup.K_minus), float(sup.K_plus)
    mid = 0.5 * (a + b)
    g = np.geomspace(1e-12, 1, 240)
    return np.concatenate([a + (mid - a) * g, b - (b - mid) * g])


def phi_critical_values(s, t) -> tuple[Decimal, Decimal]:
    """(K_-, K_+) = (t/Phi(w_+), t/Phi(w_-)) at the zeros w_-+ of Phi', the paper's route.

    In decimal at 60 digits plus the exponent of 1/t, as 1 - w_- ~ sqrt(t/s) cancels half
    that many at small t.  K_- is an edge, and computed, only for t < 1 or s = 1.
    """
    with localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 60 + max(0, -Decimal(t).adjusted()), MIN_EMIN, MAX_EMAX
        s, t = Decimal(s), Decimal(t)
        disc = (t * t * (s - 1) ** 2 + 4 * s * t).sqrt()
        w_plus, w_minus = ((t * s - t + 2 + sign * disc) / (2 * (1 - t)) for sign in (1, -1))

        def critical_value(w):
            return 1 / (w * ((1 - w) / (1 - (1 - t) * w)) ** s)

        return critical_value(w_plus) if t < 1 or s == 1 else None, critical_value(w_minus)


# s and t of the edge tests, from 1e-300 to 1e10 on both sides of t = 1
_EDGE_S = [0.25, 0.5, 0.75, 1, 1.5, 2, 3, 5, 10, 100, 1000, 1e4, 1e5, 1e7]
_EDGE_T = [1e-300, 1e-200, 1e-100, 1e-50, 1e-30, 1e-20, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9,
           0.99, 1 - 1e-9, 1 + 1e-9, 1.01, 2.0, 10.0, 1e4, 1e10]


def fraction_horner(s, t, k: int) -> Fraction:
    """The Fraction Horner that the integer kernel replaced: the oracle for moment()."""
    total = Fraction(0)
    for c in reversed(fuss_narayana_poly(Fraction(s), k)):
        total = total * Fraction(t) + c
    return total


class TestMomentKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.sampled_from([1, 2, 3, F(5, 2), F(1, 3), F(7, 3), 0.9, 0.3]),
            st.fractions(min_value=F(1, 10), max_value=6, max_denominator=12),
        ),
        st.one_of(
            st.just(0),
            st.fractions(min_value=-5, max_value=5, max_denominator=1000),
            st.floats(min_value=-5, max_value=5, allow_nan=False),
        ),
        st.integers(min_value=1, max_value=17),
    )
    def test_matches_fraction_horner(self, s, t, k):
        value = moment(s, t, k)
        assert type(value) is Fraction
        assert value == fraction_horner(s, t, k)

    @pytest.mark.parametrize("s", [1, 3, F(5, 2), F(1, 3), 0.3])
    @pytest.mark.parametrize("t", [0, 0.0, 0.3, 1e-3, -0.75, F(-3, 7), F(1, 2), 7])
    def test_cases(self, s, t):
        for k in range(1, 18):
            assert moment(s, t, k) == fraction_horner(s, t, k)

    @pytest.mark.parametrize("s", [1, F(5, 2), F(1, 3), 0.3])
    @pytest.mark.parametrize("t", [0, 0.3, F(-3, 7), F(162, 145), 7])
    def test_scaled_kernel(self, s, t):
        # the probe's integers: b^k m_k = n/d at t = a/b (0.3 as a Fraction has
        # denominator 2^54 as s, and 10^k-sized powers of it as t)
        a, b = F(t).numerator, F(t).denominator
        for k in range(1, 18):
            n, d = _scaled_moment(F(s), a, b, k)
            assert F(n, d) == b**k * fraction_horner(s, t, k)

    def test_zero_and_negative_t(self):
        assert moment(F(5, 2), 0, 6) == 0
        assert moment(2, -1, 2) == -1 + 2  # t + 2t^2 at t = -1
        assert moment(1, 0.5, 3) == F(1, 2) + 3 * F(1, 4) + F(1, 8)


class TestMoment:
    def test_first_moment_is_t(self):
        for s in (F(1, 3), 1, F(5, 2), 4):
            for t in (F(1, 7), 1, 3):
                assert moment(s, t, 1) == t

    def test_table_value(self):
        assert moment(2, 1, 4) == 55

    def test_fractional_parameter_closed_form_cross_check(self):
        # m_3 at s=1/2, t=1 from the stated closed form equals the explicit
        # odd-moment product formula 2^{-5} * 2/(11*5) * (2! 12!)/(4! 4! 6!)
        explicit = (
            F(1, 2**5)
            * F(2, 11 * 5)
            * F(
                math.factorial(2) * math.factorial(12),
                math.factorial(4) * math.factorial(4) * math.factorial(6),
            )
        )
        assert moment(F(1, 2), 1, 3) == explicit == F(21, 8)

    def test_fuss_narayana_poly_at_non_integer_s(self):
        s, t = F(5, 2), F(2, 3)
        series_m = moments_via_series(s, t, 8)
        for k in range(1, 9):
            value = sum(c * t**b for b, c in enumerate(fuss_narayana_poly(s, k)))
            assert value == moment(s, t, k) == series_m[k]

    def test_at_t_one_equals_fuss_catalan(self):
        for s in (1, 2, 3, F(1, 2), F(7, 3)):
            for k in range(1, 7):
                assert moment(s, 1, k) == fuss_catalan(s, k)

    def test_rejects_bad_k(self):
        with pytest.raises(ArgumentError):
            moment(1, 1, 0)


class TestTripleAgreement:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("t", [F(1, 4), F(1, 2), F(1)])
    def test_closed_form_series_partitions(self, s, t):
        series_m = moments_via_series(s, t, 8)
        for k in range(1, 7):
            closed = moment(s, t, k)
            assert series_m[k] == closed
            if s * k <= 14:
                part_sum = sum(
                    (t ** p.block_count for p in enumerate_nc_s(s, k)), F(0)
                )
                assert part_sum == closed

    def test_both_routes_agree(self):
        r1 = moments_via_series(2, F(1, 2), 12)  # s >= 1 route
        # route 2 is chosen only for s < 1, so build it here from the free convolutions
        pi = catalan_moments(12)
        r2 = free_mult(bernoulli_moments(F(1, 2), 12), boxtimes_power(pi, 2))
        assert r1.moments == r2.moments
        assert all(r1[k] == moment(2, F(1, 2), k) for k in range(1, 13))

    @pytest.mark.parametrize("s,t", [
        (2, F(5, 4)), (F(5, 2), F(7, 3)), (1, 3), (F(1, 2), F(1, 3)), (F(1, 3), 1)])
    def test_equals_the_free_convolutions(self, s, t):
        # one S transform (1+z)^(1-s)/(t+z) against each defining chain of free convolutions
        # that applies at (s, t); the chain's boxplus goes through free cumulants
        pi = catalan_moments(12)
        got = moments_via_series(s, t, 12)
        if s >= 1:
            route1 = free_mult(boxtimes_power(pi, s - 1), boxplus_power(pi, t))
            assert got.moments == route1.moments
        if t <= 1:
            route2 = free_mult(bernoulli_moments(t, 12), boxtimes_power(pi, s))
            assert got.moments == route2.moments
        assert all(got[k] == moment(s, t, k) for k in range(1, 13))

    @pytest.mark.parametrize("s,t", [(3, F(1, 2)), (F(5, 2), F(7, 3)), (F(1, 2), F(1, 3))])
    def test_reverts_once_per_s_transform(self, monkeypatch, s, t):
        # S_pi, then the way back to moments, on either defining route
        calls = []
        revert = series.revert
        monkeypatch.setattr(series, "revert", lambda g: calls.append(g) or revert(g))
        moments_via_series(s, t, 12)
        assert len(calls) == 2

    def test_rejects_rectangle(self):
        with pytest.raises(ValueError):
            moments_via_series(F(1, 2), 2, 6)


class TestRegionAndParams:
    def test_defined_region(self):
        assert in_defined_region(2, 5)
        assert in_defined_region(0.5, 0.5)
        assert in_defined_region(1, 8)
        assert not in_defined_region(0.5, 2)


class TestPhi:
    def test_zero(self):
        assert phi(2, 0.5, 0) == 0

    def test_s_one_critical_value(self):
        for t in (0.25, 0.5, 0.75):
            w_minus = (1 - math.sqrt(t)) / (1 - t)
            assert phi(1, t, w_minus) == pytest.approx(t / (1 + math.sqrt(t)) ** 2)

    def test_critical_points_are_stationary(self):
        for s, t in ((2, 0.5), (3, 0.25), (1.5, 0.5)):
            sup = support(s, t)
            h = 1e-6
            for w in (sup.w_minus, sup.w_plus):
                deriv = (phi(s, t, w + h) - phi(s, t, w - h)) / (2 * h)
                assert abs(deriv) < 1e-6

    def test_pole(self):
        with pytest.raises(ValueError):
            phi(2, 0.5, 1 / (1 - 0.5))

    def test_overflow_is_inf(self):
        # ratio^s past the double range at w_+ of (200, 0.99), where K_- = t/Phi is 0
        assert phi(200, 0.99, support(200, 0.99).w_plus) == math.inf


class TestSupport:
    def test_t_one(self):
        sup = support(1, 1)
        assert (sup.K_minus, sup.K_plus) == (0, 4)
        sup = support(2, 1)
        assert sup.K_plus == F(27, 4)
        assert sup.atom_mass == 0

    def test_t_one_at_a_fractional_s(self):
        # a non-integer s at t = 1 takes the float edge: K_+ = (s + 1)^(s + 1)/s^s
        sup = support(F(3, 2), 1)
        assert (sup.regime, sup.K_minus, sup.atom_mass) == ("t=1", 0, 0.0)
        with localcontext() as ctx:
            ctx.prec = 50
            exact = Decimal(25) / 6 * (Decimal(5) / 3).sqrt()  # 2.5^2.5/1.5^1.5
            assert abs(Decimal(sup.K_plus) - exact) <= 4 * Decimal(math.ulp(float(exact)))

    def test_s_one_both_sides_of_one(self):
        for t in (0.25, 4.0):
            sup = support(1, t)
            root = math.sqrt(t)
            assert float(sup.K_minus) == pytest.approx((1 - root) ** 2, abs=1e-10)
            assert float(sup.K_plus) == pytest.approx((1 + root) ** 2, abs=1e-10)

    def test_atom_mass_small_t(self):
        sup = support(2, 0.5)
        assert sup.regime == "t<1"
        assert sup.atom_mass == pytest.approx(0.5)
        assert 0 < sup.K_minus < sup.K_plus

    def test_atom_mass_of_a_rational_t_is_rounded_once(self):
        # 1 - float(1/3) rounds twice, to 0.6666666666666667
        assert support(2, F(1, 3)).atom_mass == 2 / 3

    def test_edges_past_the_double_range(self):
        # t * t overflows past t = 1.3e154
        with pytest.raises(ValueError, match="support edges"):
            support(2, 1e160)

    def test_large_t_regime(self):
        sup = support(2, 2.0)
        assert sup.regime == "t>1"
        assert sup.K_minus == 0 and sup.atom_mass == 0
        # right edge consistent with the stationary value of the alternate map
        w = sup.w_minus
        assert sup.K_plus == pytest.approx(
            (2 + (1 - 2) * w) / (w * (1 - w) ** 2) * 1 / 1, rel=1e-12
        )


    @pytest.mark.parametrize("s", _EDGE_S)
    def test_edges_match_the_critical_values_of_phi(self, s):
        # Phi's critical points cancel as t -> 0 and t -> 1 in doubles, and raised on both
        # sides (a pole of Phi at t <= 1e-100, division by zero next to t = 1); the ends
        # of the density curve at theta = 0 do not
        cells = [(s, t) for t in _EDGE_T if s >= 1 or t < 1]
        cells += [(200, 1 - 1e-12), (1000, 1 - 1e-9), (1e7, 1 + 1e-12)] * (s == _EDGE_S[-1])
        for s, t in cells:
            sup = support(s, t)
            k_minus, k_plus = phi_critical_values(s, t)
            edges = [(sup.K_plus, k_plus)] + [(sup.K_minus, k_minus)] * (t < 1 or s == 1)
            for value, exact in edges:
                if Decimal("2.3e-308") < exact < Decimal("1.7e308"):
                    assert abs(Decimal(value) - exact) <= Decimal("1e-13") * exact, (s, t)

    @pytest.mark.parametrize("t", [10.0**-e for e in range(1, 301, 3)]
                             + [0.25, 0.5, 0.9, 0.99, 1 - 1e-12, 1 + 1e-12, 2.0, 4.0])
    def test_s_one_edges_within_four_ulps(self, t):
        # (1 -+ sqrt t)^2; the critical points of Phi were 1.1e8 ulps off at t = 1e-16
        sup = support(1, t)
        with localcontext() as ctx:
            ctx.prec = 80
            root = Decimal(t).sqrt()
            for value, exact in ((sup.K_minus, (1 - root) ** 2), (sup.K_plus, (1 + root) ** 2)):
                assert abs(Decimal(value) - exact) <= 4 * Decimal(math.ulp(float(exact)))

    @pytest.mark.parametrize(
        "s, t, k_plus",
        [(110, 0.999, 300.0714539459725), (160, 0.99, 431.94779001876293),
         (200, 0.99, 539.59190678507183)],
    )
    def test_large_s_just_below_one(self, s, t, k_plus):
        # (1 - w)/(1 - (1 - t)w) at w_+ to the power s overflowed; K_- is near 1e-330
        # (40-digit K_+ values from the same formula)
        sup = support(s, t)
        assert sup.K_minus == 0.0
        assert sup.K_plus == pytest.approx(k_plus, rel=1e-13)
        grid = density_grid(s, t)
        assert all(math.isfinite(v) and v >= 0 for v in grid.values)
        assert abs(grid.quadrature_mass - t) <= 1e-8


class TestDensity:
    def test_s_one_t_one(self):
        xs = np.linspace(0.05, 3.95, 40)
        expected = np.sqrt(4 / xs - 1) / (2 * np.pi)
        assert np.allclose(density(1, 1.0, xs), expected, atol=1e-12)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_s_one_general_t(self, t):
        sup = support(1, t)
        xs = np.linspace(float(sup.K_minus) + 1e-3, float(sup.K_plus) - 1e-3, 25)
        expected = np.sqrt(4 * t - (xs - 1 - t) ** 2) / (2 * np.pi * xs)
        assert np.allclose(density(1, t, xs), expected, atol=1e-10)

    def test_penson_zyczkowski_s_two_t_one(self):
        # pi_21 = pi^(boxtimes 2) in closed form (Penson-Zyczkowski, Product of Ginibre
        # matrices: Fuss-Catalan and Raney distributions); the worst gap measured is 1.1e-14
        # at 6.7499, where the form's own sqrt(81 - 12x) cancels
        xs = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1, 2, 4, 6, 6.7, 6.7499])
        R = 27 + 3 * np.sqrt(81 - 12 * xs)
        c = np.cbrt(2)
        want = c * np.sqrt(3) / (12 * np.pi) * (c * np.cbrt(R) ** 2 - 6 * np.cbrt(xs)) / (
            np.cbrt(xs) ** 2 * np.cbrt(R))
        np.testing.assert_allclose(density(2, 1, xs), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("s", [1, 2, 3, 5, 8])
    def test_haagerup_moller_t_one(self, s):
        # pi_s1 = pi^(boxtimes s) in Haagerup-Moller's parametrization (The law of large numbers
        # for the free multiplicative convolution): on phi in (0, pi/(s+1)), x(phi) =
        # sin((s+1)phi)^(s+1)/(sin phi sin(s phi)^s) falls from K_+ to 0, and there rho =
        # sin(phi)^2 sin(s phi)^(s-1)/(pi sin((s+1)phi)^s).  phi is bisected at each x in
        # doubles; the worst gap measured is 1.1e-13 (s = 1).  From x/K_+ = 0.999999 on, x(phi)
        # is flat enough at phi = 0 that the double oracle itself loses digits.
        def x_of(phi):
            return math.sin((s + 1) * phi) ** (s + 1) / (math.sin(phi) * math.sin(s * phi) ** s)

        xs = (s + 1) ** (s + 1) / s**s * np.array(
            [1e-6, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99])
        want = []
        for x in xs:
            lo, hi = 0.0, math.pi / (s + 1)  # x(lo) > x > x(hi)
            while (phi := 0.5 * (lo + hi)) not in (lo, hi):
                lo, hi = (phi, hi) if x_of(phi) > x else (lo, phi)
            want.append(math.sin(phi) ** 2 * math.sin(s * phi) ** (s - 1)
                        / (math.pi * math.sin((s + 1) * phi) ** s))
        np.testing.assert_allclose(density(s, 1, xs), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
    def test_rejects_x_outside_the_domain(self, x):
        for xs in (x, np.array([1.0, x])):
            with pytest.raises(ArgumentError, match="x must be positive"):
                density(2, 0.5, xs)

    def test_zero_outside_support(self):
        assert density(2, 1.0, 27 / 4 + 0.01) == 0
        assert density(2, 1.0, 10.0) == 0

    def test_vanishes_at_edges_small_t(self):
        sup = support(2, 0.5)
        assert density(2, 0.5, float(sup.K_minus) + 1e-8) < 5e-3
        assert density(2, 0.5, float(sup.K_plus) - 1e-8) < 5e-3

    def test_vanishes_at_right_edge_large_t(self):
        sup = support(2, 2.0)
        assert density(2, 2.0, float(sup.K_plus) - 1e-8) < 5e-3

    @pytest.mark.parametrize("s, t", [(s, t) for s in range(1, 6) for t in (0.1, 0.5, 0.9)]
                             + [(1, 2.0), (1, 6.0)])
    def test_zero_in_gap_below_bulk(self, s, t):
        k_minus = float(support(s, t).K_minus)
        assert k_minus > 0
        xs = k_minus * np.array([1e-6, 0.1, 0.5, 0.999, 1.0])
        assert np.all(density(s, t, xs) == 0)
        assert density(s, t, 0.01 * k_minus) == 0
        # bulk points in the same call are unaffected by the gap points
        inside = float(np.mean([k_minus, float(support(s, t).K_plus)]))
        both = density(s, t, np.append(xs, inside))
        assert both[-1] == density(s, t, inside) > 0

    def test_branch_is_lower_half_plane(self):
        xs = np.linspace(0.2, 6.7, 60)
        gs = physical_roots(2, 1.0, xs)
        assert np.all(gs.imag <= 0)

    @pytest.mark.parametrize("s", range(1, 7))
    @pytest.mark.parametrize("t", [0.35, 0.8, 1.0, 2.5])
    def test_matches_continuation_on_quadrature_nodes(self, s, t):
        # the oracle's own error, up to 8.8e-10 of the peak, is most of the gap
        xs = graded_path(s, t)
        oracle = continued_density(s, t, xs)
        assert np.max(np.abs(density(s, t, xs) - oracle)) <= 1e-9 * oracle.max()

    @pytest.mark.parametrize("s", range(1, 9))
    @pytest.mark.parametrize("t", [0.01, 0.3, 0.99, 1.0, 1.01, 2.5, 30.0])
    def test_matches_companion_on_grid(self, s, t):
        xs = np.array(density_grid(s, t).abscissae)
        oracle = companion_density(s, t, xs)
        assert np.max(np.abs(density(s, t, xs) - oracle)) <= 2e-9 * oracle.max()

    @pytest.mark.parametrize("s, t", [(2, 0.5), (3, 0.1), (4, 2.0), (6, 0.8)])
    def test_single_point_equals_dense_call(self, s, t):
        grid = density_grid(s, t, n_points=200)
        for i in (0, 1, 57, 120, 199):
            assert density(s, t, grid.abscissae[i]) == grid.values[i]

    def test_sparse_call_lands_on_physical_root(self):
        # the continuation, seeded far out and stepping straight to this one
        # point, gave 0.583; the 400-point grid reads 0.0900 here
        x = 0.33300264
        value = density(3, 0.1, x)
        assert value == pytest.approx(0.090045, abs=1e-6)
        oracle = continued_density(3, 0.1, np.append(graded_path(3, 0.1), x))
        assert abs(value - oracle[-1]) <= 1e-9 * oracle.max()

    def test_first_grid_point_near_left_edge(self):
        # the continuation along the 400-point grid alone gave 61.3 here
        grid = density_grid(3, 0.75)
        oracle = continued_density(3, 0.75, np.append(graded_path(3, 0.75), grid.abscissae[0]))
        assert abs(grid.values[0] - oracle[-1]) <= 1e-9 * oracle.max()
        assert grid.values[0] < 1

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6, 85, 100])
    def test_haagerup_moller_curve_at_t_one(self, s):
        # Haagerup-Moller (arXiv:1211.4457): the Fuss-Catalan density as a
        # curve (x(phi), rho(phi)), 0 < phi < pi/(s+1)
        phis = np.linspace(0.01, np.pi / (s + 1) - 0.01, 80)
        sin = np.sin
        xs = sin((s + 1) * phis) ** (s + 1) / (sin(phis) * sin(s * phis) ** s)
        rho = sin(phis) ** 2 * sin(s * phis) ** (s - 1) / (np.pi * sin((s + 1) * phis) ** s)
        assert np.allclose(density(s, 1.0, xs), rho, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("s", range(1, 9))
    @pytest.mark.parametrize("t", [0.3, 0.99, 1.0, 1.01, 2.5])
    def test_curve_matches_root_solve(self, s, t):
        # the curve u = xG, the Haagerup-Moller form above at every t, against
        # the companion oracle, on a theta grid away from both ends
        if t < 1:
            end, roots = _theta_min(s, t), (0, 1)
        else:
            end, roots = -np.pi / (s + 1 if t == 1 else s), (None,)
        thetas = end * np.linspace(0.98, 0.02, 60)
        for root in roots:
            u, xs, *_ = _curve(s, t, thetas, root)
            oracle = companion_density(s, t, xs)
            assert np.allclose(oracle, -u.imag / (np.pi * xs), rtol=1e-7, atol=0)

    @pytest.mark.parametrize("s, t", [(43, 0.5), (69, 0.1), (85, 1.0), (200, 2.0)])
    def test_large_s_grid(self, s, t):
        # x^s underflows in the companion matrix here; the curve holds no x^s
        values = np.array(density_grid(s, t).values)
        assert np.all(np.isfinite(values)) and np.all(values >= 0) and values.max() > 0

    @pytest.mark.parametrize("s, t", [(2, 0.5), (5, 0.01), (7, 0.01), (3, 2.0), (1, 1.0)])
    def test_points_within_ulps_of_an_edge(self, s, t):
        # rounding can put these past the end of the curve, where no first-order
        # step along it holds
        sup = support(s, t)
        edges = [(float(sup.K_plus), -1)] + [(float(sup.K_minus), 1)] * (sup.K_minus > 0)
        xs = np.array([e + d * k * np.spacing(e) for e, d in edges for k in range(1, 6)])
        values = density(s, t, xs)
        assert np.all((values >= 0) & (values <= 1e-6 * max(density_grid(s, t).values)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            density(2, 0.5, float("nan"))
        with pytest.raises(ValueError):
            density(2, 0.5, np.array([1.0, np.nan]))

    def test_below_curve_resolution_near_zero(self):
        # x ~ (theta - start)^2 at s = 1, t = 1: theta holds x down to about 1e-19
        x = np.array([1e-15, 1e-10])
        expected = np.sqrt(4 / x - 1) / (2 * np.pi)
        assert np.allclose(density(1, 1.0, x), expected, rtol=1e-9, atol=0)
        with pytest.raises(ValueError, match="resolution"):
            density(1, 1.0, 1e-25)

    def test_rejects_fractional_s(self):
        # s = 1.5 must not pair the density of s = 1 with the support of s = 1.5
        with pytest.raises(ValueError):
            density(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            density_grid(1.5, 1.0)
        with pytest.raises(ValueError):
            quadrature_moments(1.5, 1.0, 2)

    def test_rejects_t_not_positive(self):
        # the check comes before support, which divides by t; it is made on the
        # float computed with, so a positive t that rounds to 0.0 is refused too
        for t in (0.0, -1.0, float("nan"), F(1, 10**400)):
            with pytest.raises(ArgumentError):
                density_grid(2, t)

    def test_rejects_parameter_past_the_double_range(self):
        for call, name in ((lambda: density(2, F(10**400), 1.0), "t"),
                           (lambda: density_grid(10**400, 1), "s"),
                           (lambda: quadrature_moments(2, 10**400, 2), "t"),
                           (lambda: existence_probe(F(10**400), 1), "s"),
                           (lambda: existence_probe(1, float("inf")), "t")):
            with pytest.raises(ArgumentError, match=f"^{name} must be a finite number"):
                call()

    def test_rejects_negative_moment_count(self):
        for call in (lambda: quadrature_moments(2, 0.5, -1), lambda: density_grid(2, 0.5, 5, -1)):
            with pytest.raises(ArgumentError, match="k_max must be >= 0"):
                call()

    @pytest.mark.parametrize("n_points", [0, -1])
    def test_rejects_an_empty_grid(self, n_points):
        with pytest.raises(ArgumentError, match="n_points must be >= 1"):
            density_grid(2, 0.5, n_points)

    def test_one_plan_per_cell(self, monkeypatch):
        # the bisection of theta_min and the support are each computed once for the three calls
        calls = {"_theta_min": 0, "support": 0}
        for name in calls:
            def counted(*args, name=name, inner=getattr(freelaws, name)):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(freelaws, name, counted)
        freelaws._plan.cache_clear()
        density_grid(3, 0.75, 400, 6)
        quadrature_moments(3, 0.75, 6)
        density(3, 0.75, 1.0)
        assert calls == {"_theta_min": 1, "support": 1}


class TestQuadrature:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_mass_and_moments(self, s, t):
        vals = quadrature_moments(s, t, 6)
        assert vals[0] == pytest.approx(min(t, 1.0), abs=1e-5)
        for k in range(1, 7):
            assert vals[k] == pytest.approx(float(moment(s, t, k)), abs=1e-5)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_edge_law_at_t_one(self, s):
        x = 1e-6
        value = math.pi * density(s, 1.0, x) * x ** (s / (s + 1))
        target = math.sin(math.pi * s / (s + 1))
        assert value == pytest.approx(target, rel=0.05)

    @pytest.mark.parametrize("s", range(1, 6))
    def test_small_t_mass(self, s):
        t = 1e-6
        mass = quadrature_moments(s, t, 2)[0]
        assert mass == pytest.approx(t, rel=1e-5)

    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    def test_tiny_t(self, s):
        # with r and 1 - c held as doubles the mass was 2.6e-7 off at (2, 1e-20), and the
        # mass check refused every cell from t = 1e-30 down
        for e in range(15, 301):
            t = 10.0**-e
            exact = [t] + [float(moment(s, t, k)) for k in range(1, 4)]
            assert quadrature_moments(s, t, 3) == pytest.approx(exact, rel=2e-12, abs=0), e

    @pytest.mark.parametrize(
        "s, t, rel",
        [(s, t, 1e-9) for s in range(1, 13)
         for t in (1e-12, 1e-9, 1e-6, 1e-3, 0.3, 0.99, 1.0, 1.01, 1.25, 2.5, 30.0)]
        # nodes cluster where the curve turns sharply as t -> 1; the weights
        # hold no x, whose powers underflow near 0 for s >= 7
        + [(6, 0.999, 1e-9), (20, 1.0, 1e-9)] + [(s, 2.0, 1e-9) for s in (7, 8, 10, 12, 20)]
        + [(s, t, 1e-5) for s in range(1, 13) for t in (1 - 1e-4, 1 + 1e-4, 1 - 1e-6, 1 + 1e-6)],
    )
    def test_closed_form(self, s, t, rel):
        vals = quadrature_moments(s, t, 6)
        assert vals[0] == pytest.approx(min(t, 1.0), rel=rel, abs=0)
        for k in range(1, 7):
            assert vals[k] == pytest.approx(float(moment(s, t, k)), rel=rel, abs=0)

    @pytest.mark.parametrize("call", [lambda: quadrature_moments(2, 1e160, 0),
                                      lambda: quadrature_moments(3, 1e155, 2),
                                      lambda: density(2, 1e160, 1.0),
                                      lambda: density_grid(2, 1e160)],
                             ids=["mass", "moments", "density", "grid"])
    def test_overflowing_t_raises_only_the_mass_check(self, call):
        # t * t overflows in _roots past t = 1.3e154; no numpy warning may escape first
        with pytest.raises(ValueError, match="quadrature mass"):
            call()

    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    def test_subnormal_t_raises_only_the_mass_check(self, s):
        # _curve divides by 0 and _theta_min's bisection meets NaN; no numpy warning may escape
        for t in (1e-309, 1e-320, 5e-324):
            with pytest.raises(ValueError, match="quadrature mass"):
                quadrature_moments(s, t, 0)
        assert quadrature_moments(s, 2e-308, 0)[0] == pytest.approx(2e-308, rel=1e-5)


class TestDensityGrid:
    def test_mass_s1_t1(self):
        grid = density_grid(1, 1.0, n_points=50)
        assert grid.quadrature_mass == pytest.approx(1.0, abs=1e-6)

    def test_atom_half(self):
        grid = density_grid(2, 0.5, n_points=50)
        assert grid.support_info.atom_mass == pytest.approx(0.5)
        assert grid.quadrature_mass == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("t", [F(1, 2), 1, 2])
    def test_moments_are_quadrature_moments(self, t):
        grid = density_grid(2, t, 50, 3)
        assert (grid.quadrature_mass, *grid.quadrature_moments) == quadrature_moments(2, t, 3)

    def test_serialization(self):
        grid = density_grid(2, 1.0, n_points=10)
        data = grid.as_dict()
        assert data["support"]["K_plus"] == pytest.approx(27 / 4)
        assert len(data["grid"]["x"]) == 10
        csv = grid.to_csv()
        assert csv.splitlines()[0] == "x,density"
        assert len(csv.splitlines()) == 11


# (s, t, failing H0 minor) at order 8 on the grid 0.1:3:30 x 0.1:6:30: inside the
# rectangle, yet the old float eigenvalue test with tolerance 1e-10 passed them
_FLOAT_MISSES = [
    (F(3, 5), F(162, 145), 9),
    (F(4, 5), F(383, 290), 8),
    (F(9, 10), F(221, 145), 9),
    (F(9, 10), F(501, 290), 7),
]


def _hankel(s, t, order, shift):
    ms = [F(1)] + [moment(s, t, k) for k in range(1, 2 * order + 2)]
    return [[ms[i + j + shift] for j in range(order + 1)] for i in range(order + 1)]


def _leading_minors(h):
    """det h[:k, :k] for k = 1..n, each by Fraction Gaussian elimination with row swaps."""
    minors = []
    for k in range(1, len(h) + 1):
        a, det = [row[:k] for row in h[:k]], F(1)
        for c in range(k):
            p = next((r for r in range(c, k) if a[r][c] != 0), None)
            if p is None:
                det = F(0)
                break
            if p != c:
                a[c], a[p], det = a[p], a[c], -det
            det *= a[c][c]
            for r in range(c + 1, k):
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        minors.append(det)
    return minors


def _oracle(s, t, order):
    """(matrix, size) of the first negative leading minor of H0, then H1."""
    for name, shift in (("H0", 0), ("H1", 1)):
        for k, det in enumerate(_leading_minors(_hankel(s, t, order, shift)), 1):
            if det < 0:
                return name, k
    return None, None


def full_square_probe(s, t, order):
    """(passed, failed_minor, failed_matrix): Bareiss on the full square blocks of the
    unscaled moments over their common denominator, the probe's oracle."""
    n = order + 1
    ints, _ = _over_common_denominator(
        [F(1)] + [moment(s, t, k) for k in range(1, 2 * order + 2)]
    )
    for name, shift in (("H0", 0), ("H1", 1)):
        rows, prev, bound = [ints[i + shift:i + shift + n] for i in range(n)], 1, n + 1
        for j in range(1, n + 1):
            (pivot, *head), *tail = rows
            if pivot < 0 or j == bound:
                return False, j, name
            if pivot == 0:
                bound = min(bound, j + 1 + next((i for i, b in enumerate(head) if b), n))
                rows = [row[1:] for row in tail]
                continue
            rows = [[(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], head)]
                    for row in tail]
            prev = pivot
    return True, None, None


def _grid(lo, hi, count):
    return [F(lo) + (F(hi) - F(lo)) * i / (count - 1) for i in range(count)]


_ZERO_PIVOT_CELLS = [(0, F(1, 2)), (0, 1), (0, 2), (F(1, 2), 2), (F(3, 5), F(5, 2)),
                     (F(4, 5), F(5, 2))]


class TestProbeOracle:
    @pytest.mark.parametrize(
        "s_grid, t_grid, order",
        [((F(1, 10), 3, 30), (F(1, 10), 6, 30), 8), ((0, 2, 21), (0, 8, 17), 6)],
        ids=["benchmark-grid", "zero-pivot-grid"],
    )
    def test_matches_full_square_probe(self, s_grid, t_grid, order):
        for s in _grid(*s_grid):
            for t in _grid(*t_grid):
                r = existence_probe(s, t, order)
                assert (r.passed, r.failed_minor, r.failed_matrix) == full_square_probe(
                    s, t, order), (s, t)

    @pytest.mark.parametrize("order", [6, 8])
    @pytest.mark.parametrize("s, t", _ZERO_PIVOT_CELLS)
    def test_zero_pivot_cells(self, s, t, order):
        r = existence_probe(s, t, order)
        assert (r.passed, r.failed_minor, r.failed_matrix) == full_square_probe(s, t, order)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from([0, F(1, 2), F(3, 5), F(4, 5)]), st.integers(0, 4),
                     st.fractions(min_value=0, max_value=4, max_denominator=6)),
           st.one_of(st.sampled_from([0, 1, 2, F(5, 2), 6, -1]), st.integers(-2, 8),
                     st.fractions(min_value=-2, max_value=8, max_denominator=6)),
           st.integers(min_value=0, max_value=9))
    def test_random_cells(self, s, t, order):
        # s = 0, t = 0 and the zero-minor cells take the elimination, the rest the table; the
        # rectangle fails in H0, and t < 0 (m_1 < 0) can fail in H1 first
        r = existence_probe(s, t, order)
        assert (r.passed, r.failed_minor, r.failed_matrix) == full_square_probe(s, t, order)

    @pytest.mark.parametrize("s, t, levels", [
        (F(1, 2), F(1, 2), 7), (2, F(3, 2), 7), (F(3, 10), 6, 7), (F(1, 2), 2, 7),
        (F(4, 5), F(5, 2), 7), (0, 2, 3), (0, F(1, 2), 3),
    ])
    def test_table_minors(self, s, t, levels):
        # over the common denominator d, the k-th minors of the integer blocks are d^k times
        # those of the moments; at s = 0 the table stops before its first zero divisor
        order = 6
        c, d = _over_common_denominator([F(1)] + [moment(s, t, k) for k in range(1, 2 * order + 2)])
        h0, h1 = (_leading_minors(_hankel(s, t, order, shift)) for shift in (0, 1))
        got = list(_hankel_minors(c))
        assert len(got) == levels
        assert got == [(d**k * a, d**k * b) for k, a, b in zip(range(1, levels + 1), h0, h1)]


class TestExistenceProbe:
    def test_passes_in_defined_region(self):
        assert existence_probe(1, 2, 6).passed
        assert existence_probe(2, F(1, 2), 6).passed

    def test_fails_inside_rectangle(self):
        report = existence_probe(0.3, 6.0, 6)
        assert not report.passed
        assert report.failed_minor is not None
        assert report.failed_matrix in ("H0", "H1")

    @pytest.mark.parametrize("order", [6, 8])
    def test_first_failing_minor_is_not_masked(self, order):
        # variance t + (s-1) t^2 = -12 < 0 at (1/2, 6): the 2x2 minor fails,
        # whatever the size of the later entries
        report = existence_probe(F(1, 2), 6, order)
        assert (report.failed_matrix, report.failed_minor) == ("H0", 2)

    def test_rejects_negative_order(self):
        with pytest.raises(ArgumentError, match="order must be >= 0"):
            existence_probe(2, 0.5, -1)

    def test_report_dict(self):
        d = existence_probe(1, 1, 4).as_dict()
        assert d["passed"] is True and d["order"] == 4

    def test_bernoulli_zero_pivots(self):
        # s = 0 gives Bernoulli(t) moments m_k = t; the blocks are singular
        # from minor 3 (H0) and minor 2 (H1), with zero rows left there
        assert existence_probe(0, F(1, 2), 6).passed
        assert existence_probe(0, 1, 6).passed
        report = existence_probe(0, 2, 6)
        assert (report.failed_matrix, report.failed_minor) == ("H0", 2)

    @pytest.mark.parametrize(
        "s, t, minor", [(F(1, 2), 2, 3), (F(3, 5), F(5, 2), 3), (F(4, 5), F(5, 2), 4)]
    )
    def test_zero_pivot_with_nonzero_row(self, s, t, minor):
        # the leading minor before `minor` is 0 and its row is not: the next
        # block holds [[0, b], [b, c]], b != 0, and is indefinite
        minors = _leading_minors(_hankel(s, t, 6, 0))
        assert minors[minor - 2] == 0 and minors[minor - 1] < 0
        report = existence_probe(s, t, 6)
        assert (report.failed_matrix, report.failed_minor) == ("H0", minor)

    @pytest.mark.parametrize("s, t, minor", _FLOAT_MISSES)
    def test_cells_the_float_test_passed(self, s, t, minor):
        report = existence_probe(s, t, 8)
        assert (report.failed_matrix, report.failed_minor) == ("H0", minor)

    def test_matches_leading_minor_oracle(self):
        cells = [(F(1 + i, 10), t, 6) for i in range(10)
                 for t in (F(1, 2), 1, F(3, 2), 2, F(5, 2), 4, 5, 6)]
        cells += [(s, t, 8) for s, t, _ in _FLOAT_MISSES]
        for s, t, order in cells:
            report = existence_probe(s, t, order)
            assert (report.failed_matrix, report.failed_minor) == _oracle(s, t, order)
