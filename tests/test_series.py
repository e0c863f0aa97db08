"""Exact series pipeline: reversion, transforms, cumulants, free convolutions."""

from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebessel.partitions import ArgumentError, enumerate_nc_s, fuss_catalan
from freebessel.series import (
    CumulantSequence,
    MomentSequence,
    RationalSeries,
    _nth_root,
    bernoulli_moments,
    boxplus_power,
    boxtimes_power,
    catalan_moments,
    classical_cumulants,
    eta_and_sigma,
    free_add,
    free_cumulants,
    free_mult,
    free_poisson_moments,
    moments_from_classical_cumulants,
    moments_from_free_cumulants,
    moments_from_s,
    revert,
    s_transform,
)

F = Fraction


def series(*coeffs, order=None):
    return RationalSeries.from_coeffs([F(c) for c in coeffs], order=order)


def geometric(c, order):
    """Series of 1/(1 - c z)."""
    return RationalSeries.from_coeffs([F(c) ** n for n in range(order + 1)])


small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)


def rational_series(order, c0=None, c1_nonzero=False):
    def build(coeffs):
        if c0 is not None:
            coeffs = [F(c0)] + coeffs[1:]
        if c1_nonzero and coeffs[1] == 0:
            coeffs[1] = F(1)
        return RationalSeries.from_coeffs(coeffs, order=order)

    return st.lists(
        small_fractions, min_size=order + 1, max_size=order + 1
    ).map(build)


def moment_sequences(order, m1_nonzero=True):
    def build(values):
        if m1_nonzero and values[0] == 0:
            values[0] = F(1)
        return MomentSequence.from_values(values)

    return st.lists(small_fractions, min_size=order, max_size=order).map(build)


def revert_newton(g: RationalSeries) -> RationalSeries:
    """Compositional inverse by Newton iteration on series: the oracle for revert()."""
    n = g.order
    x = RationalSeries.from_coeffs([0, 1 / g.coeffs[1]], n)
    prec = 1
    gd = RationalSeries(
        tuple((i + 1) * g.coeffs[i + 1] for i in range(n)), n - 1
    )
    while prec < n:
        prec = min(2 * prec, n)
        err = g.compose(x) - RationalSeries.from_coeffs([0, 1], n)
        inv = gd.compose(x.truncate(n - 1)).inverse()
        # padding inv to order n is harmless: err vanishes to order >= 2
        corr = err * RationalSeries.from_coeffs(inv.coeffs, n)
        x = x - corr
    return x


def schoolbook_product(f: RationalSeries, g: RationalSeries) -> RationalSeries:
    """The Fraction Cauchy product that the integer kernel replaced: the oracle for f * g."""
    n = min(f.order, g.order)
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        ci = f.coeffs[i]
        if ci == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ci * g.coeffs[j]
    return RationalSeries(tuple(out), n)


def egf_log(f: RationalSeries) -> RationalSeries:
    """log f for f_0 = 1 from f' = g' f, n g_n = n f_n - sum_(k<n) k g_k f_(n-k): the EGF route
    that classical_cumulants replaced, kept as its oracle."""
    g = [F(0)]
    for n in range(1, f.order + 1):
        g.append(f.coeffs[n] - sum((k * g[k] * f.coeffs[n - k] for k in range(1, n)), F(0)) / n)
    return RationalSeries(tuple(g), f.order)


def egf_exp(g: RationalSeries) -> RationalSeries:
    """exp g for g_0 = 0 from f' = g' f, n f_n = sum_(k<=n) k g_k f_(n-k): the oracle for
    moments_from_classical_cumulants."""
    f = [F(1)]
    for n in range(1, g.order + 1):
        f.append(sum(k * g.coeffs[k] * f[n - k] for k in range(1, n + 1)) / n)
    return RationalSeries(tuple(f), g.order)


def power_by_products(f: RationalSeries, n: int) -> RationalSeries:
    """f^n for n >= 0 as n products."""
    out = series(1, order=f.order)
    for _ in range(n):
        out = out * f
    return out


# wider than small_fractions, and zero as often as not
product_coeffs = st.one_of(
    st.just(F(0)), st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
)


def any_order_series(max_order):
    return st.lists(product_coeffs, min_size=1, max_size=max_order + 1).map(
        RationalSeries.from_coeffs
    )


class TestProduct:
    @settings(max_examples=100, deadline=None)
    @given(any_order_series(12), any_order_series(12))
    def test_matches_schoolbook(self, f, g):
        product = f * g
        assert product == schoolbook_product(f, g)
        assert all(type(c) is F for c in product.coeffs)

    def test_order_zero_and_unequal_orders(self):
        assert series(F(-2, 3)) * series(F(9, 4), 5, 7) == series(F(-3, 2))
        assert series(0, order=3) * series(F(1, 2), 1) == series(0, 0)
        f, g = series(F(1, 2), F(-1, 3), 0, F(5, 7)), series(3, F(1, 6), order=6)
        assert f * g == schoolbook_product(f, g) == series(F(3, 2), F(-11, 12), F(-1, 18), F(15, 7))


class TestPow:
    @pytest.mark.parametrize("sign", [1, -1])
    @settings(max_examples=60, deadline=None)
    @given(rational_series(7).filter(lambda f: f.coeffs[0] != 0), st.integers(-3, 4))
    def test_integer_power_is_repeated_product(self, sign, f, n):
        f = RationalSeries.from_coeffs((sign * abs(f.coeffs[0]),) + f.coeffs[1:])
        one = series(1, order=f.order)
        if n >= 0:
            assert f.pow(n) == power_by_products(f, n)
        else:
            assert f.pow(n) * power_by_products(f, -n) == one
            assert f.pow(n) == power_by_products(f.inverse(), -n)
        assert f * f.inverse() == one

    @settings(max_examples=60, deadline=None)
    @given(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4), st.integers(2, 3),
           st.integers(-4, 4), rational_series(7))
    def test_root_then_power(self, base, q, p, tail):
        # c_0 = base^q is a q-th power, so f^(p/q) is rational
        f = RationalSeries.from_coeffs((base**q,) + tail.coeffs[1:])
        assert f.pow(F(p, q)).pow(q) == f.pow(p)

    def test_square_root_of_a_square(self):
        f = series(F(9, 4), 3, 1, order=6)  # (3/2 + z)^2
        assert f.pow(F(1, 2)) == series(F(3, 2), 1, order=6)
        assert f.pow(F(-1, 2)) == series(F(3, 2), 1, order=6).inverse()

    @pytest.mark.parametrize("c0,r", [(0, 2), (0, -1), (0, F(1, 2)), (-4, F(1, 2)),
                                      (-1, F(-3, 2))])
    def test_rejects_a_constant_term_outside_the_domain(self, c0, r):
        with pytest.raises(ValueError):
            series(c0, 1, 2).pow(r)

    def test_inverse_rejects_zero_constant_term(self):
        with pytest.raises(ValueError):
            series(0, 1, 2).inverse()


NC_ORACLE_MAX = 10
# block-size multisets of NC(n) with their multiplicities, n = 1..NC_ORACLE_MAX
NC_BLOCK_TYPES = {
    n: Counter(tuple(sorted(map(len, p.blocks))) for p in enumerate_nc_s(1, n))
    for n in range(1, NC_ORACLE_MAX + 1)
}


class TestRevert:
    def test_identity(self):
        g = series(0, 1, order=8)
        assert revert(g).coeffs == g.coeffs

    def test_signed_catalan(self):
        g = series(0, 1, 1, order=8)
        inv = revert(g)
        # coefficients of the inverse of z + z^2 are signed Catalan numbers
        expected = [F(0)] + [
            (-1) ** (k - 1) * fuss_catalan(1, k - 1) for k in range(1, 9)
        ]
        assert list(inv.coeffs) == expected

    def test_psi_of_quarter_circle_family(self):
        # psi of the (1,2,5,14,...) moment law reverts to z/(1+z)^2
        psi = catalan_moments(10).stieltjes() - series(1, order=10)
        chi = revert(psi)
        expected = [F(0)] + [(-1) ** (k - 1) * k for k in range(1, 11)]
        assert list(chi.coeffs) == expected

    def test_rejects_zero_linear_term(self):
        with pytest.raises(ValueError):
            revert(series(0, 0, 1, order=5))

    @settings(max_examples=40, deadline=None)
    @given(rational_series(8, c0=0, c1_nonzero=True))
    def test_round_trip(self, g):
        assert revert(revert(g)).coeffs == g.coeffs

    @settings(max_examples=40, deadline=None)
    @given(rational_series(8, c0=0, c1_nonzero=True))
    def test_newton_agrees_with_lagrange(self, g):
        assert revert_newton(g).coeffs == revert(g).coeffs

    @settings(max_examples=40, deadline=None)
    @given(rational_series(8, c0=0, c1_nonzero=True))
    def test_composition_is_identity(self, g):
        inv = revert(g)
        comp = g.compose(inv)
        assert list(comp.coeffs) == [F(0), F(1)] + [F(0)] * (comp.order - 1)


class TestSTransform:
    def test_catalan_family(self):
        S = s_transform(catalan_moments(10))
        assert list(S.coeffs) == [(-1) ** n for n in range(S.order + 1)]

    def test_compound_parameter_two(self):
        S = s_transform(free_poisson_moments(2, 10))
        # 1/(2+z) = (1/2) * 1/(1 + z/2)
        expected = [F(-1, 2) ** (n + 1) * (-1) for n in range(S.order + 1)]
        assert list(S.coeffs) == expected

    def test_point_mass_at_one(self):
        S = s_transform(MomentSequence.from_values([1] * 10))
        assert list(S.coeffs) == [F(1)] + [F(0)] * S.order

    def test_rejects_zero_mean(self):
        with pytest.raises(ValueError):
            s_transform(MomentSequence.from_values([0, 1, 0, 1]))

    def test_rejects_no_moments(self):
        with pytest.raises(ArgumentError, match="^order must be >= 1"):
            s_transform(MomentSequence(()))


class TestMomentsFromS:
    def test_catalan(self):
        m = moments_from_s(geometric(-1, 10), 9)
        assert [m[k] for k in range(1, 10)] == [
            fuss_catalan(1, k) for k in range(1, 10)
        ]

    def test_all_ones(self):
        m = moments_from_s(series(1, order=10), 9)
        assert all(m[k] == 1 for k in range(1, 10))

    def test_squared_geometric_gives_quadratic_family(self):
        S = geometric(-1, 12) * geometric(-1, 12)  # 1/(1+z)^2
        m = moments_from_s(S, 8)
        assert [m[k] for k in range(1, 5)] == [1, 3, 12, 55]

    @settings(max_examples=30, deadline=None)
    @given(moment_sequences(8))
    def test_round_trip(self, m):
        S = s_transform(m)
        back = moments_from_s(S, S.order)
        assert all(back[k] == m[k] for k in range(1, S.order + 1))

    def test_rejects_order_zero(self):
        for order in (0, -1, 2.0):
            with pytest.raises(ArgumentError, match="^order must be >= 1"):
                moments_from_s(RationalSeries.from_coeffs([1]), order)


class TestFreeCumulants:
    def test_catalan_all_ones(self):
        kappa = free_cumulants(catalan_moments(10))
        assert all(kappa[n] == 1 for n in range(1, 11))

    def test_point_mass(self):
        c = F(3, 2)
        m = MomentSequence.from_values([c**n for n in range(1, 9)])
        kappa = free_cumulants(m)
        assert kappa[1] == c
        assert all(kappa[n] == 0 for n in range(2, 9))

    def test_even_support_cumulants(self):
        # kappa_n = t for even n, 0 for odd -> m_2 = t, m_4 = t + 2t^2
        t = F(1, 3)
        kappa = CumulantSequence.from_values(
            "free", [t if n % 2 == 0 else F(0) for n in range(1, 9)]
        )
        m = moments_from_free_cumulants(kappa)
        assert m[1] == 0
        assert m[2] == t
        assert m[3] == 0
        assert m[4] == t + 2 * t**2

    @settings(max_examples=30, deadline=None)
    @given(moment_sequences(8, m1_nonzero=False))
    def test_round_trip(self, m):
        back = moments_from_free_cumulants(free_cumulants(m))
        assert all(back[k] == m[k] for k in range(1, 9))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(small_fractions, min_size=NC_ORACLE_MAX, max_size=NC_ORACLE_MAX))
    def test_moments_are_noncrossing_sums(self, values):
        # m_n = sum over pi in NC(n) of prod over blocks V of kappa_|V|
        kappa = CumulantSequence.from_values("free", values)
        m = moments_from_free_cumulants(kappa)
        for n, types in NC_BLOCK_TYPES.items():
            expected = sum(
                (count * prod(kappa[b] for b in sizes) for sizes, count in types.items()),
                F(0),
            )
            assert m[n] == expected


class TestClassicalCumulants:
    def test_poisson(self):
        t = F(2, 5)
        # Poisson moments via the recursion m_{n+1} = t * sum binom(n,j) m_j
        moments = [t]
        for n in range(1, 8):
            prev = [F(1)] + moments
            from math import comb

            moments.append(t * sum(comb(n, j) * prev[j] for j in range(n + 1)))
        c = classical_cumulants(MomentSequence.from_values(moments))
        assert all(c[n] == t for n in range(1, 9))

    def test_point_mass(self):
        c0 = F(-2)
        m = MomentSequence.from_values([c0**n for n in range(1, 9)])
        c = classical_cumulants(m)
        assert c[1] == c0
        assert all(c[n] == 0 for n in range(2, 9))

    @settings(max_examples=30, deadline=None)
    @given(moment_sequences(8, m1_nonzero=False))
    def test_matches_the_egf_route(self, m):
        # c_n = n! [z^n] log(1 + sum m_n z^n/n!), and back by the exponential
        egf = RationalSeries.from_coeffs([F(1)] + [m[k] / factorial(k) for k in range(1, 9)])
        c = classical_cumulants(m)
        assert [c[k] for k in range(1, 9)] == [egf_log(egf)[k] * factorial(k) for k in range(1, 9)]
        lg = RationalSeries.from_coeffs([F(0)] + [c[k] / factorial(k) for k in range(1, 9)])
        back = moments_from_classical_cumulants(c)
        assert [back[k] for k in range(1, 9)] == [egf_exp(lg)[k] * factorial(k)
                                                  for k in range(1, 9)]

    @settings(max_examples=30, deadline=None)
    @given(moment_sequences(8, m1_nonzero=False))
    def test_round_trip(self, m):
        back = moments_from_classical_cumulants(classical_cumulants(m))
        assert all(back[k] == m[k] for k in range(1, 9))


class TestFreeAdd:
    def test_double_compound(self):
        pi = catalan_moments(8)
        m = free_add(pi, pi)
        assert m[2] == 6

    def test_neutral_element(self):
        mu = free_poisson_moments(F(1, 2), 8)
        delta0 = MomentSequence.from_values([0] * 8)
        out = free_add(mu, delta0)
        assert all(out[k] == mu[k] for k in range(1, 9))

    def test_semigroup(self):
        a, b = F(1, 3), F(3, 4)
        lhs = free_add(
            boxplus_power(catalan_moments(8), a), boxplus_power(catalan_moments(8), b)
        )
        rhs = boxplus_power(catalan_moments(8), a + b)
        assert all(lhs[k] == rhs[k] for k in range(1, 9))

    @settings(max_examples=25, deadline=None)
    @given(moment_sequences(6, m1_nonzero=False), moment_sequences(6, m1_nonzero=False))
    def test_commutative(self, mu, nu):
        ab = free_add(mu, nu)
        ba = free_add(nu, mu)
        assert all(ab[k] == ba[k] for k in range(1, 7))


class TestFreeMult:
    def test_squared_compound(self):
        pi = catalan_moments(8)
        m = free_mult(pi, pi)
        assert [m[k] for k in range(1, 5)] == [1, 3, 12, 55]

    def test_neutral_element(self):
        mu = free_poisson_moments(F(2, 3), 8)
        delta1 = MomentSequence.from_values([1] * 8)
        out = free_mult(mu, delta1)
        assert all(out[k] == mu[k] for k in range(1, 9))

    def test_two_point_s_transform(self):
        # (1-t) delta_0 + t delta_1 has S = (1+z)/(t+z)
        t = F(1, 4)
        S = s_transform(bernoulli_moments(t, 10))
        one_plus_z = series(1, 1, order=S.order)
        t_plus_z = series(t, 1, order=S.order)
        expected = one_plus_z * t_plus_z.inverse()
        assert S.coeffs == expected.coeffs

    @settings(max_examples=20, deadline=None)
    @given(moment_sequences(6), moment_sequences(6), moment_sequences(6))
    def test_commutative_associative(self, a, b, c):
        ab = free_mult(a, b)
        ba = free_mult(b, a)
        assert all(ab[k] == ba[k] for k in range(1, 7))
        left = free_mult(free_mult(a, b), c)
        right = free_mult(a, free_mult(b, c))
        assert all(left[k] == right[k] for k in range(1, 7))


class TestPowers:
    def test_boxtimes_identity(self):
        pi = catalan_moments(8)
        out = boxtimes_power(pi, 1)
        assert all(out[k] == pi[k] for k in range(1, 9))

    def test_boxtimes_square(self):
        out = boxtimes_power(catalan_moments(8), 2)
        assert [out[k] for k in range(1, 5)] == [1, 3, 12, 55]

    def test_boxtimes_half(self):
        out = boxtimes_power(catalan_moments(8), F(1, 2))
        assert out[2] == F(3, 2)

    def test_boxtimes_nested(self):
        pi = catalan_moments(8)
        a, b = F(3, 2), F(4, 3)
        lhs = boxtimes_power(boxtimes_power(pi, a), b)
        rhs = boxtimes_power(pi, a * b)
        assert all(lhs[k] == rhs[k] for k in range(1, 9))

    def test_boxplus_identity_and_scale(self):
        pi = catalan_moments(8)
        assert all(boxplus_power(pi, 1)[k] == pi[k] for k in range(1, 9))
        assert boxplus_power(pi, 2)[2] == 6

    def test_boxplus_nested(self):
        pi = catalan_moments(8)
        a, b = F(2, 5), F(5, 3)
        lhs = boxplus_power(boxplus_power(pi, a), b)
        rhs = boxplus_power(pi, a * b)
        assert all(lhs[k] == rhs[k] for k in range(1, 9))


class TestNthRoot:
    @pytest.mark.parametrize(
        "root,k", [(3**40, 2), (10**30 + 1, 3), (7**200, 2), (0, 3), (1, 5), (12, 1)]
    )
    def test_exact_roots_beyond_float_precision(self, root, k):
        assert _nth_root(root**k, k) == root

    def test_non_power_rejected(self):
        with pytest.raises(ValueError):
            _nth_root(3**80 + 1, 2)
        with pytest.raises(ValueError):
            _nth_root((10**30 + 1) ** 3 - 1, 3)


class TestEtaAndSigma:
    def test_compound_sigma(self):
        eta, sigma = eta_and_sigma(catalan_moments(10))
        assert sigma[0] == 1 and sigma[1] == -1
        assert all(sigma[n] == 0 for n in range(2, sigma.order + 1))

    def test_point_mass_eta(self):
        eta, _ = eta_and_sigma(MomentSequence.from_values([1] * 10))
        assert list(eta.coeffs) == [F(0), F(1)] + [F(0)] * (eta.order - 1)

    def test_eta_catalan_shifted(self):
        # eta of the Catalan-moment law is sum fuss_catalan(1,k-1) w^k
        eta, _ = eta_and_sigma(catalan_moments(10))
        for k in range(1, eta.order + 1):
            assert eta[k] == fuss_catalan(1, k - 1)


class TestDefiningEquationAndIdentity:
    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("t", [F(1, 4), F(1, 2), F(3, 4)])
    def test_route_identity(self, s, t):
        # moments of the (s-1)-fold multiplicative power convolved with the
        # additive power equal those of the two-point law times the s-fold power
        order = 8
        pi = catalan_moments(order)
        route1 = free_mult(boxtimes_power(pi, s - 1), boxplus_power(pi, t))
        route2 = free_mult(bernoulli_moments(t, order), boxtimes_power(pi, s))
        assert all(route1[k] == route2[k] for k in range(1, order + 1))

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("t", [F(1, 4), F(1, 2), F(1), F(2)])
    def test_algebraic_equation_residual(self, s, t):
        # f = 1 + z f^s (f + t - 1) exactly through the truncation order
        if s == 1 and t > 1:
            m = boxplus_power(catalan_moments(10), t)
        elif t > 1:
            pi = catalan_moments(10)
            m = free_mult(boxtimes_power(pi, s - 1), boxplus_power(pi, t))
        else:
            pi = catalan_moments(10)
            m = free_mult(bernoulli_moments(t, 10), boxtimes_power(pi, s))
        f = m.stieltjes()
        shifted = f + RationalSeries.from_coeffs([t - 1], order=f.order)
        rhs = (f.pow(s) * shifted).shift_up().truncate(f.order)
        one = RationalSeries.from_coeffs([1], order=f.order)
        residual = f - one - rhs
        assert all(c == 0 for c in residual.coeffs)
