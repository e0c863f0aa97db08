"""Moments, supports, densities, and the positivity probe of the two-parameter family."""

import math
from fractions import Fraction

import numpy as np
import pytest

from freebessel.freelaws import (
    BesselParams,
    _physical_roots,
    _quadrature_nodes,
    density,
    density_grid,
    existence_probe,
    fit_left_edge_exponent,
    in_defined_region,
    moment,
    moments_via_series,
    phi,
    quadrature_moments,
    support,
)
from freebessel.partitions import enumerate_nc_s, fuss_catalan, fuss_narayana_poly

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
    return np.maximum(-gs.imag / np.pi, 0.0)


def quadrature_path(s: int, t: float) -> np.ndarray:
    """The quadrature nodes, graded geometrically toward both support edges."""
    return _quadrature_nodes(s, t, support(s, t))[0]


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
        with pytest.raises(ValueError):
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
        r1 = moments_via_series(2, F(1, 2), 8)  # s >= 1 route
        # t <= 1 route is chosen automatically for s < 1; force comparison by
        # checking the closed form, which route 2 must also reproduce
        for k in range(1, 9):
            assert r1[k] == moment(2, F(1, 2), k)

    def test_rejects_rectangle(self):
        with pytest.raises(ValueError):
            moments_via_series(F(1, 2), 2, 6)


class TestRegionAndParams:
    def test_defined_region(self):
        assert in_defined_region(2, 5)
        assert in_defined_region(0.5, 0.5)
        assert in_defined_region(1, 8)
        assert not in_defined_region(0.5, 2)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BesselParams(0, 1)
        assert BesselParams(0.5, 2).in_defined_region is False


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


class TestSupport:
    def test_t_one(self):
        sup = support(1, 1)
        assert (sup.K_minus, sup.K_plus) == (0, 4)
        sup = support(2, 1)
        assert sup.K_plus == F(27, 4)
        assert sup.atom_mass == 0

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

    def test_large_t_regime(self):
        sup = support(2, 2.0)
        assert sup.regime == "t>1"
        assert sup.K_minus == 0 and sup.atom_mass == 0
        # right edge consistent with the stationary value of the alternate map
        w = sup.w_minus
        assert sup.K_plus == pytest.approx(
            (2 + (1 - 2) * w) / (w * (1 - w) ** 2) * 1 / 1, rel=1e-12
        )


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
        gs = _physical_roots(2, 1.0, xs)
        assert np.all(gs.imag <= 0)

    @pytest.mark.parametrize("s", range(1, 7))
    @pytest.mark.parametrize("t", [0.35, 0.8, 1.0, 2.5])
    def test_matches_continuation_on_quadrature_nodes(self, s, t):
        xs = quadrature_path(s, t)
        assert np.array_equal(density(s, t, xs), continued_density(s, t, xs))

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
        assert value == continued_density(3, 0.1, np.append(quadrature_path(3, 0.1), x))[-1]

    def test_first_grid_point_near_left_edge(self):
        # the continuation along the 400-point grid alone gave 61.3 here
        grid = density_grid(3, 0.75)
        path = np.append(quadrature_path(3, 0.75), grid.abscissae[0])
        assert grid.values[0] == continued_density(3, 0.75, path)[-1] < 1

    @pytest.mark.parametrize("s", range(1, 7))
    def test_haagerup_moller_curve_at_t_one(self, s):
        # Haagerup-Moller (arXiv:1211.4457): the Fuss-Catalan density as a
        # curve (x(phi), rho(phi)), 0 < phi < pi/(s+1)
        phis = np.linspace(0.01, np.pi / (s + 1) - 0.01, 80)
        sin = np.sin
        xs = sin((s + 1) * phis) ** (s + 1) / (sin(phis) * sin(s * phis) ** s)
        rho = sin(phis) ** 2 * sin(s * phis) ** (s - 1) / (np.pi * sin((s + 1) * phis) ** s)
        assert np.allclose(density(s, 1.0, xs), rho, rtol=1e-10, atol=0)

    def test_rejects_fractional_s(self):
        with pytest.raises(ValueError):
            density(1.5, 1.0, 1.0)


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

    def test_left_edge_exponent_diagnostic(self):
        a, c = fit_left_edge_exponent(2, 2.0)
        assert 0.3 < a < 0.7  # recorded, not asserted against a closed form
        assert c > 0


class TestDensityGrid:
    def test_mass_s1_t1(self):
        grid = density_grid(1, 1.0, n_points=50)
        assert grid.quadrature_mass == pytest.approx(1.0, abs=1e-6)

    def test_atom_half(self):
        grid = density_grid(2, 0.5, n_points=50)
        assert grid.support_info.atom_mass == pytest.approx(0.5)
        assert grid.quadrature_mass == pytest.approx(0.5, abs=1e-6)

    def test_serialization(self):
        grid = density_grid(2, 1.0, n_points=10)
        data = grid.as_dict()
        assert data["support"]["K_plus"] == pytest.approx(27 / 4)
        assert len(data["grid"]["x"]) == 10
        csv = grid.to_csv()
        assert csv.splitlines()[0] == "x,density"
        assert len(csv.splitlines()) == 11


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

    def test_report_dict(self):
        d = existence_probe(1, 1, 4).as_dict()
        assert d["passed"] is True and d["order"] == 4
