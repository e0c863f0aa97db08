"""The two-parameter free Bessel family: moments, supports, densities, existence.

Moments are exact rationals; densities are computed numerically from the
algebraic equation of the Stieltjes transform, with the physical branch
selected by continuation from outside the support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt, sqrt
from typing import Sequence

import numpy as np

from .partitions import fuss_catalan, fuss_narayana_poly
from .series import (
    MomentSequence,
    bernoulli_moments,
    boxplus_power,
    boxtimes_power,
    catalan_moments,
    free_mult,
)

HANKEL_TOL = 1e-10


def in_defined_region(s: float, t: float) -> bool:
    """True outside the critical rectangle (0,1) x (1,inf)."""
    return not (0 < s < 1 and t > 1)


@dataclass(frozen=True)
class BesselParams:
    s: float
    t: float

    def __post_init__(self):
        if self.s <= 0 or self.t <= 0:
            raise ValueError("parameters must be positive")

    @property
    def in_defined_region(self) -> bool:
        return in_defined_region(self.s, self.t)


def moment(s, t, k: int) -> Fraction:
    """The k-th moment: sum_b (1/b) binom(k-1,b-1) binom(sk,b-1) t^b.

    Exact when s and t are rational; generalized binomials make the formula
    meaningful for any real s > 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _moment_cached(Fraction(s), Fraction(t), k)


@lru_cache(maxsize=65536)
def _moment_cached(s: Fraction, t: Fraction, k: int) -> Fraction:
    total = Fraction(0)
    for c in reversed(fuss_narayana_poly(s, k)):
        total = total * t + c
    return total


def moments_via_series(s, t, order: int) -> MomentSequence:
    """Moments through the series pipeline, by one of the two defining routes.

    Route 1 (s >= 1): boxtimes power (s-1) of free Poisson, boxtimes the
    free Poisson boxplus power t.  Route 2 (t <= 1): Bernoulli(t) boxtimes
    the free Poisson boxtimes power s.
    """
    sf, tf = Fraction(s), Fraction(t)
    pi = catalan_moments(order)
    if sf >= 1:
        left = boxtimes_power(pi, sf - 1)
        right = boxplus_power(pi, tf)
        if sf == 1:
            return right
        return free_mult(left, right)
    if tf <= 1:
        bern = bernoulli_moments(tf, order)
        return free_mult(bern, boxtimes_power(pi, sf))
    raise ValueError(
        f"(s,t)=({s},{t}) is outside both defining routes (s < 1 and t > 1)"
    )


def phi(s: float, t: float, w: float) -> float:
    """Phi(w) = t w ((1-w)/(1-(1-t)w))^s."""
    denom = 1 - (1 - t) * w
    if denom == 0:
        raise ValueError(f"w = {w} is a pole of Phi")
    ratio = (1 - w) / denom
    sf = float(s)
    if ratio < 0 and sf != int(sf):
        raise ValueError(f"branch violation: ((1-w)/(1-(1-t)w)) = {ratio} < 0")
    return t * w * ratio**sf


def _critical_points(s: float, t: float) -> tuple[float, float]:
    """The zeros w_-, w_+ of Phi' (t != 1)."""
    disc = sqrt(t * t * (s - 1) ** 2 + 4 * s * t)
    w_minus = (t * s - t + 2 - disc) / (2 * (1 - t))
    w_plus = (t * s - t + 2 + disc) / (2 * (1 - t))
    return w_minus, w_plus


@dataclass(frozen=True)
class SupportInfo:
    regime: str  # "t<1" | "t=1" | "t>1"
    K_minus: float | Fraction
    K_plus: float | Fraction
    atom_mass: float
    w_minus: float | None = None
    w_plus: float | None = None

    def as_dict(self) -> dict:
        return {
            "regime": self.regime,
            "K_minus": float(self.K_minus),
            "K_plus": float(self.K_plus),
            "atom_mass": self.atom_mass,
            "w_minus": self.w_minus,
            "w_plus": self.w_plus,
        }


def support(s, t) -> SupportInfo:
    """Support data in the three regimes.

    t = 1: [0, (s+1)^(s+1)/s^s], exact for integer s.  t < 1: atom (1-t) at 0
    plus a bulk [K_-, K_+] from the critical values of Phi.  t > 1: [0, K_+]
    with K_+ from the unique critical point of w (1-w)^s / (t + (1-t) w).
    """
    sf, tf = float(s), float(t)
    if tf == 1:
        sq = Fraction(s)
        if sq.denominator == 1:
            n = sq.numerator
            k_plus: float | Fraction = Fraction((n + 1) ** (n + 1), n**n)
        else:
            k_plus = (sf + 1) ** (sf + 1) / sf**sf
        return SupportInfo("t=1", Fraction(0), k_plus, 0.0)
    # t < 1, or s = 1 and t > 1, where the bulk stays away from the origin:
    # both critical values of Phi give edges ((1 -+ sqrt(t))^2 at s = 1).
    if tf < 1 or sf == 1:
        w_minus, w_plus = _critical_points(sf, tf)
        k_minus = tf / phi(sf, tf, w_plus)
        k_plus = tf / phi(sf, tf, w_minus)
        regime, atom = ("t<1", 1 - tf) if tf < 1 else ("t>1", 0.0)
        return SupportInfo(regime, k_minus, k_plus, atom, w_minus, w_plus)
    # s > 1: single relevant critical point of Phi_st(w) = w(1-w)^s/(t+(1-t)w)
    disc = sqrt(tf * tf * (sf - 1) ** 2 + 4 * sf * tf)
    w1 = (tf * (sf + 1) - disc) / (2 * sf * (tf - 1))
    phi_st = w1 * (1 - w1) ** sf / (tf + (1 - tf) * w1)
    return SupportInfo("t>1", 0.0, 1 / phi_st, 0.0, w_minus=w1)


def _stieltjes_poly_coeffs(s: int, t: float, x: float) -> np.ndarray:
    """Coefficients (descending) of x^s G^(s+1) + (t-1) x^(s-1) G^s - x G + 1."""
    coeffs = np.zeros(s + 2, dtype=float)
    coeffs[0] = x**s
    # accumulate: for s = 1 the G^s and G terms share an index
    coeffs[1] += (t - 1) * x ** (s - 1)
    coeffs[s] += -x
    coeffs[s + 1] += 1.0
    return coeffs


class RootContinuationError(RuntimeError):
    def __init__(self, x: float, roots):
        super().__init__(
            f"could not continue the physical branch at x = {x}; candidates {roots}"
        )
        self.x = x
        self.roots = list(roots)


def _g_tail(s, t, x: float, terms: int = 60) -> complex:
    """G(x) from the moment expansion, valid well outside the support."""
    total = 1.0 / x
    xf = float(x)
    for k in range(1, terms + 1):
        total += float(moment(s, t, k)) / xf ** (k + 1)
    return complex(total)


def _continue_branch(s: int, t: float, xs: Sequence[float], x0: float, g0: complex):
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
                raise RootContinuationError(x, roots)
            mid = 0.5 * (x_prev + x)
            if mid in (x_prev, x):
                raise RootContinuationError(x, roots)
            step_to(mid, depth + 1)
            return step_to(x, depth + 1)
        x_prev, g_prev = x, roots[i]
        return roots[i]

    for j, x in enumerate(xs):
        out[j] = step_to(float(x))
    return out


def _branch_values(s: int, t: float, xs: Sequence[float]) -> np.ndarray:
    """Physical-branch G at the given positive abscissae (any order)."""
    sup = support(s, t)
    k_plus = float(sup.K_plus)
    xs = np.asarray(xs, dtype=float)
    order = np.argsort(-xs)
    xs_desc = xs[order]
    x0 = max(2.5 * k_plus, 2.5 * xs_desc[0])
    g0 = _g_tail(s, t, x0)
    gs_desc = _continue_branch(s, t, xs_desc, x0, g0)
    gs = np.empty_like(gs_desc)
    gs[order] = gs_desc
    return gs


def density(s: int, t: float, x) -> float | np.ndarray:
    """Density of the continuous part at x > 0: -Im(G)/pi on the physical branch.

    Points in the gap (0, K_-] get 0 without a root solve.  Known defect: the
    branch is continued in one pass from outside the support down through the
    requested points, so a sparse call inside the support can land on a wrong
    root (``density(3, 0.1, 0.33300264)`` alone gives 0.583, the 400-point
    grid gives 0.0900 there).  Dense grids, as in density_grid and
    quadrature_moments, are not affected.
    """
    if int(s) != s or s < 1:
        raise ValueError("density requires integer s >= 1")
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0):
        raise ValueError("x must be positive")
    rho = np.zeros(xs.shape)
    bulk = xs > float(support(s, t).K_minus)
    if bulk.any():
        gs = _branch_values(int(s), float(t), xs[bulk])
        rho[bulk] = np.maximum(-gs.imag / np.pi, 0.0)
    return float(rho[0]) if scalar else rho


@dataclass(frozen=True)
class DensityGrid:
    abscissae: tuple[float, ...]
    values: tuple[float, ...]
    params: BesselParams
    support_info: SupportInfo
    quadrature_mass: float
    quadrature_moments: tuple[float, ...] = ()

    def to_csv(self) -> str:
        lines = ["x,density"]
        for x, v in zip(self.abscissae, self.values):
            lines.append(f"{x!r},{v!r}")
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        return {
            "params": {"s": self.params.s, "t": self.params.t},
            "support": self.support_info.as_dict(),
            "atom": {"location": 0.0, "mass": self.support_info.atom_mass},
            "quadrature_mass": self.quadrature_mass,
            "quadrature_moments": list(self.quadrature_moments),
            "grid": {
                "x": list(self.abscissae),
                "density": list(self.values),
            },
        }


def _quadrature_nodes(s: int, t: float, sup: SupportInfo):
    """Gauss-Legendre nodes and weights adapted to the edge behavior.

    Both halves of the support are reparameterized so the integrand is
    smooth: a power substitution x = c u^(s+1) at a singular left edge at 0,
    a square-root substitution at edges where the density vanishes.  Panels
    are graded geometrically toward the edges.
    """
    a, b = float(sup.K_minus), float(sup.K_plus)
    mid = 0.5 * (a + b)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    nodes = 0.5 * (nodes + 1)  # on (0,1)
    weights = 0.5 * weights

    xs: list[float] = []
    ws: list[float] = []  # weight already includes dx/du

    def add_region(u_to_x, dxdu, n_panels=20, grade=0.5):
        # panels on (0,1], graded toward u = 0
        hi = 1.0
        for _ in range(n_panels):
            lo = hi * grade
            length = hi - lo
            for un, uw in zip(nodes, weights):
                u = lo + length * un
                xs.append(u_to_x(u))
                ws.append(uw * length * dxdu(u))
            hi = lo

    half = mid - a
    if a == 0:
        m = s + 1  # removes the x^(-s/(s+1)) (t=1) or x^(-(s-1)/s) (t>1) edge
        add_region(lambda u: half * u**m, lambda u: half * m * u ** (m - 1))
    else:
        add_region(lambda u: a + half * u * u, lambda u: 2 * half * u)
    half_r = b - mid
    add_region(lambda u: b - half_r * u * u, lambda u: 2 * half_r * u)
    return np.array(xs), np.array(ws)


def quadrature_moments(s: int, t: float, k_max: int) -> tuple[float, ...]:
    """(mass, m_1, ..., m_k_max) of the continuous part, by adapted quadrature."""
    sup = support(s, t)
    xs, ws = _quadrature_nodes(int(s), float(t), sup)
    rho = density(int(s), float(t), xs)
    out = []
    for k in range(k_max + 1):
        out.append(float(np.sum(ws * rho * xs**k)))
    return tuple(out)


def density_grid(s: int, t: float, n_points: int = 400) -> DensityGrid:
    """Density sampled on a support-covering grid, plus quadrature mass."""
    sup = support(s, t)
    a, b = float(sup.K_minus), float(sup.K_plus)
    eps = (b - a) * 1e-9
    grid = np.linspace(a + eps if a > 0 else b * 1e-6, b - eps, n_points)
    values = density(int(s), float(t), grid)
    quad = quadrature_moments(int(s), float(t), 0)
    return DensityGrid(
        abscissae=tuple(grid.tolist()),
        values=tuple(np.asarray(values).tolist()),
        params=BesselParams(float(s), float(t)),
        support_info=sup,
        quadrature_mass=quad[0],
    )


def fit_left_edge_exponent(s: int, t: float) -> tuple[float, float]:
    """Fit density ~ C x^(-a) near 0 for t > 1; returns (a, C).

    Recorded diagnostically: the limiting exponent is not asserted anywhere.
    """
    if t <= 1:
        raise ValueError("left-edge fit applies to t > 1")
    xs = np.geomspace(1e-8, 1e-5, 12)
    rho = density(int(s), float(t), xs)
    slope, intercept = np.polyfit(np.log(xs), np.log(rho), 1)
    return -float(slope), float(np.exp(intercept))


@dataclass(frozen=True)
class ProbeReport:
    s: float
    t: float
    order: int
    passed: bool
    failed_minor: int | None = None  # 1-based size of the first non-PSD minor
    failed_matrix: str | None = None  # "H0" | "H1"

    def as_dict(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "order": self.order,
            "passed": self.passed,
            "failed_minor": self.failed_minor,
            "failed_matrix": self.failed_matrix,
        }


def existence_probe(s, t, order: int = 6) -> ProbeReport:
    """Stieltjes moment-problem probe: PSD check of both Hankel matrices.

    The entries (m_(i+j)) and (m_(i+j+1)), 0 <= i,j <= order, are built
    exactly from the closed-form moments, then tested minor by minor at
    working precision.
    """
    n = order + 1
    ms = [Fraction(1)] + [moment(s, t, k) for k in range(1, 2 * order + 2)]
    h0 = np.array([[float(ms[i + j]) for j in range(n)] for i in range(n)])
    h1 = np.array([[float(ms[i + j + 1]) for j in range(n)] for i in range(n)])
    for name, h in (("H0", h0), ("H1", h1)):
        for j in range(1, n + 1):
            block = h[:j, :j]
            # scaled by the block under test: a larger later entry must not
            # hide a negative eigenvalue of a small minor
            if np.linalg.eigvalsh(block).min() < -HANKEL_TOL * np.abs(block).max():
                return ProbeReport(float(s), float(t), order, False, j, name)
    return ProbeReport(float(s), float(t), order, True)
