"""The two-parameter free Bessel family: moments, supports, densities, existence.

Moments are exact rationals; densities are computed numerically from the
algebraic equation of the Stieltjes transform, taking at each point of the
support the root in the lower half-plane with the largest real part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import sqrt

import numpy as np

from .partitions import fuss_narayana_poly
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


def _physical_roots(s: int, t: float, xs: np.ndarray) -> np.ndarray:
    """G(x - i0) at each x in (K_-, K_+), each point on its own.

    Of the roots of x^s G^(s+1) + (t-1) x^(s-1) G^s - x G + 1, the physical
    one has Im G <= 0 and the largest real part.  The companion matrices are
    those np.roots builds, with the coefficients raised by scalar powers, and
    are solved in one stacked eigvals call.
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
    return roots[np.arange(len(xs)), np.argmax(real, axis=1)]


def density(s: int, t: float, x) -> float | np.ndarray:
    """Density of the continuous part at x > 0: -Im G(x - i0)/pi.

    Points outside (K_-, K_+) get 0 without a root solve; inside, each point
    takes the physical root of the Stieltjes polynomial (see _physical_roots),
    so a value does not depend on the other points of the call.
    """
    if int(s) != s or s < 1:
        raise ValueError("density requires integer s >= 1")
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0):
        raise ValueError("x must be positive")
    sup = support(s, t)
    rho = np.zeros(xs.shape)
    bulk = (xs > float(sup.K_minus)) & (xs < float(sup.K_plus))
    if bulk.any():
        gs = _physical_roots(int(s), float(t), xs[bulk])
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
