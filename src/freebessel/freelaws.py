"""The two-parameter free Bessel family: moments, supports, densities, existence.

Moments are exact rationals.  Densities and their quadrature moments come from
one closed-form curve: u = xG on the algebraic equation of the Stieltjes
transform, with arg u in the lower half-plane as the parameter.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, sqrt

import numpy as np

from .partitions import ArgumentError, fuss_narayana_poly
from .series import (
    MomentSequence,
    _over_common_denominator,
    bernoulli_moments,
    boxplus_power,
    boxtimes_power,
    catalan_moments,
    free_mult,
)


def in_defined_region(s, t) -> bool:
    """True outside the critical rectangle (0,1) x (1,inf)."""
    return not (0 < s < 1 and t > 1)


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
    total, d = _scaled_moment(s, t.numerator, t.denominator, k)
    return Fraction(total, d * t.denominator**k)


@lru_cache(maxsize=4096)  # keyed by s = p/q as integers, which hash faster than a Fraction
def _narayana_ints(p: int, q: int, k: int) -> tuple[list[int], int]:
    return _over_common_denominator(fuss_narayana_poly(Fraction(p, q), k))


def _scaled_moment(s: Fraction, a: int, b: int, k: int) -> tuple[int, int]:
    """(n, d) with b^k m_k = n/d at t = a/b: with the coefficients c_j = n_j/d, n is the
    sum of n_j a^j b^(k-j), by homogeneous Horner in integers."""
    nums, d = _narayana_ints(s.numerator, s.denominator, k)
    total = 0
    for j, c in enumerate(reversed(nums)):
        total = total * a + c * b**j
    return total, d


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
    with np.errstate(over="ignore"):  # inf past the double range: K_- = t/Phi(w_+) is then 0
        return t * w * float(np.float64(ratio) ** sf)


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


@dataclass(frozen=True)
class DensityGrid:
    abscissae: tuple[float, ...]
    values: tuple[float, ...]
    s: float
    t: float
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
            "params": {"s": self.s, "t": self.t},
            "support": self.support_info.as_dict(),
            "atom": {"location": 0.0, "mass": self.support_info.atom_mass},
            "quadrature_mass": self.quadrature_mass,
            "quadrature_moments": list(self.quadrature_moments),
            "grid": {
                "x": list(self.abscissae),
                "density": list(self.values),
            },
        }


def _roots(s: int, t: float, theta):
    """b = -B/(2A), E = b^2 - 1 + t (neither cancels as t -> 0 or b -> 0) and db/d(theta)."""
    beta, sin = -s * theta, np.sin(theta)
    h = t * np.sin(beta + theta) / (2 * sin)
    b_1 = -2 * np.sin(beta / 2) ** 2 - h  # b - 1
    db = s * np.sin(beta) + t * (np.sin(beta) + s * sin * np.cos(beta + theta)) / (2 * sin * sin)
    return 1 + b_1, (b_1 * (b_1 + 2) + t if t < 1 else (1 + b_1) ** 2 + (t - 1)), db


def _curve(s: int, t: float, theta, root: int | None):
    """u = xG, x, d(log x)/d(theta), d(log u)/d(theta) at arg u = theta; rho = -Im u/(pi x).

    x = u^s (u - 1 + t)/(u - 1) is real when c = (u - 1 + t)/(u - 1) = r e^(-i s theta), r
    root 0 or 1 (t < 1) or the positive root (None) of A r^2 + B r + C, A = -sin theta,
    B = (1 - t) sin((1 - s) theta) + sin((1 + s) theta), C = (1 - t) A; so r = b +- sqrt(E).
    """
    b, E, db = _roots(s, t, theta)
    sq = np.sqrt(np.maximum(E, 0.0))
    q = b + np.copysign(sq, b)  # and (1 - t)/q: neither root cancels
    r = np.maximum(q, (1 - t) / q) if root is None else (q, (1 - t) / q)[root]
    dlog_r = np.copysign(db / sq, r - b)  # implicit differentiation of r^2 - 2br + 1 - t
    c = r * np.exp(-1j * s * theta)
    u = 1 - t / (1 - c)
    dlog_u = -t * c * (dlog_r - 1j * s) / (u * (1 - c) ** 2)
    return u, np.abs(u) ** s * r, s * dlog_u.real + dlog_r, dlog_u


def _theta_min(s: int, t: float) -> float:
    """For t < 1, the zero of E in (-pi/(s+1), 0), where the two roots meet."""
    lo, hi = -np.pi / (s + 1), 0.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if _roots(s, t, mid)[1] < 0 else (lo, mid)
    return hi


def _pieces(s: int, t: float):
    """s, t, start, p, [(end, root), ...]: pieces of _curve with x(theta) monotone, meeting at
    x(start) (0 at t = 1).  The first rises to K_+; a second falls to K_- (t < 1) or to 0 at
    -pi/s (t > 1).  p grades the quadrature nodes."""
    if int(s) != s or s < 1 or not t > 0:
        raise ArgumentError("density requires integer s >= 1 and t > 0")
    s, t = int(s), float(t)
    if t < 1:
        return s, t, _theta_min(s, t), 2, [(0.0, 0), (0.0, 1)]
    return s, t, -np.pi / (s + 1), 3, [(0.0, None)] + [(-np.pi / s, None)] * (t > 1)


def quadrature_moments(s: int, t: float, k_max: int) -> tuple[float, ...]:
    """(mass, m_1, ..., m_k_max) of the continuous part, integrated on the curve u = xG.

    rho(x) dx = -Im u |d(log x)/d(theta)| d(theta) / pi along _curve, with no x
    in the weights (x underflows near 0 at large s).  Each piece runs from theta
    = start to end as start + (end - start) v^p, 32 Gauss-Legendre nodes in v:
    v^2 smooths the square-root end at theta_min (t < 1); v^3 clusters the nodes
    at -pi/(s+1), where the curve turns sharply as t -> 1+ (t >= 1).
    """
    s, t, start, p, pieces = _pieces(s, t)
    v, w = np.polynomial.legendre.leggauss(32)
    v, w = 0.5 * (v + 1), 0.5 * w
    out = np.zeros(k_max + 1)
    for end, root in pieces:
        u, x, dlog_x, _ = _curve(s, t, start + (end - start) * v**p, root)
        weight = w * np.abs(p * (end - start) * v ** (p - 1) * dlog_x) * -u.imag / np.pi
        out += [np.sum(weight * x**k) for k in range(k_max + 1)]
    return tuple(out.tolist())


def density(s: int, t: float, x) -> float | np.ndarray:
    """Density of the continuous part at x > 0: -Im u/(pi x) where x(theta) = x on _curve.

    0 outside (K_-, K_+).  Inside, a point takes its piece's bracket from 31 nodes graded
    v^2 from start, then Newton steps on log x, bisecting where a step leaves the shrinking
    bracket, until its own theta step is <= 1e-15 |theta|: no value depends on the others.
    """
    s, t, start, _, pieces = _pieces(s, t)
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(xs > 0):
        raise ValueError("x must be positive")
    sup = support(s, t)
    rho, log_xs = np.zeros(xs.shape), np.log(xs)
    todo = (xs > float(sup.K_minus)) & (xs < float(sup.K_plus))
    with np.errstate(all="ignore"):  # x(theta) underflows to 0 near x = 0 at large s
        for sign, (end, root) in zip((1, -1), pieces):
            nodes = start + (end - start) * np.linspace(0, 1, 31) ** 2
            table = np.log(_curve(s, t, nodes[:-1], root)[1])
            table[0] = -np.inf if t == 1 else table[0]
            # a rising piece takes the points above its start, a falling one the rest
            idx = np.flatnonzero(todo & (log_xs >= table[0]) if sign > 0 else todo)
            todo[idx] = False
            k = np.clip(np.searchsorted(sign * table, sign * log_xs[idx]), 1, 30)
            lo, hi = nodes[k - 1], nodes[k]  # x(lo) short of x, x(hi) past it
            theta, live = 0.5 * (lo + hi), np.arange(idx.size)
            for _ in range(100):  # met only where theta is lost in rounding (t < 1e-8)
                th, tol = theta[live], 1e-15 * np.abs(theta[live])
                _, x_th, dlog_x, _ = _curve(s, t, th, root)
                f = np.log(x_th) - log_xs[idx[live]]
                lo[live], hi[live] = np.where(sign * f > 0, (lo[live], th), (th, hi[live]))
                step = th - f / dlog_x
                keep = (np.abs(step - th) <= tol) | ((step - lo[live]) * (step - hi[live]) < 0)
                theta[live] = np.where(keep, step, 0.5 * (lo[live] + hi[live]))
                if not (live := live[np.abs(theta[live] - th) > tol]).size:
                    break
            # near an edge rho(x) has condition number x/(2 gap), past double precision: take
            # the gap left in log x once in extended precision and follow u to first order
            u, x_th, dlog_x, dlog_u = _curve(s, t, theta.astype(np.longdouble), root)
            f = np.log(x_th) - np.log(xs[idx].astype(np.longdouble))
            if np.any(np.abs(f) > 1e-6):  # near x = 0, x(theta) jumps between ulps of theta
                raise ValueError("x is below the resolution of the density curve near 0")
            step = -f / dlog_x  # none past an end that rounding moved into (K_-, K_+)
            u = u * (1 + dlog_u * np.where(np.abs(step) <= 1e-3 * np.abs(theta), step, 0))
            rho[idx] = -u.imag / (np.pi * xs[idx])
    return float(rho[0]) if scalar else rho


def density_grid(s: int, t: float, n_points: int = 400) -> DensityGrid:
    """Density sampled on a support-covering grid, plus quadrature mass."""
    s, t = _pieces(s, t)[:2]  # the domain check, before support divides by t
    sup = support(s, t)
    a, b = float(sup.K_minus), float(sup.K_plus)
    eps = (b - a) * 1e-9
    grid = np.linspace(a + eps if a > 0 else b * 1e-6, b - eps, n_points)
    return DensityGrid(
        abscissae=tuple(grid.tolist()),
        values=tuple(density(s, t, grid).tolist()),
        s=float(s),
        t=t,
        support_info=sup,
        quadrature_mass=quadrature_moments(s, t, 0)[0],
    )


@dataclass(frozen=True)
class ProbeReport:
    s: float
    t: float
    order: int
    passed: bool
    failed_minor: int | None = None  # 1-based size of the first non-PSD minor
    failed_matrix: str | None = None  # "H0" | "H1"

    def as_dict(self) -> dict:
        return asdict(self)


def existence_probe(s, t, order: int = 6) -> ProbeReport:
    """Stieltjes moment-problem probe: is each leading block of H0 and H1 PSD?

    H0 = (m_(i+j)) and H1 = (m_(i+j+1)), 0 <= i,j <= order, enter as the integers
    L b^k m_k (t = a/b, L the lcm of their denominators): the positive congruence
    diag(b^i) H diag(b^i) keeps the sign of every minor.  They go through integer
    Bareiss elimination, which keeps a symmetric matrix symmetric, so each row holds
    its entries from the diagonal on: the k-th pivot is the k x k leading minor
    (less any dropped row), so the first negative pivot is the first failing minor.
    A zero pivot's row is dropped; its first nonzero entry b, if any, fails the
    block that b enters, since that block then holds [[0, b], [b, c]].
    """
    n, sq, tq = order + 1, Fraction(s), Fraction(t)
    scaled = [(1, 1)] + [_scaled_moment(sq, tq.numerator, tq.denominator, k)
                         for k in range(1, 2 * order + 2)]
    lcd = lcm(*(d for _, d in scaled))
    ints = [m * (lcd // d) for m, d in scaled]
    for name, shift in (("H0", 0), ("H1", 1)):
        rows, prev, bound = [ints[2 * i + shift:i + shift + n] for i in range(n)], 1, n + 1
        for j in range(1, n + 1):
            (pivot, *head), *tail = rows
            if pivot < 0 or j == bound:
                return ProbeReport(float(s), float(t), order, False, j, name)
            if pivot == 0:
                bound = min(bound, j + 1 + next((i for i, b in enumerate(head) if b), n))
                rows = tail
                continue
            rows = [[(pivot * x - h * y) // prev for x, y in zip(row, head[i:])]
                    for i, (row, h) in enumerate(zip(tail, head))]
            prev = pivot
    return ProbeReport(float(s), float(t), order, True)
