"""The two-parameter free Bessel family: moments, supports, densities, existence.

Moments are exact rationals.  Densities, their quadrature moments and the support
edges come from one closed-form curve: u = xG on the algebraic equation of the
Stieltjes transform, with arg u in the lower half-plane as the parameter.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from math import exp, inf, lcm, log1p, pi, sqrt

from .partitions import ArgumentError, _as_float, _check_count, _fuss_narayana_ints
from .series import (
    MomentSequence,
    RationalSeries,
    catalan_moments,
    moments_from_s,
    s_transform,
)


def in_defined_region(s, t) -> bool:
    """True outside the critical rectangle (0,1) x (1,inf)."""
    return not (0 < s < 1 and t > 1)


def moment(s, t, k: int) -> Fraction:
    """The k-th moment: sum_b (1/b) binom(k-1,b-1) binom(sk,b-1) t^b.

    Exact when s and t are rational; generalized binomials make the formula
    meaningful for any real s > 0.
    """
    _check_count("k", k, 1)
    return _moment_cached(Fraction(s), Fraction(t), k)


@lru_cache(maxsize=65536)
def _moment_cached(s: Fraction, t: Fraction, k: int) -> Fraction:
    total, d = _scaled_moment(s, t.numerator, t.denominator, k)
    return Fraction(total, d * t.denominator**k)


# keyed by s = p/q as integers, which hash faster than a Fraction
_narayana_ints = lru_cache(maxsize=4096)(_fuss_narayana_ints)


def _scaled_moment(s: Fraction, a: int, b: int, k: int) -> tuple[int, int]:
    """(n, d) with b^k m_k = n/d at t = a/b: with the coefficients c_j = n_j/d, n is the
    sum of n_j a^j b^(k-j), by homogeneous Horner in integers."""
    nums, d = _narayana_ints(s.numerator, s.denominator, k)
    total, b_j = 0, 1
    for c in reversed(nums):
        total, b_j = total * a + c * b_j, b_j * b
    return total, d


def moments_via_series(s, t, order: int) -> MomentSequence:
    """Moments m_1..m_order from one S transform of pi_st, reverted once.

    S transforms multiply under boxtimes and S of mu^(boxplus t) is S_mu(z/t)/t, so with
    S_pi(z) = 1/(1+z) that of the free Poisson law pi, route 1 (s >= 1), pi^(boxtimes s-1)
    boxtimes pi^(boxplus t), has S = S_pi(z)^(s-1) S_pi(z/t)/t = (1+z)^(1-s)/(t+z).  Route 2
    (t <= 1), Bernoulli(t) boxtimes pi^(boxtimes s), has S_Bernoulli(z) S_pi(z)^s with
    S_Bernoulli(z) = (1+z)/(t+z): the same series.  Neither exists at t = 0.
    """
    _check_count("order", order, 1)
    sf, tf = Fraction(s), Fraction(t)
    if tf == 0:
        raise ArgumentError("t must be nonzero for the series route")
    if sf < 1 and tf > 1:
        raise ValueError(
            f"(s,t)=({s},{t}) is outside both defining routes (s < 1 and t > 1)"
        )
    s_pi = s_transform(catalan_moments(order))
    dilated = tuple(c / tf ** (n + 1) for n, c in enumerate(s_pi.coeffs))
    return moments_from_s(s_pi.pow(sf - 1) * RationalSeries(dilated, s_pi.order), order)


def phi(s: float, t: float, w: float) -> float:
    """Phi(w) = t w ((1-w)/(1-(1-t)w))^s."""
    denom = 1 - (1 - t) * w
    if denom == 0:
        raise ValueError(f"w = {w} is a pole of Phi")
    ratio = (1 - w) / denom
    sf = float(s)
    if ratio < 0 and sf != int(sf):
        raise ValueError(f"branch violation: ((1-w)/(1-(1-t)w)) = {ratio} < 0")
    import numpy as np
    with np.errstate(over="ignore"):  # inf past the double range: K_- = t/Phi(w_+) is then 0
        return t * w * float(np.float64(ratio) ** sf)


@dataclass(frozen=True)
class SupportInfo:
    regime: str  # "t<1" | "t=1" | "t>1"
    K_minus: float | Fraction
    K_plus: float | Fraction
    atom_mass: float
    w_minus: float | None = None
    w_plus: float | None = None

    def as_dict(self) -> dict:
        return {**asdict(self), "K_minus": float(self.K_minus), "K_plus": float(self.K_plus)}


def support(s, t) -> SupportInfo:
    """Support data in the three regimes: the ends of _curve at theta = 0.

    There c = r is a real root of r^2 - 2br + 1 - t, b - 1 = t(s-1)/2, so r_+ r_- = 1 - t,
    and x = u^s r with u = 1 - t/(1 - r) is an edge: K_+ = (1 + t/(r_+ - 1))^s r_+ and, where
    the bulk stays away from 0 (t < 1, or s = 1), K_- = |1 - t|^(s+1)/K_+.  These are the
    critical values t/Phi(w) of the paper, at w_- = 1/r_+ and w_+ = r_+/(1 - t); at t > 1,
    s > 1, w_- = t/(r_+ - 1 + t) is the critical point of w (1-w)^s/(t + (1-t) w).  Every
    value is held as an offset from 1, so none cancels as t -> 0 or t -> 1.  t = 1:
    [0, (s+1)^(s+1)/s^s], exact for integer s.
    """
    sf, tf = float(s), float(t)
    if not (sf > 0 and tf > 0):
        raise ArgumentError("support requires s > 0 and t > 0")
    if tf == 1 and Fraction(s).denominator == 1:
        n = int(s)
        return SupportInfo("t=1", Fraction(0), Fraction((n + 1) ** (n + 1), n**n), 0.0)
    b_1 = tf * (sf - 1) / 2
    sq = sqrt(b_1 * b_1 + tf * sf)
    if not 0 < sq < inf:  # b_1 * b_1 overflows past t(s - 1) = 2.7e154, t s underflows
        raise ValueError(f"support edges at (s, t) = ({s}, {t}) are past the double range")
    rho = b_1 + sq if b_1 >= 0 else tf * sf / (sq - b_1)  # r_+ - 1
    # u^s in log1p, as a power of the rounded u loses s ulps
    k_plus = (1 + rho) * exp(sf * log1p(tf / rho))
    if tf == 1:
        return SupportInfo("t=1", Fraction(0), k_plus, 0.0)
    if not (tf < 1 or sf == 1):
        return SupportInfo("t>1", 0.0, k_plus, 0.0, w_minus=tf / (rho + tf))
    # 1 - t = hi + lo exactly, so that its power keeps every digit (and the atom 1 - t
    # of a rational t is rounded once)
    gap = 1 - (t if isinstance(t, Fraction) else Fraction(tf))
    hi = float(gap)
    lo = float(gap - Fraction(hi))
    k_minus = abs(hi) ** sf * (abs(hi) / k_plus) * exp((sf + 1) * log1p(lo / hi))
    regime, atom = ("t<1", hi) if tf < 1 else ("t>1", 0.0)
    return SupportInfo(regime, k_minus, k_plus, atom, 1 / (1 + rho), (1 + rho) / hi)


@dataclass(frozen=True)
class DensityGrid:
    abscissae: tuple[float, ...]
    values: tuple[float, ...]
    s: float
    t: float
    support_info: SupportInfo
    quadrature_mass: float
    quadrature_moments: tuple[float, ...]

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
    """b - 1 for b = -B/(2A), E = b^2 - 1 + t (neither cancels as t -> 0 or b -> 0), db/d(theta)."""
    import numpy as np
    beta, sin = -s * theta, np.sin(theta)
    # t multiplies last: t sin(theta) would be subnormal at t = 1e-300, theta ~ sqrt(t)
    b_1 = -2 * np.sin(beta / 2) ** 2 - t * (np.sin(beta + theta) / (2 * sin))
    db = s * np.sin(beta) + t * ((np.sin(beta) + s * sin * np.cos(beta + theta)) / (2 * sin * sin))
    return b_1, (b_1 * (b_1 + 2) + t if t < 1 else (1 + b_1) ** 2 + (t - 1)), db


def _curve(s: int, t: float, theta, root: int | None):
    """u = xG, x, d(log x)/d(theta), d(log u)/d(theta) at arg u = theta; rho = -Im u/(pi x).

    x = u^s (u - 1 + t)/(u - 1) is real when c = (u - 1 + t)/(u - 1) = r e^(-i s theta), r
    root 0 or 1 (t < 1) or the positive root (None) of A r^2 + B r + C, A = -sin theta,
    B = (1 - t) sin((1 - s) theta) + sin((1 + s) theta), C = (1 - t) A; so r = b +- sqrt(E).
    r and c are held as offsets from 1, which carry the curve down to t = 1e-300.
    """
    import numpy as np
    b_1, E, db = _roots(s, t, theta)
    sq = np.sqrt(np.maximum(E, 0.0))
    q_1 = b_1 + np.copysign(sq, 1 + b_1)  # q - 1, and (1 - t)/q - 1: neither root cancels
    roots = (q_1, (-t - q_1) / (1 + q_1))
    r_1 = np.maximum(*roots) if root is None else roots[root]
    dlog_r = np.copysign(db / sq, r_1 - b_1)  # implicit differentiation of r^2 - 2br + 1 - t
    half = np.exp(-0.5j * s * theta)  # 1 - e^(-i s theta) = -2i half Im(half): no cancellation
    one_c = -half * (2j * half.imag + r_1 * half)  # 1 - c
    u = 1 - t / one_c
    dlog_u = -t * (1 - one_c) * (dlog_r - 1j * s) / (u * one_c**2)
    return u, np.abs(u) ** s * (1 + r_1), s * dlog_u.real + dlog_r, dlog_u


def _theta_min(s: int, t: float) -> float:
    """For t < 1, the zero of E in (-pi/(s+1), 0), where the two roots meet."""
    lo, hi = -pi / (s + 1), 0.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if _roots(s, t, mid)[1] < 0 else (lo, mid)
    return hi


@lru_cache(maxsize=256)
def _plan(s, t):
    """s, t, start, pieces, support, quadrature: what the density layer decides once per (s, t).

    pieces [(end, root), ...] of _curve have x(theta) monotone and meet at x(start) (0 at
    t = 1).  The first rises to K_+; a second falls to K_- (t < 1) or to 0 at -pi/s (t > 1).
    quadrature holds each piece's 32 (weight, x) pairs: rho(x) dx = -Im u |d(log x)/d(theta)|
    d(theta) / pi along _curve, with no x in the weights (x underflows near 0 at large s).
    Each piece runs from theta = start to end as start + (end - start) v^p, 32 Gauss-Legendre
    nodes in v: v^2 smooths the square-root end at theta_min (t < 1); v^3 clusters the nodes
    at -pi/(s+1), where the curve turns sharply as t -> 1+ (t >= 1).  A mass that misses
    min(t, 1) by more than 1e-5 relative (at s = 1 and t = 1e24, 1e25 or 1e28 but not 3e24,
    where the two terms of d(log x)/d(theta) cancel, and at s above about 1e4) raises
    ValueError before support(s, t) is built.  support takes the caller's t, so a rational
    t keeps 1 - t exact.
    """
    import numpy as np
    tf = _as_float("t", t)
    if _as_float("s", s) < 1 or int(s) != s or not tf > 0:
        raise ArgumentError("density requires integer s >= 1 and t > 0")
    s = int(s)
    v, w = np.polynomial.legendre.leggauss(32)
    v, w = 0.5 * (v + 1), 0.5 * w
    quadrature, mass = [], 0.0
    # a NaN or inf mass is refused below: at subnormal t, _curve divides by 0, _roots makes NaN
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if tf < 1:
            start, p, pieces = _theta_min(s, tf), 2, ((0.0, 0), (0.0, 1))
        else:
            start, p, pieces = -pi / (s + 1), 3, ((0.0, None),) + ((-pi / s, None),) * (tf > 1)
        for end, root in pieces:
            u, x, dlog_x, _ = _curve(s, tf, start + (end - start) * v**p, root)
            weight = w * np.abs(p * (end - start) * v ** (p - 1) * dlog_x) * -u.imag / np.pi
            quadrature.append((weight, x))
            mass += np.sum(weight)
    if not abs(mass - min(tf, 1)) <= 1e-5 * min(tf, 1):
        raise ValueError(f"quadrature mass {mass} misses min(t, 1) by more than 1e-5 relative")
    return s, tf, start, pieces, support(s, t), tuple(quadrature)


def quadrature_moments(s: int, t: float, k_max: int) -> tuple[float, ...]:
    """(mass, m_1, ..., m_k_max) of the continuous part from _plan's quadrature; ValueError
    for a moment past the double range."""
    import numpy as np
    _check_count("k_max", k_max, 0)
    out = np.zeros(k_max + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf moment is refused below
        for weight, x in _plan(s, t)[5]:
            out += [np.sum(weight * x**k) for k in range(k_max + 1)]
    if not np.all(finite := np.isfinite(out)):
        raise ValueError(f"quadrature moment m_{np.argmin(finite)} is past the double range")
    return tuple(out.tolist())


def density(s: int, t: float, x) -> float | np.ndarray:
    """Density of the continuous part at x > 0: -Im u/(pi x) where x(theta) = x on _curve.

    0 outside (K_-, K_+).  Inside, a point takes its piece's bracket from 31 nodes graded
    v^2 from start, then Newton steps on log x, bisecting where a step leaves the shrinking
    bracket, until its own theta step is <= 1e-15 |theta|: no value depends on the others.
    """
    import numpy as np
    s, t, start, pieces, sup, _ = _plan(s, t)
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(xs > 0):
        raise ArgumentError("x must be positive")
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


def density_grid(s: int, t: float, n_points: int = 400, k: int = 0) -> DensityGrid:
    """Density sampled on a support-covering grid, plus quadrature mass and m_1..m_k."""
    import numpy as np
    _check_count("n_points", n_points, 1)
    s_int, tf, _, _, sup, _ = _plan(s, t)
    a, b = float(sup.K_minus), float(sup.K_plus)
    eps = (b - a) * 1e-9
    grid = np.linspace(a + eps if a > 0 else b * 1e-6, b - eps, n_points)
    values = density(s, t, grid)  # the caller's s and t: the key of the cached plan
    mass, *moments = quadrature_moments(s, t, k)
    return DensityGrid(abscissae=tuple(grid.tolist()), values=tuple(values.tolist()),
                       s=float(s_int), t=tf, support_info=sup, quadrature_mass=mass,
                       quadrature_moments=tuple(moments))


@dataclass(frozen=True)
class ProbeReport:
    s: float
    t: float
    order: int
    passed: bool
    failed_minor: int | None = None  # 1-based size of the first non-PSD minor
    failed_matrix: str | None = None  # "H0" | "H1"

    def as_dict(self) -> dict:
        return dict(vars(self))


def _hankel_minors(c: list[int]):
    """The k-th leading minors of H0 = (c_(i+j)) and H1 = (c_(i+j+1)), 2k <= len(c), up to a zero
    divisor: H_k^(0) and H_k^(1) of H_k^(j) = det(c_(j+a+b))_(a,b<k), from H_0 = 1, H_1^(j) = c_j
    by Desnanot-Jacobi, H_k^(j) H_(k-2)^(j+2) = H_(k-1)^(j) H_(k-1)^(j+2) - (H_(k-1)^(j+1))^2."""
    below, level = [1] * len(c), c
    while len(level) > 1:
        yield level[0], level[1]
        if not all(below[2:len(level)]):
            return
        below, level = level, [(x * z - y * y) // d for x, y, z, d
                               in zip(level, level[1:], level[2:], below[2:])]


def existence_probe(s, t, order: int = 6) -> ProbeReport:
    """Stieltjes moment-problem probe: is each leading block of H0 and H1 PSD?

    H0 = (m_(i+j)) and H1 = (m_(i+j+1)), 0 <= i,j <= order, enter as the integers c_k = L b^k m_k
    (t = a/b, L the lcm of their denominators): the positive congruence diag(b^i) H diag(b^i)
    keeps the sign of every minor.  The leading minors of both come from one table of Hankel
    determinants of c_0..c_(2 order+1), by Desnanot-Jacobi with exact integer division: the
    first negative minor of H0 fails the cell, else that of H1.  A cell with a zero minor or
    divisor takes integer Bareiss elimination, which keeps a symmetric matrix symmetric, so each
    row holds its entries from the diagonal on: the k-th pivot is the k x k leading minor (less
    any dropped row).  A zero pivot's row is dropped; its first nonzero entry b, if any, fails
    the block that b enters, since that block then holds [[0, b], [b, c]].
    """
    _check_count("order", order, 0)
    sf, tf = _as_float("s", s), _as_float("t", t)
    n, sq, tq = order + 1, Fraction(s), Fraction(t)
    scaled = [(1, 1)] + [_scaled_moment(sq, tq.numerator, tq.denominator, k)
                         for k in range(1, 2 * order + 2)]
    lcd = lcm(*(d for _, d in scaled))
    ints = [m * (lcd // d) for m, d in scaled]
    h1 = None  # the size of the first negative H1 minor
    for k, (h0_k, h1_k) in enumerate(_hankel_minors(ints), 1):
        if not h0_k or (h1 is None and not h1_k):
            break
        if h0_k < 0:
            return ProbeReport(sf, tf, order, False, k, "H0")
        h1 = k if h1 is None and h1_k < 0 else h1
        if k == n:
            return ProbeReport(sf, tf, order, h1 is None, h1, h1 and "H1")
    for name, shift in (("H0", 0), ("H1", 1)):
        rows, prev, bound = [ints[2 * i + shift:i + shift + n] for i in range(n)], 1, n + 1
        for j in range(1, n + 1):
            (pivot, *head), *tail = rows
            if pivot < 0 or j == bound:
                return ProbeReport(sf, tf, order, False, j, name)
            if pivot == 0:
                bound = min(bound, j + 1 + next((i for i, b in enumerate(head) if b), n))
                rows = tail
                continue
            rows = [[(pivot * x - h * y) // prev for x, y in zip(row, head[i:])]
                    for i, (row, h) in enumerate(zip(tail, head))]
            prev = pivot
    return ProbeReport(sf, tf, order, True)
