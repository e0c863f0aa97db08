"""Exact truncated power series and the free-probability transform pipeline.

All coefficients are ``fractions.Fraction``.  A series of order N carries
coefficients c_0..c_N; every operation records the order to which its result
is valid and never reads beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, perm
from operator import mul
from typing import Iterable

from .partitions import _as_fraction, _check_count, fuss_catalan


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Integers n_i and the least common denominator d of the rationals, with values[i] = n_i/d."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


@dataclass(frozen=True)
class RationalSeries:
    """A truncated power series sum(c_n z^n, n=0..order) with exact coefficients."""

    coeffs: tuple[Fraction, ...]
    order: int

    @staticmethod
    def from_coeffs(coeffs: Iterable, order: int | None = None) -> "RationalSeries":
        cs = tuple(_frac(c) for c in coeffs)
        if order is None:
            order = len(cs) - 1
        if len(cs) < order + 1:
            cs = cs + (Fraction(0),) * (order + 1 - len(cs))
        return RationalSeries(cs[: order + 1], order)

    def __getitem__(self, n: int) -> Fraction:
        if n > self.order:
            raise IndexError(f"coefficient {n} beyond valid order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "RationalSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return RationalSeries(self.coeffs[: order + 1], order)

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        n = min(self.order, other.order)
        return RationalSeries(
            tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)), n
        )

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        n = min(self.order, other.order)
        return RationalSeries(
            tuple(self.coeffs[i] - other.coeffs[i] for i in range(n + 1)), n
        )

    def __mul__(self, other) -> "RationalSeries":
        if isinstance(other, RationalSeries):
            # Cauchy product of integer numerators, one Fraction per coefficient
            n = min(self.order, other.order)
            a, da = _over_common_denominator(self.coeffs[: n + 1])
            b, db = _over_common_denominator(other.coeffs[: n + 1])
            return RationalSeries(
                tuple(Fraction(sum(map(mul, a[: k + 1], b[k::-1])), da * db)
                      for k in range(n + 1)),
                n,
            )
        c = _frac(other)
        return RationalSeries(tuple(c * x for x in self.coeffs), self.order)

    __rmul__ = __mul__

    def shift_down(self) -> "RationalSeries":
        """Divide by z; requires c_0 = 0."""
        if self.coeffs[0] != 0:
            raise ValueError("constant term must vanish")
        return RationalSeries(self.coeffs[1:], self.order - 1)

    def shift_up(self) -> "RationalSeries":
        """Multiply by z."""
        return RationalSeries((Fraction(0),) + self.coeffs, self.order + 1)

    def inverse(self) -> "RationalSeries":
        """Multiplicative inverse; requires c_0 != 0."""
        return self.pow(-1)

    def compose(self, inner: "RationalSeries") -> "RationalSeries":
        """self(inner(z)); requires inner(0) = 0."""
        if inner.coeffs[0] != 0:
            raise ValueError("inner series must have zero constant term")
        n = min(self.order, inner.order)
        result = RationalSeries.from_coeffs([self.coeffs[0]], n)
        power = RationalSeries.from_coeffs([1], n)
        inner_t = inner.truncate(n)
        for i in range(1, n + 1):
            power = power * inner_t
            if self.coeffs[i] != 0:
                result = result + self.coeffs[i] * power
        return result

    def pow(self, r) -> "RationalSeries":
        """self^r for rational r; requires c_0 != 0, c_0 > 0 for a fractional r, c_0^r rational.

        J.C.P. Miller's recurrence n c_0 g_n = sum_(k=1..n) ((r + 1) k - n) c_k g_(n-k)
        (Knuth, TAOCP vol. 2, 4.7), in integers: with c_k = a_k/d and r = p/q,
        g_n = c_0^r N_n/((q a_0)^n n!), N_0 = 1 and
        N_n = sum_k ((p + q) k - n q) a_k (q a_0)^(k-1) (n-1)!/(n-k)! N_(n-k).
        """
        c0, rf = self.coeffs[0], _frac(r)
        if c0 == 0 or (c0 < 0 and rf.denominator != 1):
            raise ValueError("pow needs a nonzero constant term, positive for a fractional power")
        p, q = rf.numerator, rf.denominator
        a, _ = _over_common_denominator(self.coeffs)
        qa0, nums = q * a[0], [1]
        b = [0] + [a_k * qa0 ** (k - 1) for k, a_k in enumerate(a[1:], 1)]
        for n in range(1, self.order + 1):
            nums.append(sum(((p + q) * k - n * q) * b[k] * perm(n - 1, k - 1) * nums[n - k]
                            for k in range(1, n + 1) if b[k]))
        scale, out, den = _frac_power(c0, rf), [], 1
        for n, num in enumerate(nums):
            out.append(scale * Fraction(num, den))
            den *= qa0 * (n + 1)  # (q a_0)^n n!
        return RationalSeries(tuple(out), self.order)


def _frac_power(base: Fraction, r: Fraction) -> Fraction:
    """base**r as an exact Fraction; requires the result to be rational."""
    if r.denominator == 1:
        return base ** r.numerator
    num = _nth_root(base.numerator, r.denominator)
    den = _nth_root(base.denominator, r.denominator)
    return Fraction(num, den) ** r.numerator


def _nth_root(n: int, k: int) -> int:
    """Exact integer k-th root of n >= 0, by integer Newton from above."""
    r = n
    if n > 1:
        r = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
        while (y := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = y
    if r**k != n:
        raise ValueError(f"{n} has no exact integer {k}-th root")
    return r


@dataclass(frozen=True)
class MomentSequence:
    """Moments m_1..m_N of a (possibly formal) probability measure."""

    moments: tuple[Fraction, ...]

    @staticmethod
    def from_values(values: Iterable) -> "MomentSequence":
        return MomentSequence(tuple(_frac(v) for v in values))

    @property
    def order(self) -> int:
        return len(self.moments)

    def __getitem__(self, k: int) -> Fraction:
        """k-th moment, 1-indexed."""
        if not 1 <= k <= self.order:
            raise IndexError(k)
        return self.moments[k - 1]

    def stieltjes(self) -> RationalSeries:
        """f(z) = 1 + m_1 z + m_2 z^2 + ..."""
        return RationalSeries.from_coeffs((Fraction(1),) + self.moments)


@dataclass(frozen=True)
class CumulantSequence:
    """Free or classical cumulants kappa_1..kappa_N."""

    kind: str  # "free" | "classical"
    cumulants: tuple[Fraction, ...]

    @staticmethod
    def from_values(kind: str, values: Iterable) -> "CumulantSequence":
        if kind not in ("free", "classical"):
            raise ValueError(kind)
        return CumulantSequence(kind, tuple(_frac(v) for v in values))

    @property
    def order(self) -> int:
        return len(self.cumulants)

    def __getitem__(self, k: int) -> Fraction:
        if not 1 <= k <= self.order:
            raise IndexError(k)
        return self.cumulants[k - 1]


def revert(g: RationalSeries) -> RationalSeries:
    """Compositional inverse via Lagrange inversion; requires c_0 = 0, c_1 != 0."""
    if g.coeffs[0] != 0:
        raise ValueError("series must vanish at 0")
    if g.order < 1 or g.coeffs[1] == 0:
        raise ValueError("linear coefficient must be nonzero")
    n = g.order
    # h = z/g(z), a unit series; [z^k] g^{-1} = (1/k) [w^{k-1}] h(w)^k
    h = g.shift_down().inverse()  # order n-1
    out = [Fraction(0)] * (n + 1)
    power = RationalSeries.from_coeffs([1], n - 1)
    for k in range(1, n + 1):
        power = power * h
        out[k] = power.coeffs[k - 1] / k
    return RationalSeries(tuple(out), n)


def s_transform(m: MomentSequence) -> RationalSeries:
    """S(z) = (1 + 1/z) chi(z) from the moments, valid to order N-1."""
    _check_count("order", m.order, 1)
    if m[1] == 0:
        raise ValueError("S transform needs m_1 != 0")
    psi = m.stieltjes() - RationalSeries.from_coeffs([1], m.order)
    chi = revert(psi)
    one_plus_z = RationalSeries.from_coeffs([1, 1], m.order - 1)
    return chi.shift_down() * one_plus_z


def moments_from_s(S: RationalSeries, order: int) -> MomentSequence:
    """Inverse of s_transform: the moment sequence m_1..m_order with the given S."""
    _check_count("order", order, 1)
    if S.coeffs[0] == 0:
        raise ValueError("S(0) must be nonzero")
    if S.order < order - 1:
        raise ValueError(f"need S to order {order - 1}, got {S.order}")
    one_plus_z = RationalSeries.from_coeffs([1, 1], order - 1)
    chi = (S.truncate(order - 1) * one_plus_z.inverse()).shift_up()
    psi = revert(chi)
    return MomentSequence(psi.coeffs[1:])


def free_cumulants(m: MomentSequence) -> CumulantSequence:
    """Free cumulants from the R-transform identity C(w) = w / f^(-1)(w).

    Here f(z) = z M(z) with M the moment series and C(w) = 1 + sum kappa_n w^n
    (Nica-Speicher, Lectures on the Combinatorics of Free Probability, Lect. 16).
    """
    c = revert(m.stieltjes().shift_up()).shift_down().inverse()
    return CumulantSequence("free", c.coeffs[1:])


def moments_from_free_cumulants(kappa: CumulantSequence) -> MomentSequence:
    """Exact inverse of free_cumulants: z M(z) is the reversion of w / C(w)."""
    if kappa.kind != "free":
        raise ValueError("expected free cumulants")
    c = RationalSeries.from_coeffs((Fraction(1),) + kappa.cumulants)
    f = revert(c.inverse().shift_up())
    return MomentSequence(f.coeffs[2:])


def classical_cumulants(m: MomentSequence) -> CumulantSequence:
    """Classical cumulants from m_n = sum_(k=1..n) binom(n-1, k-1) c_k m_(n-k), m_0 = 1."""
    ms, c = (Fraction(1),) + m.moments, []
    for n in range(1, m.order + 1):
        c.append(ms[n] - sum(comb(n - 1, k - 1) * c[k - 1] * ms[n - k] for k in range(1, n)))
    return CumulantSequence("classical", tuple(c))


def moments_from_classical_cumulants(c: CumulantSequence) -> MomentSequence:
    """Inverse of classical_cumulants: m_n = sum_(k=1..n) binom(n-1, k-1) c_k m_(n-k)."""
    if c.kind != "classical":
        raise ValueError("expected classical cumulants")
    ms = [Fraction(1)]
    for n in range(1, c.order + 1):
        ms.append(sum(comb(n - 1, k - 1) * c[k] * ms[n - k] for k in range(1, n + 1)))
    return MomentSequence(tuple(ms[1:]))


def free_add(mu: MomentSequence, nu: MomentSequence) -> MomentSequence:
    """Free additive convolution: free cumulants add."""
    if mu.order != nu.order:
        raise ValueError("orders differ")
    ka = free_cumulants(mu)
    kb = free_cumulants(nu)
    summed = CumulantSequence(
        "free", tuple(a + b for a, b in zip(ka.cumulants, kb.cumulants))
    )
    return moments_from_free_cumulants(summed)


def free_mult(mu: MomentSequence, nu: MomentSequence) -> MomentSequence:
    """Free multiplicative convolution: S transforms multiply."""
    if mu.order != nu.order:
        raise ValueError("orders differ")
    S = s_transform(mu) * s_transform(nu)
    return moments_from_s(S, mu.order)


def boxtimes_power(m: MomentSequence, s) -> MomentSequence:
    """Fractional free multiplicative power: S^s by RationalSeries.pow."""
    sf = _as_fraction("s", s)
    if sf == 1:
        return m
    if sf == 0:
        return MomentSequence.from_values([1] * m.order)
    if m[1] <= 0:
        raise ValueError("boxtimes_power needs m_1 > 0")
    return moments_from_s(s_transform(m).pow(sf), m.order)


def boxplus_power(m: MomentSequence, t) -> MomentSequence:
    """Fractional free additive power: free cumulants scale by t."""
    tf = _as_fraction("t", t)
    kappa = free_cumulants(m)
    return moments_from_free_cumulants(
        CumulantSequence("free", tuple(tf * k for k in kappa.cumulants))
    )


def eta_and_sigma(m: MomentSequence) -> tuple[RationalSeries, RationalSeries]:
    """The eta transform 1 - 1/f and the Sigma transform S(z/(1-z))."""
    f = m.stieltjes()
    eta = RationalSeries.from_coeffs([1], f.order) - f.inverse()
    S = s_transform(m)
    geom = RationalSeries.from_coeffs(
        [0] + [1] * S.order, S.order
    )  # z/(1-z)
    sigma = S.compose(geom)
    return eta, sigma


def catalan_moments(order: int) -> MomentSequence:
    """Moments of the standard free Poisson law: Catalan numbers."""
    _check_count("order", order, 0)
    return MomentSequence.from_values([fuss_catalan(1, k) for k in range(1, order + 1)])


def free_poisson_moments(t, order: int) -> MomentSequence:
    """Moments of the free Poisson law of parameter t (all free cumulants t)."""
    _check_count("order", order, 0)
    return moments_from_free_cumulants(CumulantSequence("free", (_as_fraction("t", t),) * order))


def bernoulli_moments(t, order: int) -> MomentSequence:
    """Moments of (1-t) delta_0 + t delta_1: all equal to t."""
    _check_count("order", order, 0)
    return MomentSequence.from_values([_as_fraction("t", t)] * order)
