"""Classical Bessel laws: exact atoms in Z[w], level-s exponentials, convolution.

Atoms live in the ring of integers of the s-th cyclotomic field, represented
exactly modulo the cyclotomic polynomial, so that atom merging is never done
by floating-point proximity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from typing import Iterable

from .partitions import (BESSEL_MAX_P, BESSEL_MAX_WORK, ArgumentError, EnumerationBoundError,
                         _as_float, _check_count)


@lru_cache(maxsize=None, typed=True)
def cyclotomic_polynomial(s: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the s-th cyclotomic polynomial.

    Computed by exact division of x^s - 1 by the product of the lower
    cyclotomic polynomials over proper divisors of s.
    """
    _check_count("s", s, 1)
    num = [-1] + [0] * (s - 1) + [1]  # x^s - 1
    for d in range(1, s):
        if s % d == 0:
            num = _poly_divide_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c, r = divmod(num[i + len(den) - 1], den[-1])
        if r != 0:
            raise ArithmeticError("non-exact polynomial division")
        q[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return q


@dataclass(frozen=True, slots=True)
class CyclotomicInt:
    """An element of Z[w], w = exp(2 pi i / s), reduced mod the s-th cyclotomic polynomial."""

    s: int
    coeffs: tuple[int, ...]  # length = deg of the cyclotomic polynomial

    @staticmethod
    def from_coeffs(s: int, coeffs: Iterable[int]) -> "CyclotomicInt":
        phi = cyclotomic_polynomial(s)
        deg = len(phi) - 1
        work = list(coeffs)
        # reduce modulo the (monic) cyclotomic polynomial
        for i in range(len(work) - 1, deg - 1, -1):
            c = work[i]
            if c:
                for j in range(len(phi)):
                    work[i - deg + j] -= c * phi[j]
        work = work[:deg] + [0] * max(0, deg - len(work))
        return CyclotomicInt(s, tuple(work[:deg]))

    @staticmethod
    def zero(s: int) -> "CyclotomicInt":
        return CyclotomicInt.from_coeffs(s, [])

    @staticmethod
    def root_power(s: int, k: int) -> "CyclotomicInt":
        """w^k as a ring element."""
        k %= s
        return CyclotomicInt.from_coeffs(s, [0] * k + [1])

    @staticmethod
    def integer(s: int, n: int) -> "CyclotomicInt":
        return CyclotomicInt.from_coeffs(s, [n])

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check(other)
        return CyclotomicInt(
            self.s, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check(other)
        n = len(self.coeffs)
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        return CyclotomicInt.from_coeffs(self.s, prod)

    def power(self, n: int) -> "CyclotomicInt":
        if n < 0:
            raise ValueError("nonnegative powers only")
        return _power(self, n, CyclotomicInt.__mul__) if n else CyclotomicInt.integer(self.s, 1)

    def _check(self, other: "CyclotomicInt") -> None:
        if self.s != other.s:
            raise ValueError("mixed cyclotomic orders")

    def to_complex(self) -> complex:
        return sum(c * wk for c, wk in zip(self.coeffs, _root_powers(self.s)))


def _power(x, n: int, mul):
    """x^n for n >= 1 under an associative mul, by square-and-multiply from the highest bit."""
    result = x
    for bit in bin(n)[3:]:  # the bits below the top one
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


@lru_cache(maxsize=None)
def _root_powers(s: int) -> tuple[complex, ...]:
    """w^k for k < phi(s), w = exp(2 pi i / s): the embedding of the coefficient basis."""
    w = cmath.exp(2j * cmath.pi / s)
    return tuple(w**k for k in range(len(cyclotomic_polynomial(s)) - 1))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atomic measure on Z[w]: exact atoms with real weights, plus a tail deficit."""

    s: int
    atoms: dict[CyclotomicInt, float]
    deficit: float = 0.0

    def total_mass(self) -> float:
        return sum(self.atoms.values())

    def weight_at(self, atom: CyclotomicInt) -> float:
        return self.atoms.get(atom, 0.0)

    @cached_property
    def embedded(self) -> list[complex]:
        """The complex embeddings of the atoms, in atom order."""
        return [atom.to_complex() for atom in self.atoms]

    def moment(self, word_signs: Iterable[int]) -> complex:
        """*-moment: sum of weights times prod of atom^(sign) embeddings.

        Sign +1 takes the atom itself, -1 its complex conjugate.
        """
        total = 0.0 + 0.0j
        signs = tuple(word_signs)
        for z, wgt in zip(self.embedded, self.atoms.values()):
            val = 1.0 + 0.0j
            for sg in signs:
                val *= z if sg == 1 else z.conjugate()
            total += wgt * val
        return total

    def real_moments(self, n_max: int) -> list[float]:
        """E (Re X)^n for n = 1..n_max, from the real parts of the atoms.

        These are the moments E X^n only where every atom is real, as at s <= 2.  At
        s = 3, t = 1/2 the pushforward gives 0.5, 3.375, 62.125 for n = 1..3, where
        E X^n is 0.5, 3, 56.5.
        """
        real = [(z.real, w) for z, w in zip(self.embedded, self.atoms.values())]
        return [sum(w * x**n for x, w in real) for n in range(1, n_max + 1)]

    def as_dict(self) -> dict:
        entries = []
        for (atom, w), z in sorted(zip(self.atoms.items(), self.embedded),
                                   key=lambda e: -e[0][1]):
            entries.append(
                {"coeffs": list(atom.coeffs), "complex": [z.real, z.imag], "weight": w}
            )
        return {"s": self.s, "atoms": entries, "deficit": self.deficit}


def exp_s(s: int, z: complex) -> complex:
    """The level-s exponential sum(z^(sk)/(sk)!), by the averaged form (1/s) sum_k exp(w^k z)."""
    _check_count("s", s, 1)
    w = cmath.exp(2j * cmath.pi / s)
    val = sum(cmath.exp(w**k * z) for k in range(1, s + 1)) / s
    if isinstance(z, (int, float)):
        return val.real
    return val


def _convolution_work(s: int, p_max: int) -> int:
    """An upper bound on the coefficient additions of bessel_law's convolutions, or a number
    past BESSEL_MAX_WORK as soon as the bound passes it.

    Factor k pairs its p_max + 1 atoms p w^k with each atom of the law of the factors before
    it, adding deg = phi(s) coefficients per pair.  That law has at most p_max + 1 times the
    atoms of the one before, and no more than the box its reduced coefficients range over.
    As w, ..., w^phi(s) are independent, factor k <= min(s, phi(s) + 1) forms (p_max + 1)^k
    pairs, and phi(s) >= sqrt(s/2): that refuses a large s before its polynomial is built.
    The bound counts this chain, so it also bounds the fewer pairs of bessel_law's even s form.
    """
    if (math.isqrt(s // 2) + 1) * math.log(p_max + 1) > math.log(BESSEL_MAX_WORK):
        return BESSEL_MAX_WORK + 1
    poly = cyclotomic_polynomial(s)
    deg = len(poly) - 1
    power, spread, atoms, work = [1] + [0] * (deg - 1), [0] * deg, 1, 0
    for _ in range(s):
        if (work := work + deg * atoms * (p_max + 1)) > BESSEL_MAX_WORK:
            break
        power = [a - power[-1] * c for a, c in zip([0] + power[:-1], poly)]  # times w
        spread = [r + abs(c) for r, c in zip(spread, power)]
        atoms = min(atoms * (p_max + 1), math.prod(p_max * r + 1 for r in spread))
    return work


def bessel_law(s: int, t: float, p_max: int | None = None) -> DiscreteMeasure:
    """The modified Bessel law: law of sum(w^k a_k) for independent Poisson(t/s) a_k.

    The s-fold convolution of the laws of p w^k, p <= p_max, merged exactly in Z[w] after each
    factor; the deficit is the exact product-Poisson tail mass.  At even s the factors k and
    k + s/2 pair first, as w^(k + s/2) = -w^k: each pair is a truncated s = 2 law on the line
    through w^k, and the s/2 line laws are chained.  The default p_max = ceil(10 + 5t) bounds
    only that deficit, not the Fourier tail at |z| > 1 (s = 1, t = 1.34: fourier(m, 1.2) is
    off by 2.5e-5 while the deficit is 8e-15); pass a larger p_max there.  A p_max, given or
    default, above BESSEL_MAX_P raises EnumerationBoundError (t > 198 by default), and so do
    an s and p_max whose convolutions would add more than BESSEL_MAX_WORK coefficients
    (_convolution_work): s = 3, 5, 7, 11 admit p_max up to 98, 12, 4, 1.
    """
    t = _as_float("t", t)
    if s < 1 or not t > 0:
        raise ArgumentError("bessel_law needs s >= 1 and t > 0")
    _check_count("s", s, 1)
    if p_max is None:
        p_max = math.ceil(min(10 + 5 * t, BESSEL_MAX_P + 1))  # 10 + 5t is inf near the double max
    _check_count("p_max", p_max, 1)
    if p_max > BESSEL_MAX_P:
        raise EnumerationBoundError(
            f"p_max exceeds the bound {BESSEL_MAX_P} (the default ceil(10 + 5t) does at t > 198)")
    if _convolution_work(s, p_max) > BESSEL_MAX_WORK:
        raise EnumerationBoundError(f"s = {s} with p_max = {p_max} exceeds the convolution bound "
                                    f"of {BESSEL_MAX_WORK} coefficient additions")
    lam = t / s
    pmf = [math.exp(-lam)]  # Poisson(lam) weights at p = 0..p_max
    for p in range(1, p_max + 1):
        pmf.append(pmf[-1] * (lam / p))
    laws = [DiscreteMeasure(s, {CyclotomicInt.from_coeffs(s, [0] * (k % s) + [p]): w
                                for p, w in enumerate(pmf)}) for k in range(1, s + 1)]
    if s % 2 == 0:  # 2 * 41^2 + 81^2 pairs of atoms at s = 4, p_max = 40, not about 207 000
        laws = [convolve(a, b) for a, b in zip(laws[:s // 2], laws[s // 2:])]
    law = reduce(convolve, laws)
    deficit = 1.0 - sum(pmf) ** s
    return DiscreteMeasure(s, law.atoms, max(deficit, 0.0))


def power_pushforward(m: DiscreteMeasure, s: int) -> DiscreteMeasure:
    """Push forward x -> x^s with exact cyclotomic powering (gives p_st from the modified law)."""
    atoms: dict[CyclotomicInt, float] = {}
    for atom, w in m.atoms.items():
        key = atom.power(s)
        atoms[key] = atoms.get(key, 0.0) + w
    return DiscreteMeasure(m.s, atoms, m.deficit)


def _atom_index(r) -> float:
    """float(r) for a Bessel index, refused unless it is an integer within the doubles."""
    if not (out := _as_float("r", r)).is_integer():
        raise ArgumentError("r must be an integer")
    return out


def bessel_function(r: int, u: float) -> float:
    """First-kind Bessel sum phi_r(u) = sum_p u^(2p+r)/(p! (p+r)!); OverflowError past the doubles."""
    return _bessel_sum(r, u, 0.0)


BESSEL_MAX_TERMS = 10**6


def _stirling_remainder(n: float) -> float:
    """mu(n) = log n! - (n log n - n + log(2 pi n)/2), by Stirling's series from n = 10 on."""
    if n < 10:
        return math.lgamma(n + 1) - (n * math.log(n) - n + 0.5 * math.log(2 * math.pi * n))
    series = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
    return sum(c * (1 / n) ** (2 * j + 1) for j, c in enumerate(series))  # next term < 4e-17


def _bessel_sum(r: int, u: float, shift: float) -> float:
    """e^(-shift) phi_r(u), each term exp((2p + r) log|u| - lgamma(p+1) - lgamma(p+r+1) - shift).

    The sum runs outwards from the largest term, at the last p with p (p + r) <= u^2, by the
    term ratio u^2/(p (p + r)), until a term falls below 2^-56 of the sum.  A sum that needs more
    than BESSEL_MAX_TERMS terms above the peak raises ValueError; that takes a peak p past
    about 10^9, which bessel_s2_weight reaches only for r^2 above about 20 t.
    """
    if r < 0:
        raise ArgumentError("r must be >= 0")
    u, r = _as_float("u", u), _atom_index(r)
    sign, u = (-1.0 if u < 0 and r % 2 else 1.0), abs(u)
    if u == 0.0:
        return math.exp(-shift) if r == 0 else 0.0
    top = int(math.hypot(u, r / 2) - r / 2)
    # log(u^n / n!) = n - n log(n/u) - log(2 pi n)/2 - mu(n): no parts of size t log t to cancel
    log_peak = 2 * top + r - shift - sum(
        n * math.log1p((n - u) / u) + 0.5 * math.log(2 * math.pi * n) + _stirling_remainder(n)
        for n in (top, top + r) if n)
    if log_peak > 709.78:  # e^709.78 is the double max
        raise OverflowError(f"phi_{r}({u}) e^-{shift} exceeds the double range")
    total = term = peak = math.exp(log_peak)
    for p in range(top + 1, top + BESSEL_MAX_TERMS):
        term *= u * u / (p * (p + r))
        total += term
        if term <= 2**-56 * total:
            break
    else:
        raise ValueError(f"phi_{r}({u}) needs more than {BESSEL_MAX_TERMS} terms")
    term = peak
    for p in range(top, 0, -1):  # they fall faster below the peak than above it
        term *= p * (p + r) / (u * u)
        total += term
        if term <= 2**-56 * total:
            break
    if total == math.inf:
        raise OverflowError(f"phi_{r}({u}) e^-{shift} exceeds the double range")
    return sign * total


def bessel_s2_weight(t: float, r: int) -> float:
    """Weight of the modified law at integer atom r for s = 2: e^(-t) phi_|r|(t/2) = e^(-t) I_|r|(t).

    Hankel's expansion e^(-t) I_r(t) = (2 pi t)^(-1/2) sum_k prod_(j <= k) ((2j-1)^2 - 4r^2)/(8jt)
    gives it where its terms fall below 2^-56 of the sum before they grow (from t near 20 at
    r = 0), and Debye's leading term where hypot(t, r) >= 2^50; the series with e^(-t) folded
    into its terms gives it elsewhere.
    """
    t, r = _as_float("t", t), abs(_atom_index(r))  # 4 r^2 overflows to inf, not an error
    if t > 0:
        # Chernoff: e^-t I_r(t) <= exp(E), E = t (cosh l - 1) - l r, sinh l = r/t; below e^-746
        # it rounds to 0.  Debye's term exp(E)/sqrt(2 pi hypot(t, r)) is off by about
        # 1/(8 hypot(t, r)) relative: below 2^-53 from hypot(t, r) = 2^50 on.
        hyp = math.hypot(t, r)
        if (E := r * (r / (t + hyp)) - r * math.asinh(r / t)) < -746:
            return 0.0
        if hyp >= 2**50:
            return math.exp(E) / math.sqrt(2 * math.pi * hyp)
        term = total = 1.0
        for k in range(1, 100):
            step = ((2 * k - 1) ** 2 - 4 * r * r) / (8 * k * t)
            if abs(step) >= 1.0:
                break
            term *= step
            total += term
            if abs(term) <= 2**-56 * total:
                return total / math.sqrt(2 * math.pi * t)
    return _bessel_sum(r, t / 2, t)


def fourier(m: DiscreteMeasure, z: complex) -> complex:
    """F(z) = sum of weights * exp(atom * z), via the complex embedding."""
    return sum(w * cmath.exp(a * z) for a, w in zip(m.embedded, m.atoms.values()))


def convolve(
    m1: DiscreteMeasure, m2: DiscreteMeasure, prune: float = 0.0
) -> DiscreteMeasure:
    """Classical convolution: atom-wise exact sums, weights multiplied and merged.

    Atoms below ``prune`` total weight are dropped into the deficit.
    """
    if m1.s != m2.s:
        raise ValueError("mixed cyclotomic orders")
    # Sums of reduced coefficient vectors are reduced.  Read as balanced base-B digits,
    # B = 2 (b1 + b2) + 1 with b_i the largest |coefficient| among m_i's atoms, each vector
    # is one exact integer key: no coefficient of a sum passes (B - 1)/2, so the keys add as
    # the vectors do and stay injective.  Each merged atom is decoded once at the end.
    base = 2 * sum(max((abs(c) for a in m.atoms for c in a.coeffs), default=0)
                   for m in (m1, m2)) + 1
    half, powers = base // 2, [base**j for j in range(len(cyclotomic_polynomial(m1.s)) - 1)]
    offset = half * sum(powers)  # k + offset has the plain base-B digits c_j + half

    def key(atom: CyclotomicInt) -> int:
        return sum(c * p for c, p in zip(atom.coeffs, powers))

    def digits(k: int) -> tuple[int, ...]:
        k += offset
        return tuple([k // p % base - half for p in powers])

    items2 = [(key(a), w) for a, w in m2.atoms.items()]
    sums: dict[int, float] = {}
    for a1, w1 in m1.atoms.items():
        k1 = key(a1)
        for k2, w2 in items2:
            k = k1 + k2
            sums[k] = sums.get(k, 0.0) + w1 * w2
    deficit = 1.0 - (1.0 - m1.deficit) * (1.0 - m2.deficit)
    if prune > 0.0:
        deficit += sum(w for w in sums.values() if w < prune)
        sums = {k: w for k, w in sums.items() if w >= prune}
    atoms = {CyclotomicInt(m1.s, digits(k)): w for k, w in sums.items()}
    return DiscreteMeasure(m1.s, atoms, deficit)


def dirac(s: int, atom: CyclotomicInt | int) -> DiscreteMeasure:
    if isinstance(atom, int):
        atom = CyclotomicInt.integer(s, atom)
    return DiscreteMeasure(s, {atom: 1.0})


def roots_of_unity_measure(s: int) -> DiscreteMeasure:
    """Uniform measure on the s-th roots of unity, as exact ring elements."""
    _check_count("s", s, 1)
    return DiscreteMeasure(s, {CyclotomicInt.root_power(s, k): 1.0 / s for k in range(s)})


def poisson_limit(s: int, n: int) -> DiscreteMeasure:
    """((1 - 1/n) delta_0 + (1/n) rho)^(*n), rho uniform on the s-th roots of unity.

    Computed by binary powering under convolution; atoms below 1e-15 are pruned
    into the deficit to keep the atom map manageable for large n.
    """
    _check_count("n", n, 1)
    base = DiscreteMeasure(s, {CyclotomicInt.zero(s): 1.0 - 1.0 / n,
                               **{a: w / n for a, w in roots_of_unity_measure(s).atoms.items()}})
    return _power(base, n, partial(convolve, prune=1e-15))


def total_variation(m1: DiscreteMeasure, m2: DiscreteMeasure) -> float:
    """TV distance between atom maps; truncation deficits count as disjoint mass."""
    if m1.s != m2.s:
        raise ValueError("mixed cyclotomic orders")
    keys = set(m1.atoms) | set(m2.atoms)
    diff = sum(abs(m1.weight_at(k) - m2.weight_at(k)) for k in keys)
    return 0.5 * (diff + m1.deficit + m2.deficit)
