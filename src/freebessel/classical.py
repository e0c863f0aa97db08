"""Classical Bessel laws: exact atoms in Z[w], level-s exponentials, convolution.

Atoms live in the ring of integers of the s-th cyclotomic field, represented
exactly modulo the cyclotomic polynomial, so that atom merging is never done
by floating-point proximity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add
from typing import Iterable

from .partitions import ArgumentError


@lru_cache(maxsize=None)
def cyclotomic_polynomial(s: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the s-th cyclotomic polynomial.

    Computed by exact division of x^s - 1 by the product of the lower
    cyclotomic polynomials over proper divisors of s.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
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
        result = CyclotomicInt.integer(self.s, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _check(self, other: "CyclotomicInt") -> None:
        if self.s != other.s:
            raise ValueError("mixed cyclotomic orders")

    def to_complex(self) -> complex:
        w = cmath.exp(2j * cmath.pi / self.s)
        return sum(c * w**k for k, c in enumerate(self.coeffs))


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
        """Ordinary moments (real atoms assumed; uses the real part of the embedding)."""
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
    if s < 1:
        raise ValueError("s must be >= 1")
    w = cmath.exp(2j * cmath.pi / s)
    val = sum(cmath.exp(w**k * z) for k in range(1, s + 1)) / s
    if isinstance(z, (int, float)):
        return val.real
    return val


def bessel_law(s: int, t: float, p_max: int | None = None) -> DiscreteMeasure:
    """The modified Bessel law: law of sum(w^k a_k) for independent Poisson(t/s) a_k.

    The s-fold convolution of the laws of p w^k, p <= p_max, merged exactly
    in Z[w] after each factor; the deficit is the exact product-Poisson tail
    mass.  The default p_max = ceil(10 + 5t) bounds only that deficit, not the
    Fourier tail at |z| > 1 (s = 1, t = 1.34: fourier(m, 1.2) is off by 2.5e-5
    while the deficit is 8e-15); pass a larger p_max there.
    """
    if not t > 0:
        raise ArgumentError("bessel_law needs t > 0")
    if p_max is None:
        p_max = math.ceil(10 + 5 * t)
    if p_max < 1:
        raise ArgumentError("p_max must be >= 1")
    lam = t / s
    pmf = [math.exp(-lam)]  # Poisson(lam) weights at p = 0..p_max
    for p in range(1, p_max + 1):
        pmf.append(pmf[-1] * (lam / p))
    law = dirac(s, 0)
    for k in range(1, s + 1):
        factor = {CyclotomicInt.from_coeffs(s, [0] * (k % s) + [p]): w
                  for p, w in enumerate(pmf)}
        law = convolve(law, DiscreteMeasure(s, factor))
    deficit = 1.0 - sum(pmf) ** s
    return DiscreteMeasure(s, law.atoms, max(deficit, 0.0))


def power_pushforward(m: DiscreteMeasure, s: int) -> DiscreteMeasure:
    """Push forward x -> x^s with exact cyclotomic powering (gives p_st from the modified law)."""
    atoms: dict[CyclotomicInt, float] = {}
    for atom, w in m.atoms.items():
        key = atom.power(s)
        atoms[key] = atoms.get(key, 0.0) + w
    return DiscreteMeasure(m.s, atoms, m.deficit)


def bessel_function(r: int, u: float) -> float:
    """First-kind Bessel sum phi_r(u) = sum_p u^(2p+r)/(p! (p+r)!)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    term = u**r / math.factorial(r)
    total = term
    p = 0
    while True:
        p += 1
        term *= u * u / (p * (p + r))
        total += term
        if abs(term) < 1e-20 * max(1.0, abs(total)):
            return total


def bessel_s2_weight(t: float, r: int) -> float:
    """Weight of the modified law at integer atom r for s = 2: e^(-t) phi_|r|(t/2)."""
    return math.exp(-t) * bessel_function(abs(r), t / 2)


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
    # Sums of reduced coefficient vectors are reduced, so the integer tuples
    # are exact keys; each merged atom is wrapped once at the end.
    items2 = [(a.coeffs, w) for a, w in m2.atoms.items()]
    sums: dict[tuple[int, ...], float] = {}
    for a1, w1 in m1.atoms.items():
        c1 = a1.coeffs
        for c2, w2 in items2:
            key = tuple(map(add, c1, c2))
            sums[key] = sums.get(key, 0.0) + w1 * w2
    deficit = 1.0 - (1.0 - m1.deficit) * (1.0 - m2.deficit)
    if prune > 0.0:
        deficit += sum(w for w in sums.values() if w < prune)
        sums = {c: w for c, w in sums.items() if w >= prune}
    atoms = {CyclotomicInt(m1.s, c): w for c, w in sums.items()}
    return DiscreteMeasure(m1.s, atoms, deficit)


def dirac(s: int, atom: CyclotomicInt | int) -> DiscreteMeasure:
    if isinstance(atom, int):
        atom = CyclotomicInt.integer(s, atom)
    return DiscreteMeasure(s, {atom: 1.0})


def roots_of_unity_measure(s: int) -> DiscreteMeasure:
    """Uniform measure on the s-th roots of unity, as exact ring elements."""
    atoms: dict[CyclotomicInt, float] = {}
    for k in range(s):
        key = CyclotomicInt.root_power(s, k)
        atoms[key] = atoms.get(key, 0.0) + 1.0 / s
    return DiscreteMeasure(s, atoms)


def poisson_limit(s: int, n: int, prune: float = 1e-15) -> DiscreteMeasure:
    """((1 - 1/n) delta_0 + (1/n) rho)^(*n), rho uniform on the s-th roots of unity.

    Computed by binary powering under convolution; tiny atoms are pruned into
    the deficit to keep the atom map manageable for large n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rho = roots_of_unity_measure(s)
    base_atoms = {CyclotomicInt.zero(s): 1.0 - 1.0 / n}
    for atom, w in rho.atoms.items():
        base_atoms[atom] = base_atoms.get(atom, 0.0) + w / n
    base = DiscreteMeasure(s, base_atoms)
    result: DiscreteMeasure | None = None
    power = base
    k = n
    while k:
        if k & 1:
            result = power if result is None else convolve(result, power, prune=prune)
        k >>= 1
        if k:
            power = convolve(power, power, prune=prune)
    assert result is not None
    return result


def total_variation(m1: DiscreteMeasure, m2: DiscreteMeasure) -> float:
    """TV distance between atom maps; truncation deficits count as disjoint mass."""
    if m1.s != m2.s:
        raise ValueError("mixed cyclotomic orders")
    keys = set(m1.atoms) | set(m2.atoms)
    diff = sum(abs(m1.weight_at(k) - m2.weight_at(k)) for k in keys)
    return 0.5 * (diff + m1.deficit + m2.deficit)
