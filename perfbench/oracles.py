"""Reference values computed without the library under test.

Everything here uses only the standard library (and plain floats), so a
value the library gets wrong cannot also be wrong here for the same reason.
``python3 perfbench/oracles.py`` runs the self-test; ``run.py`` runs it
before every benchmark run and refuses to measure if it fails.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction


def fuss_catalan(s: int, k: int) -> int:
    """#NC_s(k) = binom((s+1)k, k) / (sk+1)."""
    return math.comb((s + 1) * k, k) // (s * k + 1)


def fuss_narayana(s: int, k: int) -> list[Fraction]:
    """[c_0, ..., c_k]: c_b = (1/b) binom(k-1, b-1) binom(sk, b-1) counts b-block partitions."""
    return [Fraction(0)] + [
        Fraction(math.comb(k - 1, b - 1) * math.comb(s * k, b - 1), b)
        for b in range(1, k + 1)
    ]


def free_bessel_moment(s: int, t, k: int):
    """k-th moment of pi_st for integer s: the Fuss-Narayana polynomial at t."""
    return sum(c * t**b for b, c in enumerate(fuss_narayana(s, k)) if b)


def marchenko_pastur_density(t: float, x: float) -> float:
    """Free Poisson (s = 1) density of rate t on [(1-sqrt t)^2, (1+sqrt t)^2]."""
    a, b = (1 - math.sqrt(t)) ** 2, (1 + math.sqrt(t)) ** 2
    if not a < x < b:
        return 0.0
    return math.sqrt((b - x) * (x - a)) / (2 * math.pi * x)


def level_exponential(s: int, z: complex) -> complex:
    """E_s(z) = sum_k z^(sk)/(sk)! in the averaged form (1/s) sum_k exp(w^k z)."""
    w = cmath.exp(2j * math.pi / s)
    return sum(cmath.exp(w**k * z) for k in range(s)) / s


def bessel_law_fourier(s: int, t: float, z: complex) -> complex:
    """E exp(zX) for X = sum_k w^k a_k, a_k ~ Poisson(t/s): exp(t (E_s(z) - 1))."""
    return cmath.exp(t * (level_exponential(s, z) - 1))


def bessel_s2_weight(t: float, r: int) -> float:
    """Weight of the s = 2 law at the integer r: e^-t sum_p (t/2)^(2p+|r|) / (p! (p+|r|)!)."""
    r = abs(r)
    u = t / 2
    return math.exp(-t) * math.fsum(
        u ** (2 * p + r) / (math.factorial(p) * math.factorial(p + r)) for p in range(40)
    )


def moments_from_cumulants(kappa: list) -> list:
    """[m_1..m_n] from classical cumulants [k_1..k_n] (m_n = sum C(n-1,j-1) k_j m_(n-j))."""
    m = [1]
    for n in range(1, len(kappa) + 1):
        m.append(sum(math.comb(n - 1, j - 1) * kappa[j - 1] * m[n - j]
                     for j in range(1, n + 1)))
    return m[1:]


def level_law_moments(s: int, t, n: int) -> list:
    """E X^1..E X^n for the modified Bessel law: cumulant t at multiples of s, else 0."""
    return moments_from_cumulants([t if j % s == 0 else 0 for j in range(1, n + 1)])


def real_part_moments(s: int, t: float, n: int) -> list[float]:
    """E (Re X)^1..n: Re X = sum_k cos(2 pi k/s) a_k with independent Poisson(t/s) a_k."""
    kappa = [t / s * math.fsum(math.cos(2 * math.pi * k / s) ** j for k in range(s))
             for j in range(1, n + 1)]
    return moments_from_cumulants(kappa)


def poisson_moments(t, n: int) -> list:
    """Touchard polynomials: E P^j = sum_k S(j, k) t^k for P ~ Poisson(t), j = 1..n."""
    stirling = [[1]]
    for j in range(1, n + 1):
        prev = stirling[-1] + [0]
        stirling.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, j + 1)])
    return [sum(stirling[j][k] * t**k for k in range(j + 1)) for j in range(1, n + 1)]


def character_second_moment(s: int, n: int, m: int) -> Fraction:
    """E|chi|^2 of the character truncated to the first m of n indices over Z_s wr S_n.

    The fixed points among the first m positions number F, E F = m/n and
    E F(F-1) = m(m-1)/(n(n-1)); for s >= 2 the phases kill the cross terms.
    """
    first = Fraction(m, n)
    return first if s >= 2 else first + Fraction(m * (m - 1), n * (n - 1))


def _cycles(perm: tuple[int, ...]) -> list[int]:
    left = set(range(len(perm)))
    lengths = []
    while left:
        start = cur = left.pop()
        n = 1
        while perm[cur] != start:
            cur = perm[cur]
            left.discard(cur)
            n += 1
        lengths.append(n)
    return lengths


def wishart_trace_polynomial(K: int, s: int = 1) -> dict[int, int]:
    """E (1/M) tr (DW)^K as {exponent of M: coefficient} by the genus sum over S_K.

    sigma contributes M^(#cycles(sigma) + #cycles(sigma^-1 gamma) - K - 1), gamma the
    full cycle; with the s-roots diagonal D only cycle lengths divisible by s survive.
    """
    gamma = tuple((i + 1) % K for i in range(K))
    poly: dict[int, int] = {}
    for sigma in itertools.permutations(range(K)):
        cyc = _cycles(sigma)
        if any(c % s for c in cyc):
            continue
        inv = [0] * K
        for i, v in enumerate(sigma):
            inv[v] = i
        rel = tuple(inv[gamma[i]] for i in range(K))
        e = len(cyc) + len(_cycles(rel)) - K - 1
        poly[e] = poly.get(e, 0) + 1
    return poly


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


def self_test() -> list[str]:
    """Check the oracles against tabulated values and against each other."""
    bad = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            bad.append(what)

    table = {1: [1, 1, 2, 5, 14, 42], 2: [1, 1, 3, 12, 55, 273], 3: [1, 1, 4, 22, 140]}
    for s, row in table.items():
        expect([fuss_catalan(s, k) for k in range(len(row))] == row, f"Fuss-Catalan s={s}")
        expect(all(sum(fuss_narayana(s, k)) == fuss_catalan(s, k) for k in range(1, 6)),
               f"Fuss-Narayana rows sum to Fuss-Catalan, s={s}")
    expect(free_bessel_moment(1, Fraction(1, 2), 2) == Fraction(3, 4), "m_2 of pi_1,1/2")
    # Marchenko-Pastur mass t by the midpoint rule in x = a + (b-a) sin^2(theta)
    t = 0.4
    a, b = (1 - math.sqrt(t)) ** 2, (1 + math.sqrt(t)) ** 2
    n = 4000
    mass = 0.0
    for i in range(n):
        th = (i + 0.5) * (math.pi / 2) / n
        x = a + (b - a) * math.sin(th) ** 2
        mass += marchenko_pastur_density(t, x) * (b - a) * math.sin(2 * th) * (math.pi / 2) / n
    expect(abs(mass - t) < 1e-6, "Marchenko-Pastur mass")
    z = 0.7 + 0.2j
    for s in (1, 2, 3, 4):
        series = sum(z ** (s * k) / math.factorial(s * k) for k in range(30))
        expect(abs(level_exponential(s, z) - series) < 1e-14, f"E_{s} averaged = series")
    expect(abs(math.fsum(bessel_s2_weight(0.9, r) for r in range(-40, 41)) - 1) < 1e-14,
           "s = 2 weights sum to 1")
    expect(poisson_moments(1, 6) == [1, 2, 5, 15, 52, 203], "Bell numbers")
    expect(level_law_moments(1, Fraction(1), 6) == [1, 2, 5, 15, 52, 203],
           "s = 1 law is Poisson")
    expect(level_law_moments(2, 1, 4)[3] == 1 + 3, "E X^4 = t + 3 t^2 at s = 2")
    expect(all(abs(u - v) < 1e-12 for u, v in
               zip(real_part_moments(2, 0.8, 5), level_law_moments(2, 0.8, 5))),
           "real atoms at s = 2")
    expect(wishart_trace_polynomial(2) == {0: 2}, "E tr W^2 / M = 2")
    poly = wishart_trace_polynomial(4)
    expect(poly[0] == 14 and sum(poly.values()) == 24, "K = 4 genus sum")
    poly = wishart_trace_polynomial(4, 2)
    expect(poly[0] == 3 and sum(poly.values()) == double_factorial(3) ** 2,
           "K = 4 even-cycle genus sum")
    expect(character_second_moment(3, 8, 4) == Fraction(1, 2), "E|chi|^2, s >= 2")
    return bad


if __name__ == "__main__":
    failures = self_test()
    for f in failures:
        print(f"oracle self-test FAILED: {f}")
    print("oracle self-test", "failed" if failures else "passed")
    raise SystemExit(1 if failures else 0)
