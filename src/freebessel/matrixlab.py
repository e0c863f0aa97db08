"""Random-matrix and character models, exact expected traces, Weingarten checks.

Monte Carlo runs are reproducible: trial i draws from a generator seeded by
splitmix64(seed, i), and results are accumulated in trial order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .partitions import (
    ArgumentError,
    ColoredWord,
    EnumerationBoundError,
    count_balanced,
    enumerate_balanced,
    join,
)

MASK64 = (1 << 64) - 1


def splitmix64(seed: int, index: int) -> int:
    """Deterministic per-trial seed derivation."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(splitmix64(seed, index)))


@dataclass(frozen=True)
class MCReport:
    statistic: str
    estimate: float
    std_error: float | None  # None when one trial leaves it undefined
    trials: int
    dim: int
    seed: int

    def as_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "trials": self.trials,
            "N": self.dim,
            "seed": self.seed,
        }


def _report(statistic: str, samples: Sequence[float], dim: int, seed: int) -> MCReport:
    arr = np.asarray(samples, dtype=float)
    est = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else None
    return MCReport(statistic, est, se, len(arr), dim, seed)


def _check_mc_args(s: int, dim: int, trials: int, powers: Sequence[int] = (1,)) -> None:
    """Refuse the inputs for which a Monte Carlo run gives no estimate."""
    if not powers or min(s, dim, trials, *powers) < 1:
        raise ArgumentError("s, N, trials and every power must be >= 1, with powers nonempty")


def _check_character_args(n: int, t: float) -> None:
    """The domain of the truncated character and the Weingarten sum: n >= 4, t in (0, 1]."""
    if n < 4 or not 0 < t <= 1:
        raise ArgumentError(f"need n >= 4 and t in (0, 1], got n = {n}, t = {t}")


def sample_ginibre(
    rows: int, cols: int, variance: float, rng: np.random.Generator
) -> np.ndarray:
    """Complex Gaussian matrix with i.i.d. entries, E|g|^2 = variance."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    g = np.empty((rows, cols), dtype=complex)
    g.real = rng.standard_normal((rows, cols))
    g.imag = rng.standard_normal((rows, cols))
    g *= math.sqrt(variance / 2)
    return g


def _trace_powers(A: np.ndarray, powers: Iterable[int]) -> dict[int, complex]:
    """tr(A^m) for each m, forming only the powers that some m or formed power needs.

    Each m > 1, and each formed power, splits as a + b over formed powers (A^1
    is given): tr(A^m) = sum_ij (A^a)_ij (A^b)_ji and A^m = A^a A^b.  From the
    largest m down, a split takes two powers already chosen if it can, else one
    chosen power above 1 and one new power, else the two halves.  [3, 6, 9]
    forms A^2, A^4 and A^5: 3 products.
    """
    split: dict[int, tuple[int, int]] = {}
    chosen, pending = {1}, set(powers) - {1}
    while pending:
        m = max(pending)
        pending.remove(m)
        pair = next(((m - a, a) for a in sorted(chosen) if m - a in chosen), None)
        if pair is None:
            pair = next(((m - b, b) for b in sorted(chosen, reverse=True) if 1 < b < m),
                        ((m + 1) // 2, m // 2))
        split[m] = pair
        pending.update(set(pair) - chosen)
        chosen.update(pair)
    formed = {1: A}
    for p in sorted(chosen - {1}):  # the parts of a split are smaller than the power
        a, b = split[p]
        formed[p] = formed[a] @ formed[b]
    return {m: complex(np.einsum("ij,ji->", formed[split[m][0]], formed[split[m][1]])
                       if m > 1 else np.trace(A))
            for m in set(powers)}


def product_model_mc(s: int, N: int, k: int, trials: int, seed: int) -> MCReport:
    """Mean of tr((M M*)^k) with M a product of s independent Ginibre matrices."""
    return product_model_mc_multi(s, N, [k], trials, seed)[k]


def product_model_mc_multi(
    s: int, N: int, powers: Sequence[int], trials: int, seed: int
) -> dict[int, MCReport]:
    """product_model_mc for several powers, drawing the s factors once per trial.

    Traces come from matrix products, never from an eigendecomposition.
    """
    _check_mc_args(s, N, trials, powers)
    samples: dict[int, list[float]] = {k: [] for k in powers}
    for i in range(trials):
        rng = _trial_rng(seed, i)
        M = sample_ginibre(N, N, 1.0 / N, rng)
        for _ in range(s - 1):
            M = M @ sample_ginibre(N, N, 1.0 / N, rng)
        traces = _trace_powers(M @ M.conj().T, samples)
        for k, vals in samples.items():
            vals.append(traces[k].real / N)
    return {k: _report(f"tr((MM*)^{k}), s={s}", v, N, seed) for k, v in samples.items()}


def _dw_matrix(s: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """D W for a W(sN, sN, I/(sN)) Wishart W and the s-roots-of-unity diagonal D."""
    M = s * N
    G = sample_ginibre(M, M, 1.0 / M, rng)
    W = G.conj().T @ G
    w = np.exp(2j * np.pi / s)
    d = np.repeat(w ** np.arange(s), N)
    return np.multiply(d[:, None], W, out=W)


def dw_model_mc(
    s: int, N: int, k: int, trials: int, seed: int, power: int | None = None
) -> MCReport:
    """Mean of tr((DW)^m) with m = s*k by default, or any explicit power.

    For s | m the estimates converge to the Fuss-Catalan moments; for s !| m
    they vanish in the limit.
    """
    m = power if power is not None else s * k
    return dw_model_mc_multi(s, N, [m], trials, seed)[m]


def dw_model_mc_multi(
    s: int, N: int, powers: Sequence[int], trials: int, seed: int
) -> dict[int, MCReport]:
    """Like dw_model_mc but shares the per-trial matrices over several powers."""
    _check_mc_args(s, N, trials, powers)
    samples: dict[int, list[float]] = {m: [] for m in powers}
    for i in range(trials):
        traces = _trace_powers(_dw_matrix(s, N, _trial_rng(seed, i)), samples)
        for m, vals in samples.items():
            vals.append(traces[m].real / (s * N))
    return {m: _report(f"tr((DW)^{m}), s={s}", v, N, seed) for m, v in samples.items()}


# --- exact expected traces from hook characters ----------------------------


GLM_MAX_K = 20


def _class_sums(K: int, step: int) -> dict[int, list[int]]:
    """{l: sum of |C_lambda| prod_i (1 - (-y)^lambda_i)} over lambda |- K with l parts.

    Only cycle types whose parts are all multiples of ``step`` are summed; the
    values are coefficient lists in y.  A depth-first walk over the parts in
    non-increasing order extends the product one factor per part, and tracks
    z_lambda = prod_i i^(m_i) m_i!, so |C_lambda| = K!/z_lambda.
    """
    fact = math.factorial(K)
    sums: dict[int, list[int]] = {}

    def walk(rest: int, top: int, poly: list[int], length: int, z: int, mult: int) -> None:
        if rest == 0:
            acc = sums.setdefault(length, [0] * (K + 1))
            size = fact // z
            for i, c in enumerate(poly):
                acc[i] += size * c
            return
        for part in range(min(rest, top) // step * step, 0, -step):
            times = mult + 1 if part == top else 1
            sign = -1 if part % 2 else 1
            nxt = poly[:]
            for i in range(part, K + 1):
                nxt[i] -= sign * poly[i - part]
            walk(rest - part, part, nxt, length + 1, z * part * times, times)

    walk(K, K, [1] + [0] * K, 0, 1, 0)
    return sums


def glm_exact(
    K: int, s: int | None = None, d_spec: str = "identity"
) -> dict[int, Fraction]:
    """Exact E tr((DW)^K) as a Laurent polynomial in 1/M, by the hook-character sum.

    For ``d_spec="identity"`` the result is the normalized Wishart trace
    E tr(W^K) as {exponent: coefficient} in 1/M.  For ``d_spec="roots"`` (with
    block size s), only permutations with all cycle lengths divisible by s
    survive, M = sN, and the constant term equals #NC_s(K/s).

    sigma contributes M^(#cycles(sigma) + #cycles(sigma^-1 pi) - K - 1), pi the
    full cycle.  Over a class C_lambda, sum q^#cycles(sigma^-1 pi) is
    |C_lambda|/K! sum_r (-1)^r chi_r(lambda) prod_{c=-r}^{K-r-1} (q + c), with
    chi_r the character of the hook (K-r, 1^r): only hooks are nonzero on pi.
    chi_r(lambda) is the y^r coefficient of prod_i (1 - (-y)^lambda_i)/(1 + y)
    (Zagier 1995; Stanley 2011).  The classes are summed per cycle count
    before the hook sum, in integers, and divided by K! once.
    """
    if K > GLM_MAX_K:
        raise EnumerationBoundError(f"K = {K} exceeds the hook-character bound {GLM_MAX_K}")
    if K < 1:
        raise ArgumentError("K must be >= 1")
    if d_spec not in ("identity", "roots"):
        raise ArgumentError(f"unknown d_spec {d_spec!r}")
    if d_spec == "roots" and (s is None or s < 1 or K % s):
        raise ArgumentError(f"the roots spec needs an s >= 1 that divides K = {K}, got s = {s}")
    # content polynomials of the hooks, coefficient lists in q
    contents = []
    for r in range(K):
        poly = [1]
        for c in range(-r, K - r):
            poly = [a * c + b for a, b in zip(poly + [0], [0] + poly)]
        contents.append(poly)
    total: dict[int, int] = {}
    for length, sums in _class_sums(K, s if d_spec == "roots" else 1).items():
        chi = [sums[0]]  # divide by 1 + y
        for a in sums[1:K]:
            chi.append(a - chi[-1])
        assert sums[K] == chi[-1], "1 + y divides the class sum"
        for r, c_r in enumerate(chi):
            weight = -c_r if r % 2 else c_r
            for j, coeff in enumerate(contents[r]):
                e = j + length - K - 1
                total[e] = total.get(e, 0) + weight * coeff
    fact = math.factorial(K)
    out = {}
    for e in sorted(total, reverse=True):
        count, rem = divmod(total[e], fact)
        assert rem == 0, "K! divides the class-weighted hook sum"
        if count:
            out[e] = Fraction(count)
    return out


def glm_eval(poly: dict[int, Fraction], M: float) -> float:
    return float(sum(float(c) * M**e for e, c in poly.items()))


def geodesic_count(s: int, k: int) -> int:
    """#{sigma in S_sk: cycle lengths all divisible by s, sigma on a geodesic e -> full cycle}.

    Distances on the Cayley graph are d(a,b) = K - #cycles(a^-1 b), so sigma
    is geodesic iff #cycles(sigma) + #cycles(sigma^-1 pi) = K + 1: exactly the
    permutations that contribute to the constant term of glm_exact.
    """
    if k == 0:
        return 1
    return int(glm_exact(s * k, s, "roots").get(0, 0))


# --- characters and Weingarten ----------------------------------------------


def hns_character_mc(
    s: int, n: int, t: float, trials: int, seed: int, word: ColoredWord
) -> MCReport:
    """Monte Carlo *-moment of the truncated character over Z_s wr S_n.

    A uniform group element is a uniform permutation with i.i.d. uniform
    s-th-root-of-unity entries; the truncated character sums the diagonal
    entries with index <= floor(t n).
    """
    _check_mc_args(s, n, trials)
    _check_character_args(n, t)
    m = int(math.floor(t * n))
    samples = []
    for i in range(trials):
        rng = _trial_rng(seed, i)
        perm = rng.permutation(n)
        fixed = np.nonzero(perm[:m] == np.arange(m))[0]
        phases = np.exp(2j * np.pi * rng.integers(0, s, size=n) / s)
        chi = phases[fixed].sum() if fixed.size else 0j
        val = 1.0 + 0j
        for sg in word.signs:
            val *= chi if sg == 1 else np.conj(chi)
        samples.append(val.real)
    return _report(f"chi_t word {word}, s={s}, t={t}", samples, n, seed)


def _gram_trace(join_blocks: list[list[int]], n: int, m: int) -> Fraction:
    """tr(G(n)^-1 G(m)) exactly, where G(x)_pq = x^join_blocks[p][q] and n is an integer.

    Bareiss elimination of [G(n) | G(m)] with no row swaps: G(n) = Z diag((n)_|tau|) Z^T
    is positive semidefinite, so a zero pivot (leading minor) means G(n) is singular.
    Fraction-free back substitution gives D = det G(n) G(n)^-1 G(m), row i only in the
    columns c <= i that the trace sum_c D_cc needs.  Ordering rows and columns by |p|
    leaves the trace as it is and keeps the early minors, where most work runs, small.
    """
    dim = len(join_blocks)
    order = sorted(range(dim), key=lambda i: join_blocks[i][i])
    rows = [[x ** join_blocks[i][j] for x in (n, m) for j in order] for i in order]
    prev = 1
    for k, head in enumerate(rows):
        pivot = head[k]
        if pivot == 0:
            raise np.linalg.LinAlgError("singular Gram matrix")
        for row in rows[k + 1:]:
            lead = row[k]
            row[k + 1:] = [(pivot * x - lead * y) // prev
                           for x, y in zip(row[k + 1:], head[k + 1:])]
        prev = pivot
    solved: list[list[int]] = [[]] * dim
    for i in reversed(range(dim)):
        row = rows[i]
        acc = [prev * b for b in row[dim:dim + i + 1]]
        for j in range(i + 1, dim):
            acc = [u - row[j] * v for u, v in zip(acc, solved[j])]
        solved[i] = [u // row[i] for u in acc]
    return Fraction(sum(solved[i][i] for i in range(dim)), prev)


EXACT_WEINGARTEN_MAX_DIM = 55
WEINGARTEN_MAX_DIM = 500


def weingarten_finite_n(s: int, word: ColoredWord, n: int, t: float) -> float:
    """Finite-n Weingarten value sum_{p,q} W_n(p,q) [tn]^{|p join q|}.

    The Gram matrix G(n) over the balanced partitions has entries
    n^{|p join q|}; W_n is its inverse, so the value is tr(G(n)^-1 G([tn])).
    Converges to star_moment(s, t, word) as n grows.  Computed exactly when the
    matrix is small and n is integral, in floats otherwise.
    """
    _check_character_args(n, t)
    dim = sum(count_balanced(s, word))  # refuse a large Gram matrix before listing its rows
    if not dim:
        return 0.0
    if dim > WEINGARTEN_MAX_DIM:
        raise EnumerationBoundError(
            f"Gram dimension {dim} exceeds the Weingarten bound {WEINGARTEN_MAX_DIM}"
        )
    parts = enumerate_balanced(s, word)
    m = int(math.floor(t * n))
    join_blocks = [[join(p, q).block_count for q in parts] for p in parts]
    if dim <= EXACT_WEINGARTEN_MAX_DIM and float(n).is_integer():
        return float(_gram_trace(join_blocks, int(n), m))
    blocks = np.array(join_blocks, dtype=float)
    gram = float(n) ** blocks
    if not np.isfinite(cond := np.linalg.cond(gram)) or cond > 1e14:
        raise np.linalg.LinAlgError(f"Gram matrix ill-conditioned (cond ~ {cond:.3g}) at n = {n}")
    return float(np.sum(np.linalg.inv(gram) * float(m) ** blocks))
