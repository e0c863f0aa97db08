"""Random-matrix and character models, exact expected traces, Weingarten checks.

Monte Carlo runs are reproducible: trial i draws from a generator seeded by
splitmix64(seed, i), and results are accumulated in trial order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .partitions import (
    ArgumentError,
    ColoredWord,
    EnumerationBoundError,
    _check_count,
    count_balanced,
    enumerate_balanced,
    join_block_counts,
)

MASK64 = (1 << 64) - 1


def splitmix64(seed: int, index: int) -> int:
    """Deterministic per-trial seed derivation."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    import numpy as np
    return np.random.Generator(np.random.PCG64(splitmix64(seed, index)))


@dataclass(frozen=True)
class MCReport:
    statistic: str
    estimate: float
    std_error: float | None  # None when one trial leaves it undefined
    trials: int
    N: int
    seed: int

    def as_dict(self) -> dict:
        return dict(vars(self))


def _report(statistic: str, samples: Sequence[float], N: int, seed: int) -> MCReport:
    """Mean and standard error, taken on the samples _renormalised by a power of two and scaled
    back: exact where nothing under- or overflows, and finite for samples near 1e200."""
    import numpy as np
    arr, e = _renormalised(np.array(samples, dtype=float), 0)
    est = math.ldexp(float(arr.mean()), e)
    se = math.ldexp(float(arr.std(ddof=1) / math.sqrt(len(arr))), e) if len(arr) > 1 else None
    return MCReport(statistic, est, se, len(arr), N, seed)


def _check_mc_args(s: int, N: int, trials: int, powers: Sequence[int] = (1,)) -> None:
    """Refuse the inputs for which a Monte Carlo run gives no estimate."""
    if not powers:
        raise ArgumentError("powers must be nonempty, and every power must be >= 1")
    for name, value in (("s", s), ("N", N), ("trials", trials), *(("power", m) for m in powers)):
        _check_count(name, value, 1)


def _check_character_args(n: int, t: Fraction | float) -> int:
    """The domain of the truncated character and the Weingarten sum: integer n >= 4, t in
    (0, 1].  Returns m = floor(t n), computed exactly from the value of t (Fraction or float)."""
    _check_count("n", n, 4)
    if not 0 < t <= 1:
        raise ArgumentError(f"need t in (0, 1], got t = {t}")
    return math.floor(Fraction(t) * n)


def _ginibre(rows: int, cols: int, variance: float, rng: np.random.Generator, dtype) -> np.ndarray:
    """sample_ginibre's draws stored in dtype: a complex64 result holds exactly the values of
    sample_ginibre(...).astype(complex64), with no complex128 array in between."""
    import numpy as np
    if variance <= 0:
        raise ValueError("variance must be positive")
    g = np.empty((rows, cols), dtype=dtype)
    c = math.sqrt(variance / 2)
    np.multiply(rng.standard_normal((rows, cols)), c, out=g.real)
    np.multiply(rng.standard_normal((rows, cols)), c, out=g.imag)
    return g


def sample_ginibre(
    rows: int, cols: int, variance: float, rng: np.random.Generator
) -> np.ndarray:
    """Complex Gaussian matrix with i.i.d. entries, E|g|^2 = variance."""
    return _ginibre(rows, cols, variance, rng, complex)


def _half(m: int) -> int:
    """The largest power of two below m > 1."""
    return 1 << ((m - 1).bit_length() - 1)


def _renormalised(B: np.ndarray, e: int) -> tuple[np.ndarray, int]:
    """(2^-x B, e + x), in place, for the 2^x that brings B's largest real or imaginary part
    into [1/2, 1).  A power of two rounds nothing while the entries stay normal."""
    import numpy as np
    v = B.view(B.real.dtype)
    x = math.frexp(max(v.max(), -v.min()))[1]
    np.ldexp(v, -x, out=v)
    return B, e + x


def _ldexp_trace(tr: complex, e: int, p: int) -> complex:
    """2^e tr, the trace of A^p, or OverflowError past the float64 range."""
    try:
        return complex(math.ldexp(tr.real, e), math.ldexp(tr.imag, e))
    except OverflowError:
        raise OverflowError(f"tr(A^{p}) is beyond the float64 range") from None


def _trace_powers(A: np.ndarray, powers: Iterable[int], e: int = 0) -> dict[int, complex]:
    """tr(A^m) = sum_ij (A^h)_ij (A^(m-h))_ji for each m > 1, h = _half(m), with A^p = A^h A^(p-h)
    by the same split, so a chain depends on m alone: [3, 6, 9] forms A^2, A^4 and A^8.  Powers
    form in increasing order, each dropped after its last use: [3, 6, 9] holds A and at most two.

    The traces are of the powers of 2^e A.  A formed power is held as (B, f), 2^f B, with B
    _renormalised after each product in A's dtype: a complex64 chain cannot overflow, and while
    its entries stay normal it equals the unscaled chain bit for bit.  Traces accumulate in
    complex128 and are scaled back in float64 (_ldexp_trace)."""
    import numpy as np
    powers = set(powers)
    # a step (at, traced, p) takes tr(A^p) at _half(p) or forms A^p at p, from A^h and A^(p-h)
    steps, todo = set(), [(_half(m), True, m) for m in powers if m > 1]
    while todo:
        steps.add(step := todo.pop())
        h = _half(p := step[2])
        todo += [(q, False, q) for q in {h, p - h} - {1} if (q, False, q) not in steps]
    steps = sorted(steps)
    last = {q: i for i, (_, _, p) in enumerate(steps) for q in (_half(p), p - _half(p))}
    formed = {1: (A, e)}
    out = {m: _ldexp_trace(complex(np.trace(A, dtype=complex)), e, 1) for m in powers & {1}}
    for i, (_, traced, p) in enumerate(steps):
        (B, f), (C, g) = formed[_half(p)], formed[p - _half(p)]
        if traced:
            out[p] = _ldexp_trace(complex(np.einsum("ij,ji->", B, C, dtype=complex)), f + g, p)
        else:
            formed[p] = _renormalised(B @ C, f + g)
        formed = {q: a for q, a in formed.items() if last[q] > i}  # drop what no step reads
    return out


def _model_mc(
    label: str, draw, dim: int, s: int, N: int, powers: Sequence[int], trials: int, seed: int
) -> dict[int, MCReport]:
    """Both matrix models' trial loop: tr((2^e A)^m)/dim for the dim x dim (A, e) = draw(s, N, rng),
    one draw per trial shared by the powers, reported as tr((label)^m)."""
    _check_mc_args(s, N, trials, powers)
    samples: dict[int, list[float]] = {m: [] for m in powers}
    for i in range(trials):
        A, e = draw(s, N, _trial_rng(seed, i))
        traces = _trace_powers(A, samples, e)
        del A  # the next draw starts from no M x M array
        for m, vals in samples.items():
            vals.append(traces[m].real / dim)
    return {m: _report(f"tr(({label})^{m}), s={s}", v, N, seed) for m, v in samples.items()}


def _product_wishart(s: int, N: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """(A, e), 2^e A = M M* for M a product of s independent N x N Ginibre matrices of variance
    1/N, in complex64.  M is _renormalised after each factor: long products shrink."""
    import numpy as np
    M, e = _ginibre(N, N, 1.0 / N, rng, np.complex64), 0
    for _ in range(s - 1):
        M, e = _renormalised(M @ _ginibre(N, N, 1.0 / N, rng, np.complex64), e)
    return M @ M.conj().T, 2 * e


def product_model_mc(s: int, N: int, k: int, trials: int, seed: int) -> MCReport:
    """Mean of tr((M M*)^k) with M a product of s independent Ginibre matrices."""
    return product_model_mc_multi(s, N, [k], trials, seed)[k]


def product_model_mc_multi(
    s: int, N: int, powers: Sequence[int], trials: int, seed: int
) -> dict[int, MCReport]:
    """product_model_mc for several powers, drawing the s factors once per trial.

    Traces come from matrix products, never from an eigendecomposition.
    """
    return _model_mc("MM*", _product_wishart, N, s, N, powers, trials, seed)


def _dw_matrix(s: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """D W for a W(sN, sN, I/(sN)) Wishart W and the s-roots-of-unity diagonal D, complex64."""
    import numpy as np
    M = s * N
    G = _ginibre(M, M, 1.0 / M, rng, np.complex64)
    W = G.conj().T @ G
    d = np.repeat(np.exp(2j * np.pi / s) ** np.arange(s), N).astype(np.complex64)
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
    return _model_mc("DW", lambda s, N, rng: (_dw_matrix(s, N, rng), 0), s * N, s, N, powers,
                     trials, seed)


# --- exact expected traces from hook characters ----------------------------


GLM_MAX_K = 60


def _times_linear(poly: list[int], cs: Iterable[int]) -> list[int]:
    """The coefficients (ascending in x) of poly(x) prod_(c in cs) (x + c)."""
    for c in cs:
        poly = [a * c + a_prev for a, a_prev in zip(poly + [0], [0] + poly)]
    return poly


def _content_poly(K: int, r: int) -> list[int]:
    """P_r(x) = prod_(c=-r..K-1-r) (x + c), the content product of the hook (K-r, 1^r) of S_K.

    sum_sigma x^#cycles(sigma) sigma is central in the group algebra of S_K, and it acts on
    that irreducible as P_r(x) (Jucys-Murphy elements).
    """
    return _times_linear([1], range(-r, K - r))


def glm_exact(K: int, s: int = 1) -> dict[int, Fraction]:
    """Exact E tr((DW)^K) as a Laurent polynomial {exponent: coefficient} in 1/M.

    D holds the s-th roots of unity, each N = M/s times, so only permutations with
    all cycle lengths divisible by s survive, and the constant term equals
    #NC_s(K/s).  At s = 1, D is the identity: the normalized Wishart trace E tr(W^K).

    sigma contributes M^(#cycles(sigma) + #cycles(sigma^-1 pi) - K - 1), pi the
    full cycle.  Only the hooks (K-r, 1^r) have a nonzero character on pi, so with their
    content products P_r (_content_poly) the value is M^(-K-1) sum_r P_r(M) H_r, where
    H_r = (-1)^r sum_lambda |C_lambda|/K! chi_r(lambda) M^l(lambda) runs over the cycle
    types lambda whose parts s divides.
    chi_r(lambda) is the y^r coefficient of prod_i (1 - (-y)^lambda_i)/(1 + y) (Zagier
    1995; Stanley 2011).  The exponential formula sums these products over the types as
    [u^K] ((1 - (-yu)^s)/(1 - u^s))^(M/s), and division by 1 + y gives, with n = K/s,

        H_r = sum_(b <= r/s) (-1)^b C(N+n-b-1, n-b) C(N, b),
        C(N+n-b-1, n-b) C(N, b) = C(n, b) prod_(j<n-b) (M + js) prod_(j<b) (M - js)/(s^n n!).

    Term b meets every P_r with r >= bs, so it multiplies their suffix sum; the total
    is kept in integers and divided by s^n n! once.
    """
    _check_count("K", K, 1)
    _check_count("s", s, 1)
    if K > GLM_MAX_K:
        raise EnumerationBoundError(f"K = {K} exceeds the hook-sum bound {GLM_MAX_K}")
    if K % s:
        raise ArgumentError(f"need an s that divides K = {K}, got s = {s}")
    n = K // s
    total, tail = [0] * (K + n + 1), [0] * (K + 1)
    for b in range(n - 1, -1, -1):
        for r in range(b * s, b * s + s):  # tail = sum of P_r over r >= bs
            tail = [x + y for x, y in zip(tail, _content_poly(K, r))]
        poly = _times_linear(tail, [j * s for j in range(n - b)] + [-j * s for j in range(b)])
        weight = (-1) ** b * math.comb(n, b)
        for i, coeff in enumerate(poly):
            total[i] += weight * coeff
    denom = s**n * math.factorial(n)
    out = {}
    for i in range(K + n, -1, -1):
        count, rem = divmod(total[i], denom)
        assert rem == 0, "s^n n! divides the hook sum"
        if count:
            out[i - K - 1] = Fraction(count)
    return out


def glm_eval(poly: dict[int, Fraction], M: float) -> float:
    return float(sum(float(c) * M**e for e, c in poly.items()))


def geodesic_count(s: int, k: int) -> int:
    """#{sigma in S_sk: cycle lengths all divisible by s, sigma on a geodesic e -> full cycle}.

    Distances on the Cayley graph are d(a,b) = K - #cycles(a^-1 b), so sigma
    is geodesic iff #cycles(sigma) + #cycles(sigma^-1 pi) = K + 1: exactly the
    permutations that contribute to the constant term of glm_exact.
    """
    _check_count("s", s, 1)
    _check_count("k", k, 0)
    if k == 0:
        return 1
    return int(glm_exact(s * k, s).get(0, 0))


# --- characters and Weingarten ----------------------------------------------


def hns_character_mc(
    s: int, n: int, t: Fraction | float, trials: int, seed: int, word: ColoredWord
) -> MCReport:
    """Monte Carlo *-moment of the truncated character over Z_s wr S_n.

    A uniform group element is a uniform permutation with i.i.d. uniform
    s-th-root-of-unity entries; the truncated character sums the diagonal
    entries with index <= floor(t n).
    """
    import numpy as np
    _check_mc_args(s, n, trials)
    m = _check_character_args(n, t)
    roots = np.exp(2j * np.pi * np.arange(s) / s)
    first = np.arange(m)
    samples = []
    for i in range(trials):
        rng = _trial_rng(seed, i)
        fixed = np.nonzero(rng.permutation(n)[:m] == first)[0]
        # the roots are read only at fixed points, and the generator ends with the trial
        chi = roots[rng.integers(0, s, size=n)[fixed]].sum() if fixed.size else 0j
        val = 1.0 + 0j
        for sg in word.signs:
            val *= chi if sg == 1 else np.conj(chi)
        samples.append(val.real)
    return _report(f"chi_t word {word}, s={s}, t={float(t)}", samples, n, seed)


def _gram_trace(join_blocks: list[list[int]], n: int, m: int) -> Fraction:
    """tr(G(n)^-1 G(m)) exactly: G(x)_pq = x^join_blocks[max(p, q)][min(p, q)], n an integer.

    It is d1/d0 for the last pivot (d0, d1) of symmetric Bareiss elimination of G(n) + e G(m)
    over Z[e]/(e^2), as det(G + eH) = det G (1 + e tr(G^-1 H)) mod e^2 (Jacobi).  No row swaps:
    G(n) = Z diag((n)_|tau|) Z^T is positive semidefinite, so a zero d0 means it is singular.
    Ordering by |p| leaves the trace as it is and keeps early minors, where most work runs, small.
    """
    order = sorted(range(len(join_blocks)), key=lambda i: join_blocks[i][i])
    rows = [[(n ** e, m ** e) for e in (join_blocks[max(i, j)][min(i, j)] for j in order[k:])]
            for k, i in enumerate(order)]
    p0, p1 = 1, 0
    while rows:
        ((a0, a1), *head), *tail = rows
        if a0 == 0:
            import numpy as np
            raise np.linalg.LinAlgError("singular Gram matrix")
        rows = [[(q := (a0 * x0 - h0 * y0) // p0,
                  (a0 * x1 + a1 * x0 - h0 * y1 - h1 * y0 - q * p1) // p0)
                 for (x0, x1), (y0, y1) in zip(row, head[i:])]
                for i, (row, (h0, h1)) in enumerate(zip(tail, head))]
        p0, p1 = a0, a1
    return Fraction(p1, p0)


EXACT_WEINGARTEN_MAX_DIM = 55
WEINGARTEN_MAX_DIM = 500


def weingarten_finite_n(s: int, word: ColoredWord, n: int, t: Fraction | float) -> float:
    """Finite-n Weingarten value sum_{p,q} W_n(p,q) [tn]^{|p join q|}.

    The Gram matrix G(n) over the balanced partitions has entries
    n^{|p join q|}; W_n is its inverse, so the value is tr(G(n)^-1 G([tn])).
    Converges to star_moment(s, t, word) as n grows.  Computed exactly when the
    matrix is small, in floats otherwise.
    """
    m = _check_character_args(n, t)
    dim = sum(count_balanced(s, word))  # refuse a large Gram matrix before listing its rows
    if dim > WEINGARTEN_MAX_DIM:
        raise EnumerationBoundError(
            f"Gram dimension {dim} exceeds the Weingarten bound {WEINGARTEN_MAX_DIM}"
        )
    half = join_block_counts(enumerate_balanced(s, word))
    if dim <= EXACT_WEINGARTEN_MAX_DIM:
        return float(_gram_trace(half, int(n), m))
    import numpy as np
    blocks = np.array([[half[max(i, j)][min(i, j)] for j in range(dim)] for i in range(dim)], float)
    gram = float(n) ** blocks
    if not np.isfinite(cond := np.linalg.cond(gram)) or cond > 1e14:
        raise np.linalg.LinAlgError(f"Gram matrix ill-conditioned (cond ~ {cond:.3g}) at n = {n}")
    return float(np.sum(np.linalg.inv(gram) * float(m) ** blocks))
