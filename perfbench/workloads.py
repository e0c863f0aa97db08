"""The four workloads: fixed operation lists, their inputs drawn from the seed.

``plan(workload, seed)`` gives the same list in the process that runs the
operations (``child.py``, which imports freebessel) and in the process that
checks them (``run.py``, which never does).  An operation's ``run`` calls the
library or ``freebessel.cli.main`` and returns plain data; its ``check``
compares that data with ``oracles`` or with a property the method must have,
and raises ``CheckFailed`` on a wrong answer.

Seeds move only MC seeds, rational or decimal t values with a fixed
denominator, and word letters, so every seed costs the same work.  The
heaviest operation of each workload keeps the fixed flags it is quoted with
in the README, because the cost of exact rational arithmetic depends on the
digits of t.
"""

from __future__ import annotations

import cmath
import importlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable

import oracles

# Acceptance bounds of the library (ROADMAP aim 1): quadrature mass/moments 1e-5.
QUAD_TOL = 1e-5
# Monte Carlo estimates must lie within this many of their own standard errors.
# With 12 or more trials a correct estimator misses 8 SE with probability < 1e-5.
MC_SE = 8


class CheckFailed(Exception):
    """An operation's output is wrong, or the operation could not run."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    fault: str | None = None  # the known program fault that makes this operation fail


def lib(module: str):
    """A freebessel module, looked up at call time so traced wrappers are seen."""
    return importlib.import_module(f"freebessel.{module}")


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def near(got: float, want: float, rel: float, what: str) -> None:
    expect(math.isfinite(got) and abs(got - want) <= rel * max(1.0, abs(want)),
           f"{what}: got {got!r}, want {want!r}")


def _reject_constant(name: str):
    raise CheckFailed(f"payload is not strict JSON: bare {name}")


def strict_json(text: str) -> Any:
    """Parse a payload, refusing the NaN/Infinity extensions of Python's json."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"payload is not JSON: {exc}") from exc


def _run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lib("cli").main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cli_results(res: dict) -> dict:
    expect(res["code"] == 0, f"exit {res['code']}: {res['stderr'].strip()[:200]}")
    return strict_json(res["stdout"])["results"]


def cli_op(argv: list[str], check: Callable[[dict], None], fault: str | None = None) -> Op:
    """``freebessel <argv>`` in-process; ``check`` gets the strictly parsed results."""
    return Op("freebessel " + " ".join(argv), lambda: _run_cli(argv),
              lambda res: check(_cli_results(res)), fault)


def mc_within(est: float, se: float, want: float, what: str) -> None:
    expect(math.isfinite(se) and se > 0, f"{what}: standard error {se!r}")
    expect(abs(est - want) <= MC_SE * se,
           f"{what}: {est} is {abs(est - want) / se:.1f} SE from {want}")


@lru_cache(maxsize=None)
def trace_polynomial(K: int, s: int) -> dict[int, int]:
    return oracles.wishart_trace_polynomial(K, s)


# --- exact-routes -------------------------------------------------------------


def _check_moment_table(s: int, t: Fraction, k: int):
    def check(res: dict) -> None:
        rows = res["moments"]
        expect([r["k"] for r in rows] == list(range(1, k + 1)), "rows 1..k")
        for r in rows:
            want = oracles.free_bessel_moment(s, t, r["k"])
            expect(Fraction(r["closed_form"]) == want, f"closed form m_{r['k']}")
            expect(Fraction(r["series"]) == want, f"series route m_{r['k']}")
            expect(("partitions" in r) == (s * r["k"] <= 14), f"partition route k={r['k']}")
            if "partitions" in r:
                expect(Fraction(r["partitions"]) == want, f"partition sum m_{r['k']}")
            expect(r["agree"] is True, f"agree flag k={r['k']}")
    return check


def _check_nc_count(s: int, k: int):
    def check(res: dict) -> None:
        expect(res["count"] == oracles.fuss_catalan(s, k), "partition count")
        expect(Fraction(res["fuss_catalan"]) == oracles.fuss_catalan(s, k), "fuss_catalan")
        expect([Fraction(c) for c in res["fuss_narayana"]] == oracles.fuss_narayana(s, k),
               "fuss_narayana")
    return check


def _check_balanced(k: int, t: Fraction):
    # mod 2 a block's colour sum has the parity of its size: balanced = even blocks
    def check(res: dict) -> None:
        expect(res["count"] == oracles.fuss_catalan(2, k), "balanced count")
        expect(Fraction(res["star_moment"]) == oracles.free_bessel_moment(2, t, k),
               "star moment")
    return check


def _free_cumulants_of_catalan(order: int):
    series = lib("series")
    kappa = series.free_cumulants(series.catalan_moments(order))
    return [str(c) for c in kappa.cumulants]


def _free_round_trip(s: int, t: Fraction, order: int):
    series = lib("series")
    kappa = series.CumulantSequence.from_values(
        "free", [t if n % s == 0 else 0 for n in range(1, order + 1)])
    m = series.moments_from_free_cumulants(kappa)
    back = series.free_cumulants(m)
    return {"moments": [str(x) for x in m.moments], "back": [str(x) for x in back.cumulants]}


def _check_free_round_trip(s: int, t: Fraction, order: int):
    def check(res: dict) -> None:
        kappa = [t if n % s == 0 else 0 for n in range(1, order + 1)]
        expect([Fraction(c) for c in res["back"]] == kappa, "cumulants -> moments -> cumulants")
        for n, m in enumerate(map(Fraction, res["moments"]), start=1):
            want = oracles.free_bessel_moment(s, t, n // s) if n % s == 0 else 0
            expect(m == want, f"moment {n} of the cumulant pattern")
    return check


def _classical_round_trip(moments: list[Fraction], t: Fraction):
    series = lib("series")
    c = series.classical_cumulants(series.MomentSequence.from_values(moments))
    m = series.moments_from_classical_cumulants(
        series.CumulantSequence.from_values("classical", [t] * len(moments)))
    return {"cumulants": [str(x) for x in c.cumulants], "moments": [str(x) for x in m.moments]}


def _check_classical_round_trip(moments: list[Fraction], t: Fraction):
    def check(res: dict) -> None:
        expect(all(Fraction(c) == t for c in res["cumulants"]), "Poisson cumulants all t")
        expect([Fraction(m) for m in res["moments"]] == moments, "cumulants t give Touchard")
    return check


def _two_routes(s: int, t: Fraction, order: int):
    series = lib("series")
    pi = series.catalan_moments(order)
    route1 = series.free_mult(series.boxtimes_power(pi, s - 1), series.boxplus_power(pi, t))
    route2 = series.free_mult(series.bernoulli_moments(t, order), series.boxtimes_power(pi, s))
    return [[str(x) for x in route1.moments], [str(x) for x in route2.moments]]


def _check_two_routes(s: int, t: Fraction, order: int):
    def check(res: list) -> None:
        want = [oracles.free_bessel_moment(s, t, k) for k in range(1, order + 1)]
        expect([Fraction(x) for x in res[0]] == want, "route 1 (s-1 box-times power)")
        expect([Fraction(x) for x in res[1]] == want, "route 2 (Bernoulli box-times)")
    return check


def _check_glm(K: int, s: int):
    def check(res: dict) -> None:
        poly = {int(e): Fraction(c) for e, c in res["polynomial"].items()}
        expect(poly == trace_polynomial(K, s), "trace polynomial = genus sum")
        total = math.factorial(K) if s == 1 else oracles.double_factorial(K - 1) ** 2
        expect(sum(poly.values()) == total, "coefficients count the permutations")
        expect(Fraction(res["constant_term"]) == oracles.fuss_catalan(s, K // s), "constant term")
    return check


def _geodesics(pairs):
    matrixlab = lib("matrixlab")
    return [matrixlab.geodesic_count(s, k) for s, k in pairs]


def _weingarten(s: int, word: str, t: Fraction, ns):
    return [_run_cli(["weingarten", "--s", str(s), "--word", word, "--n", str(n),
                      "--t", str(t)]) for n in ns]


def _check_weingarten(s: int, word: str, t: Fraction, ns):
    def check(res: list) -> None:
        limit = oracles.free_bessel_moment(s, t, len(word) // s)
        errs = {}
        for n, r in zip(ns, map(_cli_results, res)):
            expect(Fraction(r["limit"]) == limit, f"limit at n={n}")
            errs[n] = abs(r["finite_n"] - float(limit))
        scale = max(errs[ns[0]] * ns[0], 1e-9)
        expect(all(errs[n] <= 1.5 * scale / n for n in ns[1:]), f"error O(1/n): {errs}")
    return check


def exact_routes(rng: random.Random) -> list[Op]:
    t = Fraction(rng.randrange(1, 8, 2), 8)
    t2 = Fraction(rng.randrange(1, 8, 2), 8)
    word10 = "".join(rng.choice("u*") for _ in range(10))
    word6 = "".join(rng.choice("u*") for _ in range(6))
    word4 = "".join(rng.choice("u*") for _ in range(4))
    touchard = oracles.poisson_moments(t2, 12)
    ns = (8, 16, 32, 64)
    return [
        cli_op(["moments", "--s", "3", "--t", "1/2", "--k", "8", "--order", "32"],
               _check_moment_table(3, Fraction(1, 2), 8)),
        cli_op(["moments", "--s", "2", "--t", str(t), "--k", "6", "--order", "24"],
               _check_moment_table(2, t, 6)),
        cli_op(["partitions", "--s", "1", "--k", "12"], _check_nc_count(1, 12)),
        cli_op(["partitions", "--s", "2", "--k", "6"], _check_nc_count(2, 6)),
        cli_op(["partitions", "--s", "2", "--word", word10, "--t", str(t)],
               _check_balanced(5, t)),
        Op("free_cumulants(catalan_moments(28))", lambda: _free_cumulants_of_catalan(28),
           lambda res: expect(all(Fraction(c) == 1 for c in res), "Catalan free cumulants = 1")),
        Op(f"free cumulant round trip s=2 t={t2}", lambda: _free_round_trip(2, t2, 16),
           _check_free_round_trip(2, t2, 16)),
        Op(f"classical cumulant round trip t={t2}",
           lambda: _classical_round_trip(touchard, t2),
           _check_classical_round_trip(touchard, t2)),
        Op(f"two-route identity s=2 t={t}", lambda: _two_routes(2, t, 10),
           _check_two_routes(2, t, 10)),
        Op(f"two-route identity s=3 t={t2}", lambda: _two_routes(3, t2, 10),
           _check_two_routes(3, t2, 10)),
        cli_op(["glm", "--K", "8"], _check_glm(8, 1)),
        cli_op(["glm", "--K", "8", "--s", "2"], _check_glm(8, 2)),
        Op("geodesic_count (1,8) (2,4)", lambda: _geodesics([(1, 8), (2, 4)]),
           lambda res: expect(res == [oracles.fuss_catalan(1, 8), oracles.fuss_catalan(2, 4)],
                              f"geodesic counts {res}")),
        Op(f"weingarten --s 2 --word {word6} --t {t} --n 8..64",
           lambda: _weingarten(2, word6, t, ns), _check_weingarten(2, word6, t, ns)),
        Op(f"weingarten --s 1 --word {word4} --t {t2} --n 8..64",
           lambda: _weingarten(1, word4, t2, ns), _check_weingarten(1, word4, t2, ns)),
    ]


# --- density-sweep ------------------------------------------------------------


def _density(s: int, t: float, k: int):
    freelaws = lib("freelaws")
    grid = freelaws.density_grid(s, t)
    return {"x": list(grid.abscissae), "rho": list(grid.values),
            "mass": grid.quadrature_mass, "atom": grid.support_info.atom_mass,
            "support": [float(grid.support_info.K_minus), float(grid.support_info.K_plus)],
            "quad": list(freelaws.quadrature_moments(s, t, k))}


def _check_quadrature(s: int, t: float, quad: list[float], mass: float) -> None:
    near(quad[0], mass, QUAD_TOL, "quadrature mass")
    for k, got in enumerate(quad[1:], start=1):
        near(got, oracles.free_bessel_moment(s, t, k), QUAD_TOL, f"quadrature m_{k}")


def _check_density(s: int, t: float):
    def check(res: dict) -> None:
        cont = min(t, 1.0)  # continuous mass; the atom at 0 carries the rest
        near(res["atom"] + cont, 1.0, 1e-12, "atom + continuous mass")
        near(res["mass"], cont, QUAD_TOL, "grid quadrature mass")
        _check_quadrature(s, t, res["quad"], cont)
        rho = res["rho"]
        expect(len(rho) == 400 and all(math.isfinite(v) and v >= 0 for v in rho),
               "400 finite nonnegative density values")
        if s == 1:
            edges = [(1 - math.sqrt(t)) ** 2, (1 + math.sqrt(t)) ** 2]
            expect(all(abs(a - b) < 1e-10 for a, b in zip(res["support"], edges)),
                   "support (1 -+ sqrt t)^2")
            top = max(rho)
            err = max(abs(v - oracles.marchenko_pastur_density(t, x))
                      for x, v in zip(res["x"], rho))
            expect(err <= 1e-9 * top, f"Marchenko-Pastur density, error {err:.2e}")
    return check


def _check_cli_density(s: int, t: float, k: int):
    def check(res: dict) -> None:
        cont = min(t, 1.0)
        near(res["atom"]["mass"] + cont, 1.0, 1e-12, "atom + continuous mass")
        expect(len(res["quadrature_moments"]) == k, "k quadrature moments")
        _check_quadrature(s, t, [res["quadrature_mass"], *res["quadrature_moments"]], cont)
    return check


def _check_probe(count: int):
    def check(res: dict) -> None:
        cells = res["cells"]
        expect(len(cells) == count, "cell count")
        safe = [c for c in cells if c["s"] >= 1 or c["t"] <= 1]
        expect(all(c["passed"] for c in safe), "every cell outside the rectangle passes")
        expect(any(not c["passed"] for c in cells if c["s"] < 1 and c["t"] > 1),
               "some cell inside the rectangle fails")
    return check


def _quadrature_op(s: int, t: float, fault: str) -> Op:
    return Op(f"quadrature_moments({s}, {t}, 6)",
              lambda: list(lib("freelaws").quadrature_moments(s, t, 6)),
              lambda res: _check_quadrature(s, t, res, min(t, 1.0)), fault)


def density_sweep(rng: random.Random) -> list[Op]:
    # t ranges where the density layer meets its 1e-5 contract today (s = 1..5)
    pairs = [(s, round(rng.uniform(0.25, 0.85), 3)) for s in range(1, 6)]
    pairs += [(s, round(rng.uniform(1.25, 3.5), 3)) for s in range(1, 6)]
    t_cli = round(rng.uniform(0.25, 0.85), 3)
    ops = [Op(f"density_grid + quadrature_moments s={s} t={t}",
              lambda s=s, t=t: _density(s, t, 6), _check_density(s, t)) for s, t in pairs]
    ops += [
        cli_op(["density", "--s", "3", "--t", str(t_cli), "--k", "6"],
               _check_cli_density(3, t_cli, 6)),
        cli_op(["probe", "--s-grid", "0.1:3:30", "--t-grid", "0.1:6:30", "--order", "8"],
               _check_probe(900)),
        _quadrature_op(4, 0.99, "quadrature mass error 2e-4 as t -> 1- (ROADMAP item 3)"),
        _quadrature_op(5, 0.99, "quadrature mass error 5e-3 as t -> 1- (ROADMAP item 3)"),
        Op("density_grid(1, 1e-6)", lambda: _density(1, 1e-6, 0), _check_density(1, 1e-6),
           "RootContinuationError near x = 1 at small t (ROADMAP item 3)"),
    ]
    return ops


# --- matrix-mc ----------------------------------------------------------------


def _check_mc(want: float, trials: int):
    def check(res: dict) -> None:
        expect(res["trials"] == trials, "trial count")
        mc_within(res["estimate"], res["std_error"], want, res["statistic"])
    return check


def _dw_multi(s: int, N: int, powers, trials: int, seed: int):
    reps = lib("matrixlab").dw_model_mc_multi(s, N, powers, trials, seed)
    return {str(m): [r.estimate, r.std_error, r.trials] for m, r in reps.items()}


def _check_dw_multi(s: int, powers, trials: int):
    def check(res: dict) -> None:
        expect(sorted(map(int, res)) == sorted(powers), "one report per power")
        for m in powers:
            est, se, n = res[str(m)]
            expect(n == trials, "trial count")
            mc_within(est, se, oracles.fuss_catalan(s, m // s), f"tr (DW)^{m}, s={s}")
    return check


def _dw_small(s: int, k: int, N: int, trials: int, seed: int):
    rep = lib("matrixlab").dw_model_mc(s, N, k, trials, seed)
    return [rep.estimate, rep.std_error]


def _check_dw_small(s: int, k: int, N: int):
    def check(res: list) -> None:
        exact = sum(c * float(s * N) ** e for e, c in trace_polynomial(s * k, s).items())
        mc_within(res[0], res[1], exact, f"finite-N tr (DW)^{s * k}, s={s}, N={N}")
    return check


def matrix_mc(rng: random.Random) -> list[Op]:
    seeds = [str(rng.randrange(2**31)) for _ in range(4)]
    lib_seeds = [rng.randrange(2**31) for _ in range(5)]
    a = rng.randrange(1, 8)
    t = Fraction(a, 8)
    n = 200  # t n = 25 a, an integer
    return [
        cli_op(["mc", "--model", "dw", "--s", "2", "--k", "2", "--dim", "256",
                "--trials", "30", "--seed", seeds[0]], _check_mc(3.0, 30)),
        cli_op(["mc", "--model", "product", "--s", "2", "--k", "2", "--dim", "256",
                "--trials", "30", "--seed", seeds[1]], _check_mc(3.0, 30)),
        cli_op(["mc", "--model", "character", "--s", "1", "--dim", str(n), "--t", str(t),
                "--word", "u*", "--trials", "10000", "--seed", seeds[2]],
               _check_mc(float(oracles.character_second_moment(1, n, 25 * a)), 10000)),
        cli_op(["mc", "--model", "character", "--s", "3", "--dim", str(n), "--t", str(t),
                "--word", "u*", "--trials", "10000", "--seed", seeds[3]],
               _check_mc(float(oracles.character_second_moment(3, n, 25 * a)), 10000)),
        *(Op(f"dw_model_mc_multi({s}, 256, {[s, 2 * s, 3 * s]}, {trials})",
             lambda s=s, trials=trials, seed=seed: _dw_multi(s, 256, [s, 2 * s, 3 * s],
                                                             trials, seed),
             _check_dw_multi(s, [s, 2 * s, 3 * s], trials))
          for (s, trials), seed in zip(((1, 48), (2, 16), (3, 12)), lib_seeds)),
        *(Op(f"dw_model_mc({s}, 16, {k}, 400)",
             lambda s=s, k=k, seed=seed: _dw_small(s, k, 16, 400, seed),
             _check_dw_small(s, k, 16))
          for (s, k), seed in zip(((1, 2), (2, 2)), lib_seeds[3:])),
        cli_op(["mc", "--model", "dw", "--s", "2", "--dim", "16", "--trials", "1"],
               lambda res: expect(res["trials"] == 1 and math.isfinite(res["estimate"]),
                                  "one-trial estimate"),
               "one trial prints a bare NaN std_error (ROADMAP item 5)"),
    ]


# --- classical-atoms ----------------------------------------------------------


def _check_classical_cli(s: int, t: float, p_max: int, k: int):
    def check(res: dict) -> None:
        atoms = res["atoms"]
        # s = 4: the atom is (a4 - a2) + i (a1 - a3), each difference in [-p_max, p_max]
        expect(len(atoms) == (2 * p_max + 1) ** 2, f"{len(atoms)} atoms")
        near(math.fsum(a["weight"] for a in atoms) + res["deficit"], 1.0, 1e-12,
             "mass + deficit")
        for j, (got, want) in enumerate(
                zip(res["real_moments"], oracles.real_part_moments(s, t, k)), start=1):
            near(got, want, 1e-10, f"E (Re X)^{j}")
    return check


# At |z| = 1.2 the truncated tail weighs e^(1.2 p) more than in the mass; at
# p_max = 20 and t <= 0.9 it stays below 1e-10 (the default p_max does not).
FOURIER_P_MAX = 20


def _ring_points():
    return [1.2 * cmath.exp(2j * math.pi * j / 10) for j in range(10)]


def _bessel_fourier(s: int, t: float):
    classical = lib("classical")
    m = classical.bessel_law(s, t, p_max=FOURIER_P_MAX)
    values = [classical.fourier(m, z) for z in _ring_points()]
    return {"mass": m.total_mass(), "deficit": m.deficit,
            "fourier": [[v.real, v.imag] for v in values]}


def _check_bessel_fourier(s: int, t: float):
    def check(res: dict) -> None:
        near(res["mass"] + res["deficit"], 1.0, 1e-12, "mass + deficit")
        for z, (re, im) in zip(_ring_points(), res["fourier"]):
            err = abs(complex(re, im) - oracles.bessel_law_fourier(s, t, z))
            expect(err < 1e-9, f"Fourier identity at z={z:.3f}: error {err:.2e}")
    return check


def _s2_weights(t: float):
    classical = lib("classical")
    m = classical.bessel_law(2, t, p_max=30)
    return [m.weight_at(classical.CyclotomicInt.integer(2, r)) for r in range(-5, 6)]


def _poisson_limits():
    classical = lib("classical")
    out = []
    for s in (1, 2, 3):
        target = classical.bessel_law(s, 1.0, p_max=30)
        laws = [classical.poisson_limit(s, n) for n in (4, 16, 64, 256)]
        out.append({"tv": [classical.total_variation(m, target) for m in laws],
                    "mass": [m.total_mass() + m.deficit for m in laws]})
    return out


def _check_poisson_limits(res: list) -> None:
    for s, r in enumerate(res, start=1):
        expect(all(a > b for a, b in zip(r["tv"], r["tv"][1:])), f"TV decreases, s={s}")
        expect(all(abs(m - 1) < 1e-9 for m in r["mass"]), f"mass + deficit, s={s}")


def _pushforward(s: int, t: float):
    classical = lib("classical")
    m = classical.power_pushforward(classical.bessel_law(s, t), s)
    return [[z.real, z.imag] for z in (m.moment((1,)), m.moment((1, 1)))]


def _check_pushforward(s: int, t: float):
    def check(res: list) -> None:
        law = oracles.level_law_moments(s, t, 2 * s)
        for (re, im), want, name in zip(res, (law[s - 1], law[2 * s - 1]), ("X^s", "X^2s")):
            near(re, want, 1e-9, f"E {name}")
            expect(abs(im) < 1e-9, f"E {name} is real")
    return check


def classical_atoms(rng: random.Random) -> list[Op]:
    t = round(rng.uniform(0.5, 0.9), 2)
    t2 = round(rng.uniform(0.5, 0.9), 2)
    ops = [cli_op(["classical", "--s", "4", "--t", str(t), "--p-max", "40", "--k", "4"],
                  _check_classical_cli(4, t, 40, 4))]
    ops += [Op(f"bessel_law({s}, {t2}, p_max={FOURIER_P_MAX}) Fourier identity", lambda s=s: _bessel_fourier(s, t2),
               _check_bessel_fourier(s, t2)) for s in (1, 2, 3, 4)]
    ops += [
        Op(f"bessel_law(2, {t}, p_max=30) weights", lambda: _s2_weights(t),
           lambda res: expect(all(abs(w - oracles.bessel_s2_weight(t, r)) < 1e-12
                                  for r, w in zip(range(-5, 6), res)), "s = 2 weights")),
        Op("poisson_limit s=1..3 n=4..256", _poisson_limits, _check_poisson_limits),
    ]
    ops += [Op(f"power_pushforward(bessel_law({s}, {t2}), {s})",
               lambda s=s: _pushforward(s, t2), _check_pushforward(s, t2)) for s in (2, 3)]
    return ops


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "exact-routes": exact_routes,
    "density-sweep": density_sweep,
    "matrix-mc": matrix_mc,
    "classical-atoms": classical_atoms,
}


def plan(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
