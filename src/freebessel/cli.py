"""Command-line frontend: every computation, reproducible seeds, JSON/CSV output.

Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 region guard
(parameters inside the critical rectangle without --force).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .classical import bessel_law, power_pushforward
from .freelaws import (
    density_grid,
    existence_probe,
    in_defined_region,
    moment,
    moments_via_series,
    quadrature_moments,
    support,
)
from .matrixlab import (
    dw_model_mc,
    glm_eval,
    glm_exact,
    hns_character_mc,
    product_model_mc,
    weingarten_finite_n,
)
from .partitions import (
    DEFAULT_ENUM_BOUND,
    ColoredWord,
    EnumerationBoundError,
    enumerate_balanced,
    enumerate_nc_s,
    fuss_catalan,
    fuss_narayana_poly,
    star_moment,
)

EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_REGION = 3


class UsageError(Exception):
    pass


class RegionError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        raise UsageError(message)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _fmt(value):
    """Serialize exact rationals as 'p/q' strings, everything else natively."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


def _grid_spec(text: str) -> list[float]:
    """Parse 'start:stop:count' into evenly spaced values (endpoints included)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:count, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad grid spec {text!r}") from exc
    if n < 1:
        raise UsageError("grid count must be >= 1")
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _guard_region(s, t, force: bool) -> None:
    if not in_defined_region(float(s), float(t)) and not force:
        raise RegionError(
            f"(s,t)=({s},{t}) lies in the critical rectangle (0,1)x(1,inf); "
            "pass --force to compute formal values anyway"
        )


def _emit(payload: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _report(config: dict, results, started: float) -> str:
    return json.dumps(
        {
            "config": _fmt(config),
            "results": _fmt(results),
            "wall_time_s": time.perf_counter() - started,
            "version": __version__,
        },
        allow_nan=False,
    )


# --- subcommands --------------------------------------------------------------


def cmd_moments(args, started: float) -> str:
    s, t = _rational(args.s), _rational(args.t)
    if s <= 0 or t <= 0 or args.k < 1:
        raise UsageError("need s,t > 0 and k >= 1")
    _guard_region(s, t, args.force)
    order = max(args.order, args.k)
    series = None
    if s >= 1 or t <= 1:
        series = moments_via_series(s, t, order)
    rows = []
    for k in range(1, args.k + 1):
        closed = moment(s, t, k)
        row: dict = {"k": k, "closed_form": closed}
        agree = True
        if series is not None:
            row["series"] = series[k]
            agree = agree and series[k] == closed
        if s.denominator == 1 and int(s) * k <= DEFAULT_ENUM_BOUND:
            part = sum(
                (t ** p.block_count for p in enumerate_nc_s(int(s), k)), Fraction(0)
            )
            row["partitions"] = part
            agree = agree and part == closed
        row["agree"] = agree
        rows.append(row)
    config = {"command": "moments", "s": s, "t": t, "k": args.k, "order": order,
              "force": args.force}
    return _report(config, {"moments": rows}, started)


def cmd_density(args, started: float) -> str:
    s, t = _rational(args.s), _rational(args.t)
    if s.denominator != 1 or s < 1 or t <= 0:
        raise UsageError("density needs integer s >= 1 and t > 0")
    grid = density_grid(int(s), float(t), n_points=args.grid_points)
    quad = quadrature_moments(int(s), float(t), args.k)
    if args.format == "csv":
        return grid.to_csv()
    config = {"command": "density", "s": s, "t": t, "grid_points": args.grid_points,
              "k": args.k}
    results = grid.as_dict()
    results["quadrature_moments"] = list(quad[1:])
    return _report(config, results, started)


def cmd_partitions(args, started: float) -> str:
    s = args.s
    if s < 1:
        raise UsageError("s must be >= 1")
    config: dict = {"command": "partitions", "s": s}
    if args.word is not None:
        word = ColoredWord.from_string(args.word)
        t = _rational(args.t)
        parts = enumerate_balanced(s, word)
        results = {
            "word": args.word,
            "count": len(parts),
            "star_moment": sum((t ** p.block_count for p in parts), Fraction(0)),
            "blocks": [[list(b) for b in p.blocks] for p in parts]
            if args.list
            else None,
        }
        config.update({"word": args.word, "t": t})
    else:
        if args.k is None:
            raise UsageError("need --k (or --word)")
        parts = enumerate_nc_s(s, args.k)
        results = {
            "k": args.k,
            "count": len(parts),
            "fuss_catalan": fuss_catalan(s, args.k),
            "fuss_narayana": list(fuss_narayana_poly(s, args.k)) if args.k >= 1 else [],
            "blocks": [[list(b) for b in p.blocks] for p in parts]
            if args.list
            else None,
        }
        config["k"] = args.k
    return _report(config, results, started)


def cmd_mc(args, started: float) -> str:
    if args.trials < 1 or args.dim < 1:
        raise UsageError("trials and dim must be >= 1")
    if args.model == "product":
        rep = product_model_mc(args.s, args.dim, args.k, args.trials, args.seed)
    elif args.model == "dw":
        rep = dw_model_mc(args.s, args.dim, args.k, args.trials, args.seed,
                          power=args.power)
    else:  # character
        if args.word is None:
            raise UsageError("character model needs --word")
        t = float(_rational(args.t))
        rep = hns_character_mc(
            args.s, args.dim, t, args.trials, args.seed,
            ColoredWord.from_string(args.word),
        )
    config = {"command": "mc", "model": args.model, "s": args.s, "k": args.k,
              "dim": args.dim, "trials": args.trials, "seed": args.seed,
              "t": args.t, "word": args.word, "power": args.power}
    return _report(config, rep.as_dict(), started)


def cmd_glm(args, started: float) -> str:
    poly = glm_exact(args.K, args.s, args.d_spec)
    results: dict = {
        "polynomial": {str(e): c for e, c in poly.items()},
        "constant_term": poly.get(0, Fraction(0)),
    }
    if args.dim is not None:
        results["value_at_dim"] = glm_eval(poly, float(args.dim))
    config = {"command": "glm", "K": args.K, "s": args.s, "d_spec": args.d_spec,
              "dim": args.dim}
    return _report(config, results, started)


def cmd_classical(args, started: float) -> str:
    t = float(_rational(args.t))
    if args.s < 1 or t <= 0:
        raise UsageError("need integer s >= 1 and t > 0")
    if args.p_max is not None and args.p_max < 1:
        raise UsageError("p_max must be >= 1")
    m = bessel_law(args.s, t, p_max=args.p_max)
    if args.pushforward:
        m = power_pushforward(m, args.s)
    results = m.as_dict()
    if args.k:
        results["real_moments"] = m.real_moments(args.k)
    config = {"command": "classical", "s": args.s, "t": args.t,
              "p_max": args.p_max, "pushforward": args.pushforward, "k": args.k}
    return _report(config, results, started)


def cmd_weingarten(args, started: float) -> str:
    t = _rational(args.t)
    word = ColoredWord.from_string(args.word)
    value = weingarten_finite_n(args.s, word, args.n, float(t))
    config = {"command": "weingarten", "s": args.s, "word": args.word,
              "n": args.n, "t": t}
    results = {"finite_n": value, "limit": star_moment(args.s, t, word)}
    return _report(config, results, started)


def cmd_probe(args, started: float) -> str:
    s_values = _grid_spec(args.s_grid)
    t_values = _grid_spec(args.t_grid)
    reports = [existence_probe(s, t, args.order) for s in s_values for t in t_values]
    if args.format == "csv":
        lines = ["s,t,passed,failed_minor,failed_matrix"]
        for r in reports:
            lines.append(
                f"{r.s!r},{r.t!r},{int(r.passed)},"
                f"{'' if r.failed_minor is None else r.failed_minor},"
                f"{'' if r.failed_matrix is None else r.failed_matrix}"
            )
        return "\n".join(lines) + "\n"
    config = {"command": "probe", "s_grid": args.s_grid, "t_grid": args.t_grid,
              "order": args.order}
    return _report(config, {"cells": [r.as_dict() for r in reports]}, started)


# --- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="freebessel", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="exact moment table with route agreement")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--force", action="store_true",
                   help="compute formal values inside the critical rectangle")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("density", help="density grid, support, quadrature mass")
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--grid-points", type=int, default=400)
    p.add_argument("--k", type=int, default=4, help="quadrature moments to report")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("partitions", help="noncrossing / balanced enumeration")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--word", help="letters u and * (conjugate), e.g. uu**")
    p.add_argument("--t", default="1")
    p.add_argument("--list", action="store_true", help="include the block lists")
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("mc", help="random-matrix / character Monte Carlo")
    p.add_argument("--model", choices=("product", "dw", "character"), required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", default="1")
    p.add_argument("--word")
    p.add_argument("--power", type=int, help="explicit trace power for the dw model")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("glm", help="exact expected-trace polynomial in 1/M")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--d-spec", choices=("identity", "roots"), default=None)
    p.add_argument("--dim", type=float, help="evaluate the polynomial at this M")
    p.set_defaults(func=cmd_glm)

    p = sub.add_parser("classical", help="discrete Bessel law atoms and moments")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--p-max", type=int, default=None)
    p.add_argument("--pushforward", action="store_true",
                   help="push forward through x -> x^s")
    p.add_argument("--k", type=int, default=0, help="real moments to report")
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("weingarten", help="finite-n integration value vs its limit")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", default="1")
    p.set_defaults(func=cmd_weingarten)

    p = sub.add_parser("probe", help="moment-positivity sweep over a parameter grid")
    p.add_argument("--s-grid", required=True, help="start:stop:count")
    p.add_argument("--t-grid", required=True, help="start:stop:count")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_probe)

    for sp in sub.choices.values():
        sp.add_argument("--out", dest="out_path", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "glm" and args.d_spec is None:
            args.d_spec = "roots" if args.s else "identity"
        payload = args.func(args, started)
    except (UsageError, EnumerationBoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RegionError as exc:
        print(f"region guard: {exc}", file=sys.stderr)
        return EXIT_REGION
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(payload, args.out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
