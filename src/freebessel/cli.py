"""Command-line frontend: every computation, reproducible seeds, JSON/CSV output.

Exit codes: 0 success, 1 usage error (an ArgumentError: an input outside a
function's domain), 2 numeric failure, 3 region guard (parameters inside the
critical rectangle without --force).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
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
    ArgumentError,
    ColoredWord,
    count_balanced,
    count_nc_s,
    enumerate_balanced,
    enumerate_nc_s,
    fuss_catalan,
    fuss_narayana_poly,
    star_moment,
)

EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_REGION = 3


class RegionError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        raise ArgumentError(message)


def _at_least(floor: int):
    """argparse type: an integer >= floor."""
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        if int(text) < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {text}")
        return int(text)
    return integer


def _word(text: str) -> ColoredWord:
    try:
        return ColoredWord.from_string(text)
    except ValueError as exc:  # argparse would print the text but not this message
        raise argparse.ArgumentTypeError(str(exc)) from exc


def rational(text: str) -> Fraction:  # argparse names it in "invalid rational value"
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ArgumentError(f"not a rational number: {text!r}") from exc


def _fmt(value):
    """Serialize exact rationals as 'p/q' strings, everything else natively."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return value
    if isinstance(value, ColoredWord):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


def _grid_spec(text: str) -> list[Fraction]:
    """Parse 'start:stop:count' into evenly spaced exact rationals (endpoints included)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ArgumentError(f"grid must be start:stop:count, got {text!r}")
    lo, hi = rational(parts[0]), rational(parts[1])
    try:
        n = int(parts[2])
    except ValueError as exc:
        raise ArgumentError(f"bad grid spec {text!r}") from exc
    if n < 1:
        raise ArgumentError("grid count must be >= 1")
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _guard_region(s, t, force: bool) -> None:
    if not in_defined_region(s, t) and not force:
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


def _report(args: argparse.Namespace, results, started: float) -> str:
    """The payload: the parsed flags as config, then results, wall time and version."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "out_path", "format")}
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
    s, t = args.s, args.t
    if s <= 0 or t <= 0:
        raise ArgumentError("need s,t > 0")
    _guard_region(s, t, args.force)
    args.order = max(args.order, args.k)
    series = None
    if s >= 1 or t <= 1:
        series = moments_via_series(s, t, args.order)
    rows = []
    for k in range(1, args.k + 1):
        closed = moment(s, t, k)
        row: dict = {"k": k, "closed_form": closed}
        agree = True
        if series is not None:
            row["series"] = series[k]
            agree = agree and series[k] == closed
        if s.denominator == 1 and int(s) * k <= DEFAULT_ENUM_BOUND:
            part = star_moment(int(s), t, ColoredWord.same_color(int(s) * k))
            row["partitions"] = part
            agree = agree and part == closed
        row["agree"] = agree
        rows.append(row)
    return _report(args, {"moments": rows}, started)


def cmd_density(args, started: float) -> str:
    grid = replace(density_grid(args.s, args.t, n_points=args.grid_points),
                   quadrature_moments=quadrature_moments(args.s, args.t, args.k)[1:])
    if args.format == "csv":
        return grid.to_csv()
    return _report(args, grid.as_dict(), started)


def cmd_partitions(args, started: float) -> str:
    s = args.s
    if args.word is not None:
        results = {
            "word": args.word,
            "count": sum(count_balanced(s, args.word)),
            "star_moment": star_moment(s, args.t, args.word),
            "blocks": [[list(b) for b in p.blocks] for p in enumerate_balanced(s, args.word)]
            if args.list
            else None,
        }
    else:
        if args.k is None:
            raise ArgumentError("need --k (or --word)")
        results = {
            "k": args.k,
            "count": sum(count_nc_s(s, args.k)),
            "fuss_catalan": fuss_catalan(s, args.k),
            "fuss_narayana": list(fuss_narayana_poly(s, args.k)) if args.k >= 1 else [],
            "blocks": [[list(b) for b in p.blocks] for p in enumerate_nc_s(s, args.k)]
            if args.list
            else None,
        }
    return _report(args, results, started)


def cmd_mc(args, started: float) -> str:
    if args.model == "product":
        rep = product_model_mc(args.s, args.dim, args.k, args.trials, args.seed)
    elif args.model == "dw":
        rep = dw_model_mc(args.s, args.dim, args.k, args.trials, args.seed,
                          power=args.power)
    else:  # character
        if args.word is None:
            raise ArgumentError("the character model needs --word")
        rep = hns_character_mc(args.s, args.dim, float(args.t), args.trials, args.seed,
                               args.word)
    return _report(args, rep.as_dict(), started)


def cmd_glm(args, started: float) -> str:
    args.d_spec = args.d_spec or ("roots" if args.s else "identity")
    poly = glm_exact(args.K, args.s, args.d_spec)
    results: dict = {
        "polynomial": {str(e): c for e, c in poly.items()},
        "constant_term": poly.get(0, Fraction(0)),
    }
    if args.dim is not None:
        results["value_at_dim"] = glm_eval(poly, float(args.dim))
    return _report(args, results, started)


def cmd_classical(args, started: float) -> str:
    m = bessel_law(args.s, float(args.t), p_max=args.p_max)
    if args.pushforward:
        m = power_pushforward(m, args.s)
    results = m.as_dict()
    if args.k:
        results["real_moments"] = m.real_moments(args.k)
    return _report(args, results, started)


def cmd_weingarten(args, started: float) -> str:
    value = weingarten_finite_n(args.s, args.word, args.n, float(args.t))
    results = {"finite_n": value, "limit": star_moment(args.s, args.t, args.word)}
    return _report(args, results, started)


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
    return _report(args, {"cells": [r.as_dict() for r in reports]}, started)


# --- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="freebessel", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="exact moment table with route agreement")
    p.add_argument("--s", type=rational, required=True)
    p.add_argument("--t", type=rational, required=True)
    p.add_argument("--k", type=_at_least(1), default=6)
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--force", action="store_true",
                   help="compute formal values inside the critical rectangle")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("density", help="density grid, support, quadrature mass")
    p.add_argument("--s", type=rational, required=True)
    p.add_argument("--t", type=rational, required=True)
    p.add_argument("--grid-points", type=_at_least(1), default=400)
    p.add_argument("--k", type=_at_least(0), default=4, help="quadrature moments to report")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("partitions", help="noncrossing / balanced enumeration")
    p.add_argument("--s", type=_at_least(1), required=True)
    p.add_argument("--k", type=_at_least(0))
    p.add_argument("--word", type=_word, help="letters u and * (conjugate), e.g. uu**")
    p.add_argument("--t", type=rational, default="1")
    p.add_argument("--list", action="store_true", help="include the block lists")
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("mc", help="random-matrix / character Monte Carlo")
    p.add_argument("--model", choices=("product", "dw", "character"), required=True)
    p.add_argument("--s", type=_at_least(1), required=True)
    p.add_argument("--k", type=_at_least(1), default=1)
    p.add_argument("--dim", type=_at_least(1), default=64)
    p.add_argument("--trials", type=_at_least(1), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=rational, default="1")
    p.add_argument("--word", type=_word)
    p.add_argument("--power", type=_at_least(1), help="explicit trace power for the dw model")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("glm", help="exact expected-trace polynomial in 1/M")
    p.add_argument("--K", type=_at_least(1), required=True)
    p.add_argument("--s", type=_at_least(1))
    p.add_argument("--d-spec", choices=("identity", "roots"), default=None)
    p.add_argument("--dim", type=_at_least(1), help="evaluate the polynomial at this M")
    p.set_defaults(func=cmd_glm)

    p = sub.add_parser("classical", help="discrete Bessel law atoms and moments")
    p.add_argument("--s", type=_at_least(1), required=True)
    p.add_argument("--t", type=rational, required=True)
    p.add_argument("--p-max", type=_at_least(1), default=None)
    p.add_argument("--pushforward", action="store_true",
                   help="push forward through x -> x^s")
    p.add_argument("--k", type=_at_least(0), default=0, help="real moments to report")
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("weingarten", help="finite-n integration value vs its limit")
    p.add_argument("--s", type=_at_least(1), required=True)
    p.add_argument("--word", type=_word, required=True)
    p.add_argument("--n", type=_at_least(4), required=True)
    p.add_argument("--t", type=rational, default="1")
    p.set_defaults(func=cmd_weingarten)

    p = sub.add_parser("probe", help="moment-positivity sweep over a parameter grid")
    p.add_argument("--s-grid", required=True, help="start:stop:count")
    p.add_argument("--t-grid", required=True, help="start:stop:count")
    p.add_argument("--order", type=_at_least(0), default=6)
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
        payload = args.func(args, started)
    except ArgumentError as exc:
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
