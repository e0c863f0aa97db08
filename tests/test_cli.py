"""End-to-end command-line behavior: payloads, exit codes, determinism."""

import argparse
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import freebessel
from freebessel import cli
from freebessel.classical import DiscreteMeasure
from freebessel.cli import main
from freebessel.matrixlab import hns_character_mc
from freebessel.partitions import ColoredWord


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def checkout_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def _reject_constant(name):
    raise ValueError(f"payload is not strict JSON: bare {name}")


def payload(out):
    return json.loads(out, parse_constant=_reject_constant)


def assert_same_payload(actual, expected):
    """Same structure, key order, types and exact values; floats to 1e-9 relative."""
    assert type(actual) is type(expected)
    if isinstance(expected, dict):
        assert list(actual) == list(expected)
        for key in expected:
            assert_same_payload(actual[key], expected[key])
    elif isinstance(expected, list):
        assert len(actual) == len(expected)
        for a, e in zip(actual, expected):
            assert_same_payload(a, e)
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-15)
    else:
        assert actual == expected


class TestMoments:
    def test_table_agreement(self, capsys):
        code, out, _ = run(capsys, "moments", "--s", "2", "--t", "1", "--k", "4")
        assert code == 0
        rows = payload(out)["results"]["moments"]
        assert [r["closed_form"] for r in rows] == ["1/1", "3/1", "12/1", "55/1"]
        assert all(r["agree"] for r in rows)
        assert all(r["series"] == r["closed_form"] for r in rows)

    def test_fractional_parameter(self, capsys):
        code, out, _ = run(capsys, "moments", "--s", "0.5", "--t", "1", "--k", "2")
        assert code == 0
        rows = payload(out)["results"]["moments"]
        assert rows[1]["closed_form"] == "3/2"

    def test_region_guard(self, capsys):
        code, out, err = run(capsys, "moments", "--s", "0.5", "--t", "2", "--k", "4")
        assert code == 3
        assert out == ""
        assert "critical rectangle" in err

    def test_region_guard_is_exact(self, capsys):
        # s rounds to 1.0 as a float, which would leave the rectangle
        s = "99999999999999999999/100000000000000000000"
        code, out, err = run(capsys, "moments", "--s", s, "--t", "2")
        assert code == 3
        assert out == ""
        assert "critical rectangle" in err

    def test_force_overrides_guard(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--s", "0.5", "--t", "2", "--k", "2", "--force"
        )
        assert code == 0
        assert payload(out)["results"]["moments"][0]["closed_form"] == "2/1"

    def test_usage_errors(self, capsys):
        assert run(capsys, "moments", "--s", "2")[0] == 1  # missing --t
        assert run(capsys, "moments", "--s", "x", "--t", "1")[0] == 1
        assert run(capsys, "moments", "--s", "-1", "--t", "1")[0] == 1
        assert run(capsys, "nosuchcommand")[0] == 1


class TestDensity:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "density", "--s", "2", "--t", "0.5", "--k", "2")
        assert code == 0
        results = payload(out)["results"]
        assert results["atom"]["mass"] == pytest.approx(0.5)
        assert results["quadrature_mass"] == pytest.approx(0.5, abs=1e-5)
        assert results["quadrature_moments"][0] == pytest.approx(0.5, abs=1e-5)

    def test_support_endpoint(self, capsys):
        code, out, _ = run(capsys, "density", "--s", "2", "--t", "1")
        assert payload(out)["results"]["support"]["K_plus"] == pytest.approx(27 / 4)

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "density", "--s", "1", "--t", "1", "--grid-points", "5",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 6

    def test_fractional_s_rejected(self, capsys):
        assert run(capsys, "density", "--s", "1.5", "--t", "1")[0] == 1

    def test_large_s(self, capsys):
        code, out, _ = run(capsys, "density", "--s", "8", "--t", "2")
        assert code == 0
        assert payload(out)["results"]["quadrature_mass"] == pytest.approx(1.0, rel=1e-9)

    def test_s_43(self, capsys):
        # K_- = 9.4e-16, where x^s underflows in a companion-matrix solve
        code, out, _ = run(capsys, "density", "--s", "43", "--t", "1/2")
        assert code == 0
        values = payload(out)["results"]["grid"]["density"]
        assert len(values) == 400
        assert all(math.isfinite(v) and v >= 0 for v in values)

    def test_s_200_just_below_one(self, capsys):
        # the critical value at w_+ overflowed in (1 - w)/(1 - (1 - t)w) to the power s
        code, out, _ = run(capsys, "density", "--s", "200", "--t", "99/100")
        assert code == 0
        results = payload(out)["results"]
        assert results["support"]["K_minus"] == 0.0
        assert all(math.isfinite(v) and v >= 0 for v in results["grid"]["density"])

    @pytest.mark.parametrize("argv, mass, rel", [
        (["--s", "2", "--t", "1e-30"], Fraction(1, 10**30), 1e-12),
        (["--s", "200", "--t", "999999999999/1000000000000"], 1 - Fraction(1, 10**12), 1e-5),
    ], ids=["tiny-t", "s200-next-to-one"])
    def test_edge_cells_of_t(self, capsys, argv, mass, rel):
        # the first exited 2 by its quadrature mass, the second by a division by zero in the
        # critical points of Phi
        code, out, _ = run(capsys, "density", *argv, "--grid-points", "5")
        assert code == 0
        assert payload(out)["results"]["quadrature_mass"] == pytest.approx(float(mass), rel=rel)

    def test_s_one_tiny_t_edges(self, capsys):
        # the grid covered half the bulk: K_-+ read 1 -+ 1e-10 from the critical points of Phi
        code, out, _ = run(capsys, "density", "--s", "1", "--t", "1e-20", "--grid-points", "5")
        assert code == 0
        support = payload(out)["results"]["support"]
        assert support["K_minus"] == pytest.approx(1 - 2e-10, rel=1e-13, abs=0)
        assert support["K_plus"] == pytest.approx(1 + 2e-10, rel=1e-13, abs=0)

    @pytest.mark.parametrize("argv,message", [
        (["--s", "1", "--t", "1e30", "--grid-points", "3", "--k", "1"], "quadrature mass"),
        (["--s", "2", "--t", "1e160"], "quadrature mass"),
        (["--s", "2", "--t", "1e100"], "quadrature moment m_4 is past the double range"),
    ], ids=["s1-mass-drift", "support-overflow", "moment-overflow"])
    def test_large_t_is_numeric_failure(self, capsys, argv, message):
        # each exited 0 with a wrong answer, or 2 with a message about a quantity never given
        code, out, err = run(capsys, "density", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_mass_check_comes_before_the_support(self):
        # in a child process, so that a slow support fails the test, not hangs it: building the
        # exact K_+ = (s+1)^(s+1)/s^s of s = 100000 takes seconds, and the mass refuses the cell
        script = ("import sys, time\nfrom freebessel.cli import main\n"
                  "start = time.perf_counter()\ncode = main(sys.argv[1:])\n"
                  "print(code, time.perf_counter() - start)\n")
        done = subprocess.run([sys.executable, "-c", script, "density", "--s", "100000",
                               "--t", "1", "--grid-points", "3"],
                              env=checkout_env(), capture_output=True, text=True, timeout=10)
        code, seconds = done.stdout.split()
        assert int(code) == 2
        assert float(seconds) < 1.0
        assert "quadrature mass" in done.stderr

    def test_large_t_within_the_mass_bound(self, capsys):
        code, out, _ = run(capsys, "density", "--s", "1", "--t", "1e20", "--grid-points", "3")
        assert code == 0
        assert payload(out)["results"]["quadrature_mass"] == pytest.approx(1.0, rel=1e-5)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, out, _ = run(
            capsys, "density", "--s", "1", "--t", "1", "--grid-points", "4",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("x,density")


class TestPartitionsCommand:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "partitions", "--s", "2", "--k", "3")
        results = payload(out)["results"]
        assert results["count"] == 12
        assert results["fuss_catalan"] == "12/1"

    def test_balanced_word(self, capsys):
        code, out, _ = run(
            capsys, "partitions", "--s", "2", "--word", "uu**", "--t", "1/2", "--list"
        )
        results = payload(out)["results"]
        assert results["count"] == 3
        assert results["star_moment"] == "1/1"  # t + 2t^2 at t = 1/2
        assert len(results["blocks"]) == 3

    def test_longest_balanced_word(self, capsys):
        # 14 letters, the enumeration bound: blocks balanced mod 2 are the
        # even-size blocks, so the count is FC(2, 7)
        code, out, _ = run(capsys, "partitions", "--s", "2", "--word", "u*" * 7)
        assert code == 0
        assert payload(out)["results"]["count"] == 7752


class TestMCCommand:
    def test_dw_estimate(self, capsys):
        code, out, _ = run(
            capsys, "mc", "--model", "dw", "--s", "2", "--k", "2", "--dim", "64",
            "--trials", "30", "--seed", "7",
        )
        assert code == 0
        results = payload(out)["results"]
        assert abs(results["estimate"] - 3) <= 3 * results["std_error"] + 0.1

    def test_determinism(self, capsys):
        argv = ["mc", "--model", "product", "--s", "1", "--k", "2", "--dim", "32",
                "--trials", "10", "--seed", "3"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        a, b = payload(out1), payload(out2)
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_one_trial_is_strict_json(self, capsys):
        code, out, _ = run(
            capsys, "mc", "--model", "dw", "--s", "2", "--dim", "16", "--trials", "1"
        )
        assert code == 0
        results = payload(out)["results"]
        assert results["trials"] == 1
        assert results["std_error"] is None

    def test_character_truncates_exactly(self, capsys):
        # m = floor(29/100 * 100) = 29; float(0.29) * 100 truncates to 28
        argv = ["mc", "--model", "character", "--s", "1", "--dim", "100", "--t", "0.29",
                "--word", "u", "--trials", "200", "--seed", "1"]
        code, out, _ = run(capsys, *argv)
        results = payload(out)["results"]
        word = ColoredWord.from_string("u")
        exact, short = (hns_character_mc(1, 100, Fraction(a, 100), 200, 1, word)
                        for a in (29, 28))
        assert exact.estimate != short.estimate
        assert results["estimate"] == exact.estimate
        assert results["statistic"] == "chi_t word u, s=1, t=0.29"

    def test_character_needs_word(self, capsys):
        code, _, err = run(
            capsys, "mc", "--model", "character", "--s", "2", "--dim", "50",
            "--trials", "10",
        )
        assert code == 1
        assert "word" in err


class TestGLMCommand:
    def test_constant_term(self, capsys):
        code, out, _ = run(capsys, "glm", "--K", "4", "--s", "2")
        results = payload(out)["results"]
        assert results["constant_term"] == "3/1"

    def test_largest_K(self, capsys):
        code, out, _ = run(capsys, "glm", "--K", "20")
        assert code == 0
        assert payload(out)["results"]["constant_term"] == "6564120420/1"

    @pytest.mark.parametrize("K", range(1, 9))
    def test_s_defaults_to_one(self, capsys, K):
        default = payload(run(capsys, "glm", "--K", str(K))[1])
        explicit = payload(run(capsys, "glm", "--K", str(K), "--s", "1")[1])
        assert default["results"] == explicit["results"]
        assert default["config"]["s"] == 1

    def test_format_flag_rejected(self, capsys):
        code, out, err = run(capsys, "glm", "--K", "6", "--format", "csv")
        assert code == 1
        assert out == ""
        assert "usage error" in err


class TestClassicalCommand:
    def test_atoms(self, capsys):
        code, out, _ = run(capsys, "classical", "--s", "2", "--t", "1", "--k", "2")
        results = payload(out)["results"]
        weights = {tuple(a["coeffs"]): a["weight"] for a in results["atoms"]}
        assert weights[(0,)] == pytest.approx(0.4657596075936404, abs=1e-10)
        assert results["real_moments"][1] == pytest.approx(1.0, abs=1e-10)

    def test_p_max_below_one_is_usage_error(self, capsys):
        code, out, err = run(capsys, "classical", "--s", "2", "--t", "1", "--p-max", "0")
        assert code == 1
        assert out == ""
        assert "--p-max" in err

    @pytest.mark.parametrize("argv", [["--t", "1e300"], ["--t", "1", "--p-max", "100000000"]],
                             ids=["default", "given"])
    def test_p_max_bound_is_usage_error(self, argv):
        # in a child process, so that a weight loop past the bound fails the test, not hangs it
        script = ("import sys, time\nfrom freebessel.cli import main\n"
                  "start = time.perf_counter()\ncode = main(sys.argv[1:])\n"
                  "print(code, time.perf_counter() - start)\n")
        done = subprocess.run([sys.executable, "-c", script, "classical", "--s", "1", *argv],
                              env=checkout_env(), capture_output=True, text=True, timeout=10)
        code, seconds = done.stdout.split()
        assert int(code) == 1
        assert float(seconds) < 1.0
        assert "usage error: p_max exceeds the bound 1000" in done.stderr

    @pytest.mark.parametrize("argv", [["--s", "11", "--t", "1"],
                                      ["--s", "5", "--t", "1", "--p-max", "20"]],
                             ids=["default", "given"])
    def test_convolution_bound_is_usage_error(self, argv):
        # in a child process, so that a convolution past the bound fails the test, not hangs it
        script = ("import sys, time\nfrom freebessel.cli import main\n"
                  "start = time.perf_counter()\ncode = main(sys.argv[1:])\n"
                  "print(code, time.perf_counter() - start)\n")
        done = subprocess.run([sys.executable, "-c", script, "classical", *argv],
                              env=checkout_env(), capture_output=True, text=True, timeout=10)
        code, seconds = done.stdout.split()
        assert int(code) == 1
        assert float(seconds) < 1.0
        assert "exceeds the convolution bound" in done.stderr


class TestStrictJSON:
    def test_non_finite_value_is_numeric_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "bessel_law", lambda s, t, p_max=None: DiscreteMeasure(s, {}, math.inf)
        )
        code, out, err = run(capsys, "classical", "--s", "2", "--t", "1")
        assert code == 2
        assert out == ""
        assert "numeric failure" in err


class TestWeingartenCommand:
    def test_value_and_limit(self, capsys):
        code, out, _ = run(
            capsys, "weingarten", "--s", "2", "--word", "uu**", "--n", "64", "--t", "1"
        )
        results = payload(out)["results"]
        assert results["limit"] == "3/1"
        assert results["finite_n"] == pytest.approx(3.0, abs=0.3)

    def test_t_truncates_exactly(self, capsys):
        # u* at s = 1 gives m (m + n - 2) / (n (n - 1)) with m = floor(tn) = 29, not 28
        code, out, _ = run(
            capsys, "weingarten", "--s", "1", "--word", "u*", "--n", "100", "--t", "0.29"
        )
        assert code == 0
        assert payload(out)["results"]["finite_n"] == float(Fraction(29 * 127, 100 * 99))


class TestProbeCommand:
    def test_csv_map(self, capsys):
        code, out, _ = run(
            capsys, "probe", "--s-grid", "0.3:0.3:1", "--t-grid", "6:6:1",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,t,passed,failed_minor,failed_matrix"
        assert lines[1].split(",")[2] == "0"

    def test_bad_grid(self, capsys):
        assert run(capsys, "probe", "--s-grid", "1:2", "--t-grid", "1:1:1")[0] == 1

    @pytest.mark.parametrize("grid", ["inf:inf:1", "nan:1:2"])
    def test_non_finite_grid_is_usage_error(self, capsys, grid):
        code, out, err = run(capsys, "probe", "--s-grid", grid, "--t-grid", "1:1:1")
        assert code == 1
        assert out == ""
        assert "usage error" in err

    def test_grid_is_exact(self, capsys):
        code, out, _ = run(
            capsys, "probe", "--s-grid", "0.1:3:30", "--t-grid", "1:1:1", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[9].split(",")[0] == "0.9"


def readme_examples():
    """The argument lists of the `freebessel ...` lines in the README's command-line block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("freebessel ")]


class TestReadmeExamples:
    """Each `freebessel ...` line of the README's command-line block runs and exits 0."""

    def test_examples_run(self, capsys):
        lines = readme_examples()
        assert len(lines) == 8
        for argv in lines:
            if argv[1] == "mc":
                # N = 256 takes about 6 s on two cores; TestMCCommand covers the dw model
                continue
            code, out, err = run(capsys, *argv[1:])
            assert code == 0, (argv, err)
            if "csv" in argv:
                header = out.splitlines()[0]
                assert header in ("x,density", "s,t,passed,failed_minor,failed_matrix")
            else:
                payload(out)

    def test_config_echoes_parsed_flags(self, capsys):
        # config holds every destination of the subcommand's parser, in parser order
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for argv in readme_examples():
            argv = [a for a in argv[1:] if a not in ("--format", "csv")]
            if argv[0] == "mc":
                argv += ["--dim", "4", "--trials", "2"]  # the last value of a flag wins
            code, out, err = run(capsys, *argv)
            assert code == 0, (argv, err)
            dests = [a.dest for a in sub.choices[argv[0]]._actions
                     if a.dest not in ("help", "out_path", "format")]
            assert list(payload(out)["config"]) == ["command", *dests]


class TestModuleEntryPoint:
    def test_public_names_resolve(self):
        namespace: dict = {}
        exec("from freebessel import *", namespace)
        for name in freebessel.__all__:
            assert getattr(freebessel, name) is namespace[name]

    def test_python_m_from_checkout(self):
        done = subprocess.run([sys.executable, "-m", "freebessel", "--version"],
                              env=checkout_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == cli.__version__


COLD_SCRIPT = """
import contextlib, io, json, sys
import freebessel, freebessel.cli
seen = [[None, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = freebessel.cli.main(argv)
    seen.append([code, "numpy" in sys.modules])
print(json.dumps(seen))
"""


def cold_run(argvs: list[list[str]]) -> list[list]:
    """[exit code, numpy loaded] after `import freebessel` (code None), then after each
    command, all in one fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", COLD_SCRIPT, json.dumps(argvs)],
                          env=checkout_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestColdStart:
    """Only the density layer, the Monte Carlo models and the float Weingarten path load numpy."""

    def test_exact_commands_never_import_numpy(self):
        argvs = [
            ["moments", "--s", "3", "--t", "1/2", "--k", "6"],
            ["partitions", "--s", "2", "--word", "uu**uu**", "--list"],
            ["glm", "--K", "8", "--s", "2", "--dim", "10"],
            ["classical", "--s", "3", "--t", "1/2", "--k", "3", "--pushforward"],
            ["probe", "--s-grid", "1:3:3", "--t-grid", "1/2:2:3"],
            ["weingarten", "--s", "2", "--word", "uu**uu**", "--n", "64", "--t", "1/2"],  # dim 55
        ]
        assert cold_run(argvs) == [[None, False]] + [[0, False]] * len(argvs)

    def test_numeric_commands_still_work(self):
        argvs = [["density", "--s", "2", "--t", "1/2", "--grid-points", "5"],
                 ["mc", "--model", "dw", "--s", "2", "--dim", "4", "--trials", "2"]]
        assert cold_run(argvs) == [[None, False], [0, True], [0, True]]


class TestSizeBounds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["glm", "--K", "21"],
            ["partitions", "--s", "1", "--k", "20"],
            ["weingarten", "--s", "1", "--word", "u" * 15, "--n", "8"],
            ["weingarten", "--s", "1", "--word", "u" * 8, "--n", "8"],
        ],
        ids=["glm", "partitions", "weingarten", "weingarten-gram"],
    )
    def test_size_bound_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "usage error" in err and "bound" in err


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["weingarten", "--s", "0", "--word", "uu**", "--n", "8"],
            ["weingarten", "--s", "2", "--word", "uu**", "--n", "3"],
            ["weingarten", "--s", "2", "--word", "ux", "--n", "8"],
            ["weingarten", "--s", "2", "--word", "uu**", "--n", "8", "--t", "2"],
            ["weingarten", "--s", "2", "--word", "uu**", "--n", "8", "--t", "-1"],
            ["weingarten", "--s", "2", "--word", "uu**", "--n", "8", "--t", "0"],
            ["partitions", "--s", "1", "--k", "-1"],
            ["glm", "--K", "0"],
            ["mc", "--model", "dw", "--s", "1", "--k", "0"],
            ["mc", "--model", "character", "--s", "1", "--word", "u*", "--t", "2"],
            ["mc", "--model", "character", "--s", "1", "--word", "u*", "--dim", "3"],
            ["density", "--s", "2", "--t", "1/2", "--grid-points", "0"],
            ["density", "--s", "2", "--t", "1/2", "--k", "-1"],
            ["probe", "--s-grid", "1:1:1", "--t-grid", "1:1:1", "--order", "-1"],
            ["glm", "--K", "8", "--s", "3"],
            ["glm", "--K", "4", "--d-spec", "roots"],
            ["glm", "--K", "4", "--dim", "-5"],
            ["glm", "--K", "4", "--dim", "0"],
            ["glm", "--K", "4", "--dim", "nan"],
            ["glm", "--K", "4", "--dim", "inf"],
            ["density", "--s", "2", "--t", "0"],
            ["density", "--s", "2", "--t", "-1"],
            ["classical", "--s", "2", "--t", "0"],
            ["mc", "--model", "dw", "--s", "2", "--t", "x"],
            ["partitions", "--s", "1", "--k", "3", "--t", "x"],
            ["glm", "--K", "6", "--s", "2", "--d-spec", "identity"],
            ["density", "--s", "2", "--t", "1e-400"],  # t is decided on its float, 0.0
            ["classical", "--s", "2", "--t", "1e-400"],
            ["mc", "--model", "product", "--s", "2", "--k", "2", "--power", "5", "--dim", "8",
             "--trials", "3"],  # flags that the model does not use
            ["mc", "--model", "product", "--s", "2", "--word", "u*", "--dim", "8", "--trials", "3"],
            ["mc", "--model", "dw", "--s", "2", "--word", "u*", "--dim", "8", "--trials", "3"],
            ["mc", "--model", "character", "--s", "1", "--word", "u*", "--power", "2"],
        ],
    )
    def test_exit_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "usage error" in err

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["density", "--s", "2", "--t", "1e400"], "t"),
            (["density", "--s", "1e400", "--t", "1"], "s"),
            (["classical", "--s", "2", "--t", "1e400"], "t"),
            (["probe", "--s-grid", "1e400:1e400:1", "--t-grid", "1:1:1"], "s"),
            (["probe", "--s-grid", "1:1:1", "--t-grid", "1e400:1e400:1"], "t"),
        ],
    )
    def test_overflowing_parameter(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"usage error: {name} must be a finite number within the double range" in err


class TestRecordedPayloads:
    """Results blocks recorded while the CLI still round-tripped them through JSON text."""

    @pytest.mark.parametrize("argv, expected", [
        ("moments --s 2 --t 1/2 --k 3", {
            "config": {"command": "moments", "s": "2/1", "t": "1/2", "k": 3, "order": 16,
                       "force": False},
            "results": {"moments": [
                {"k": 1, "closed_form": "1/2", "series": "1/2", "partitions": "1/2",
                 "agree": True},
                {"k": 2, "closed_form": "1/1", "series": "1/1", "partitions": "1/1",
                 "agree": True},
                {"k": 3, "closed_form": "21/8", "series": "21/8", "partitions": "21/8",
                 "agree": True},
            ]},
        }),
        ("partitions --s 2 --word uu** --t 1/2 --list", {
            "config": {"command": "partitions", "s": 2, "k": None, "word": "uu**", "t": "1/2",
                       "list": True},
            "results": {"word": "uu**", "count": 3, "star_moment": "1/1",
                        "blocks": [[[1, 2], [3, 4]], [[1, 2, 3, 4]], [[1, 4], [2, 3]]]},
        }),
        ("glm --K 4 --s 2", {
            "config": {"command": "glm", "K": 4, "s": 2, "dim": None},
            "results": {"polynomial": {"0": "3/1", "-2": "6/1"}, "constant_term": "3/1"},
        }),
        ("weingarten --s 2 --word uu** --n 8 --t 1/2", {
            "config": {"command": "weingarten", "s": 2, "word": "uu**", "n": 8, "t": "1/2"},
            "results": {"finite_n": 0.9285714285714286, "limit": "1/1"},
        }),
    ], ids=["moments", "partitions", "glm", "weingarten"])
    def test_exact_payload(self, capsys, argv, expected):
        # whole payloads: "p/q" inside rows and lists, nested block arrays, the config echo
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        data = payload(out)
        assert isinstance(data.pop("wall_time_s"), float)
        assert_same_payload(data, {**expected, "version": freebessel.__version__})

    def test_classical(self, capsys):
        code, out, _ = run(
            capsys, "classical", "--s", "2", "--t", "1/2", "--p-max", "2", "--k", "2"
        )
        assert code == 0
        atoms = [
            {"coeffs": [0], "complex": [0.0, 0.0], "weight": 0.6450311410420487},
            {"coeffs": [1], "complex": [1.0, 0.0], "weight": 0.1563711857071633},
            {"coeffs": [-1], "complex": [-1.0, 0.0], "weight": 0.1563711857071633},
            {"coeffs": [2], "complex": [2.0, 0.0], "weight": 0.018954083116019795},
            {"coeffs": [-2], "complex": [-2.0, 0.0], "weight": 0.018954083116019795},
        ]
        assert_same_payload(payload(out)["results"], {
            "s": 2, "atoms": atoms, "deficit": 0.00431832131158516,
            "real_moments": [-1.3877787807814457e-17, 0.4643750363424849],
        })

    def test_density(self, capsys):
        code, out, _ = run(
            capsys, "density", "--s", "2", "--t", "1/2", "--grid-points", "3", "--k", "1"
        )
        assert code == 0
        results = payload(out)["results"]
        # 60-digit roots of the Stieltjes polynomial (mpmath), against the values the
        # companion solve recorded: each point must be at least as close as those were
        exact = [0.0007816561004915148480, 0.06129550263259490014, 1.558182660534911152e-06]
        recorded = [0.0007816560996941404, 0.06129550263259492, 1.5581826326575035e-06]
        for value, e, r in zip(results["grid"]["density"], exact, recorded):
            assert abs(value - e) <= abs(r - e)
        results["grid"]["density"] = exact
        assert_same_payload(results, {
            "params": {"s": 2.0, "t": 0.5},
            "support": {
                "regime": "t<1", "K_minus": 0.02835013639061783,
                "K_plus": 4.409149863609382, "atom_mass": 0.5,
                "w_minus": 0.4384471871911697, "w_plus": 4.561552812808831,
            },
            "atom": {"location": 0.0, "mass": 0.5},
            "quadrature_mass": 0.49999999999999994,
            "quadrature_moments": [0.49999999999999994],
            "grid": {
                "x": [0.028350140771417558, 2.2187500000000004, 4.409149859228583],
                "density": exact,
            },
        })

    @pytest.mark.parametrize("model, k, statistic, estimate, std_error", [
        ("dw", "1", "tr((DW)^2), s=2", 0.9583363369560199, 0.16960190139428308),
        ("product", "2", "tr((MM*)^2), s=2", 2.3104622398855486, 0.4753999423858734),
    ])
    def test_mc(self, capsys, model, k, statistic, estimate, std_error):
        code, out, _ = run(
            capsys, "mc", "--model", model, "--s", "2", "--k", k, "--dim", "4",
            "--trials", "3", "--seed", "5",
        )
        assert code == 0
        assert_same_payload(payload(out)["results"], {
            "statistic": statistic, "estimate": estimate, "std_error": std_error,
            "trials": 3, "N": 4, "seed": 5,
        })
