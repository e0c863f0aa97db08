"""Verified-answer benchmark for freebessel.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run each in
turn.  Run from the root of a checkout: the library is taken from ``src/``.

A run is a closed loop with one client and no think time: it starts a pass
(``child.py`` in a fresh interpreter, as every ``freebessel`` invocation
starts), waits for it, checks every output, and starts the next, until S
seconds have passed; it always finishes the pass it is in.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 each round is one untraced and
one traced pass, and it reports the per-layer metrics of the traced passes and
the tracing overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def layer_units() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, better), as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # the probe's thread pool stays at its default of one thread; BLAS keeps its own default
    env.pop("FREEBESSEL_THREADS", None)
    return env


def timed(argv: list[str], env: dict[str, str]) -> tuple[float, float, float, bytes]:
    """Run argv to completion: (wall s, user+system CPU s, peak RSS MiB, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            cwd=ROOT, env=env)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited with {proc.returncode}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, out


def setup_seconds(env: dict[str, str]) -> float:
    """Median time to start the interpreter and import freebessel."""
    argv = [sys.executable, "-c", "import freebessel"]
    return statistics.median(timed(argv, env)[0] for _ in range(SETUP_SAMPLES))


class Run:
    """Passes of one workload, with every output checked."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.ops = workloads.plan(workload, seed)
        self.env = child_env()
        self.attempted = self.failed = 0
        self.correct = True
        self.reported: set[str] = set()

    def one_pass(self, trace: bool) -> tuple[float, float, float, dict | None]:
        argv = [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed),
                str(int(trace))]
        wall, cpu, rss, out = timed(argv, self.env)
        payload = json.loads(out)
        results = payload["results"]
        if len(results) != len(self.ops):
            raise RuntimeError("child returned the wrong number of results")
        for op, res in zip(self.ops, results):
            self.attempted += 1
            try:
                if "error" in res:
                    raise workloads.CheckFailed(res["error"])
                op.check(res["value"])
            except Exception as exc:  # a wrong or malformed output fails the operation
                self.failed += 1
                if op.fault is None:
                    self.correct = False
                if op.name not in self.reported:
                    self.reported.add(op.name)
                    known = f" [known fault: {op.fault}]" if op.fault else ""
                    print(f"{self.workload}: FAILED {op.name}: {exc}{known}", file=sys.stderr)
        return wall, cpu, rss, payload["layers"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    metrics: dict[str, dict] = {}
    if not trace:
        setup = setup_seconds(run.env)
        samples = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            samples.append(run.one_pass(False)[:3])
        walls, cpus, rsss = zip(*samples)
        values = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mib": rsss}
        for name, unit in END_TO_END.items():
            value = setup if name == "setup_s" else statistics.median(values[name])
            metrics[name] = {"value": value, "unit": unit}
        print(f"{workload}: {len(samples)} passes", file=sys.stderr)
    else:
        plain, traced, layers = [], [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            plain.append(run.one_pass(False)[0])
            wall, _, _, layer = run.one_pass(True)
            traced.append(wall)
            layers.append(layer)
        overhead = statistics.median(traced) - statistics.median(plain)
        print(f"{workload}: {len(traced)} rounds; traced wall {statistics.median(traced):.3f} s,"
              f" untraced {statistics.median(plain):.3f} s, overhead {overhead:.3f} s",
              file=sys.stderr)
        for name, (unit, _) in layer_units().items():
            if name == "trace.overhead_s":
                value = overhead
            else:
                value = statistics.median(layer[name] for layer in layers)
            metrics[name] = {"value": value, "unit": unit}
    return {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "freebessel" / "__init__.py").is_file():
        print(f"no freebessel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    broken = oracles.self_test()
    if broken:
        print(f"oracle self-test failed: {broken}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {}
    for name in names:
        rep = reports[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"== {name}: attempted {rep['attempted']}, failed {rep['failed']}, "
              f"correct {rep['correct']}")
        for metric, m in rep["metrics"].items():
            print(f"   {metric:44s} {m['value']:14.6g} {m['unit']}")
    if len(reports) == 1:
        result = next(iter(reports.values()))
    else:
        result = {"correct": all(r["correct"] for r in reports.values()),
                  "attempted": sum(r["attempted"] for r in reports.values()),
                  "failed": sum(r["failed"] for r in reports.values()),
                  "metrics": {f"{w}.{k}": m for w, r in reports.items()
                              for k, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
