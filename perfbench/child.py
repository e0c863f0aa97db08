"""One pass of a workload in a fresh interpreter: ``child.py WORKLOAD SEED TRACE``.

Runs every operation of the plan in order and writes one JSON object to
stdout: each operation's output (or its error), and with TRACE=1 the
per-layer metrics.  Checking happens in the parent, outside this process.
"""

from __future__ import annotations

import json
import sys

import workloads


def main(workload: str, seed: int, trace: bool) -> None:
    import freebessel  # noqa: F401  (a missing package fails the pass here)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    for op in workloads.plan(workload, seed):
        try:
            results.append({"value": op.run()})
        except Exception as exc:  # the parent counts it as a failed operation
            results.append({"error": f"{type(exc).__name__}: {exc}"[:500]})
    json.dump({"results": results, "layers": tracer.metrics() if tracer else None},
              sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
