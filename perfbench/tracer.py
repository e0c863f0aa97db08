"""Spans around every public function of the library, recorded from outside it.

``install()`` replaces each public function of the six layer modules with a
timing wrapper, in every ``freebessel`` namespace that binds it (so the
``from .x import y`` copies in ``cli`` and ``freelaws`` are traced too), and
gives ``freelaws`` a copy of numpy whose ``roots`` is counted.  Spans stay in
memory; ``Tracer.metrics()`` turns them into the per-layer metrics once the
pass is over.  The wrappers assume one thread, which holds while
``FREEBESSEL_THREADS`` is unset.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import types
from collections import Counter, defaultdict
from functools import update_wrapper
from time import perf_counter

import numpy

LAYERS = ("partitions", "series", "freelaws", "classical", "matrixlab", "cli")
MATRIX_MODELS = ("dw_model_mc", "dw_model_mc_multi", "product_model_mc")


def _matmul_flop(name: str, a: dict) -> float:
    """Real flops of the complex matmuls an MC call makes, from its arguments (8 n^3 each)."""
    if name == "dw_model_mc":
        m = a["power"] or a["s"] * a["k"]
        return a["trials"] * 8.0 * (a["s"] * a["N"]) ** 3 * m  # W = G*G, then m - 1 products
    if name == "dw_model_mc_multi":
        # W = G*G, then one product per power up to the largest (the first is by I)
        return a["trials"] * 8.0 * (a["s"] * a["N"]) ** 3 * (1 + max(a["powers"]))
    if name == "product_model_mc":
        # s Ginibre factors (the first by I), M M*, then k - 1 products
        return a["trials"] * 8.0 * a["N"] ** 3 * (a["s"] + a["k"])
    return 0.0


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.busy: defaultdict[str, float] = defaultdict(float)  # outermost calls only
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.depth: Counter[str] = Counter()
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.modules: dict[str, types.ModuleType] = {}

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        stack, busy, self_time, calls, depth = (
            self.stack, self.busy, self.self_time, self.calls, self.depth)
        after = self._after_hook(layer, name, fn)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            outer = depth[key]
            depth[key] = outer + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                depth[key] = outer
                stack.pop()
                self_time[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                calls[key] += 1
                if not outer:
                    busy[key] += dt
            if after is not None and not outer:
                after(args, kwargs, result)
            return result

        update_wrapper(traced, fn)
        return traced

    def _after_hook(self, layer: str, name: str, fn):
        counts = self.counts
        if name == "enumerate_nc_s":
            def hook(args, kwargs, result):
                counts["partitions"] += len(result)
        elif name == "density":
            def hook(args, kwargs, result):
                counts["density_points"] += numpy.size(args[2])
        elif name == "bessel_law":
            def hook(args, kwargs, result):
                counts["atoms"] += len(result.atoms)
        elif name in MATRIX_MODELS:
            signature = inspect.signature(fn)

            def hook(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts["mc_trials"] += bound.arguments["trials"]
                counts["matmul_flop"] += _matmul_flop(name, bound.arguments)
        elif layer == "cli" and name.startswith("cmd_"):
            def hook(args, kwargs, result):
                counts["payload_bytes"] += len(result.encode())
        else:
            return None
        return hook

    def install(self) -> None:
        """Wrap every public function of the layers wherever freebessel binds it."""
        for layer in LAYERS:
            self.modules[layer] = importlib.import_module(f"freebessel.{layer}")
        namespaces = [m for n, m in sys.modules.items()
                      if n == "freebessel" or n.startswith("freebessel.")]
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                traced = self.wrap(layer, name, obj)
                for ns in namespaces:
                    for bound_name, bound in list(vars(ns).items()):
                        if bound is obj:
                            setattr(ns, bound_name, traced)
        freelaws = self.modules["freelaws"]
        counted = types.ModuleType(numpy.__name__)
        counted.__dict__.update(numpy.__dict__)
        counts = self.counts

        def roots(p):
            counts["root_solves"] += 1
            return numpy.roots(p)

        counted.roots = roots
        freelaws.np = counted

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything traced so far."""
        busy, calls, counts = self.busy, self.calls, self.counts
        out: dict[str, float] = {f"{layer}.self_s": self.self_time[layer]
                                 for layer in LAYERS}
        for key in ("partitions.enumerate_nc_s", "partitions.enumerate_balanced",
                    "series.revert", "series.free_cumulants",
                    "series.moments_from_free_cumulants", "series.boxtimes_power",
                    "freelaws.moment", "freelaws.moments_via_series", "freelaws.density",
                    "freelaws.quadrature_moments", "freelaws.existence_probe",
                    "classical.bessel_law", "classical.poisson_limit", "classical.fourier",
                    "matrixlab.glm_exact", "matrixlab.geodesic_count",
                    "matrixlab.weingarten_finite_n",
                    "matrixlab.hns_character_mc",
                    *(f"matrixlab.{f}" for f in MATRIX_MODELS)):
            out[f"{key}.s"] = busy[key]
        for command in ("moments", "density", "partitions", "mc", "glm", "classical",
                        "weingarten", "probe"):
            out[f"cli.{command}.s"] = busy[f"cli.cmd_{command}"]
        out["partitions.enumerate_nc_s.partitions"] = counts["partitions"]
        out["partitions.join.calls"] = calls["partitions.join"]
        out["series.revert.calls"] = calls["series.revert"]
        info = self.modules["freelaws"]._moment_cached.cache_info()
        lookups = info.hits + info.misses
        out["freelaws.moment.cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["freelaws.density.points"] = counts["density_points"]
        out["freelaws.root_solves"] = counts["root_solves"]
        out["freelaws.points_per_root_solve"] = (
            counts["density_points"] / counts["root_solves"] if counts["root_solves"] else 0.0)
        out["freelaws.existence_probe.cells"] = calls["freelaws.existence_probe"]
        out["classical.bessel_law.atoms"] = counts["atoms"]
        out["classical.convolve.calls"] = calls["classical.convolve"]
        # trials, trial time and flops of the three matrix models; the character
        # model does no matmuls and is timed by hns_character_mc.s alone
        model_time = sum(busy[f"matrixlab.{f}"] for f in MATRIX_MODELS)
        out["matrixlab.mc_trials"] = counts["mc_trials"]
        out["matrixlab.trial_ms"] = (
            1e3 * model_time / counts["mc_trials"] if counts["mc_trials"] else 0.0)
        out["matrixlab.matmul_gflop"] = counts["matmul_flop"] / 1e9
        out["matrixlab.achieved_gflops"] = (
            counts["matmul_flop"] / 1e9 / model_time if model_time else 0.0)
        out["cli.payload_bytes"] = counts["payload_bytes"]
        return out
