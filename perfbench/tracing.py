"""Per-layer tracing for the benchmark's traced run.

Each module of the package is one layer.  `Tracer.install` wraps every
public function a layer defines, the estimators' private refine step
(the screen/refine boundary), and the validating constructors of
`BallPoint` and `ExtendedOperator` (wrapped at the class).  A wrapped
name is rebound in every `hilbertball` module that holds the same
object, because `from .numerics import op_norm` gives `algebra`,
`isometries`, `dynamics` and `cli` references of their own.  In `cli`
only `main` is wrapped, so its self time is the whole command layer:
argument parsing, dispatch and output glue.

Every call records a span; a span's self time is its duration minus
the durations of the wrapped calls made inside it.  Spans stay in
memory as running totals and are turned into the per-layer metrics that
BENCHMARK.json lists by `Tracer.metrics`.
"""

import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("numerics", "geometry", "isometries", "algebra", "dynamics", "verify", "serialize", "cli")
# Private functions that are layer boundaries in their own right.
EXTRA_FUNCTIONS = {"algebra": ("_refine",)}
# Validating constructors, wrapped at the class.
CLASSES = {"geometry": ("BallPoint",), "isometries": ("ExtendedOperator",)}
SUPREMANDS = (
    "invariant_supremand",
    "invariant_supremand_chain",
    "cone_supremand",
    "shifted_supremand_chain",
)
ESTIMATES = ("norm_b_estimate", "norm_s_estimate", "norm_d_estimate")

class Tracer:
    """Span totals for the wrapped functions of the package."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.nonfinite_distances = 0
        self.useful_refines = 0
        self.suite_s = defaultdict(float)
        self._stack = []
        self._undo = []
        self._hooks = {
            "geometry.distance": self._on_distance,
            "algebra._refine": self._on_refine,
            "verify.run_property": self._on_property,
        }

    # -- recording -----------------------------------------------------

    def _wrap(self, key, fn):
        tracer = self
        hook = self._hooks.get(key)

        def traced(*args, **kwargs):
            children = [0.0]
            tracer._stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += span
                tracer.calls[key] += 1
                tracer.total_s[key] += span
                tracer.self_s[key] += span - children[0]
            if hook is not None:
                hook(args, result, span)
            return result

        traced.__name__ = getattr(fn, "__name__", key)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _on_distance(self, args, result, span):
        if not math.isfinite(result):
            self.nonfinite_distances += 1

    def _on_refine(self, args, result, span):
        # _refine(scalar_fn, zvec, lam, best_val) -> (z, lam, val)
        if result[2] > args[3]:
            self.useful_refines += 1

    def _on_property(self, args, result, span):
        self.suite_s[result.suite] += span

    # -- installation --------------------------------------------------

    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "hilbertball" or name.startswith("hilbertball."))
        }
        for layer in LAYERS:
            mod = modules["hilbertball." + layer]
            names = ["main"] if layer == "cli" else [
                name
                for name, obj in vars(mod).items()
                if not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ]
            for name in names + list(EXTRA_FUNCTIONS.get(layer, ())):
                original = getattr(mod, name)
                wrapped = self._wrap(f"{layer}.{name}", original)
                for holder in modules.values():
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._undo.append((holder, attr, original))
                            setattr(holder, attr, wrapped)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                original = cls.__dict__["__post_init__"]
                self._undo.append((cls, "__post_init__", original))
                cls.__post_init__ = self._wrap(f"{layer}.{cls_name}", original)

    def uninstall(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # -- reporting -----------------------------------------------------

    def metrics(self, per_layer, overhead_s, norm_gap_max):
        """Every metric of `per_layer` (BENCHMARK.json's list), by name."""
        calls, self_s = self.calls, self.self_s
        values = {}
        for key in list(calls):
            values[key + ".calls"] = calls[key]
            values[key + ".self_s"] = self_s[key]
        sup = ["algebra." + name for name in SUPREMANDS]
        values["algebra.supremand.calls"] = sum(calls[k] for k in sup)
        values["algebra.supremand.self_s"] = sum(self_s[k] for k in sup)
        refine_s = self.total_s["algebra._refine"]
        values["algebra.refine_s"] = refine_s
        values["algebra.screen_s"] = sum(self.total_s["algebra." + k] for k in ESTIMATES) - refine_s
        values["algebra.refine.calls"] = calls["algebra._refine"]
        values["algebra.refine.useful_frac"] = (
            self.useful_refines / calls["algebra._refine"] if calls["algebra._refine"] else 0.0
        )
        values["algebra.norm_gap_max"] = norm_gap_max
        values["geometry.distance.nonfinite"] = self.nonfinite_distances
        for suite in ("geometry", "algebra", "dynamics"):
            values[f"verify.{suite}_s"] = self.suite_s[suite]
        for layer in LAYERS:
            values[layer + ".self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(layer + ".")
            )
        values["trace.overhead_s"] = overhead_s
        return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in per_layer}
