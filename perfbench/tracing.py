"""In-memory timing spans around the layers of finslergp.

`install` wraps the public functions of every finslergp module (the names
in each module's ``__all__``), the scipy kernels that ``gp`` calls through
its own namespace, and ``jacobian_batch`` on each field class. A function is
rebound in every module that holds it, as an attribute or as a value of a
module-level dict. No library code changes: the wrappers are plain
rebindings, undone by the function `install` returns.

A span records its name, start, end, parent and op id. Calls into the scalar
per-vector layers (``specfun``, ``metric``, ``randmat``) run tens of
thousands of times per op, so they are aggregated per parent as a count plus
summed time instead of one span per call. Self time is a span's duration
minus the time covered by its children; calls run on one thread, so children
never overlap and their durations add up.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

PACKAGE = "finslergp"
MODULES = (
    "specfun", "randmat", "gp", "fields", "metric",
    "geodesic", "measure", "experiments", "data", "cli",
)
AGGREGATED_MODULES = ("specfun", "metric", "randmat")
SCIPY_KERNELS = ("cho_solve", "solve_triangular")
FIELD_CLASSES = ("GpField", "EuclideanField", "ConstantField", "SphereField", "SyntheticField")

# 1F1 regimes worth counting separately: the asymptotic / log-series branch
# past x = -700 and the large second parameter reached only at high D.
DEEP_X = -700.0
LARGE_B = 32.0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _columns(b) -> int:
    b = np.asarray(b)
    return 1 if b.ndim < 2 else int(b.shape[1])


def _count_kummer(counts, result, args, kwargs):
    if _arg(args, kwargs, 2, "x") < DEEP_X:
        counts["specfun.kummer_1f1.deep_calls"] += 1
    if _arg(args, kwargs, 1, "b") >= LARGE_B:
        counts["specfun.kummer_1f1.large_b_calls"] += 1


def _count_cols(name):
    def count(counts, result, args, kwargs):
        counts[f"{name}.cols"] += _columns(_arg(args, kwargs, 1, "b"))
    return count


def _count_points(counts, result, args, kwargs):
    counts["fields.jacobian_batch.points"] += np.atleast_2d(_arg(args, kwargs, 1, "Z")).shape[0]


def _count_iterations(counts, result, args, kwargs):
    counts["geodesic.iterations"] += int(result.iterations)


def _count_unconverged(counts, result, args, kwargs):
    counts["geodesic.unconverged"] += int(not result.converged)


def _count_bytes(counts, result, args, kwargs):
    counts["data.write_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


COUNTERS = {
    "specfun.kummer_1f1": _count_kummer,
    "gp.cho_solve": _count_cols("gp.cho_solve"),
    "gp.solve_triangular": _count_cols("gp.solve_triangular"),
    "fields.jacobian_batch": _count_points,
    "geodesic.minimize_energy": _count_iterations,
    "geodesic.geodesic_between": _count_unconverged,
    "data.write_csv": _count_bytes,
}


class Tracer:
    """Spans, per-parent aggregates and work counts of one traced pass."""

    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans = []  # [name, start, end, parent, op, covered_s]
        self.aggregates = {}  # (parent, name) -> [calls, total_s, covered_s]
        self.counts = defaultdict(int)
        self.bindings = 0
        self.wrapped = set()  # qualified names that `install` wrapped
        self._stack = []  # open spans (int index) and aggregates (tuple key)

    def _close(self, parent, duration):
        if parent is None:
            return
        if isinstance(parent, int):
            self.spans[parent][5] += duration
        else:
            self.aggregates[parent][2] += duration

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a block."""
        parent = self._stack[-1] if self._stack else None
        ref = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0.0])
        self._stack.append(ref)
        try:
            yield
        finally:
            self._stack.pop()
            span = self.spans[ref]
            span[2] = time.perf_counter()
            self._close(parent, span[2] - span[1])

    def wrap(self, fn, name, aggregate):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if aggregate:
                ref = (parent, name)
                if ref not in tracer.aggregates:
                    tracer.aggregates[ref] = [0, 0.0, 0.0]
            else:
                ref = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.op, 0.0])
            stack.append(ref)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if aggregate:
                    agg = tracer.aggregates[ref]
                    agg[0] += 1
                    agg[1] += end - start
                else:
                    tracer.spans[ref][1] = start
                    tracer.spans[ref][2] = end
                tracer._close(parent, end - start)
            if count is not None:
                count(tracer.counts, result, args, kwargs)
            return result

        return traced


def _assign(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def install(tracer: Tracer):
    """Wrap every layer function; returns a function that restores them.

    A function is rebound wherever a finslergp module holds it: as a module
    attribute or as a value of a module-level dict (such as a table of
    norms). The qualified names wrapped go to `tracer.wrapped`; a module or
    name that no longer exists is skipped, and `layer_metrics` reports it as
    missing."""
    mods = {}
    for name in MODULES:
        try:
            mods[name] = importlib.import_module(f"{PACKAGE}.{name}")
        except ModuleNotFoundError:
            pass
    wrappers = {}  # id(original) -> wrapper, which keeps the original alive
    for mod_name, mod in mods.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                qualified = f"{mod_name}.{attr}"
                wrappers[id(fn)] = tracer.wrap(fn, qualified, mod_name in AGGREGATED_MODULES)
                tracer.wrapped.add(qualified)
    undo = []  # (owner: module, class or dict; key; original)

    def rebind(owner, key, wrapper):
        undo.append((owner, key, owner[key] if isinstance(owner, dict) else getattr(owner, key)))
        _assign(owner, key, wrapper)

    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                rebind(mod, attr, wrappers[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrappers:
                        rebind(value, key, wrappers[id(item)])
    gp = mods.get("gp")
    for attr in SCIPY_KERNELS:
        if hasattr(gp, attr):
            rebind(gp, attr, tracer.wrap(getattr(gp, attr), f"gp.{attr}", False))
            tracer.wrapped.add(f"gp.{attr}")
    for cls_name in FIELD_CLASSES:
        cls = getattr(mods.get("fields"), cls_name, None)
        if cls is not None and "jacobian_batch" in vars(cls):
            rebind(cls, "jacobian_batch",
                   tracer.wrap(vars(cls)["jacobian_batch"], "fields.jacobian_batch", False))
            tracer.wrapped.add("fields.jacobian_batch")
    tracer.bindings = len(undo)

    def restore():
        for owner, key, value in reversed(undo):
            _assign(owner, key, value)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics


class Totals:
    """Calls, inclusive seconds and self seconds per span name."""

    def __init__(self, tracer: Tracer):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        for name, start, end, _parent, _op, covered in tracer.spans:
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_s[name] += end - start - covered
        for (_parent, name), (calls, total, covered) in tracer.aggregates.items():
            self.calls[name] += calls
            self.total[name] += total
            self.self_s[name] += total - covered
        self.counts = tracer.counts
        spans = tracer.spans
        self.line_search_evals = sum(
            1 for name, _s, _e, parent, _op, _c in spans
            if name == "fields.jacobian_batch" and isinstance(parent, int)
            and spans[parent][0] == "geodesic.minimize_energy"
        )


NORMS = ("metric.riemannian_norm", "metric.finsler_norm", "metric.alpha_sigma_norm", "metric.omega")

# (metric name, unit, wrapped names it needs, value from Totals)
LAYER_METRICS = [
    ("specfun.kummer_1f1.calls", "count", ["specfun.kummer_1f1"],
     lambda t: t.calls["specfun.kummer_1f1"]),
    ("specfun.kummer_1f1.self_s", "s", ["specfun.kummer_1f1"],
     lambda t: t.self_s["specfun.kummer_1f1"]),
    ("specfun.kummer_1f1.deep_calls", "count", ["specfun.kummer_1f1"],
     lambda t: t.counts["specfun.kummer_1f1.deep_calls"]),
    ("specfun.kummer_1f1.large_b_calls", "count", ["specfun.kummer_1f1"],
     lambda t: t.counts["specfun.kummer_1f1.large_b_calls"]),
    ("specfun.kummer_1f1_derivative.calls", "count", ["specfun.kummer_1f1_derivative"],
     lambda t: t.calls["specfun.kummer_1f1_derivative"]),
    ("metric.norm.calls", "count", list(NORMS),
     lambda t: sum(t.calls[n] for n in NORMS)),
    ("metric.norm.self_s", "s", list(NORMS),
     lambda t: sum(t.self_s[n] for n in NORMS)),
    ("metric.relative_gap.calls", "count", ["metric.relative_gap"],
     lambda t: t.calls["metric.relative_gap"]),
    ("metric.relative_gap.s", "s", ["metric.relative_gap"],
     lambda t: t.total["metric.relative_gap"]),
    ("randmat.wishart_scalar_moments.calls", "count", ["randmat.wishart_scalar_moments"],
     lambda t: t.calls["randmat.wishart_scalar_moments"]),
    ("randmat.wishart_scalar_moments.s", "s", ["randmat.wishart_scalar_moments"],
     lambda t: t.total["randmat.wishart_scalar_moments"]),
    ("gp.fit.s", "s", ["gp.fit_gplvm"], lambda t: t.total["gp.fit_gplvm"]),
    ("gp.make_model.calls", "count", ["gp.make_model"], lambda t: t.calls["gp.make_model"]),
    ("gp.make_model.s", "s", ["gp.make_model"], lambda t: t.total["gp.make_model"]),
    ("gp.cho_solve.calls", "count", ["gp.cho_solve"], lambda t: t.calls["gp.cho_solve"]),
    ("gp.cho_solve.cols", "count", ["gp.cho_solve"], lambda t: t.counts["gp.cho_solve.cols"]),
    ("gp.cho_solve.s", "s", ["gp.cho_solve"], lambda t: t.total["gp.cho_solve"]),
    ("gp.solve_triangular.calls", "count", ["gp.solve_triangular"],
     lambda t: t.calls["gp.solve_triangular"]),
    ("gp.solve_triangular.cols", "count", ["gp.solve_triangular"],
     lambda t: t.counts["gp.solve_triangular.cols"]),
    ("gp.solve_triangular.s", "s", ["gp.solve_triangular"],
     lambda t: t.total["gp.solve_triangular"]),
    ("fields.jacobian_batch.calls", "count", ["fields.jacobian_batch"],
     lambda t: t.calls["fields.jacobian_batch"]),
    ("fields.jacobian_batch.points", "count", ["fields.jacobian_batch"],
     lambda t: t.counts["fields.jacobian_batch.points"]),
    ("fields.jacobian_batch.s", "s", ["fields.jacobian_batch"],
     lambda t: t.total["fields.jacobian_batch"]),
    ("geodesic.grid_initialize.s", "s", ["geodesic.grid_initialize"],
     lambda t: t.total["geodesic.grid_initialize"]),
    ("geodesic.minimize_energy.calls", "count", ["geodesic.minimize_energy"],
     lambda t: t.calls["geodesic.minimize_energy"]),
    ("geodesic.minimize_energy.s", "s", ["geodesic.minimize_energy"],
     lambda t: t.total["geodesic.minimize_energy"]),
    ("geodesic.iterations", "count", ["geodesic.minimize_energy"],
     lambda t: t.counts["geodesic.iterations"]),
    ("geodesic.energy_gradient.calls", "count", ["geodesic.energy_gradient"],
     lambda t: t.calls["geodesic.energy_gradient"]),
    ("geodesic.energy_gradient.s", "s", ["geodesic.energy_gradient"],
     lambda t: t.total["geodesic.energy_gradient"]),
    ("geodesic.line_search_evals", "count",
     ["geodesic.minimize_energy", "fields.jacobian_batch"], lambda t: t.line_search_evals),
    ("geodesic.accept_ratio", "ratio", ["geodesic.minimize_energy", "fields.jacobian_batch"],
     lambda t: (t.counts["geodesic.iterations"] / t.line_search_evals
                if t.line_search_evals else 0.0)),
    ("geodesic.unconverged", "count", ["geodesic.geodesic_between"],
     lambda t: t.counts["geodesic.unconverged"]),
    ("measure.volume_field.s", "s", ["measure.volume_field"],
     lambda t: t.total["measure.volume_field"]),
    ("measure.bh_volume.calls", "count", ["measure.bh_volume"],
     lambda t: t.calls["measure.bh_volume"]),
    ("measure.bh_volume.self_s", "s", ["measure.bh_volume"],
     lambda t: t.self_s["measure.bh_volume"]),
    ("measure.indicatrix.calls", "count", ["measure.indicatrix"],
     lambda t: t.calls["measure.indicatrix"]),
    ("measure.volume_ratio_bound.s", "s", ["measure.volume_ratio_bound"],
     lambda t: t.total["measure.volume_ratio_bound"]),
    ("experiments.bound_sweep.s", "s", ["experiments.bound_sweep"],
     lambda t: t.total["experiments.bound_sweep"]),
    ("experiments.truncation_sweep.s", "s", ["experiments.truncation_sweep"],
     lambda t: t.total["experiments.truncation_sweep"]),
    ("data.write_csv.calls", "count", ["data.write_csv"], lambda t: t.calls["data.write_csv"]),
    ("data.write_csv.bytes", "bytes", ["data.write_csv"],
     lambda t: t.counts["data.write_csv.bytes"]),
    ("data.write_csv.s", "s", ["data.write_csv"], lambda t: t.total["data.write_csv"]),
    ("data.load_csv.s", "s", ["data.load_csv"], lambda t: t.total["data.load_csv"]),
    ("cli.self_s", "s", [], lambda t: t.self_s["cli"]),
]


def layer_metrics(tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced pass, and the wrapped names that no
    longer exist. A metric that needs a missing name is left out, so it
    reads as missing rather than as zero."""
    needed = {n for _, _, needs, _ in LAYER_METRICS for n in needs}
    missing = sorted(needed - tracer.wrapped)
    totals = Totals(tracer)
    out = {}
    for name, unit, needs, value in LAYER_METRICS:
        if not any(n in missing for n in needs):
            out[name] = {"value": value(totals), "unit": unit}
    return out, missing


WORK_UNITS = ("count", "bytes")


def work_counts(metrics: dict) -> dict:
    """The exactly repeatable subset of the per-layer metrics."""
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in WORK_UNITS}
