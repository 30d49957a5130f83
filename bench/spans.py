"""In-process span tracing of cfaudit, installed from outside the package.

``traced_main`` rebinds every public function of the traced modules (and a
few private per-replicate entry points) to a wrapper that records a span:
name, start, end, parent. The rebinding is done in every module that holds
the function, so calls through ``from .x import f`` and calls inside the
defining module are both seen. Nothing under ``src/`` is edited, and the
original functions are restored afterwards.

``layer_metrics`` turns the spans into the per-layer metrics of
BENCHMARK.json. A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import pickle
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

MODULES = ("dataset", "models", "borrowing", "estimators", "pipeline",
           "inference", "simlab", "cli")
# Private functions that are the unit of work of a layer.
PRIVATE_ENTRY_POINTS = {"inference._replicate_values", "simlab._run_replication"}
# Per-iteration kernels: their time belongs to the fit or grid search that
# calls them, and a span per iteration would cost more than the work.
KERNELS = {"models.sigmoid", "models.softmax_objective", "models.mlp_objective",
           "borrowing.brier_score", "borrowing.multiclass_auc"}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fit_multiclass_attrs(args, kwargs, result):
    x, config = args[0], args[2] if len(args) > 2 else kwargs["config"]
    n, p1, k = x.shape[0], x.shape[1] + 1, len(result.classes)
    if config.kind == "mlp-1hidden":
        h = config.hidden
        per_epoch = 4 * n * p1 * h + 4 * n * (h + 1) * k + 2 * n * k * h
    else:
        per_epoch = 4 * n * p1 * k
    return {"flop": float(per_epoch * config.epochs)}


def _bootstrap_attrs(args, kwargs, result):
    internal, external, config = args[:3]
    seed = kwargs.get("seed", args[4] if len(args) > 4 else None)
    child = np.random.SeedSequence(seed).spawn(1)[0]
    task = (internal, external, config, child, list(result))
    return {"na_cells": sum(r.na_count for r in result.values()),
            "task_bytes": len(pickle.dumps(task))}


def _report_attrs(args, kwargs, result):
    return {"entries": len(result.entries),
            "defined": sum(e.defined for e in result.entries),
            "clipped": sum(e.clipped for e in result.entries)}


# name -> f(args, kwargs, result) -> span attributes, read after the call
OBSERVERS = {
    "models.fit_logistic": lambda a, k, r: {"iters": r.iterations,
                                            "converged": bool(r.converged)},
    "models.fit_multiclass": _fit_multiclass_attrs,
    "borrowing.select_alpha": lambda a, k, r: {"grid_points": len(r.metric_curve)},
    "pipeline.run_pipeline": lambda a, k, r: {"external": a[1]},
    "inference.bootstrap_estimates": _bootstrap_attrs,
    "estimators.estimate_all": _report_attrs,
    "dataset.load_internal": lambda a, k, r: {"rows": r.n},
    "dataset.load_external": lambda a, k, r: {"rows": r.n},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(),
                        self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.attrs = observe(args, kwargs, result)
            return result

        return traced


def _traced_functions(modules):
    for short, module in modules.items():
        for name, obj in vars(module).items():
            qualname = f"{short}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and qualname not in KERNELS
                    and (not name.startswith("_") or qualname in PRIVATE_ENTRY_POINTS)):
                yield qualname, obj


def traced_main(argv: list[str]):
    """Call ``cfaudit.cli.main(argv)`` with every traced function wrapped.

    Returns (exit code, spans, wall seconds of the call).
    """
    modules = {m: importlib.import_module(f"cfaudit.{m}") for m in MODULES}
    package = importlib.import_module("cfaudit")
    tracer = Tracer()
    wrapped = {fn: tracer.wrap(q, fn) for q, fn in _traced_functions(modules)}
    rebound = []
    for module in (package, *modules.values()):
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                rebound.append((module, name, obj))
                setattr(module, name, wrapped[obj])
    try:
        start = time.perf_counter()
        code = modules["cli"].main(argv)
        wall = time.perf_counter() - start
    finally:
        for module, name, obj in rebound:
            setattr(module, name, obj)
    return code, tracer.spans, wall


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time covered by its direct children.
    Children of one parent run one after another, so their durations add."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


def _ancestors(spans, i):
    parent = spans[i].parent
    while parent is not None:
        yield spans[parent].name
        parent = spans[parent].parent


def _digest(external) -> str:
    h = hashlib.sha256(np.ascontiguousarray(external.group_codes).tobytes())
    h.update(np.ascontiguousarray(external.x).tobytes())
    return h.hexdigest()


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics (name -> value) from the spans of one traced call."""
    selfs = self_times(spans)

    def pick(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(name):
        return sum(spans[i].duration for i in pick(name))

    def median(name):
        durations = [spans[i].duration for i in pick(name)]
        return statistics.median(durations) if durations else 0.0

    mc = pick("models.fit_multiclass")
    internal_fit = {i for i in mc if "models.cross_fit" in _ancestors(spans, i)}
    ext_fits = [i for i in mc if i not in internal_fit]
    mc_s = sum(spans[i].duration for i in mc)
    gflop = sum(spans[i].attrs["flop"] for i in mc) / 1e9

    lg = pick("models.fit_logistic")
    grid_points = sum(spans[i].attrs["grid_points"] for i in pick("borrowing.select_alpha"))
    select_s = total("borrowing.select_alpha")

    runs = pick("pipeline.run_pipeline")
    point_runs = [i for i in runs
                  if "inference._replicate_values" not in _ancestors(spans, i)]
    ext_parent_runs = set()
    for i in ext_fits:
        parent = spans[i].parent
        while spans[parent].name != "pipeline.run_pipeline":
            parent = spans[parent].parent
        ext_parent_runs.add(parent)
    ext_datasets = {_digest(spans[i].attrs["external"]) for i in ext_parent_runs}

    boots = pick("inference.bootstrap_estimates")
    reports = [spans[i].attrs for i in pick("estimators.estimate_all")]
    loads = pick("dataset.load_internal") + pick("dataset.load_external")
    load_s = sum(spans[i].duration for i in loads)
    fit_s = sum(spans[i].duration for i in lg)

    return {
        "models.fit_multiclass.ext.self_s": sum(selfs[i] for i in ext_fits),
        "models.fit_multiclass.int.self_s": sum(selfs[i] for i in internal_fit),
        "models.fit_multiclass.calls": len(mc),
        "models.fit_multiclass.gflop": gflop,
        "models.fit_multiclass.gflops": _ratio(gflop, mc_s),
        "models.fit_logistic.calls": len(lg),
        "models.fit_logistic.s": fit_s,
        "models.fit_logistic.iters": sum(spans[i].attrs["iters"] for i in lg),
        "models.fit_logistic.converged_frac":
            _ratio(sum(spans[i].attrs["converged"] for i in lg), len(lg)),
        "models.cross_fit.self_s": sum(selfs[i] for i in pick("models.cross_fit")),
        "borrowing.select_alpha.s": select_s,
        "borrowing.grid_points": grid_points,
        "borrowing.points_per_s": _ratio(grid_points, select_s),
        "pipeline.run_pipeline.calls": len(runs),
        "pipeline.run_pipeline.self_s": sum(selfs[i] for i in runs),
        "pipeline.point_runs": len(point_runs),
        "pipeline.ext_fit_useful_ratio": _ratio(len(ext_datasets), len(ext_fits)),
        "inference.bootstrap.s": total("inference.bootstrap_estimates"),
        "inference.replicate.s": median("inference._replicate_values"),
        "inference.na_cells": sum(spans[i].attrs["na_cells"] for i in boots),
        "inference.task_bytes": max((spans[i].attrs["task_bytes"] for i in boots), default=0),
        "simlab.train_risk_model.s": total("simlab.train_risk_model"),
        "simlab.generate_population.s": total("simlab.generate_population"),
        "simlab.oracle.s": total("simlab.oracle_error_rates"),
        "simlab.replication.s": median("simlab._run_replication"),
        "dataset.load.s": load_s,
        "dataset.load.rows_per_s":
            _ratio(sum(spans[i].attrs["rows"] for i in loads), load_s),
        "dataset.subgroup_counts.s": total("dataset.subgroup_counts"),
        "estimators.estimate_all.s": total("estimators.estimate_all"),
        "estimators.defined_frac": _ratio(sum(r["defined"] for r in reports),
                                          sum(r["entries"] for r in reports)),
        "estimators.clipped": sum(r["clipped"] for r in reports),
        "cli.self_s": sum(selfs[i] for i, s in enumerate(spans) if s.name.startswith("cli.")),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
