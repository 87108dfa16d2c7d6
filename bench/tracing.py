"""Span tracing of the library from outside it, for the per-layer metrics.

``Tracer.install`` wraps every public function of ``liefilter.{groups, sde,
distribution, propagation, fusion, experiments}`` and every public method of
``SO3`` and ``MatrixLieGroup``.  A function is replaced in every liefilter
namespace that binds it, so names imported into another module
(``project_psd`` in ``fusion``, ``fuse_group`` in ``experiments``) are traced
where they are looked up.  Methods are wrapped at class level; their span
records the leading batch size of the argument as ``elems``.

Each call becomes a span (name, start, end, parent span, op id, elems),
stored in flat integer arrays and written out once at the end.  A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

from liefilter import distribution, experiments, fusion, groups, propagation, sde

TRACED_MODULES = (groups, sde, distribution, propagation, fusion, experiments)
TRACED_CLASSES = (groups.SO3, groups.MatrixLieGroup)
MATRIX_ARGUMENT = {"log", "adjoint", "vee"}       # methods taking (..., n, n)


def _leading(shape, trailing: int) -> int:
    return math.prod(shape[:len(shape) - trailing]) if len(shape) >= trailing else 1


def _method_elems(method: str):
    trailing = 2 if method in MATRIX_ARGUMENT else 1

    def elems(args, kwargs):
        return _leading(np.shape(args[1]), trailing) if len(args) > 1 else 1
    return elems


def _sampler_elems(args, kwargs):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return cfg.path_count * cfg.steps


def _propagate_steps(args, kwargs):
    total = args[3] if len(args) > 3 else kwargs["total_time"]
    cfg = (args[4] if len(args) > 4 else kwargs.get("cfg")) or propagation.PropagationConfig()
    return max(1, round(total / cfg.dt))


def _sweep_samples(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    return cfg.sample_count * len(cfg.tau_grid)


FUNCTION_ELEMS = {
    "sde.sample_nonparametric_path": _sampler_elems,
    "sde.sample_parametric_path": _sampler_elems,
    "propagation.propagate": _propagate_steps,
    "experiments.run_sweep": _sweep_samples,
}


def _no_elems(args, kwargs):
    return 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.elems = array("q")
        self.op_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def new_op(self) -> None:
        self.op_id += 1

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, fn, name_of, elems_of):
        clock, stack = time.perf_counter_ns, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(name_of(args))
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.elems.append(elems_of(args, kwargs))
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if name == "liefilter" or name.startswith("liefilter.")]
        for module in TRACED_MODULES:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                full = f"{short}.{name}"
                nid = self._intern(full)
                wrapped = self._span(fn, lambda args, nid=nid: nid,
                                     FUNCTION_ELEMS.get(full, _no_elems))
                for ns in namespaces:
                    if vars(ns).get(name) is fn:
                        self._replace(ns, name, wrapped)
        for cls in TRACED_CLASSES:
            for name, fn in list(vars(cls).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                ids = (self._intern(f"groups.SO3.{name}"),
                       self._intern(f"groups.generic.{name}"))
                self._replace(cls, name, self._span(
                    fn, lambda args, ids=ids: ids[not isinstance(args[0], groups.SO3)],
                    _method_elems(name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays, with durations and self times in nanoseconds."""
        out = {key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
               for key in ("name_id", "start", "end", "parent", "op", "elems")}
        duration = out["end"] - out["start"]
        has_parent = out["parent"] >= 0
        children = np.bincount(out["parent"][has_parent], weights=duration[has_parent],
                               minlength=len(duration))
        out["duration"] = duration
        out["self"] = duration - children.astype(np.int64)
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# -- per-layer metrics -------------------------------------------------------------

# The generic right Jacobian and its inverse delegate to the left ones, and
# the generic partials to one call per component, so those callees are
# listed too: self time lands in them.
GROUP_METHODS = ("exp", "log", "right_jacobian", "left_jacobian", "left_jacobian_inv",
                 "right_jacobian_inv", "right_jacobian_inv_partials",
                 "right_jacobian_inv_partial", "ad")
GROUP_CLASSES = ("SO3", "generic")


def layer_metrics(tracer: Tracer, counters: dict, plain: dict,
                  overhead: float) -> dict[str, float]:
    """Per-layer metrics (named as in BENCHMARK.json).

    ``counters`` sums the workload's own counters over the traced passes and
    ``plain`` over the untraced ones, which give the per-model sweep rates.
    Per-call figures are averages over the traced passes; a layer the
    workload never calls reports 0.
    """
    spans = tracer.arrays()
    sums = {key: np.bincount(spans["name_id"], weights=weights, minlength=len(tracer.names))
            for key, weights in (("calls", None), ("elems", spans["elems"]),
                                 ("total_ns", spans["duration"]), ("self_ns", spans["self"]))}
    stats = {name: {key: int(column[nid]) for key, column in sums.items()}
             for nid, name in enumerate(tracer.names)}
    empty = {"calls": 0, "elems": 0, "total_ns": 0, "self_ns": 0}

    def get(name):
        return stats.get(name, empty)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for model in ("group", "euclidean"):
        out[f"sweep.samples_per_s.{model}"] = ratio(plain.get(f"samples_{model}", 0),
                                                   plain.get(f"seconds_{model}", 0))
    sweep = get("experiments.run_sweep")
    out["experiments.run_sweep.self_us_per_sample"] = ratio(sweep["self_ns"] / 1e3,
                                                             sweep["elems"])
    out["experiments.measure_euclidean.calls_per_sample"] = ratio(
        get("experiments.measure_euclidean")["calls"], counters.get("samples_euclidean", 0))
    observe = get("experiments.observe_group")
    out["experiments.observe_group.us_per_call"] = ratio(observe["total_ns"] / 1e3,
                                                          observe["calls"])
    out["experiments.excluded"] = counters.get("excluded", 0)
    for fn in ("fuse_group", "fuse_euclidean"):
        s = get(f"fusion.{fn}")
        out[f"fusion.{fn}.calls"] = s["calls"]
        out[f"fusion.{fn}.self_us_per_call"] = ratio(s["self_ns"] / 1e3, s["calls"])
    for fn in ("cost_c1", "cost_c2"):
        out[f"fusion.{fn}.calls"] = get(f"fusion.{fn}")["calls"]
    for cls in GROUP_CLASSES:
        for method in GROUP_METHODS:
            s = get(f"groups.{cls}.{method}")
            base = f"groups.{cls}.{method}"
            out[f"{base}.calls"] = s["calls"]
            out[f"{base}.elems"] = s["elems"]
            out[f"{base}.self_ns_per_elem"] = ratio(s["self_ns"], s["elems"])
    for fn in ("lie_derivative_right", "lie_derivative_right_second"):
        s = get(f"groups.{fn}")
        out[f"groups.{fn}.calls"] = s["calls"]
        out[f"groups.{fn}.self_us_per_call"] = ratio(s["self_ns"] / 1e3, s["calls"])
    prop = get("propagation.propagate")
    steps = prop["elems"]
    out["distribution.expectation_nodes.calls_per_step"] = ratio(
        get("distribution.expectation_nodes")["calls"], steps)
    for fn in ("sqrt_psd", "project_psd"):
        s = get(f"distribution.{fn}")
        out[f"distribution.{fn}.self_us_per_call"] = ratio(s["self_ns"] / 1e3, s["calls"])
    mean = get("distribution.empirical_group_mean")
    out["distribution.empirical_group_mean.iterations"] = ratio(
        counters.get("mean_iterations", 0), counters.get("mean_calls", 0))
    out["distribution.empirical_group_mean.self_ms"] = ratio(mean["self_ns"] / 1e6,
                                                              mean["calls"])
    out["propagation.velocity_evals_per_step"] = ratio(
        get("propagation.mean_velocity")["calls"]
        + get("propagation.covariance_velocity")["calls"], steps)
    out["propagation.propagate.self_us_per_step"] = ratio(prop["self_ns"] / 1e3, steps)
    sampler_ns = 0
    for kind in ("nonparametric", "parametric"):
        s = get(f"sde.sample_{kind}_path")
        sampler_ns += s["total_ns"]
        out[f"sde.sample_{kind}_path.ns_per_path_step"] = ratio(s["total_ns"], s["elems"])
    out["sde.wiener_halves.self_share"] = ratio(get("sde.wiener_halves")["self_ns"],
                                                sampler_ns)
    out["sde.domain_exits"] = counters.get("domain_exits", 0)
    out["trace.overhead"] = overhead
    return out
