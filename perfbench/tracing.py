"""Span tracer that wraps gseat's public functions from outside the package.

Every public function of the traced modules is replaced, at every
module-level binding inside the ``gseat`` package, by a wrapper that records
a span (name, start, end, parent) in memory.  The package imports names
directly (``from .gnn import loss_and_grads``), so replacing only the home
module's binding would miss most calls; the benchmark's exact-count check
catches a binding left unwrapped.

``layer_metrics`` reduces the spans of one sweep to the per-layer metrics
named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

import numpy as np

TRACED_MODULES = ("graphs", "spectral", "gnn", "attack", "training", "cli")

TRAIN_METHODS = ("natural", "at_gse", "at_rndsvd", "at_nystrom", "rnd_gse_augment")

# the `*_train` functions only dispatch; their time counts as the loop's own
_TRAIN_DISPATCH = ("training.train",) + tuple(f"training.{m}_train" for m in TRAIN_METHODS)

# time the tracer spends annotating a span is a span of its own, so that it
# is not charged to the caller's self time
HOOK_SPAN = "perfbench.hook"

# (name, unit, better) for every per-layer metric of a traced run
PER_LAYER = [
    ("spectral.full_svd.calls", "count", "lower"),
    ("spectral.full_svd.s", "s", "lower"),
    ("spectral.full_svd.median_ms", "ms", "lower"),
    ("spectral.gse_offset_prox.calls", "count", "lower"),
    ("spectral.gse_offset_prox.s", "s", "lower"),
    ("spectral.gse_offset_prox.self_s", "s", "lower"),
    ("spectral.randomized_svd.calls", "count", "lower"),
    ("spectral.randomized_svd.s", "s", "lower"),
    ("spectral.nystrom_approx.calls", "count", "lower"),
    ("spectral.nystrom_approx.s", "s", "lower"),
    ("spectral.nystrom_approx.self_s", "s", "lower"),
    ("spectral.pseudo_inverse.s", "s", "lower"),
    ("spectral.singular_spectrum.calls", "count", "lower"),
    ("spectral.singular_spectrum.s", "s", "lower"),
    ("spectral.factored_n3_g", "n3/1e9", "lower"),
    ("gnn.loss_and_grads.calls", "count", "lower"),
    ("gnn.loss_and_grads.s", "s", "lower"),
    ("gnn.loss_and_grads.median_ms", "ms", "lower"),
    ("gnn.loss_and_grads.ascent_s", "s", "lower"),
    ("gnn.loss_and_grads.outer_s", "s", "lower"),
    ("gnn.loss_and_grads.attack_s", "s", "lower"),
    ("gnn.normalize_adjacency.s", "s", "lower"),
    ("gnn.model_forward.s", "s", "lower"),
    ("gnn.step_params.s", "s", "lower"),
    ("gnn.params_hash.s", "s", "lower"),
    ("gnn.accuracy.s", "s", "lower"),
    *[(f"training.train.{m}_s", "s", "lower") for m in TRAIN_METHODS],
    ("training.train.self_s", "s", "lower"),
    ("training.perturb_adjacency.calls", "count", "lower"),
    ("training.perturb_adjacency.s", "s", "lower"),
    ("training.perturb_adjacency.self_s", "s", "lower"),
    ("training.inner_steps_per_call", "ratio", "lower"),
    ("training.budget_use", "ratio", "higher"),
    ("training.budget_bound_frac", "ratio", "higher"),
    ("attack.rbcd_attack.calls", "count", "lower"),
    ("attack.rbcd_attack.s", "s", "lower"),
    ("attack.rbcd_attack.self_s", "s", "lower"),
    ("attack.rbcd_attack.iter_ms", "ms", "lower"),
    ("attack.rbcd_attack.fill_ratio", "ratio", "higher"),
    ("attack.evaluate_attack.s", "s", "lower"),
    ("attack.rnd_gse_attack.calls", "count", "lower"),
    ("attack.rnd_gse_attack.s", "s", "lower"),
    ("attack.rnd_gse_attack.self_s", "s", "lower"),
    ("graphs.sbm_generate.s", "s", "lower"),
    ("graphs.inductive_split.s", "s", "lower"),
    ("graphs.training_view.s", "s", "lower"),
    ("graphs.apply_perturbation.calls", "count", "lower"),
    ("graphs.apply_perturbation.s", "s", "lower"),
    ("cli.run_experiment.s", "s", "lower"),
    ("cli.run_experiment.self_s", "s", "lower"),
    ("cli.rows_to_csv.s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
]


def _annotate_train(bound, result):
    return {"method": bound["method"]}


def _annotate_perturb(bound, result):
    a_t = result[0]
    mass = float(np.linalg.norm(a_t - bound["a_base"]) ** 2)
    return {"budget_use": mass / float(bound["budget"])}


def _annotate_rbcd(bound, result):
    return {"iterations": bound["cfg"].iterations,
            "flips": len(result.flips), "budget": result.budget}


def _annotate_order(bound, result):
    matrix = next(iter(bound.values()))
    return {"n": int(matrix.shape[0])}


_ANNOTATORS = {
    "training.train": _annotate_train,
    "training.perturb_adjacency": _annotate_perturb,
    "attack.rbcd_attack": _annotate_rbcd,
    "spectral.full_svd": _annotate_order,
    "spectral.singular_spectrum": _annotate_order,
    "spectral.pseudo_inverse": _annotate_order,
}


def public_functions(module):
    """Functions a module declares public (``__all__``, else no leading ``_``)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        value = getattr(module, name)
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            out[name] = value
    return out


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    package = "gseat"

    def __init__(self):
        # each span: [name, start, end, parent index or -1, attrs or None]
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = _ANNOTATORS.get(name)
        signature = inspect.signature(func) if annotate else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if annotate is not None:
                hook = [HOOK_SPAN, clock(), 0.0, parent, None]
                spans.append(hook)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = annotate(bound.arguments, result)
                hook[2] = clock()
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at every module-level binding in the package."""
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{self.package}.{short}")
            for fname, func in public_functions(module).items():
                wrappers[id(func)] = (func, self._wrap(f"{short}.{fname}", func))
        prefix = self.package + "."
        for modname, module in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


class _Stat:
    __slots__ = ("durations", "self_time", "attrs", "parents")

    def __init__(self):
        self.durations = []
        self.self_time = 0.0
        self.attrs = []
        self.parents = []


def _aggregate(spans) -> dict:
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict = {}
    for idx, (name, start, end, parent, attrs) in enumerate(spans):
        stat = stats.setdefault(name, _Stat())
        stat.durations.append(end - start)
        stat.self_time += (end - start) - child_time[idx]
        stat.attrs.append(attrs)
        stat.parents.append(spans[parent][0] if parent >= 0 else None)
    return stats


_PER_SPAN = {
    "calls": lambda stat: len(stat.durations),
    "s": lambda stat: sum(stat.durations),
    "self_s": lambda stat: stat.self_time,
    "median_ms": lambda stat: 1e3 * statistics.median(stat.durations) if stat.durations else 0.0,
}


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced sweep (``trace_overhead`` excluded)."""
    stats = _aggregate(spans)
    empty = _Stat()

    def get(name):
        return stats.get(name, empty)

    out = {}
    # "<layer>.<function>.<kind>" with a generic kind is read straight off the spans
    for name, _, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind in _PER_SPAN and span.count(".") == 1:
            out[name] = _PER_SPAN[kind](get(span))

    factored = 0
    for name in ("spectral.full_svd", "spectral.singular_spectrum", "spectral.pseudo_inverse"):
        factored += sum(attrs["n"] ** 3 for attrs in get(name).attrs)
    out["spectral.factored_n3_g"] = factored / 1e9

    lag = get("gnn.loss_and_grads")
    by_parent = {"ascent_s": 0.0, "outer_s": 0.0, "attack_s": 0.0}
    ascent_calls = 0
    for duration, parent in zip(lag.durations, lag.parents):
        if parent == "training.perturb_adjacency":
            by_parent["ascent_s"] += duration
            ascent_calls += 1
        elif parent == "attack.rbcd_attack":
            by_parent["attack_s"] += duration
        elif parent in _TRAIN_DISPATCH:
            by_parent["outer_s"] += duration
    for key, value in by_parent.items():
        out[f"gnn.loss_and_grads.{key}"] = value

    train = get("training.train")
    per_method = dict.fromkeys(TRAIN_METHODS, 0.0)
    for duration, attrs in zip(train.durations, train.attrs):
        per_method[attrs["method"]] += duration
    for method, seconds in per_method.items():
        out[f"training.train.{method}_s"] = seconds
    out["training.train.self_s"] = sum(get(name).self_time for name in _TRAIN_DISPATCH)

    perturb = get("training.perturb_adjacency")
    uses = [attrs["budget_use"] for attrs in perturb.attrs]
    out["training.inner_steps_per_call"] = ascent_calls / len(uses) if uses else 0.0
    out["training.budget_use"] = float(np.mean(uses)) if uses else 0.0
    # the projection rescales onto the boundary, so "on it" allows rounding only
    out["training.budget_bound_frac"] = (
        sum(use >= 1.0 - 1e-9 for use in uses) / len(uses) if uses else 0.0)

    rbcd = get("attack.rbcd_attack")
    iterations = sum(attrs["iterations"] for attrs in rbcd.attrs)
    out["attack.rbcd_attack.iter_ms"] = 1e3 * sum(rbcd.durations) / iterations if iterations else 0.0
    budget = sum(attrs["budget"] for attrs in rbcd.attrs)
    flips = sum(attrs["flips"] for attrs in rbcd.attrs)
    out["attack.rbcd_attack.fill_ratio"] = flips / budget if budget else 0.0
    return out


def call_counts(spans) -> dict:
    """Calls per span name, for the exact-count check."""
    counts: dict = {}
    for span in spans:
        counts[span[0]] = counts.get(span[0], 0) + 1
    counts.pop(HOOK_SPAN, None)
    return counts
