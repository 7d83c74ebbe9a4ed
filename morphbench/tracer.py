"""Spans and counters around the program's public functions, installed
from outside the program.

Each wrapped function records a span (name, tree node, start, end,
parent span, command id). The modules import several of these
functions by name (``cli`` imports ``bottlenecks``, ``estimates``
imports ``e_dominates``), so every ``morphplan.*`` module attribute
that holds a wrapped function is rebound, and rebound back on
``uninstall``. The hot ``e_dominates`` and ``MorphModel.compat_value``
are only counted. Spans stay in memory until the run ends. A function
that the program no longer has is reported as absent.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from fractions import Fraction
from math import lcm
from time import perf_counter

# (module, function) -> span name. A layer metric ``<span>_ms`` is the
# span's self time: its duration minus the time its child spans cover.
SPANS = {
    ("cli", "build_parser"): "cli.parser",
    ("cli", "run_command"): "cli.self",
    ("modeldoc", "parse_model_file"): "modeldoc.parse",
    ("modeldoc", "model_digest"): "modeldoc.digest",
    ("analysis", "bottlenecks"): "analysis.bottlenecks",
    ("analysis", "kernel"): "analysis.kernel",
    ("reporting", "render_json"): "reporting.render",
    ("reporting", "render_text"): "reporting.render",
    ("reporting", "frontier_dot"): "reporting.dot",
    ("reporting", "estimate_scale_dot"): "reporting.dot",
    ("reporting", "cover_edges"): "reporting.cover_edges",
    ("synthesis", "hierarchical_synthesize"): "synthesis.hierarchical",
    ("synthesis", "enumerate_admissible"): "synthesis.enumerate",
    ("synthesis", "peel_layers"): "synthesis.peel",
    ("synthesis", "synthesize_dp"): "synthesis.fold",
    ("estimates", "multiset_synthesize"): "estimates.synth",
    ("estimates", "generalized_median"): "estimates.median",
    ("knapsack", "exact_mckp"): "knapsack.exact",
    ("knapsack", "greedy_mckp"): "knapsack.greedy",
}

# Called too often for a span each: only counted. The time they take
# stays in their caller's self time.
COUNTED = {
    ("model", "e_dominates"): "model.dominance_checks",
    ("estimates", "enumerate_estimates"): "estimates.domain_scanned",
}
COUNTED_METHODS = {("model", "MorphModel", "compat_value"): "model.compat_lookups"}

# Per-layer metric -> (unit, better, end-to-end metric it should move,
# workload it should move on).
LAYER_METRICS = {
    "cli.parser_ms": ("ms", "lower", "cmd_p50_ms", "paper-fixtures"),
    "cli.self_ms": ("ms", "lower", "cmd_p50_ms", "paper-fixtures"),
    "modeldoc.parse_ms": ("ms", "lower", "cmd_p50_ms", "paper-fixtures"),
    "modeldoc.digest_ms": ("ms", "lower", "cmd_p50_ms", "paper-fixtures"),
    "analysis.bottlenecks_ms": ("ms", "lower", "cmd_p50_ms", "paper-fixtures"),
    "analysis.actions": ("count", "lower", "cmd_p50_ms", "paper-fixtures"),
    "analysis.kernel_ms": ("ms", "lower", "cmd_p50_ms", "paper-fixtures"),
    "reporting.render_ms": ("ms", "lower", "cmd_p50_ms", "paper-fixtures"),
    "reporting.output_bytes": ("bytes", "lower", "cmd_p50_ms", "paper-fixtures"),
    "reporting.dot_ms": ("ms", "lower", "cmd_p90_ms", "brute-oracle"),
    "reporting.cover_edges_ms": ("ms", "lower", "cmd_p90_ms", "brute-oracle"),
    "synthesis.hierarchical_ms": ("ms", "lower", "cmd_per_s", "all"),
    "synthesis.enumerate_ms": ("ms", "lower", "cmd_per_s", "brute-oracle"),
    "synthesis.enumerate_solutions": ("count", "lower", "cmd_per_s", "brute-oracle"),
    "synthesis.peel_ms": ("ms", "lower", "cmd_per_s, cmd_p90_ms, peak_rss_mb", "brute-oracle (no change on paper-fixtures)"),
    "synthesis.peel_solutions": ("count", "lower", "cmd_per_s", "brute-oracle"),
    "synthesis.peel_distinct": ("count", "lower", "cmd_per_s", "brute-oracle"),
    "synthesis.distinct_ratio": ("1", "higher", "cmd_per_s", "brute-oracle"),
    "synthesis.layers_max": ("count", "lower", "cmd_per_s", "brute-oracle"),
    "synthesis.fold_ms": ("ms", "lower", "cmd_per_s", "dense-fold (no change on brute-oracle)"),
    "synthesis.fold_kept": ("count", "lower", "cmd_per_s", "dense-fold"),
    "model.dominance_checks": ("count", "lower", "cmd_per_s", "brute-oracle, dense-fold"),
    "model.compat_lookups": ("count", "lower", "cmd_per_s", "dense-fold"),
    "estimates.synth_ms": ("ms", "lower", "cmd_per_s", "estimates-aggregate"),
    "estimates.median_ms": ("ms", "lower", "cmd_per_s", "estimates-aggregate (a small share on paper-fixtures)"),
    "estimates.median_calls": ("count", "lower", "cmd_per_s", "estimates-aggregate"),
    "estimates.median_distinct": ("count", "lower", "cmd_per_s", "estimates-aggregate"),
    "estimates.median_repeat_ratio": ("1", "lower", "cmd_per_s", "estimates-aggregate"),
    "estimates.domain_scanned": ("count", "lower", "cmd_per_s", "estimates-aggregate"),
    "knapsack.exact_ms": ("ms", "lower", "cmd_p90_ms", "estimates-aggregate"),
    "knapsack.grid_cells": ("count", "lower", "cmd_p90_ms", "estimates-aggregate"),
    "knapsack.optima": ("count", "lower", "cmd_p90_ms", "estimates-aggregate"),
    "knapsack.greedy_ms": ("ms", "lower", "cmd_p90_ms", "estimates-aggregate"),
}

SYNTHESIS_SPANS = ("synthesis.enumerate", "synthesis.peel", "synthesis.fold", "estimates.synth")


def _node_of_first(args):
    return getattr(args[0], "id", None) if args else None


def _node_of_solutions(args):
    return args[0][0].node if args and args[0] else None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.command = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.median_keys: set = set()
        self.median_signature: inspect.Signature | None = None

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("morphplan")]
        for (mod, fname), name in SPANS.items():
            self._rebind(modules, mod, fname, self._span(name, fname))
        for (mod, fname), name in COUNTED.items():
            self._rebind(modules, mod, fname, self._counter(name, fname))
        for (mod, cls_name, fname), name in COUNTED_METHODS.items():
            cls = getattr(sys.modules.get(f"morphplan.{mod}"), cls_name, None)
            original = getattr(cls, fname, None) if cls is not None else None
            if original is None:
                self.absent.append(f"{mod}.{cls_name}.{fname}")
                continue
            setattr(cls, fname, self._counter(name, fname)(original))
            self._undo.append((cls, fname, original))

    def absent_metrics(self) -> set[str]:
        """Layer metrics that read 0 because their function is gone."""
        out: set[str] = set()
        for (mod, fname), name in list(SPANS.items()) + list(COUNTED.items()):
            if f"{mod}.{fname}" in self.absent:
                out.add(name if (mod, fname) in COUNTED else f"{name}_ms")
                out.update(_HOOK_METRICS.get(fname, ()))
        for (mod, cls_name, fname), name in COUNTED_METHODS.items():
            if f"{mod}.{cls_name}.{fname}" in self.absent:
                out.add(name)
        return out

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, modules, mod: str, fname: str, wrap) -> None:
        home = sys.modules.get(f"morphplan.{mod}")
        original = getattr(home, fname, None) if home is not None else None
        if original is None:
            self.absent.append(f"{mod}.{fname}")
            return
        wrapper = wrap(original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    # -- wrappers ----------------------------------------------------------

    def _counter(self, name: str, fname: str):
        counts = self.counts
        after = _AFTER.get(fname)

        def wrap(fn):
            if after is None:
                def counted(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)
            else:
                def counted(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    after(self, args, kwargs, result)
                    return result
            return counted

        return wrap

    def _span(self, name: str, fname: str):
        spans, stack = self.spans, self._stack
        node_of = _NODE_OF.get(fname)
        after = _AFTER.get(fname)

        def wrap(fn):
            def traced(*args, **kwargs):
                rec = [name, node_of(args) if node_of else None, 0.0, 0.0,
                       stack[-1] if stack else -1, self.command]
                stack.append(len(spans))
                spans.append(rec)
                rec[2] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[3] = perf_counter()
                    stack.pop()
                if after is not None:
                    after(self, args, kwargs, result)
                return result

            if fname == "generalized_median":
                self.median_signature = inspect.signature(fn)
            return traced

        return wrap

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[4] >= 0:
                child[rec[4]] += rec[3] - rec[2]
        return [rec[3] - rec[2] - child[i] for i, rec in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of ``LAYER_METRICS``; a layer that did not run
        reads 0."""
        out: dict[str, float] = {name: 0 for name in LAYER_METRICS}
        for rec, own in zip(self.spans, self.self_times()):
            out[f"{rec[0]}_ms"] += own * 1000.0
        for name, value in self.counts.items():
            out[name] = value
        calls = out["estimates.median_calls"]
        out["estimates.median_distinct"] = len(self.median_keys)
        out["estimates.median_repeat_ratio"] = 1 - len(self.median_keys) / calls if calls else 0
        solutions = out["synthesis.peel_solutions"]
        out["synthesis.distinct_ratio"] = out["synthesis.peel_distinct"] / solutions if solutions else 0
        return out

    def per_command(self) -> dict[int, dict[str, float]]:
        """Self time in ms per command id and span name."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for rec, own in zip(self.spans, self.self_times()):
            out[rec[5]][rec[0]] += own * 1000.0
        return out

    def per_node(self) -> dict[tuple[int, str, str], float]:
        """Synthesis self time in ms per (command id, tree node, span)."""
        out: dict[tuple[int, str, str], float] = defaultdict(float)
        for rec, own in zip(self.spans, self.self_times()):
            if rec[0] in SYNTHESIS_SPANS:
                out[(rec[5], rec[1], rec[0])] += own * 1000.0
        return out


# Counters taken from a wrapped call's arguments and result.


def _add_len(name: str):
    def after(tracer: Tracer, args, kwargs, result) -> None:
        tracer.counts[name] += len(result)

    return after


def _add_bytes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["reporting.output_bytes"] += len(result.encode("utf-8"))


def _peeled(tracer: Tracer, args, kwargs, result) -> None:
    solutions = args[0]
    tracer.counts["synthesis.peel_solutions"] += len(solutions)
    tracer.counts["synthesis.peel_distinct"] += len({(s.quality, s.deviation) for s in solutions})
    layers = result[1]
    if layers and max(layers) > tracer.counts["synthesis.layers_max"]:
        tracer.counts["synthesis.layers_max"] = max(layers)


def _kept(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["synthesis.fold_kept"] += len(result.solutions)


def _median(tracer: Tracer, args, kwargs, result) -> None:
    bound = tracer.median_signature.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    tracer.counts["estimates.median_calls"] += 1
    tracer.median_keys.add(
        (tuple(sorted(tuple(e) for e in a["observed"])), a["enforce_gap_rule"], a["metric"])
    )


def _exact(tracer: Tracer, args, kwargs, result) -> None:
    instance = args[0]
    scale = lcm(
        *(Fraction(it.cost).denominator for g in instance.groups for it in g),
        Fraction(instance.budget).denominator,
    )
    cells = int(Fraction(instance.budget) * scale) + 1
    tracer.counts["knapsack.grid_cells"] += cells * len(instance.groups)
    tracer.counts["knapsack.optima"] += len(result)


_AFTER = {
    "bottlenecks": _add_len("analysis.actions"),
    "render_json": _add_bytes,
    "render_text": _add_bytes,
    "enumerate_admissible": _add_len("synthesis.enumerate_solutions"),
    "peel_layers": _peeled,
    "synthesize_dp": _kept,
    "generalized_median": _median,
    "exact_mckp": _exact,
    "enumerate_estimates": _add_len("estimates.domain_scanned"),
}

# Metrics each hook above feeds, to mark them when the function is absent.
_HOOK_METRICS = {
    "bottlenecks": ("analysis.actions",),
    "render_json": ("reporting.output_bytes",),
    "render_text": ("reporting.output_bytes",),
    "enumerate_admissible": ("synthesis.enumerate_solutions",),
    "peel_layers": (
        "synthesis.peel_solutions",
        "synthesis.peel_distinct",
        "synthesis.distinct_ratio",
        "synthesis.layers_max",
    ),
    "synthesize_dp": ("synthesis.fold_kept",),
    "generalized_median": (
        "estimates.median_calls",
        "estimates.median_distinct",
        "estimates.median_repeat_ratio",
    ),
    "exact_mckp": ("knapsack.grid_cells", "knapsack.optima"),
}

_NODE_OF = {
    "enumerate_admissible": _node_of_first,
    "synthesize_dp": _node_of_first,
    "multiset_synthesize": _node_of_first,
    "peel_layers": _node_of_solutions,
}
