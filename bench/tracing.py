"""Spans around calls into the program's layers, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules by a
wrapper, on every name under which a ``squeezing`` module sees it (its own
module, each module that imported it, and function tables such as the check
suite registry).  A wrapper appends one span per call: name, start, end,
parent span and op id.  Spans stay in memory until ``dump``.

Self time of a span is its duration minus the durations of its direct
children; calls are nested and single-threaded, so children never overlap.
Private kernels (``search._normalized``, ``search._objective_value``) are
not wrapped and stay inside their module's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

#: The program's layers, in the order the per-layer metrics list them.
LAYERS = ("hyperbolic", "rouche", "search", "planar", "symmetric", "checks", "cli")

#: Layer functions whose spans are broken out by name.
PLANAR_BUSY = ("annulus_lower_bound", "excised_domain_lower_bound", "punctured_domain_upper_bound",
               "excision_constant")
CHECK_SUITES = ("metrics", "rouche", "symmetric", "planar", "search")

#: Every per-layer metric a traced run emits: (name, unit, better).
PER_LAYER = (
    ("search.tier_b_search.busy_s", "s", "lower"),
    ("search.self_s", "s", "lower"),
    ("search.evaluations", "count", "higher"),
    ("search.evals_per_s", "1/s", "higher"),
    ("search.certified_gain", "value", "higher"),
    ("search.certify_attempts", "count", "lower"),
    ("search.adopted_ratio", "ratio", "higher"),
    ("search.budget_exhausted_ratio", "ratio", "lower"),
    ("rouche.self_s", "s", "lower"),
    ("rouche.injectivity_certificate.calls", "count", "lower"),
    ("rouche.injectivity_certificate.busy_s", "s", "lower"),
    ("rouche.injectivity_certificate.p50_ms", "ms", "lower"),
    ("rouche.laurent_eval.calls", "count", "lower"),
    ("rouche.laurent_eval.points", "count", "lower"),
    ("rouche.laurent_eval.busy_s", "s", "lower"),
    ("rouche.certificate.certified", "count", "higher"),
    ("rouche.certificate.refuted", "count", "higher"),
    ("rouche.certificate.inconclusive", "count", "lower"),
    ("rouche.certificate.computed_mb", "MB", "lower"),
    ("rouche.certified_ratio", "ratio", "higher"),
    ("rouche.unsound_ratio", "ratio", "lower"),
    ("rouche.zero_count_detailed.calls", "count", "lower"),
    ("rouche.zero_count_detailed.busy_s", "s", "lower"),
    ("rouche.zero_count_detailed.samples_mean", "count", "lower"),
    ("hyperbolic.calls", "count", "lower"),
    ("hyperbolic.busy_s", "s", "lower"),
    ("hyperbolic.self_s", "s", "lower"),
    ("hyperbolic.elements", "count", "lower"),
    ("hyperbolic.us_per_call", "us", "lower"),
    ("planar.calls", "count", "lower"),
    ("planar.self_s", "s", "lower"),
    *((f"planar.{name}.busy_s", "s", "lower") for name in PLANAR_BUSY),
    ("symmetric.contains.calls", "count", "lower"),
    ("symmetric.contains.busy_s", "s", "lower"),
    ("symmetric.sandwich_check_type_i.busy_s", "s", "lower"),
    ("symmetric.self_s", "s", "lower"),
    *((f"checks.{suite}.busy_s", "s", "lower") for suite in CHECK_SUITES),
    ("checks.self_s", "s", "lower"),
    ("checks.failed", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.known_defect_tracebacks", "count", "lower"),
    ("bench.failed_ratio", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.accounted_ratio", "ratio", "higher"),
)

_NAME, _START, _END, _PARENT, _OP, _INFO = range(6)


def _elements(args, kwargs, result):
    return {"elements": max((int(np.size(a)) for a in args[:2]), default=0)}


def _certificate(fn):
    signature = inspect.signature(fn)

    def observe(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        grid, samples = int(bound.arguments["target_grid"]), int(bound.arguments["samples"])
        # targets x (N + 2N) samples x 2 contours x 16 B (complex128), per the
        # coarse and fine passes of the certificate
        computed = grid * grid * 3 * samples * 2 * 16 / 2 ** 20
        return {"status": result.status, "computed_mb": computed}

    return observe


def _search_result(args, kwargs, result):
    return {
        "evaluations": result.evaluations,
        "budget_exhausted": bool(result.budget_exhausted),
        "gain": result.best_value - result.tier_a_value,
    }


def _zero_count(args, kwargs, result):
    return {"samples": result.samples}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = -1

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, observe=None, transform=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            if observe is not None:
                span[_INFO] = observe(args, kwargs, result)
            return transform(result) if transform is not None else result

        return wrapper

    def op(self, op_id: int, fn, *args):
        """Run one benchmark op inside a ``bench.op`` span."""
        self.op_id = op_id
        return self._wrap("bench.op", fn)(*args)

    def _laurent_map(self, result):
        # the evaluators laurent_map returns are timed from outside as one kernel
        points = lambda args, kwargs, out: {"points": int(np.size(args[0]))}  # noqa: E731
        return type(result)(
            self._wrap("rouche.laurent_eval", result.evaluator, points),
            self._wrap("rouche.laurent_eval", result.derivative_evaluator, points),
        )

    def install(self, package) -> int:
        """Wrap the public functions of every layer; return the names patched."""
        modules = {name: getattr(package, name) for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                observe, transform = None, None
                if layer == "hyperbolic":
                    observe = _elements
                elif attr == "injectivity_certificate":
                    observe = _certificate(fn)
                elif attr == "tier_b_search":
                    observe = _search_result
                elif attr == "zero_count_detailed":
                    observe = _zero_count
                elif attr == "laurent_map":
                    transform = self._laurent_map
                wrappers[fn] = self._wrap(f"{layer}.{attr}", fn, observe, transform)
        patched = 0
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(namespace, attr, wrappers[value])
                    patched += 1
                elif isinstance(value, dict) and not attr.startswith("__"):
                    # function tables such as the check-suite registry
                    for key, entry in list(value.items()):
                        if inspect.isfunction(entry) and entry in wrappers:
                            value[key] = wrappers[entry]
                            patched += 1
        return patched

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans as JSON lines: a header with the field names, then one array per span."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op", "info"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer counts and times over the recorded spans."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child_ns[span[_PARENT]] += span[_END] - span[_START]

        def name_of(index):
            return spans[index][_NAME] if index >= 0 else ""

        calls = defaultdict(int)
        busy_ns = defaultdict(int)  # per name, outermost calls only
        layer_busy_ns = defaultdict(int)  # per layer, outermost calls only
        self_ns = defaultdict(int)  # per layer
        durations = defaultdict(list)
        info = defaultdict(list)
        search_spans = set()
        certify_attempts = certify_adopted = 0
        for index, span in enumerate(spans):
            name = span[_NAME]
            layer = name.split(".", 1)[0]
            duration = span[_END] - span[_START]
            parent = name_of(span[_PARENT])
            calls[name] += 1
            durations[name].append(duration)
            if parent != name:
                busy_ns[name] += duration
            if parent.split(".", 1)[0] != layer:
                layer_busy_ns[layer] += duration
            self_ns[layer] += duration - child_ns[index]
            if span[_INFO] is not None:
                info[name].append(span[_INFO])
            if name == "search.tier_b_search":
                search_spans.add(index)
            elif name == "rouche.injectivity_certificate":
                ancestor = span[_PARENT]
                while ancestor >= 0 and ancestor not in search_spans:
                    ancestor = spans[ancestor][_PARENT]
                if ancestor >= 0:
                    certify_attempts += 1
                    certify_adopted += span[_INFO]["status"] == "certified"

        def layer_calls(layer):
            return sum(n for name, n in calls.items() if name.startswith(layer + "."))

        searches = info["search.tier_b_search"]
        certificates = info["rouche.injectivity_certificate"]
        statuses = [c["status"] for c in certificates]
        zero_counts = info["rouche.zero_count_detailed"]
        hyperbolic_calls = layer_calls("hyperbolic")
        s = 1e-9
        metrics = {
            "search.tier_b_search.busy_s": busy_ns["search.tier_b_search"] * s,
            "search.self_s": self_ns["search"] * s,
            "search.evaluations": sum(x["evaluations"] for x in searches),
            "search.certified_gain": float(np.mean([x["gain"] for x in searches])) if searches else 0.0,
            "search.certify_attempts": certify_attempts,
            "search.adopted_ratio": certify_adopted / certify_attempts if certify_attempts else 0.0,
            "search.budget_exhausted_ratio": (sum(x["budget_exhausted"] for x in searches) / len(searches)
                                              if searches else 0.0),
            "rouche.self_s": self_ns["rouche"] * s,
            "rouche.injectivity_certificate.calls": calls["rouche.injectivity_certificate"],
            "rouche.injectivity_certificate.busy_s": busy_ns["rouche.injectivity_certificate"] * s,
            "rouche.injectivity_certificate.p50_ms": (float(np.median(durations["rouche.injectivity_certificate"]))
                                                      * 1e-6 if certificates else 0.0),
            "rouche.laurent_eval.calls": calls["rouche.laurent_eval"],
            "rouche.laurent_eval.points": sum(x["points"] for x in info["rouche.laurent_eval"]),
            "rouche.laurent_eval.busy_s": busy_ns["rouche.laurent_eval"] * s,
            "rouche.certificate.certified": statuses.count("certified"),
            "rouche.certificate.refuted": statuses.count("refuted"),
            "rouche.certificate.inconclusive": statuses.count("inconclusive"),
            "rouche.certificate.computed_mb": sum(c["computed_mb"] for c in certificates),
            "rouche.zero_count_detailed.calls": calls["rouche.zero_count_detailed"],
            "rouche.zero_count_detailed.busy_s": busy_ns["rouche.zero_count_detailed"] * s,
            "rouche.zero_count_detailed.samples_mean": (float(np.mean([x["samples"] for x in zero_counts]))
                                                        if zero_counts else 0.0),
            "hyperbolic.calls": hyperbolic_calls,
            "hyperbolic.busy_s": layer_busy_ns["hyperbolic"] * s,
            "hyperbolic.self_s": self_ns["hyperbolic"] * s,
            "hyperbolic.elements": sum(x["elements"] for name in info if name.startswith("hyperbolic.")
                                       for x in info[name]),
            "hyperbolic.us_per_call": (layer_busy_ns["hyperbolic"] * 1e-3 / hyperbolic_calls
                                       if hyperbolic_calls else 0.0),
            "planar.calls": layer_calls("planar"),
            "planar.self_s": self_ns["planar"] * s,
            **{f"planar.{name}.busy_s": busy_ns[f"planar.{name}"] * s for name in PLANAR_BUSY},
            "symmetric.contains.calls": calls["symmetric.contains"],
            "symmetric.contains.busy_s": busy_ns["symmetric.contains"] * s,
            "symmetric.sandwich_check_type_i.busy_s": busy_ns["symmetric.sandwich_check_type_i"] * s,
            "symmetric.self_s": self_ns["symmetric"] * s,
            **{f"checks.{suite}.busy_s": busy_ns[f"checks.suite_{suite}"] * s for suite in CHECK_SUITES},
            "checks.self_s": self_ns["checks"] * s,
            "cli.main.calls": calls["cli.main"],
            "cli.main.busy_s": busy_ns["cli.main"] * s,
            "cli.self_s": self_ns["cli"] * s,
            "trace.wall_s": wall_s,
        }
        accounted = sum(self_ns[layer] for layer in LAYERS) * s
        metrics["trace.accounted_ratio"] = accounted / wall_s if wall_s > 0 else 0.0
        return metrics
