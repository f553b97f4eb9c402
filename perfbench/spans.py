"""Spans around every call into foeslab's modules, recorded from outside.

``Tracer.install`` wraps each public function and each public method of a
public class defined in the layer modules, and rebinds every module
attribute that holds one of them (``foeslab.cli.instability_report`` is
``foeslab.metrics.instability_report``, so both names get the wrapper).
Model score functions are instance attributes, so ``FoesModel.__init__``
is hooked to wrap each new model's ``score_fn`` as ``<layer>.score_fn``.
Nothing in the package changes on disk; ``uninstall`` restores every
binding.

A span is (id, name, start_ns, end_ns, parent_id, op_id, info). Spans stay
in memory until the caller writes them out. The layer of a span is the part
of its name before the first dot; ``bench`` marks the harness's own root
span around each operation.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict

LAYERS = ("core", "zoo", "metrics", "rbm_bounds", "psr", "samplers",
          "experiments", "cli")
ROOT = "bench.op"


def _model_outcomes(args, kwargs, result):
    return args[0].space.n_outcomes


def _first_arg_rows(args, kwargs, result):
    return args[0].shape[0]


# Per-span facts the metrics need, read from the call's arguments or result.
INFO = {
    "core.OutcomeSpace.all_outcomes": lambda a, k, r: [r.shape[0], r.nbytes],
    "metrics.lrep": _model_outcomes,
    "metrics.delta_n": _model_outcomes,
    "metrics.modal_set": _model_outcomes,
    "samplers.run_gibbs": lambda a, k, r: a[1].n_sweeps * a[0].n_variables,
    "samplers.run_param_mh": lambda a, k, r: a[2].n_sweeps,
    "experiments.run_figure1": lambda a, k, r: (
        a[0].n_breaks**2 * a[0].samples_per_point),
}


class Tracer:
    """Records nested spans; one instance per traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = None
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, info=None):
        """Return ``fn`` wrapped so each call records one span."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            extra = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op_id, extra))

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: str, fn):
        """Call ``fn`` under a root span; spans inside carry ``op_id``."""
        self.op_id = op_id
        try:
            return self.wrap(ROOT, fn)()
        finally:
            self.op_id = None

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        package = importlib.import_module("foeslab")
        modules = {layer: importlib.import_module(f"foeslab.{layer}")
                   for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, INFO.get(name))
                elif inspect.isclass(obj):
                    for mattr, meth in list(vars(obj).items()):
                        if not mattr.startswith("_") and inspect.isfunction(meth):
                            name = f"{layer}.{attr}.{mattr}"
                            self._patch(obj, mattr, self.wrap(name, meth, INFO.get(name)))
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

        model_cls = modules["core"].FoesModel
        original_init = model_cls.__init__
        tracer = self

        def init(model, space, score_fn, *args, **kwargs):
            original_init(model, space, score_fn, *args, **kwargs)
            layer = getattr(score_fn, "__module__", "").rpartition(".")[2]
            model.score_fn = tracer.wrap(f"{layer}.score_fn", model.score_fn,
                                         _first_arg_rows)

        self._patch(model_cls, "__init__", init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[tuple]:
        """Return the spans recorded so far and start a new list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def layer_of(name: str) -> str:
    return name.partition(".")[0]


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children (ns)."""
    child = defaultdict(int)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return {s[0]: s[3] - s[2] - child[s[0]] for s in spans}


class SpanTree:
    """Index over one pass's spans for the per-layer metrics."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.self_ns = self_times(spans)
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s[1]].append(s)
            if s[4] is not None:
                self.children[s[4]].append(s[0])

    def named(self, name: str) -> list[tuple]:
        return self.by_name.get(name, [])

    def outermost(self, name: str) -> list[tuple]:
        """Spans called ``name`` that have no ancestor of the same name."""
        out = []
        for s in self.named(name):
            parent = s[4]
            while parent is not None and self.by_id[parent][1] != name:
                parent = self.by_id[parent][4]
            if parent is None:
                out.append(s)
        return out

    def subtree(self, sid: int):
        todo = [sid]
        while todo:
            cur = todo.pop()
            yield self.by_id[cur]
            todo.extend(self.children[cur])

    def inclusive_s(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.outermost(name)) / 1e9

    def layer_s(self, name: str) -> float:
        """Time the named span's own layer spent inside its outermost calls."""
        layer = layer_of(name)
        return sum(self.self_ns[d[0]] for s in self.outermost(name)
                   for d in self.subtree(s[0]) if layer_of(d[1]) == layer) / 1e9

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns[s[0]] for name in names for s in self.named(name)) / 1e9

    def count_within(self, outer: str, pred) -> int:
        return sum(1 for s in self.outermost(outer) for d in self.subtree(s[0])
                   if d[0] != s[0] and pred(d[1]))

    def info_sum(self, name: str, field=None) -> float:
        vals = [s[6] for s in self.named(name) if s[6] is not None]
        return sum(v[field] if field is not None else v for v in vals)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def is_model_constructor(name: str) -> bool:
    return name.startswith("zoo.make_") or name == "zoo.LinearExpFamily.with_params"


def layer_metrics(spans, bytes_out: int) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    t = SpanTree(spans)
    wall = sum(s[3] - s[2] for s in t.named(ROOT)) / 1e9
    score_s = t.layer_s("zoo.score_fn")
    builds = [s for s in t.named("core.FoesModel.scores") if t.children[s[0]]]
    score_calls = len(t.named("core.FoesModel.scores"))
    reduce_s = sum(t.layer_s(f"metrics.{n}") for n in ("lrep", "delta_n", "modal_set"))
    reduced = sum(t.info_sum(f"metrics.{n}") for n in ("lrep", "delta_n", "modal_set"))
    updates = t.info_sum("samplers.run_gibbs")
    proposals = t.info_sum("samplers.run_param_mh")
    draws = t.info_sum("experiments.run_figure1")
    psr_calls = len(t.outermost("psr.check_psr"))
    m = {
        "core.enumerate_s": (t.inclusive_s("core.OutcomeSpace.all_outcomes"), "s"),
        "core.outcome_bytes": (t.info_sum("core.OutcomeSpace.all_outcomes", 1), "B"),
        "core.enumerate_calls": (len(t.named("core.OutcomeSpace.all_outcomes")), "count"),
        "core.outcomes_enumerated": (t.info_sum("core.OutcomeSpace.all_outcomes", 0), "count"),
        "core.normalize_s": (t.self_s("core.log_sum_exp", "core.FoesModel.log_probs"), "s"),
        "core.score_table_builds": (len(builds), "count"),
        "core.score_cache_hit_ratio": (_ratio(score_calls - len(builds), score_calls), "ratio"),
        "zoo.score_s": (score_s, "s"),
        "zoo.score_ns_per_outcome": (_ratio(score_s, t.info_sum("zoo.score_fn"), 1e9), "ns"),
        "zoo.stat_values_s": (t.layer_s("zoo.LinearExpFamily.statistic_values"), "s"),
        "zoo.models_built": (sum(1 for s in spans if is_model_constructor(s[1])), "count"),
        "metrics.lrep_s": (t.layer_s("metrics.lrep"), "s"),
        "metrics.delta_n_s": (t.layer_s("metrics.delta_n"), "s"),
        "metrics.modal_set_s": (t.layer_s("metrics.modal_set"), "s"),
        "metrics.reduce_ns_per_outcome": (_ratio(reduce_s, reduced, 1e9), "ns"),
        "metrics.path_s": (t.inclusive_s("metrics.classify_path"), "s"),
        "rbm_bounds.report_s": (t.inclusive_s("rbm_bounds.bounds_report"), "s"),
        "psr.check_s": (t.inclusive_s("psr.check_psr"), "s"),
        "psr.models_per_check": (_ratio(t.count_within("psr.check_psr", is_model_constructor),
                                        psr_calls), "count"),
        "samplers.gibbs_s": (t.inclusive_s("samplers.run_gibbs"), "s"),
        "samplers.gibbs_site_updates": (updates, "count"),
        "samplers.gibbs_ns_per_site_update": (
            _ratio(t.layer_s("samplers.run_gibbs"), updates, 1e9), "ns"),
        "samplers.exact_sweep_s": (t.inclusive_s("samplers.apply_gibbs_sweep"), "s"),
        "samplers.mh_proposals": (proposals, "count"),
        "samplers.mh_ms_per_proposal": (
            _ratio(t.inclusive_s("samplers.run_param_mh"), proposals, 1e3), "ms"),
        "samplers.mh_enumerations_per_proposal": (_ratio(t.count_within(
            "samplers.run_param_mh", lambda n: n == "core.OutcomeSpace.all_outcomes"),
            proposals), "count"),
        "experiments.figure1_s": (t.inclusive_s("experiments.run_figure1"), "s"),
        "experiments.us_per_draw": (
            _ratio(t.inclusive_s("experiments.run_figure1"), draws, 1e6), "us"),
        "cli.overhead_s": (t.layer_s("cli.main"), "s"),
        "cli.bytes_out": (bytes_out, "B"),
        "trace.wall_s": (wall, "s"),
        "trace.span_count": (len(spans), "count"),
    }
    per_layer = defaultdict(int)
    for s in spans:
        per_layer[layer_of(s[1])] += t.self_ns[s[0]]
    for layer in ("bench", *LAYERS):
        m[f"{layer}.self_s"] = (per_layer[layer] / 1e9, "s")
    return m


def median_pass(per_pass: list[dict]) -> dict:
    """Metrics of the pass with the median traced wall time.

    Taking one whole pass, rather than each metric's own median, keeps the
    layers' self times summing to that pass's traced wall time.
    """
    ranked = sorted(per_pass, key=lambda m: m["trace.wall_s"][0])
    return ranked[(len(ranked) - 1) // 2]


def write_spans(path, spans_by_pass) -> None:
    keys = ("id", "name", "start_ns", "end_ns", "parent", "op", "info")
    with open(path, "w") as fh:
        for pass_no, spans in spans_by_pass:
            for s in spans:
                fh.write(json.dumps({"pass": pass_no, **dict(zip(keys, s))}) + "\n")
