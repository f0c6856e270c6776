"""Span tracing for the benchmark's traced run, from outside the package.

The tracer wraps public kgpath functions and methods in place (module
attributes, class attributes and, for the neural layers, attributes of one
model instance), records one span per call and restores every original on
``uninstall``. Spans stay in memory until the run ends. A target that no
longer exists is recorded as missing, so a refactor that removes a function
shows up as "missing" in the report rather than as a zero.
"""

from __future__ import annotations

import inspect
import json
import time
import types
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    qid: str


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = {}
        self.missing: list[tuple[str, str]] = []
        self.installed: set[str] = set()
        self.qid = ""
        self.paused = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, bool, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.qid))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(float(value))

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, name, on_result, qid_of):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if qid_of is not None:
                tracer.qid = qid_of(args, kwargs)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable] = None,
        qid_of: Optional[Callable] = None,
    ) -> None:
        """Route ``owner.attr`` through a span named ``name``."""
        own = vars(owner)
        if isinstance(owner, (type, types.ModuleType)):
            raw = own.get(attr)
        else:  # an instance: wrap the bound method, shadowing the class's
            raw = getattr(owner, attr, None)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, name, on_result, qid_of))
        elif callable(raw):
            new = self._wrap(raw, name, on_result, qid_of)
        else:
            label = getattr(owner, "__name__", type(owner).__name__)
            self.missing.append((name, f"{label}.{attr}"))
            return
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, new)
        self.installed.add(name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, had_own, old = self._undo.pop()
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "qid": s.qid}
                f.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# arithmetic over recorded spans
# ---------------------------------------------------------------------------


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            parent = spans[s.parent]
            lo, hi = max(s.start, parent.start), min(s.end, parent.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return [
        (s.end - s.start) - covered_length(children.get(i, [])) for i, s in enumerate(spans)
    ]


def root_of(spans: list[Span]) -> list[str]:
    """Name of each span's root span: the phase it ran in."""
    roots: list[str] = []
    for s in spans:
        roots.append(s.name if s.parent < 0 else roots[s.parent])
    return roots


@dataclass
class Aggregate:
    calls: int = 0
    busy: float = 0.0
    self_: float = 0.0


def aggregate(spans: list[Span]) -> dict[tuple[str, str], Aggregate]:
    """(phase, span name) -> calls, busy seconds and self seconds."""
    out: dict[tuple[str, str], Aggregate] = {}
    selfs = self_times(spans)
    for s, own, phase in zip(spans, selfs, root_of(spans)):
        agg = out.setdefault((phase, s.name), Aggregate())
        agg.calls += 1
        agg.busy += s.end - s.start
        agg.self_ += own
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: (metric, unit, kind, spans or counters). Kinds:
#:   setup_s   busy seconds of the spans per traced set-up
#:   busy_ms   busy ms of the spans per call of the first span
#:   self_ms   self ms of the spans per call of the first span
#:   per_call  calls of the first span per call of the second
#:   median    median of a counter
#:   ratio     sum of the first counter over sum of the second
#:   sum       sum of a counter
LAYER_METRICS = [
    ("kg.load_graph_s", "s", "setup_s", ["kg.load_graph"]),
    ("kg.edges_from_ms", "ms", "busy_ms", ["kg.edges_from"]),
    ("kg.edges_from_calls", "count", "per_call", ["kg.edges_from", "schema.build_schema"]),
    ("linking.extract_ms", "ms", "busy_ms", ["linking.extract_key_nodes"]),
    ("linking.key_nodes", "count", "median", ["linking.key_nodes"]),
    ("schema.build_ms", "ms", "self_ms", ["schema.build_schema"]),
    ("schema.nodes", "count", "median", ["schema.nodes"]),
    ("schema.edges", "count", "median", ["schema.edges"]),
    ("embeddings.load_s", "s", "setup_s",
     ["embeddings.load_entity_embeddings", "embeddings.load_contexts"]),
    ("embeddings.textfeat_ms", "ms", "busy_ms", ["embeddings.TextFeatureProvider.gather"]),
    ("pruning.sample_build_ms", "ms", "self_ms", ["pruning.QuerySample.build"]),
    ("pruning.bfs_ms", "ms", "busy_ms", ["pruning.bfs_scores"]),
    ("pruning.prune_ms", "ms", "busy_ms", ["pruning.prune_from_scores"]),
    ("pruning.survivors", "count", "median", ["pruning.survivors"]),
    ("pruning.train_step_ms", "ms", "self_ms", ["pruning.train_prune_step"]),
    ("paths.sample_ms", "ms", "busy_ms", ["paths.sample_paths"]),
    ("paths.yield", "ratio", "ratio", ["paths.returned", "paths.requested"]),
    ("paths.train_step_ms", "ms", "self_ms", ["paths.train_joint_step"]),
    ("paths.run_query_ms", "ms", "self_ms", ["paths.run_query"]),
    ("neural.node_fwd_ms", "ms", "busy_ms", ["neural.f_n.forward"]),
    ("neural.node_bwd_ms", "ms", "busy_ms", ["neural.f_n.backward"]),
    ("neural.path_fwd_ms", "ms", "busy_ms",
     ["neural.f_t.forward", "neural.f_p.forward", "neural.f_bi.forward"]),
    ("neural.path_bwd_ms", "ms", "busy_ms",
     ["neural.f_t.backward", "neural.f_p.backward", "neural.f_bi.backward"]),
    ("neural.optimizer_ms", "ms", "busy_ms", ["neural.Adam.step"]),
    ("pipeline.prepare_samples_s", "s", "setup_s", ["pipeline.prepare_samples"]),
    ("pipeline.evaluate_query_ms", "ms", "self_ms", ["pipeline.evaluate_query"]),
    ("pipeline.skipped", "count", "sum", ["pipeline.skipped"]),
]

#: Per-layer metrics that both workloads of BENCHMARK.json (train-toy and
#: infer-dense) exercise: the machine-read per-layer set. The training-only
#: ones print in the report, as do all of them on scale-retrieve.
COMMON_LAYER_METRICS = (
    "kg.load_graph_s",
    "kg.edges_from_ms",
    "kg.edges_from_calls",
    "linking.extract_ms",
    "linking.key_nodes",
    "schema.build_ms",
    "schema.nodes",
    "schema.edges",
    "embeddings.load_s",
    "embeddings.textfeat_ms",
    "pruning.sample_build_ms",
    "pruning.bfs_ms",
    "pruning.prune_ms",
    "pruning.survivors",
    "paths.sample_ms",
    "paths.yield",
    "paths.run_query_ms",
    "neural.node_fwd_ms",
    "neural.path_fwd_ms",
    "pipeline.evaluate_query_ms",
)


def layer_metrics(tracer: Tracer):
    """Evaluate LAYER_METRICS over the tracer's spans and counters.

    Returns ``{metric: (value, unit, note)}``. The value is None when a span
    the metric needs was never installed (missing) or never called; the note
    says which.
    """
    agg = aggregate(tracer.spans)
    by_name: dict[str, Aggregate] = {}
    setups = sum(1 for s in tracer.spans if s.parent < 0 and s.name == "setup")
    setup_busy: dict[str, float] = {}
    for (phase, name), a in agg.items():
        total = by_name.setdefault(name, Aggregate())
        total.calls += a.calls
        total.busy += a.busy
        total.self_ += a.self_
        if phase == "setup":
            setup_busy[name] = setup_busy.get(name, 0.0) + a.busy
    missing = {name for name, _ in tracer.missing} - tracer.installed
    out = {}
    for metric, unit, kind, keys in LAYER_METRICS:
        if kind in ("median", "ratio", "sum"):
            values = [tracer.counts.get(k, []) for k in keys]
            if not values[0]:
                out[metric] = (None, unit, "not called")
            elif kind == "median":
                out[metric] = (float(np.median(values[0])), unit, f"n={len(values[0])}")
            elif kind == "sum":
                out[metric] = (float(np.sum(values[0])), unit, f"n={len(values[0])}")
            else:
                out[metric] = (float(np.sum(values[0]) / np.sum(values[1])), unit,
                               f"{np.sum(values[0]):.0f}/{np.sum(values[1]):.0f}")
            continue
        if any(k in missing for k in keys):
            out[metric] = (None, unit, "missing")
            continue
        first = by_name.get(keys[0])
        if first is None or first.calls == 0:
            out[metric] = (None, unit, "not called")
            continue
        if kind == "setup_s":
            busy = sum(setup_busy.get(k, 0.0) for k in keys)
            out[metric] = (busy / max(setups, 1), unit, f"setups={setups}")
        elif kind == "per_call":
            base = by_name.get(keys[1])
            if base is None or base.calls == 0:
                out[metric] = (None, unit, "not called")
            else:
                out[metric] = (first.calls / base.calls, unit, f"{first.calls}/{base.calls}")
        else:
            spans = [by_name[k] for k in keys if k in by_name]
            total = sum(a.self_ if kind == "self_ms" else a.busy for a in spans)
            out[metric] = (1000.0 * total / first.calls, unit, f"calls={first.calls}")
    return out


def phase_table(tracer: Tracer, ops_by_phase: dict[str, int]) -> list[str]:
    """Rows of busy and self time per (phase, span), per call and per op."""
    agg = aggregate(tracer.spans)
    lines = [
        f"{'phase':<7} {'span':<38} {'calls':>7} {'busy_ms':>10} {'self_ms':>10} "
        f"{'busy/op':>9} {'self/op':>9} {'self%':>6}"
    ]
    for phase in sorted({p for p, _ in agg}):
        wall = sum(a.busy for (p, n), a in agg.items() if p == phase and n == phase)
        n_ops = max(ops_by_phase.get(phase, 1), 1)
        rows = sorted(
            ((n, a) for (p, n), a in agg.items() if p == phase),
            key=lambda na: -na[1].self_,
        )
        for name, a in rows:
            share = 100.0 * a.self_ / wall if wall > 0 else 0.0
            lines.append(
                f"{phase:<7} {name:<38} {a.calls:>7d} {1e3 * a.busy:>10.1f} "
                f"{1e3 * a.self_:>10.1f} {1e3 * a.busy / n_ops:>9.3f} "
                f"{1e3 * a.self_ / n_ops:>9.3f} {share:>6.1f}"
            )
    for name, target in tracer.missing:
        lines.append(f"missing {name:<38} ({target} not found)")
    return lines


# ---------------------------------------------------------------------------
# what the traced run wraps
# ---------------------------------------------------------------------------


def _count_key_nodes(t: Tracer, args, kwargs, result) -> None:
    t.count("linking.key_nodes", len(result[0].all_nodes()))


def _count_schema(t: Tracer, args, kwargs, sg) -> None:
    t.count("schema.nodes", sg.n_nodes)
    t.count("schema.edges", sg.n_edges)


def _count_survivors(t: Tracer, args, kwargs, pg) -> None:
    t.count("pruning.survivors", pg.base.n_nodes)


def _count_paths(t: Tracer, args, kwargs, batch) -> None:
    from kgpath.paths import sample_paths

    bound = inspect.signature(sample_paths).bind(*args, **kwargs)
    bound.apply_defaults()
    t.count("paths.returned", len(batch.paths))
    t.count("paths.requested", bound.arguments["n_paths"])


def _count_skipped(t: Tracer, args, kwargs, result) -> None:
    t.count("pipeline.skipped", result[1])


def _batch_qid(args, kwargs) -> str:
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    return batch[0].qid if batch else ""


def _sample_qid(args, kwargs) -> str:
    sample = args[1] if len(args) > 1 else kwargs["sample"]
    return sample.qid


def instrument_package(tracer: Tracer) -> None:
    """Wrap the public kgpath calls the per-layer metrics are built from.

    Names that ``pipeline`` and ``paths`` import from sibling modules are
    patched where they are imported too, since those modules call them
    through their own globals.
    """
    from kgpath import embeddings, kg, linking, neural, paths, pipeline, pruning, schema

    targets = [
        (kg, "load_graph", "kg.load_graph", None, None),
        (pipeline, "load_graph", "kg.load_graph", None, None),
        (kg.KnowledgeGraph, "edges_from", "kg.edges_from", None, None),
        (linking, "extract_key_nodes", "linking.extract_key_nodes", _count_key_nodes, None),
        (pipeline, "extract_key_nodes", "linking.extract_key_nodes", _count_key_nodes, None),
        (schema, "build_schema", "schema.build_schema", _count_schema, None),
        (pipeline, "build_schema", "schema.build_schema", _count_schema, None),
        (embeddings, "load_entity_embeddings", "embeddings.load_entity_embeddings", None, None),
        (pipeline, "load_entity_embeddings", "embeddings.load_entity_embeddings", None, None),
        (embeddings, "load_contexts", "embeddings.load_contexts", None, None),
        (pipeline, "load_contexts", "embeddings.load_contexts", None, None),
        (embeddings.TextFeatureProvider, "gather", "embeddings.TextFeatureProvider.gather",
         None, None),
        (pruning.QuerySample, "build", "pruning.QuerySample.build", None, None),
        (pruning, "bfs_scores", "pruning.bfs_scores", None, None),
        (pruning, "prune_from_scores", "pruning.prune_from_scores", _count_survivors, None),
        (paths, "prune_from_scores", "pruning.prune_from_scores", _count_survivors, None),
        (pruning, "train_prune_step", "pruning.train_prune_step", None, _batch_qid),
        (paths, "train_prune_step", "pruning.train_prune_step", None, _batch_qid),
        (paths, "sample_paths", "paths.sample_paths", _count_paths, None),
        (paths, "train_joint_step", "paths.train_joint_step", None, _batch_qid),
        (paths, "run_query", "paths.run_query", None, None),
        (pipeline, "run_query", "paths.run_query", None, None),
        (neural.Adam, "step", "neural.Adam.step", None, None),
        (pipeline, "prepare_samples", "pipeline.prepare_samples", _count_skipped, None),
        (pipeline, "evaluate_query", "pipeline.evaluate_query", None, _sample_qid),
    ]
    for owner, attr, name, on_result, qid_of in targets:
        tracer.patch(owner, attr, name, on_result, qid_of)


def instrument_model(tracer: Tracer, model) -> None:
    """Wrap the forward and backward passes of one ScoringModel's layers."""
    for layer in ("f_n", "f_t", "f_p", "f_bi"):
        net = getattr(model, layer, None)
        for method in ("forward", "backward"):
            name = f"neural.{layer}.{method}"
            if net is None:
                tracer.missing.append((name, f"ScoringModel.{layer}"))
            else:
                tracer.patch(net, method, name)
