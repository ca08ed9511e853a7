"""Layer spans recorded around the program's public entry points.

Tracing lives entirely in the benchmark: :func:`install` replaces every
module-level binding of each entry point in :data:`ENTRY_POINTS` (and the
class attribute, for methods) with a wrapper that records one span per
call. Nothing inside ``src/`` is edited, and per-node helpers are never
wrapped, so a span always covers a whole layer invocation.

Each span keeps its name, start, end, parent id and flow id. Parents come
from a thread-local stack, so the service's worker threads each build
their own tree. A span's *self time* is its duration minus the durations
of its direct children; summed over a tree it equals the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["ENTRY_POINTS", "EntryPoint", "Recorder", "install",
           "aggregate", "chrome_events"]


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``module:qualname`` and the span name."""

    name: str
    target: str
    #: ``(args, result) -> {counter: number}``, read after a normal return.
    observe: Callable[[tuple, Any], dict[str, float]] | None = None


def _narrowed(args, result):
    return {"nodes_removed": len(args[0].node_ids) - len(result[0].node_ids)}


def _enumerated(args, result):
    stats = args[0].stats
    return {"candidates": stats.candidates_generated,
            "kept": stats.cuts_kept}


def _built(args, model):
    return {"rows": model.num_constraints, "cols": model.num_vars}


def _presolved(args, result):
    post = result[1]
    return {"rows_dropped": post.stats.rows_dropped,
            "infeasible": int(post.status is not None)}


def _solved(args, solution):
    return {"optimal": int(solution.status == "optimal"),
            "nodes": int(solution.stats.get("nodes", 0))}


def _proved(args, report):
    return {"stages_proved": sum(v.status == "proved" for v in report.stages),
            "sat_conflicts": sum(v.conflicts for v in report.stages)}


def _loaded(args, result):
    return {"hits": int(result is not None), "misses": int(result is None)}


#: The layer boundaries. Span names are the per-layer metric prefixes.
ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("flow", "repro.experiments.flows:run_flow"),
    EntryPoint("lint", "repro.analysis.linter:lint_graph"),
    EntryPoint("narrow", "repro.ir.transforms:narrow_graph", _narrowed),
    EntryPoint("validate", "repro.ir.validate:validate"),
    EntryPoint("cutenum", "repro.cuts.enumerate:CutEnumerator.run",
               _enumerated),
    EntryPoint("cutprune", "repro.cuts.enumerate:prune_cut_sets",
               lambda args, result: {"pruned": result[1]}),
    EntryPoint("milp_build",
               "repro.core.formulation:MappingAwareFormulation.build", _built),
    EntryPoint("extract",
               "repro.core.formulation:MappingAwareFormulation.extract"),
    EntryPoint("presolve", "repro.milp.presolve:presolve", _presolved),
    EntryPoint("solve", "repro.milp.model:Model.solve", _solved),
    EntryPoint("heuristic",
               "repro.core.heuristic:MappingAwareHeuristicScheduler.schedule"),
    EntryPoint("hls", "repro.hls.tool:CommercialHLSProxy.run"),
    EntryPoint("horizon",
               "repro.scheduling.modulo:HeuristicModuloScheduler.asap_latency"),
    EntryPoint("map", "repro.mapping.stage_mapper:map_schedule"),
    EntryPoint("verify", "repro.core.verify:verify_schedule"),
    EntryPoint("evaluate", "repro.hw.cost:evaluate"),
    EntryPoint("partition.cut", "repro.partition.partitioner:partition_graph"),
    EntryPoint("partition.extract", "repro.partition.extract:extract_subgraph"),
    EntryPoint("partition.subsolve",
               "repro.partition.solve:solve_subgraph_task"),
    EntryPoint("partition.stitch", "repro.partition.stitch:stitch_schedules",
               lambda args, result: {
                   "boundary_bits": result[1].total_boundary_bits}),
    EntryPoint("equiv", "repro.analysis.equiv.validate:validate_flow",
               _proved),
    EntryPoint("fingerprint", "repro.runtime.fingerprint:flow_fingerprint"),
    EntryPoint("cache.load", "repro.runtime.cache:FlowCache.load", _loaded),
    EntryPoint("cache.store", "repro.runtime.cache:FlowCache.store"),
    EntryPoint("serialize.graph_from_dict",
               "repro.ir.serialize:graph_from_dict"),
    EntryPoint("serialize.schedule_to_dict",
               "repro.ir.serialize:schedule_to_dict"),
)


class _Span:
    __slots__ = ("id", "parent", "flow", "name", "tid", "start", "end",
                 "child", "counters")

    def __init__(self, span_id, parent, flow, name, tid, start):
        self.id = span_id
        self.parent = parent
        self.flow = flow
        self.name = name
        self.tid = tid
        self.start = start
        self.end = start
        self.child = 0.0
        self.counters: dict[str, float] = {}

    def to_list(self) -> list:
        return [self.id, self.parent, self.flow, self.name, self.tid,
                self.start, self.end, self.child, self.counters]


class Recorder:
    """Collects spans in memory; ``enabled`` gates recording."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[_Span] = []
        self.epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn: Callable, entry: EntryPoint) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            span = _Span(span_id, parent.id if parent else None,
                         parent.flow if parent else
                         (span_id if entry.name == "flow" else None),
                         entry.name, threading.get_ident(),
                         time.perf_counter() - recorder.epoch)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter() - recorder.epoch
                if parent is not None:
                    parent.child += span.end - span.start
                recorder.spans.append(span)
            if entry.observe is not None:
                span.counters = entry.observe(args, result)
            return result

        return traced

    def export(self) -> list[list]:
        return [span.to_list() for span in self.spans]

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds that recording one span adds to a call (median of 5).

        Times a wrapped no-op against the bare one with recording on;
        the calibration spans are discarded afterwards.
        """
        def noop() -> None:
            return None

        traced = self.wrap(noop, EntryPoint("calibration", ""))
        kept, enabled = len(self.spans), self.enabled
        self.enabled = True
        samples = []
        try:
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(calls):
                    noop()
                t1 = time.perf_counter()
                for _ in range(calls):
                    traced()
                samples.append((time.perf_counter() - t1 - (t1 - t0)) / calls)
        finally:
            self.enabled = enabled
            del self.spans[kept:]
        return sorted(samples)[2]


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for ``module:qualname``."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, getattr(owner, attribute)


def install(recorder: Recorder) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS`.

    Module-level functions are replaced in *every* loaded ``repro``
    module that bound them (``from x import f`` copies the reference), so
    no caller keeps the unwrapped original. Modules imported later bind
    the wrapper, because the defining module's attribute is replaced too.
    All targets are resolved (imported) before any module is scanned.
    """
    resolved = [(entry, *_resolve(entry.target)) for entry in ENTRY_POINTS]
    for entry, owner, attribute, original in resolved:
        wrapper = recorder.wrap(original, entry)
        if isinstance(owner, type):
            setattr(owner, attribute, wrapper)
            continue
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``self_s``, ``calls`` and summed counters."""
    out: dict[str, dict[str, float]] = {}
    for (_id, _parent, _flow, name, _tid, start, end, child,
         counters) in spans:
        row = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        row["self_s"] += (end - start) - child
        row["calls"] += 1
        for key, value in counters.items():
            row[key] = row.get(key, 0) + value
    return out


def chrome_events(spans: list[list], pid: int) -> dict[str, Any]:
    """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
    events = []
    for (span_id, parent, flow, name, tid, start, end, child,
         counters) in spans:
        events.append({
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": round(start * 1e6, 3), "dur": round((end - start) * 1e6, 3),
            "pid": pid, "tid": tid,
            "args": {"id": span_id, "parent": parent, "flow": flow,
                     "self_us": round((end - start - child) * 1e6, 3),
                     **counters},
        })
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}
