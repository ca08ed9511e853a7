"""The three evaluation flows of Sec. 4, with the paper's protocol.

Every flow ends in the *same* downstream technology mapping and the same
hardware cost model, mirroring the paper where all three schedules go
through Vivado synthesis/P&R:

* **hls-tool** — heuristic additive-delay schedule, then per-stage mapping;
* **milp-base** — exact additive-delay MILP schedule ("skipping cut
  enumeration"), then the same per-stage mapping downstream;
* **milp-map** — the mapping-aware MILP; its jointly-optimized cover *is*
  the mapping (a downstream mapper honoring the schedule could only match
  it, since the MILP already chose the per-stage optimum it wanted).

Every run is traced (:class:`~repro.runtime.Tracer` spans for lint /
narrow / cut-enum / milp-build / solve / verify / evaluate) and can be
served from a content-addressed :class:`~repro.runtime.FlowCache`, in
which case the stored result — including its original spans, marked
``cached`` — comes back without touching the scheduler or the solver.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from ..core.config import SchedulerConfig
from ..core.mapsched import BaseScheduler, MapScheduler
from ..core.verify import verify_schedule
from ..errors import ExperimentError
from ..hls.tool import CommercialHLSProxy
from ..hw.cost import HardwareReport, evaluate
from ..ir.graph import CDFG
from ..mapping.stage_mapper import map_schedule
from ..runtime.cache import FlowCache
from ..runtime.fingerprint import flow_fingerprint
from ..runtime.trace import Tracer
from ..scheduling.schedule import Schedule
from ..tech.device import XC7, Device

__all__ = ["ALL_METHODS", "FlowResult", "run_flow", "METHODS"]

logger = logging.getLogger(__name__)

METHODS = ("hls-tool", "milp-base", "milp-map")

#: METHODS plus the scalable mapping-aware heuristic (the paper's future
#: work, built here as an extension — see repro.core.heuristic).
ALL_METHODS = METHODS + ("heur-map",)


@dataclass
class FlowResult:
    """Schedule + hardware report (+ trace) for one (design, method) pair.

    Attributes
    ----------
    schedule / report:
        The QoR artifacts every harness consumes.
    trace:
        Per-phase spans recorded while the result was computed. For a
        cache hit these are the *original* run's spans, each marked
        ``cached=True``, plus a fresh ``cache-load`` span.
    cached:
        True when this result came from a :class:`FlowCache` without any
        recomputation.
    fingerprint:
        The content fingerprint of (graph, method, device, config) when a
        cache was consulted; ``None`` for uncached runs.
    source_graph:
        ``"narrowed"`` when the returned schedule was produced on the
        dataflow-narrowed graph, ``"original"`` otherwise (including the
        retry path after a narrowed-graph failure).
    equiv:
        The translation-validation report
        (:class:`~repro.analysis.equiv.EquivReport`) when the flow was
        run with ``validate=``; ``None`` otherwise.
    """

    schedule: Schedule
    report: HardwareReport
    trace: Tracer = field(default_factory=Tracer)
    cached: bool = False
    fingerprint: str | None = None
    source_graph: str = "original"
    equiv: "object | None" = None


def run_flow(graph: CDFG, method: str, device: Device = XC7,
             config: SchedulerConfig | None = None,
             design: str | None = None, lint: bool = True,
             cache: FlowCache | None = None,
             tracer: Tracer | None = None,
             validate: "bool | tuple[str, ...] | list[str] | None" = None,
             jobs: int | None = 1) -> FlowResult:
    """Run one Table 1 flow on ``graph`` and evaluate the hardware.

    Unless ``lint=False``, the design is first checked by the static
    analyzer and error-severity findings abort the flow with
    :class:`~repro.errors.AnalysisError` (the report rides on the
    exception) — a scheduler fed a malformed or DEP-unsound graph would
    otherwise produce QoR numbers that look valid.

    ``config.narrow`` shrinks the graph with dataflow-proven facts
    (:func:`repro.ir.transforms.narrow_graph`) before any scheduling, cut
    enumeration or MILP construction; the narrowed graph is functionally
    equivalent, so reports and schedules describe the same kernel with
    fewer bits. Narrowing is strictly an optimization: if the flow fails
    on the narrowed model — a time-capped solver losing the incumbent
    lottery (:class:`SolverError`), the independent verifier rejecting the
    narrowed schedule (:class:`ScheduleVerificationError` or any other
    :class:`SchedulingError`), or the analyzer flagging the narrowed graph
    (:class:`AnalysisError`) — the flow retries once on the original graph
    rather than surfacing the failure. The returned result records which
    graph produced it (``FlowResult.source_graph``, also logged and traced).

    ``cache`` short-circuits everything: when the fingerprint of
    (``graph``, ``method``, ``device``, ``config``) has a stored result,
    it is returned without scheduling or solving anything.

    ``validate`` opts into symbolic translation validation
    (:func:`repro.analysis.equiv.validate_flow`): ``True`` proves every
    stage, a stage tuple (e.g. ``("narrow", "rtl")``) a subset. The
    report rides on ``FlowResult.equiv`` under an ``equiv`` tracer span;
    with a ``cache``, verdicts are stored next to the flow result under
    the same fingerprint, so warm reruns re-prove nothing.

    ``config.partition`` routes ``milp-base``/``milp-map`` through
    :class:`~repro.partition.PartitionScheduler` (subgraph decomposition;
    docs/partitioning.md). ``jobs`` sets that scheduler's per-subgraph
    solve parallelism; being runtime-only it never enters fingerprints —
    the partition *parameters* (``partition``/``partition_size``/
    ``partition_rounds``) do, via ``SchedulerConfig.fingerprint_fields``.

    ``tracer`` records every phase as a span. A tracer built with
    ``listener=`` sees each phase start and end live; one built with
    ``cancel=`` makes the flow cooperatively cancellable: every span —
    any name in :data:`~repro.runtime.SPAN_NAMES`, down to each II probe's
    ``solve``, each partition round and each ``miter`` goal — checks the
    predicate as it opens and raises :class:`~repro.errors.FlowCancelled`
    instead of entering the phase. A phase already running (e.g. a capped
    MILP solve) finishes first, so worker pools spawned by a phase are
    always joined before the exception surfaces.
    """
    config = config or SchedulerConfig()
    if method not in ALL_METHODS:
        raise ExperimentError(
            f"unknown method {method!r}; expected one of {ALL_METHODS}"
        )
    tracer = tracer or Tracer()
    fingerprint = result = None
    if cache is not None:
        fingerprint = flow_fingerprint(graph, method, device, config)
        with tracer.span("cache-load", fingerprint=fingerprint) as span:
            result = cache.load(fingerprint)
            span.meta["hit"] = result is not None
    if result is not None:
        tracer.absorb(result.trace.spans, cached=True)
        result.trace = tracer
    else:
        result = _compute(graph, method, device, config, design, lint,
                          tracer, jobs)
        result.fingerprint = fingerprint
        if cache is not None:
            with tracer.span("cache-store", fingerprint=fingerprint):
                cache.store(fingerprint, result, design=design or graph.name,
                            method=method)
    if validate:
        _attach_validation(result, graph, validate, cache, tracer,
                           design, method)
    return result


def _compute(graph: CDFG, method: str, device: Device,
             config: SchedulerConfig, design: str | None, lint: bool,
             tracer: Tracer, jobs: int | None) -> FlowResult:
    """Lint, narrow and schedule ``graph``, retrying un-narrowed on failure."""
    if lint:
        from ..analysis import lint_graph

        with tracer.span("lint"):
            lint_graph(graph, device=device).raise_if("error")
    if config.narrow:
        from ..errors import AnalysisError, SchedulingError, SolverError
        from ..ir.transforms import narrow_graph

        with tracer.span("narrow") as span:
            narrowed, _ = narrow_graph(graph)
            span.meta["nodes"] = len(narrowed.node_ids)
        try:
            with tracer.context(graph="narrowed"):
                result = _dispatch(narrowed, method, device, config,
                                   design, tracer, jobs)
            result.source_graph = "narrowed"
            return result
        except (SolverError, SchedulingError, AnalysisError) as exc:
            # Narrowing must never turn a schedulable kernel into a
            # failure: fall through to the un-narrowed graph. This covers
            # the solver (lost incumbent on the perturbed MILP), the
            # independent verifier, and the analyzer alike.
            logger.warning(
                "flow %s/%s failed on the narrowed graph (%s: %s); "
                "retrying on the original graph",
                design or graph.name, method, type(exc).__name__, exc)
            with tracer.span("narrow-fallback", error=type(exc).__name__,
                             message=str(exc)[:200]):
                pass
    with tracer.context(graph="original"):
        result = _dispatch(graph, method, device, config, design, tracer,
                           jobs)
    result.source_graph = "original"
    return result


def _attach_validation(result: FlowResult, graph: CDFG, validate,
                       cache: FlowCache | None, tracer: Tracer,
                       design: str | None, method: str) -> None:
    """Prove (or load proven) stage equivalences onto ``result.equiv``."""
    from ..analysis.equiv import STAGES, validate_flow

    stages = STAGES if validate is True else tuple(validate)
    fingerprint = result.fingerprint
    if cache is not None and fingerprint is not None:
        hit = cache.load_equiv(fingerprint, stages)
        if hit is not None:
            result.equiv = hit
            return
    with tracer.span("equiv", stages=",".join(stages)) as span:
        report = validate_flow(graph, result.schedule, stages=stages,
                               tracer=tracer,
                               design=design or graph.name, method=method)
        span.meta["ok"] = report.ok
        span.meta["statuses"] = {v.stage: v.status for v in report.stages}
    result.equiv = report
    if cache is not None and fingerprint is not None:
        cache.store_equiv(fingerprint, report)


def _dispatch(graph: CDFG, method: str, device: Device,
              config: SchedulerConfig, design: str | None,
              tracer: Tracer, jobs: int | None = 1) -> FlowResult:
    if method in ("milp-base", "milp-map"):
        if config.partition:
            from ..partition import PartitionScheduler

            scheduler = PartitionScheduler(graph, device, config,
                                           method=method, tracer=tracer,
                                           jobs=jobs, design=design)
        else:
            cls = BaseScheduler if method == "milp-base" else MapScheduler
            scheduler = cls(graph, device, config, tracer=tracer)
        schedule = scheduler.schedule()
        if method == "milp-base":
            # Downstream mapping respects the frozen register boundaries
            # but still packs logic within each stage (as Vivado would).
            with tracer.span("map", method=method):
                schedule.cover = {}
                schedule = map_schedule(schedule, device)
                schedule.method = "milp-base"
    elif method == "hls-tool":
        with tracer.span("schedule", method=method):
            schedule = CommercialHLSProxy(graph, device, tcp=config.tcp)\
                .run(target_ii=config.ii)
    else:
        from ..core.heuristic import MappingAwareHeuristicScheduler

        with tracer.span("schedule", method=method):
            schedule = MappingAwareHeuristicScheduler(graph, device, config)\
                .schedule(target_ii=config.ii)
    with tracer.span("verify"):
        verify_schedule(schedule, device)
    with tracer.span("evaluate"):
        report = evaluate(schedule, device, design=design or graph.name)
    report.method = method
    return FlowResult(schedule=schedule, report=report, trace=tracer)
