"""Pluggable differential oracles.

Every oracle takes a :class:`FuzzCase` — a graph plus deterministic
stimulus — and cross-checks two independent computations of the same
behaviour. Disagreement is reported as a structured :class:`Divergence`;
an *unexpected* exception inside an oracle is also a divergence (the
"generate, check, localize" loop treats crashes as findings), while known
benign outcomes (II=1 genuinely infeasible, solver time-cap) are skips.

The oracle catalog (see ``docs/fuzzing.md``):

========== ==========================================================
name        cross-check
========== ==========================================================
sim-replay  functional simulation vs. cycle-accurate pipeline replay
            of the milp-map (and heur-map) schedule
bitblast    word-level functional simulation vs. the bit-blasted
            boolean network's simulation (bit-level ground truth)
narrow      ``narrow_graph`` input/output equivalence
schedule    milp-map vs. milp-base vs. heur-map: independent verifier
            plus cost sanity (map <= base objective at optimality)
backend     HiGHS vs. the branch-and-bound reference: optimal
            objective agreement on the mapping-aware model
rtl         Verilog emission + self-checking testbench through the
            structural linter
equiv       symbolic translation validation: narrowing, cut cover and
            emitted RTL miter-checked against the CDFG semantics
            (BMC + k-induction; counterexamples decode to input
            streams)
cache       FlowResult -> JSON -> FlowResult round-trip, replayed
========== ==========================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.config import SchedulerConfig
from ..errors import (
    AnalysisError,
    ReproError,
    SchedulingError,
    ScheduleVerificationError,
    SolverError,
)
from ..ir.graph import CDFG
from ..milp.model import Model, SolveStatus
from ..sim.functional import FunctionalSimulator
from ..sim.pipeline import PipelineSimulator
from ..tech.device import XC7, Device
from .generate import FuzzCaseData, fuzz_env_factory

__all__ = ["Divergence", "FuzzCase", "OracleResult", "ORACLES",
           "DEFAULT_ORACLES", "SkipOracle", "run_oracle"]

_EPS = 1e-6


class SkipOracle(Exception):
    """Raised inside an oracle when the case is out of its scope."""


@dataclass
class Divergence:
    """One cross-layer disagreement, ready for shrinking and pinning."""

    oracle: str
    kind: str          # "mismatch" | "verify" | "cost" | "lint" | "error"
    message: str
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"oracle": self.oracle, "kind": self.kind,
                "message": self.message, "details": dict(self.details)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Divergence":
        return cls(oracle=data["oracle"], kind=data["kind"],
                   message=data["message"],
                   details=dict(data.get("details", {})))


@dataclass
class OracleResult:
    """Outcome of one oracle on one case."""

    oracle: str
    status: str                      # "pass" | "skip" | "diverge"
    message: str = ""
    divergence: Divergence | None = None
    seconds: float = 0.0

    def to_dict(self, include_timing: bool = True) -> dict[str, Any]:
        data: dict[str, Any] = {"oracle": self.oracle, "status": self.status}
        if self.message:
            data["message"] = self.message
        if self.divergence is not None:
            data["divergence"] = self.divergence.to_dict()
        if include_timing:
            data["seconds"] = self.seconds
        return data


class FuzzCase:
    """A graph + stimulus under test, with per-case flow memoization.

    Several oracles need the same ``milp-map`` schedule; solving it once
    per case (not once per oracle) keeps a campaign's cost dominated by
    distinct seeds, mirroring how :class:`~repro.runtime.FlowCache`
    de-duplicates experiment work.
    """

    def __init__(self, data: FuzzCaseData, device: Device = XC7,
                 config: SchedulerConfig | None = None) -> None:
        self.graph = data.graph
        self.stimulus = list(data.stimulus)
        self.seed = data.seed
        self.profile = data.profile
        self.device = device
        self.config = config or SchedulerConfig(time_limit=30.0, max_cuts=8)
        self._flows: dict[str, Any] = {}
        self._env_factory = fuzz_env_factory(data.graph, data.seed)

    def env(self):
        """A fresh memory environment (safe to consume per simulator)."""
        return self._env_factory()

    def flow(self, method: str):
        """Run (or reuse) one scheduling flow for this case.

        :class:`SkipOracle` is raised for the benign failure modes —
        II=1 infeasibility and solver time-caps are properties of the
        *case*, not bugs. Verification and analysis failures propagate:
        the oracle wrapper turns them into divergences.
        """
        if method not in self._flows:
            from ..experiments.flows import run_flow

            try:
                self._flows[method] = run_flow(
                    self.graph, method, self.device, self.config,
                    design=self.graph.name)
            except (ScheduleVerificationError, AnalysisError):
                raise
            except SolverError as exc:
                raise SkipOracle(f"{method}: solver gave up ({exc})") from exc
            except SchedulingError as exc:
                raise SkipOracle(f"{method}: infeasible ({exc})") from exc
        return self._flows[method]

    def golden(self) -> list[dict[str, int]]:
        """Functional-simulation outputs over the stimulus (memoized)."""
        if "golden" not in self._flows:
            self._flows["golden"] = FunctionalSimulator(
                self.graph, self.env()).run(self.stimulus)
        return self._flows["golden"]


def _first_mismatch(golden: list[dict[str, int]],
                    other: list[dict[str, int]]) -> dict[str, Any]:
    for k, (a, b) in enumerate(zip(golden, other)):
        if a != b:
            return {"iteration": k, "expected": a, "actual": b}
    return {"iteration": None,
            "expected_len": len(golden), "actual_len": len(other)}


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def oracle_sim_replay(case: FuzzCase) -> Divergence | None:
    """Functional reference vs. cycle-accurate replay of the mapped
    schedules — the paper's behaviour-preservation claim, dynamically."""
    golden = case.golden()
    for method in ("milp-map", "heur-map"):
        try:
            schedule = case.flow(method).schedule
        except SkipOracle:
            if method == "heur-map":
                continue        # the exact MILP verdict is the one that counts
            raise
        piped = PipelineSimulator(schedule, case.device, case.env())\
            .run(case.stimulus)
        if piped != golden:
            return Divergence(
                oracle="sim-replay", kind="mismatch",
                message=f"{method} pipeline replay disagrees with the "
                        f"functional reference",
                details={"method": method,
                         **_first_mismatch(golden, piped)})
    return None


def oracle_bitblast(case: FuzzCase) -> Divergence | None:
    """Word-level semantics vs. the bit-blasted boolean network."""
    from ..bitdeps.bitblast import bit_blast

    golden = case.golden()
    blast = bit_blast(case.graph)
    blasted = FunctionalSimulator(blast.graph, case.env()).run(case.stimulus)
    if blasted != golden:
        return Divergence(
            oracle="bitblast", kind="mismatch",
            message="bit-blasted network disagrees with word-level "
                    "semantics",
            details=_first_mismatch(golden, blasted))
    return None


def oracle_narrow(case: FuzzCase) -> Divergence | None:
    """``narrow_graph`` must preserve input/output behaviour exactly."""
    from ..ir.transforms import narrow_graph

    golden = case.golden()
    narrowed, _ = narrow_graph(case.graph)
    outputs = FunctionalSimulator(narrowed, case.env()).run(case.stimulus)
    if outputs != golden:
        return Divergence(
            oracle="narrow", kind="mismatch",
            message="narrowed graph disagrees with the original",
            details=_first_mismatch(golden, outputs))
    return None


def oracle_schedule(case: FuzzCase) -> Divergence | None:
    """All three flows verify independently; at optimality the
    mapping-aware objective never exceeds the mapping-agnostic one
    (unit cuts are a subset of the full cut sets)."""
    from ..core.verify import verify_schedule

    base = case.flow("milp-base")
    mapped = case.flow("milp-map")
    for method, flow in (("milp-base", base), ("milp-map", mapped)):
        try:
            verify_schedule(flow.schedule, case.device)
        except ScheduleVerificationError as exc:
            return Divergence(
                oracle="schedule", kind="verify",
                message=f"{method} schedule fails independent "
                        f"re-verification",
                details={"method": method, "problems": exc.violations[:5]})
    sb, sm = base.schedule, mapped.schedule
    if (sb.optimal and sm.optimal
            and sb.objective is not None and sm.objective is not None
            and base.source_graph == mapped.source_graph
            and sm.objective > sb.objective + _EPS):
        return Divergence(
            oracle="schedule", kind="cost",
            message="milp-map objective exceeds milp-base at optimality",
            details={"map_objective": sm.objective,
                     "base_objective": sb.objective,
                     "source_graph": mapped.source_graph})
    return None


def _milp_map_model(case: FuzzCase, graph: CDFG) -> Model:
    """The milp-map MILP a scheduler builds for ``graph`` at the case's
    config, before presolve or a warm start touches it."""
    from ..core.formulation import MappingAwareFormulation
    from ..core.mapsched import MapScheduler

    scheduler = MapScheduler(graph, case.device, case.config)
    scheduler.enumerate()
    return MappingAwareFormulation(
        graph, scheduler.cuts, case.device, case.config,
        scheduler._horizon()).build()


def oracle_backend(case: FuzzCase) -> Divergence | None:
    """HiGHS, which schedules, and the pure-python branch-and-bound
    reference must agree on the optimal objective of the mapping-aware
    MILP."""
    if case.graph.num_operations > 20 or case.graph.total_bits() > 48:
        raise SkipOracle("model too large for the bnb backend")
    scipy_sched = case.flow("milp-map").schedule
    if not scipy_sched.optimal:
        raise SkipOracle("scipy solve not proved optimal")
    # Same graph the scipy flow actually scheduled (run_flow may have
    # narrowed it) — otherwise the two backends solve different models.
    bnb = _milp_map_model(case, scipy_sched.graph).solve(
        "bnb", time_limit=20.0, presolve=True)
    if bnb.status != SolveStatus.OPTIMAL:
        raise SkipOracle(f"bnb solve not proved optimal ({bnb.status})")
    a, b = scipy_sched.objective, bnb.objective
    if a is not None and b is not None \
            and abs(a - b) > 1e-4 * max(1.0, abs(a)):
        return Divergence(
            oracle="backend", kind="cost",
            message="scipy and bnb backends disagree on the optimal "
                    "objective",
            details={"scipy": a, "bnb": b})
    return None


def oracle_presolve(case: FuzzCase) -> Divergence | None:
    """Presolve must be solution-preserving: the reduced-model solve,
    expanded back through :class:`~repro.milp.Postsolve`, must match a
    raw solve's status and objective, and its assignment must satisfy
    every *original* constraint."""
    # Both solves are scipy/HiGHS, so this gate can afford to be much
    # looser than the bnb-bound backend oracle's.
    if case.graph.num_operations > 64 or case.graph.total_bits() > 256:
        raise SkipOracle("model too large for a double solve")
    # Same graph the scipy flow actually scheduled (run_flow may have
    # narrowed it) — presolve must be safe on the model that flow solved.
    model = _milp_map_model(case, case.flow("milp-map").schedule.graph)
    raw = model.solve(backend="scipy", time_limit=20.0)
    pre = model.solve(backend="scipy", time_limit=20.0, presolve=True)
    if raw.status != pre.status:
        statuses = {raw.status, pre.status}
        if statuses == {SolveStatus.OPTIMAL, SolveStatus.FEASIBLE}:
            # One side hit the 20 s cap holding an incumbent while the
            # other proved optimality — a budget artifact, not a
            # presolve bug (and shrinking it would re-pay the cap on
            # every step).
            raise SkipOracle(f"time cap split the statuses "
                             f"(raw={raw.status}, presolved={pre.status})")
        if SolveStatus.OPTIMAL not in statuses:
            raise SkipOracle(f"no optimal reference "
                             f"(raw={raw.status}, presolved={pre.status})")
        return Divergence(
            oracle="presolve", kind="mismatch",
            message="raw and presolved solves disagree on status",
            details={"raw": raw.status, "presolved": pre.status})
    if not raw.ok:
        return None
    a, b = raw.objective, pre.objective
    if raw.status == SolveStatus.OPTIMAL and pre.status == SolveStatus.OPTIMAL \
            and a is not None and b is not None \
            and abs(a - b) > 1e-4 * max(1.0, abs(a)):
        return Divergence(
            oracle="presolve", kind="cost",
            message="presolve changed the optimal objective",
            details={"raw": a, "presolved": b})
    violated = model.check(pre.values)
    if violated:
        return Divergence(
            oracle="presolve", kind="verify",
            message="expanded presolve solution violates original "
                    "constraints",
            details={"violated": violated[:5]})
    return None


def oracle_rtl(case: FuzzCase) -> Divergence | None:
    """Emitted module and self-checking testbench pass the structural
    linter (the offline stand-in for an external Verilog simulator)."""
    from ..rtl import emit_testbench, emit_verilog, lint_verilog

    schedule = case.flow("milp-map").schedule
    if schedule.ii != 1:
        raise SkipOracle(f"emitter supports II=1, schedule has "
                         f"II={schedule.ii}")
    module = emit_verilog(schedule)
    problems = lint_verilog(module)
    if problems:
        return Divergence(oracle="rtl", kind="lint",
                          message="emitted module fails the Verilog linter",
                          details={"problems": problems[:5]})
    bench = emit_testbench(schedule, case.device, case.stimulus,
                           env=case.env())
    problems = lint_verilog(bench)
    if problems:
        return Divergence(oracle="rtl", kind="lint",
                          message="emitted testbench fails the Verilog "
                                  "linter",
                          details={"problems": problems[:5]})
    return None


def oracle_equiv(case: FuzzCase) -> Divergence | None:
    """Symbolic translation validation (see ``docs/equivalence.md``):
    miter-check the narrowing, the cut cover and the emitted RTL against
    the CDFG semantics with BMC + k-induction. Where the dynamic oracles
    sample the stimulus, this one *proves* (or refutes with a decoded
    counterexample — which doubles as a shrinker-ready input stream in
    the divergence details).

    Known divergence classes are skips, not findings: pipeline fill
    transients (staged registers still hold reset values, and gap-0
    carried edges have no register to materialise their declared
    initial, during the first iterations — a by-design property of the
    emitter, pinned by the DR benchmark) and budget/modeling-gap
    verdicts. A fill-window counterexample only earns the skip when the
    validator's steady-state re-check proved the frames *past* the
    window equal; otherwise the stage is broken for real and the
    divergence is reported.
    """
    from ..analysis.equiv import EquivBudget, validate_flow

    if case.graph.num_operations > 48:
        raise SkipOracle("graph too large for symbolic validation")
    schedule = case.flow("milp-map").schedule
    if schedule.ii != 1:
        raise SkipOracle(f"emitter supports II=1, schedule has "
                         f"II={schedule.ii}")
    budget = EquivBudget(max_frames=4, induction_k=2, sat_conflicts=10_000)
    report = validate_flow(case.graph, schedule,
                           stages=("narrow", "cover", "rtl"),
                           budget=budget, design=case.graph.name,
                           method="milp-map")
    fill_transients = []
    for verdict in report.stages:
        if verdict.status != "inequivalent":
            continue
        if any("fill window" in note for note in verdict.notes) \
                and any("steady state checks out" in note
                        for note in verdict.notes):
            fill_transients.append(verdict.stage)
            continue
        cex = verdict.counterexample
        return Divergence(
            oracle="equiv", kind="mismatch",
            message=f"{verdict.stage} stage refuted symbolically: "
                    f"{verdict.detail}",
            details={"stage": verdict.stage, "notes": list(verdict.notes),
                     "counterexample": cex.to_dict() if cex else None})
    if fill_transients:
        raise SkipOracle(
            "known divergence class: pipeline fill transient in "
            + ",".join(fill_transients) + " (see docs/equivalence.md)")
    return None


def oracle_cache(case: FuzzCase) -> Divergence | None:
    """FlowResult -> JSON -> FlowResult must be lossless, and the restored
    schedule must still replay against the functional reference."""
    from ..ir.serialize import graph_to_dict, schedule_to_dict
    from ..runtime.cache import flow_result_from_dict, flow_result_to_dict

    flow = case.flow("milp-map")
    wire = json.loads(json.dumps(flow_result_to_dict(flow)))
    restored = flow_result_from_dict(wire)
    if graph_to_dict(restored.schedule.graph) \
            != graph_to_dict(flow.schedule.graph):
        return Divergence(oracle="cache", kind="mismatch",
                          message="graph changed across the cache "
                                  "round-trip")
    if schedule_to_dict(restored.schedule) != schedule_to_dict(flow.schedule):
        return Divergence(oracle="cache", kind="mismatch",
                          message="schedule changed across the cache "
                                  "round-trip")
    if restored.report.to_dict() != flow.report.to_dict():
        return Divergence(oracle="cache", kind="mismatch",
                          message="hardware report changed across the "
                                  "cache round-trip")
    golden = FunctionalSimulator(restored.schedule.graph, case.env())\
        .run(case.stimulus)
    piped = PipelineSimulator(restored.schedule, case.device, case.env())\
        .run(case.stimulus)
    if piped != golden:
        return Divergence(oracle="cache", kind="mismatch",
                          message="restored schedule no longer replays "
                                  "against the functional reference",
                          details=_first_mismatch(golden, piped))
    return None


def oracle_partition(case: FuzzCase) -> Divergence | None:
    """Subgraph decomposition vs the monolithic solve (docs/partitioning.md).

    ``PartitionScheduler.schedule()`` verifies every stitched schedule
    before it returns one, and a failure raises (it is re-raised here: a
    stitched schedule that fails verify is the bug). The stitched
    schedule must replay bit-exactly against the functional reference,
    and must never *worsen* the II: every subgraph problem is a
    restriction of the monolithic one (its recurrences and resource
    demands are subsets), so with time caps skipped the fleet II can only
    match or beat the monolithic II.
    """
    import dataclasses

    from ..partition import PartitionScheduler

    mono = case.flow("milp-map")
    # A third of the graph per subgraph forces 2-4 subgraphs on fuzz-sized
    # cases — real boundaries, real stitching, still one solver call each.
    size = max(4, len(case.graph.node_ids) // 3)
    cfg = dataclasses.replace(case.config, partition=True,
                              partition_size=size, partition_rounds=1)
    try:
        stitched = PartitionScheduler(case.graph, case.device, cfg,
                                      method="milp-map").schedule()
    except ScheduleVerificationError:
        raise                  # a stitched schedule that fails verify IS the bug
    except SolverError as exc:
        raise SkipOracle(f"partition: solver gave up ({exc})") from exc
    except SchedulingError as exc:
        raise SkipOracle(f"partition: infeasible ({exc})") from exc

    if stitched.ii > mono.schedule.ii:
        return Divergence(
            oracle="partition", kind="cost",
            message="partitioning worsened the II",
            details={"partition_ii": stitched.ii,
                     "monolithic_ii": mono.schedule.ii})
    golden = case.golden()
    piped = PipelineSimulator(stitched, case.device, case.env())\
        .run(case.stimulus)
    if piped != golden:
        return Divergence(
            oracle="partition", kind="mismatch",
            message="stitched schedule disagrees with the functional "
                    "reference",
            details=_first_mismatch(golden, piped))
    return None


ORACLES: dict[str, Callable[[FuzzCase], Divergence | None]] = {
    "sim-replay": oracle_sim_replay,
    "bitblast": oracle_bitblast,
    "narrow": oracle_narrow,
    "schedule": oracle_schedule,
    "backend": oracle_backend,
    "presolve": oracle_presolve,
    "rtl": oracle_rtl,
    "equiv": oracle_equiv,
    "cache": oracle_cache,
    "partition": oracle_partition,
}

#: Run for every seed unless ``--oracles`` narrows the set. ``backend``
#: self-gates on model size, so including it is cheap.
DEFAULT_ORACLES = tuple(ORACLES)


def run_oracle(name: str, case: FuzzCase) -> OracleResult:
    """Run one oracle, folding every outcome into an :class:`OracleResult`.

    Unexpected library errors become divergences of kind ``"error"`` —
    a crash on a valid input is a finding, not noise.
    """
    import time

    fn = ORACLES[name]
    t0 = time.perf_counter()
    try:
        divergence = fn(case)
    except SkipOracle as exc:
        return OracleResult(oracle=name, status="skip", message=str(exc),
                            seconds=time.perf_counter() - t0)
    except ReproError as exc:
        divergence = Divergence(
            oracle=name, kind="error",
            message=f"{type(exc).__name__}: {exc}",
            details={"exception": type(exc).__name__})
    seconds = time.perf_counter() - t0
    if divergence is None:
        return OracleResult(oracle=name, status="pass", seconds=seconds)
    return OracleResult(oracle=name, status="diverge",
                        message=divergence.message, divergence=divergence,
                        seconds=seconds)
