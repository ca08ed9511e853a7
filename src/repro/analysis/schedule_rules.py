"""Schedule + cover rules (codes ``SCH0xx``).

``SCH001``–``SCH010`` are the constraint families of Sec. 3, one rule per
family; :func:`repro.core.verify.verify_schedule` raises on their errors.
``SCH011``+ report without failing verification: duplicated logic and
recurrence slack.

All rules except ``SCH001`` are gated on the schedule being complete —
timing math on an unscheduled node would raise, not diagnose.
"""

from __future__ import annotations

from typing import Iterator

import networkx as nx

from ..ir.types import OpKind
from ..scheduling.schedule import Schedule
from ..tech.delay import DelayModel
from .diagnostic import Diagnostic, Severity
from .registry import GATE_SCHEDULED, AnalysisContext, finding, register

_TOL = 1e-6


def _delay_model(ctx: AnalysisContext) -> DelayModel:
    return DelayModel(ctx.device, ctx.schedule.graph)


def _impl_delay(schedule: Schedule, model: DelayModel, nid: int) -> float:
    node = schedule.graph.node(nid)
    cut = schedule.cover.get(nid)
    if cut is None:
        return 0.0
    return model.cut_delay(node, cut)


def _abs_start(schedule: Schedule, nid: int) -> float:
    return schedule.cycle[nid] * schedule.tcp + schedule.start.get(nid, 0.0)


def _valid_cover_items(schedule: Schedule):
    """Cover entries whose cut actually belongs to its key (SCH002 clean)."""
    return [(nid, cut) for nid, cut in schedule.cover.items()
            if cut.root == nid]


@register("SCH001", "unscheduled-node", "schedule", Severity.ERROR,
          "A non-constant node has no pipeline cycle assigned.",
          establishes=GATE_SCHEDULED)
def unscheduled_node(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    schedule = ctx.schedule
    for node in schedule.graph:
        if node.kind is OpKind.CONST:
            continue
        if node.nid not in schedule.cycle:
            yield finding(f"node {node.nid} is unscheduled", node=node.nid)


@register("SCH002", "cover-root-mismatch", "schedule", Severity.ERROR,
          "A cover entry stores a cut belonging to a different node.",
          gate=GATE_SCHEDULED)
def cover_root_mismatch(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for nid, cut in ctx.schedule.cover.items():
        if cut.root != nid:
            yield finding(f"cover[{nid}] is a cut of node {cut.root}",
                          node=nid)


@register("SCH003", "infeasible-cut", "schedule", Severity.ERROR,
          "A selected non-unit cut exceeds the device's LUT input count K.",
          gate=GATE_SCHEDULED)
def infeasible_cut(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    schedule, device = ctx.schedule, ctx.device
    for nid, cut in _valid_cover_items(schedule):
        node = schedule.graph.node(nid)
        if node.is_mappable and not cut.is_unit and not cut.feasible(device.k):
            yield finding(
                f"root {nid} selected an infeasible non-unit cut "
                f"(support {cut.max_support} > K={device.k})",
                node=nid,
                hint=f"re-enumerate cuts for K={device.k} or pick the "
                     "unit cut",
            )


@register("SCH004", "cut-input-not-root", "schedule", Severity.ERROR,
          "A cut's boundary value is produced by a node that is not "
          "itself a root.", gate=GATE_SCHEDULED)
def cut_input_not_root(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    schedule = ctx.schedule
    graph = schedule.graph
    for nid, cut in _valid_cover_items(schedule):
        for u in cut.boundary:
            un = graph.node(u)
            if un.kind in (OpKind.CONST, OpKind.INPUT):
                continue
            if u not in schedule.cover:
                yield finding(
                    f"cut input {u} of root {nid} is not itself a root",
                    node=nid,
                    edge=(u, nid),
                )


@register("SCH005", "uncovered-operation", "schedule", Severity.ERROR,
          "A mappable operation belongs to no selected cone.",
          gate=GATE_SCHEDULED)
def uncovered_operation(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    schedule = ctx.schedule
    covered: set[int] = set()
    for nid, cut in _valid_cover_items(schedule):
        covered.add(nid)
        covered.update(cut.interior)
    for node in schedule.graph:
        if not node.is_mappable:
            continue
        if node.nid not in covered:
            yield finding(
                f"operation {node.nid} is not covered by any cone",
                node=node.nid,
            )


@register("SCH006", "interior-not-cotimed", "schedule", Severity.ERROR,
          "A node absorbed into a cone is not timed with the cone's root.",
          gate=GATE_SCHEDULED)
def interior_not_cotimed(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    schedule = ctx.schedule
    for nid, cut in schedule.cover.items():
        for w in cut.interior:
            if w not in schedule.cycle:
                continue
            if schedule.cycle[w] != schedule.cycle[nid] or \
                    abs(schedule.start.get(w, 0.0)
                        - schedule.start.get(nid, 0.0)) > 1e-4:
                yield finding(
                    f"interior node {w} not co-timed with root {nid}",
                    node=w,
                    edge=(w, nid),
                )


@register("SCH007", "cycle-budget-exceeded", "schedule", Severity.ERROR,
          "A root's start time plus implementation delay exceeds the "
          "clock period (Eq. 8).", gate=GATE_SCHEDULED)
def cycle_budget_exceeded(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    schedule = ctx.schedule
    model = _delay_model(ctx)
    tcp = schedule.tcp
    for nid in schedule.cover:
        lv = schedule.start.get(nid, 0.0)
        d = _impl_delay(schedule, model, nid)
        if lv + d > tcp + _TOL:
            yield finding(
                f"root {nid}: start {lv:.3f} + delay {d:.3f} exceeds "
                f"Tcp {tcp:.3f}",
                node=nid,
            )


@register("SCH008", "chaining-violation", "schedule", Severity.ERROR,
          "A cone starts before one of its entry values has finished "
          "(Eq. 9).", gate=GATE_SCHEDULED)
def chaining_violation(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    schedule = ctx.schedule
    graph = schedule.graph
    model = _delay_model(ctx)
    tcp, ii = schedule.tcp, schedule.ii
    for nid, cut in schedule.cover.items():
        for u, dist in cut.entries:
            un = graph.node(u)
            if un.kind is OpKind.CONST:
                continue
            u_finish = _abs_start(schedule, u) + _impl_delay(schedule, model, u)
            v_start = _abs_start(schedule, nid) + tcp * ii * dist
            if u_finish > v_start + _TOL:
                yield finding(
                    f"entry {u}@{dist} of root {nid} finishes at "
                    f"{u_finish:.3f} after the cone starts at {v_start:.3f}",
                    node=nid,
                    edge=(u, nid),
                )


@register("SCH009", "dependence-violation", "schedule", Severity.ERROR,
          "A dependence edge is scheduled backwards against its "
          "iteration distance (Eq. 7).", gate=GATE_SCHEDULED)
def dependence_violation(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    schedule = ctx.schedule
    graph = schedule.graph
    ii = schedule.ii
    for node in graph:
        if node.kind is OpKind.CONST:
            continue
        for op in node.operands:
            if graph.node(op.source).kind is OpKind.CONST:
                continue
            if schedule.cycle[op.source] > schedule.cycle[node.nid] \
                    + ii * op.distance:
                yield finding(
                    f"dependence {op.source} -> {node.nid} "
                    f"(distance {op.distance}) violated",
                    node=node.nid,
                    edge=(op.source, node.nid),
                )


@register("SCH010", "resource-oversubscribed", "schedule", Severity.ERROR,
          "A black-box resource class is oversubscribed in some modulo "
          "slot (Eq. 14).", gate=GATE_SCHEDULED)
def resource_oversubscribed(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    schedule, device = ctx.schedule, ctx.device
    ii = schedule.ii
    usage: dict[tuple[str, int], int] = {}
    for node in schedule.graph:
        if node.is_blackbox and node.rclass:
            slot = schedule.cycle[node.nid] % ii
            usage[(node.rclass, slot)] = usage.get((node.rclass, slot), 0) + 1
    for (rclass, slot), used in usage.items():
        cap = device.blackbox_counts.get(rclass)
        if cap is not None and used > cap:
            yield finding(
                f"resource {rclass}: {used} ops in modulo slot {slot} "
                f"but only {cap} available",
                constraint=rclass,
            )


@register("SCH011", "duplicated-logic", "schedule", Severity.INFO,
          "An operation is computed inside more than one cone "
          "(logic duplication inflates area).", gate=GATE_SCHEDULED)
def duplicated_logic(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    schedule = ctx.schedule
    computed_in: dict[int, list[int]] = {}
    for nid, cut in _valid_cover_items(schedule):
        computed_in.setdefault(nid, []).append(nid)
        for w in cut.interior:
            computed_in.setdefault(w, []).append(nid)
    for w, roots in sorted(computed_in.items()):
        if len(roots) > 1:
            width = schedule.graph.node(w).width
            yield finding(
                f"node {w} is computed in {len(roots)} cones "
                f"(roots {sorted(roots)}); {width * (len(roots) - 1)} "
                "LUT bits are duplicated",
                node=w,
                nodes=sorted(roots),
                hint="duplication can be intentional (fan-out splitting) "
                     "but distorts per-cone area accounting",
            )


@register("SCH012", "recurrence-slack", "schedule", Severity.WARNING,
          "A recurrence cycle has less than one LUT level of slack: the "
          "II is within one logic level of infeasible.",
          gate=GATE_SCHEDULED)
def recurrence_slack(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    schedule, device = ctx.schedule, ctx.device
    graph = schedule.graph
    model = _delay_model(ctx)
    max_cycles = int(ctx.options.get("recurrence_cycle_cap", 1000))

    simple = nx.DiGraph()
    for node in graph:
        for op in node.operands:
            if op.source not in graph:
                continue
            if simple.has_edge(op.source, node.nid):
                old = simple[op.source][node.nid]["distance"]
                simple[op.source][node.nid]["distance"] = min(old, op.distance)
            else:
                simple.add_edge(op.source, node.nid, distance=op.distance)

    count = 0
    for cyc in nx.simple_cycles(simple):
        count += 1
        if count > max_cycles:
            break
        total_dist = 0
        for i, u in enumerate(cyc):
            v = cyc[(i + 1) % len(cyc)]
            total_dist += simple[u][v]["distance"]
        if total_dist == 0:
            continue  # combinational cycle: an IR006 error, not a slack issue
        total_delay = sum(_impl_delay(schedule, model, nid) for nid in cyc)
        budget = schedule.ii * total_dist * schedule.tcp
        slack = budget - total_delay
        if 0.0 <= slack < device.lut_level_delay:
            members = sorted(cyc)
            yield finding(
                f"recurrence through nodes {members[:10]} has "
                f"{slack:.3f} ns slack out of {budget:.3f} ns "
                f"(< one LUT level, {device.lut_level_delay:.3f} ns): "
                f"II={schedule.ii} is within one logic level of infeasible",
                node=members[0],
                nodes=members[:10],
                hint="any delay growth on this loop forces a higher II; "
                     "consider retiming or relaxing the target clock",
            )
