"""Post-scheduling technology mapping for the baseline flow.

In the traditional flow the paper criticizes, scheduling happens first with
additive delays and register boundaries are frozen; technology mapping then
covers each pipeline stage *separately* ("Downstream technology mapping must
respect these register boundaries and is unable to shorten the pipeline",
Sec. 1). This module implements that downstream mapper: a greedy area-
oriented cover where a cone may only absorb operations scheduled in the same
cycle as its root.

Because one LUT level is never slower than the operator it absorbs, mapping
within a stage cannot violate the stage's already-checked timing budget.

:func:`greedy_cover` is the cover loop this mapper shares with the
mapping-aware heuristic (:mod:`repro.core.heuristic`); each passes its own
cut choice.
"""

from __future__ import annotations

from typing import Callable

from ..cuts.cut import Cut, CutSet
from ..cuts.enumerate import CutEnumerator
from ..errors import MappingError
from ..ir.graph import CDFG
from ..ir.types import OpKind
from ..scheduling.schedule import Schedule
from ..tech.area import AreaModel
from ..tech.delay import DelayModel
from ..tech.device import Device

__all__ = ["StageMapper", "greedy_cover", "map_schedule", "new_roots"]


def new_roots(graph: CDFG, cut: Cut, required: set[int]) -> int:
    """Boundary nodes that choosing ``cut`` would newly make roots."""
    return sum(
        1 for u in cut.boundary
        if u not in required
        and graph.node(u).kind not in (OpKind.INPUT, OpKind.CONST)
    )


def greedy_cover(graph: CDFG, cuts: dict[int, CutSet],
                 pick: Callable[[int, set[int]], Cut]) -> dict[int, Cut]:
    """Cover ``graph`` from its required roots; primary inputs get no cut.

    Sinks (OUTPUTs, black boxes) and every value read across iterations
    are required roots. A sink takes its unit cut, any other required
    root the cut ``pick(root, required)`` returns, and the boundary of
    each chosen cut becomes required in turn.
    """
    required: set[int] = set()
    worklist: list[int] = []

    def require(nid: int) -> None:
        if graph.node(nid).kind in (OpKind.INPUT, OpKind.CONST):
            return
        if nid not in required:
            required.add(nid)
            worklist.append(nid)

    for node in graph:
        if node.kind is OpKind.OUTPUT or node.is_blackbox:
            require(node.nid)
        for op in node.operands:
            if op.distance > 0:
                require(op.source)

    cover: dict[int, Cut] = {}
    while worklist:
        nid = worklist.pop()
        node = graph.node(nid)
        if node.kind is OpKind.OUTPUT or node.is_blackbox:
            cut = cuts[nid].unit
            if cut is None:
                raise MappingError(f"sink {nid} has no unit cut")
        else:
            cut = pick(nid, required)
        cover[nid] = cut
        for u in cut.boundary:
            require(u)
    return cover


class StageMapper:
    """Greedy per-stage LUT covering of an additive-delay schedule."""

    def __init__(self, schedule: Schedule, device: Device,
                 max_cuts: int = 12) -> None:
        if schedule.cover:
            raise MappingError("schedule already has a cover")
        self.schedule = schedule
        self.graph: CDFG = schedule.graph
        self.device = device
        self.area = AreaModel(device, self.graph)
        self._delay_model = DelayModel(device, self.graph)
        self.enumerator = CutEnumerator(self.graph, device.k,
                                        max_cuts=max_cuts)
        self.cuts: dict[int, CutSet] = self.enumerator.run()

    # ------------------------------------------------------------------
    def _stage_legal(self, root: int, cut: Cut) -> bool:
        """A cone is legal iff its interior shares the root's cycle and is
        fanout-free (every interior use stays inside the cone).

        The fanout-free restriction means the greedy mapper never duplicates
        logic, so an absorbed operation is never simultaneously a root —
        typical of area-oriented mappers and required for the simple
        retiming pass that follows.
        """
        cycle = self.schedule.cycle
        c = cycle[root]
        inside = cut.interior | {root}
        for w in cut.interior:
            if cycle.get(w, -1) != c:
                return False
            for use in self.graph.uses(w):
                if use.consumer not in inside:
                    return False
        return True

    def _additive_path(self, root: int, cut: Cut) -> float:
        """Longest additive operator-delay path through the cone to root."""
        delay = self._delay_model
        graph = self.graph
        inside = cut.interior | {root}
        memo: dict[int, float] = {}

        def path_to(nid: int) -> float:
            if nid in memo:
                return memo[nid]
            node = graph.node(nid)
            best = 0.0
            for op in node.operands:
                if op.distance == 0 and op.source in inside:
                    best = max(best, path_to(op.source))
            memo[nid] = best + delay.operator_delay(node)
            return memo[nid]

        return path_to(root)

    def _candidate_cuts(self, nid: int) -> list[Cut]:
        """Legal cuts: unit always; merged cuts that stay in-stage and are
        never slower than the additive chain they replace (the schedule's
        slack was computed with additive delays, so a cone whose LUT level
        exceeds its cone's additive path could break timing)."""
        node = self.graph.node(nid)
        cs = self.cuts[nid]
        out = []
        for cut in cs.selectable:
            if cut.is_unit:
                out.append(cut)
            elif (cut.feasible(self.device.k)
                  and self._stage_legal(nid, cut)
                  and self._delay_model.cut_delay(node, cut)
                  <= self._additive_path(nid, cut) + 1e-9):
                out.append(cut)
        if not out:
            raise MappingError(f"node {nid} ({node.label}) has no legal cut")
        return out

    def _pick(self, nid: int, required: set[int]) -> Cut:
        """Greedy area choice: prefer cuts whose boundaries are already
        needed elsewhere and whose cone is cheap (area-flow lite)."""
        node = self.graph.node(nid)

        def key(cut: Cut) -> tuple:
            fresh = new_roots(self.graph, cut, required)
            return (self.area.cut_lut_cost(node, cut) + fresh, fresh,
                    len(cut.boundary), tuple(sorted(cut.boundary)))

        return min(self._candidate_cuts(nid), key=key)

    # ------------------------------------------------------------------
    def run(self) -> Schedule:
        """Select a cover and attach it to the schedule (returned)."""
        graph = self.graph
        schedule = self.schedule
        cover = greedy_cover(graph, self.cuts, self._pick)

        # Any mappable node consumed in a different cycle than its consumer
        # is necessarily a boundary of that consumer's (same-cycle) cone, so
        # the cover loop requires it; uncovered nodes are exactly the
        # absorbed ones. Sanity-check coverage:
        covered = set(cover)
        for nid, cut in cover.items():
            covered.update(cut.interior)
        for node in graph:
            if node.is_mappable and node.nid not in covered:
                # Dead-ish node kept by validation (cannot happen for valid
                # graphs); make it a standalone root for safety.
                unit = self.cuts[node.nid].unit
                if unit is None:
                    raise MappingError(f"node {node.nid} unmapped")
                cover[node.nid] = unit

        for node in graph.inputs:
            cover[node.nid] = self.cuts[node.nid].trivial

        schedule.cover = cover
        from .retime import recompute_starts

        return recompute_starts(schedule, self.device)


def map_schedule(schedule: Schedule, device: Device,
                 max_cuts: int = 12) -> Schedule:
    """Convenience wrapper around :class:`StageMapper`."""
    return StageMapper(schedule, device, max_cuts=max_cuts).run()
