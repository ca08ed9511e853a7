"""A scalable mapping-aware heuristic scheduler (the paper's future work).

Sec. 5 names "incorporating mapping awareness into a scalable heuristic
pipeline scheduling algorithm" as future work; this module builds that
system. Instead of one joint MILP it runs two polynomial passes:

1. **Global cover selection** — a FlowMap-flavoured depth labeling over the
   word-level cuts (registered entries restart the depth count), followed
   by greedy area recovery from the outputs. Cones are fanout-free, so no
   logic is duplicated and interiors can be co-timed with their roots.
2. **Modulo scheduling of the LUT network** — the existing heuristic
   scheduler runs with per-node delays taken from the *selected cover*
   (one LUT level per mapped cone, operator delay for unit fallbacks,
   zero for absorbed nodes), then interiors are snapped onto their roots.

Quality sits between the additive-delay flows and MILP-map: it sees through
LUT packing (so it deletes the same pipeline stages MILP-map deletes on
logic-dominated kernels) but makes no exact register-minimization claims.
"""

from __future__ import annotations

from ..cuts.cut import Cut, CutSet
from ..cuts.enumerate import CutEnumerator
from ..errors import MappingError
from ..ir.graph import CDFG
from ..ir.types import OpKind
from ..ir.validate import validate
from ..mapping.stage_mapper import greedy_cover, new_roots
from ..scheduling.modulo import HeuristicModuloScheduler
from ..scheduling.schedule import Schedule
from ..tech.delay import DelayModel
from ..tech.device import XC7, Device
from .config import SchedulerConfig
from .verify import verify_schedule

__all__ = ["MappingAwareHeuristicScheduler"]


class MappingAwareHeuristicScheduler:
    """Map-then-schedule: polynomial-time mapping-aware pipelining."""

    method_name = "heur-map"

    def __init__(self, graph: CDFG, device: Device = XC7,
                 config: SchedulerConfig | None = None) -> None:
        validate(graph)
        self.graph = graph
        self.device = device
        self.config = config or SchedulerConfig()
        self.delay_model = DelayModel(device, graph)
        self.cuts: dict[int, CutSet] = {}
        self.cover: dict[int, Cut] = {}

    # ------------------------------------------------------------------
    # Pass 1: global cover selection
    # ------------------------------------------------------------------
    def _fanout_free(self, root: int, cut: Cut) -> bool:
        inside = cut.interior | {root}
        for w in cut.interior:
            for use in self.graph.uses(w):
                if use.consumer not in inside:
                    return False
        return True

    def _depth_labels(self) -> dict[int, int]:
        """FlowMap-style LUT-depth label per node over feasible cuts."""
        graph = self.graph
        labels: dict[int, int] = {}
        for nid in graph.topological_order():
            node = graph.node(nid)
            if node.kind in (OpKind.INPUT, OpKind.CONST):
                labels[nid] = 0
                continue
            best = None
            for cut in self.cuts[nid].selectable:
                level = 0
                for u, dist in cut.entries:
                    if dist > 0:
                        continue  # registered: depth restarts
                    level = max(level, labels.get(u, 0))
                cost = 0 if self.delay_model.cut_delay(node, cut) == 0.0 else 1
                candidate = level + cost
                if best is None or candidate < best:
                    best = candidate
            labels[nid] = best if best is not None else 0
        return labels

    def select_cover(self) -> dict[int, Cut]:
        """Greedy depth-then-area cover (fanout-free cones only)."""
        graph = self.graph
        labels = self._depth_labels()

        def key(cut: Cut, required: set[int]) -> tuple:
            depth = max((labels.get(u, 0) for u, dist in cut.entries
                         if dist == 0), default=0)
            return (depth, new_roots(graph, cut, required),
                    len(cut.boundary), tuple(sorted(cut.boundary)))

        def pick(nid: int, required: set[int]) -> Cut:
            usable = [cut for cut in self.cuts[nid].selectable
                      if cut.is_unit or (cut.feasible(self.device.k)
                                         and self._fanout_free(nid, cut))]
            if not usable:
                raise MappingError(f"node {nid} has no usable cut")
            return min(usable, key=lambda cut: key(cut, required))

        cover = greedy_cover(graph, self.cuts, pick)
        for node in graph.inputs:
            cover[node.nid] = self.cuts[node.nid].trivial
        self.cover = cover
        return cover

    # ------------------------------------------------------------------
    # Pass 2: schedule the mapped network
    # ------------------------------------------------------------------
    def schedule(self, target_ii: int | None = None) -> Schedule:
        """Map, schedule with mapped delays, snap interiors, verify."""
        if not self.cuts:
            self.cuts = CutEnumerator(self.graph, self.device.k,
                                      max_cuts=self.config.max_cuts).run()
        cover = self.select_cover()

        def mapped_delay(nid: int) -> float:
            node = self.graph.node(nid)
            cut = cover.get(nid)
            if cut is None or cut.is_trivial:
                return 0.0  # absorbed (or a primary input)
            return self.delay_model.cut_delay(node, cut)

        scheduler = HeuristicModuloScheduler(
            self.graph, self.device, self.config.tcp,
            delay_fn=mapped_delay, method=self.method_name,
        )
        sched = scheduler.schedule(target_ii or self.config.ii)
        sched.cover = cover

        # Interiors execute inside their root's LUT: co-time them. Cones
        # are fanout-free, so no other consumer observes the snapped time.
        for nid, cut in cover.items():
            for w in cut.interior:
                sched.cycle[w] = sched.cycle[nid]
                sched.start[w] = sched.start[nid]
        return verify_schedule(sched, self.device)
