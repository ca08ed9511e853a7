"""Heuristic modulo scheduler with an additive delay model.

This is the library's stand-in for the scheduling engine of a commercial
HLS tool (Sec. 4): a fast, *mapping-agnostic* heuristic. Every operation
carries its pre-characterized operator delay; chaining is additive; the
schedule is built greedily in topological order with a modulo reservation
table for constrained black-box resources; loop-carried recurrences are
verified after placement and the II is bumped until they hold.

Its pessimism on logic networks (a chain of ten XORs is charged ten LUT
delays even though mapping collapses it) is precisely the behaviour the
paper's Figure 1(a) illustrates.
"""

from __future__ import annotations

import math

from ..errors import SchedulingError
from ..ir.graph import CDFG
from ..tech.delay import DelayModel
from ..tech.device import Device
from .asap import asap_schedule
from .mii import minimum_ii
from .mrt import ModuloReservationTable
from .schedule import Schedule

__all__ = ["HeuristicModuloScheduler"]


class HeuristicModuloScheduler:
    """Greedy additive-delay modulo scheduling (the HLS-tool proxy)."""

    def __init__(self, graph: CDFG, device: Device, tcp: float,
                 max_ii: int = 64, delay_fn=None, method: str = "hls-tool") -> None:
        self.graph = graph
        self.device = device
        # Schedule against the uncertainty-derated budget, like real tools.
        self.tcp = device.usable_period(tcp)
        self.max_ii = max_ii
        self.method = method
        self._delay_model = DelayModel(device, graph)
        self._delay_fn = delay_fn
        self._delay_cache: dict[int, float] = {}

    def delay_of(self, nid: int) -> float:
        """Per-op delay: the additive operator model by default, or the
        injected ``delay_fn`` (used by the mapping-aware heuristic, which
        schedules an already-mapped LUT network)."""
        if nid not in self._delay_cache:
            if self._delay_fn is not None:
                self._delay_cache[nid] = self._delay_fn(nid)
            else:
                node = self.graph.node(nid)
                self._delay_cache[nid] = self._delay_model.operator_delay(node)
        return self._delay_cache[nid]

    # ------------------------------------------------------------------
    def schedule(self, target_ii: int | None = None) -> Schedule:
        """Find the smallest feasible II >= max(target, MII) and schedule."""
        mii = minimum_ii(self.graph, self.device, self.delay_of, self.tcp)
        start_ii = max(mii, target_ii or 1)
        last_error = "no feasible II tried"
        for ii in range(start_ii, start_ii + self.max_ii):
            try:
                return self._try(ii)
            except SchedulingError as exc:
                last_error = str(exc)
        raise SchedulingError(
            f"no feasible II in [{start_ii}, {start_ii + self.max_ii}): "
            f"{last_error}"
        )

    # ------------------------------------------------------------------
    def _try(self, ii: int, max_rounds: int = 24) -> Schedule:
        """ASAP placement with recurrence-driven re-placement rounds.

        A loop-carried consumer may need to execute *later* than its ASAP
        slot so that the producing iteration has finished (e.g. a running
        minimum updated at the end of a multi-cycle reduction). Each round
        raises the earliest-start bound of violated consumers and replaces
        everything until no recurrence is violated.
        """
        min_ready: dict[int, float] = {}
        for _ in range(max_rounds):
            cycle, start = self._place(ii, min_ready)
            violations = self._recurrence_violations(ii, cycle, start)
            if not violations:
                return Schedule(
                    graph=self.graph, ii=ii, tcp=self.tcp, cycle=cycle,
                    start=start, method=self.method, optimal=False,
                )
            for v, needed in violations:
                if needed <= min_ready.get(v, 0.0) + 1e-9:
                    raise SchedulingError(
                        f"recurrence through node {v} cannot converge at II={ii}"
                    )
                min_ready[v] = needed
        raise SchedulingError(f"recurrence fixpoint did not converge at II={ii}")

    def _place(self, ii: int, min_ready: dict[int, float]
               ) -> tuple[dict[int, int], dict[int, float]]:
        graph = self.graph
        tcp = self.tcp
        mrt = ModuloReservationTable(ii, self.device.blackbox_counts)
        cycle: dict[int, int] = {}
        start: dict[int, float] = {}

        for nid in graph.topological_order():
            node = graph.node(nid)
            d = self.delay_of(nid)
            if d > tcp + 1e-9:
                raise SchedulingError(
                    f"operator delay of node {nid} ({d:.2f} ns) exceeds the "
                    f"clock period {tcp:.2f} ns"
                )
            ready = min_ready.get(nid, 0.0)
            for op in node.operands:
                if op.distance != 0:
                    continue
                u = op.source
                ready = max(ready, cycle[u] * tcp + start[u] + self.delay_of(u))
            c = int(math.floor(ready / tcp + 1e-9))
            offset = ready - c * tcp
            if offset + d > tcp + 1e-9:
                c += 1
                offset = 0.0
            if d == 0.0 and offset <= 1e-9 and c > 0 and ready > 1e-9:
                # zero-delay node exactly on a cycle boundary: keep it in
                # the earlier cycle (L = budget), like the MILP does
                c -= 1
                offset = tcp

            if node.is_blackbox and node.rclass:
                placed = False
                for attempt in range(ii):
                    if mrt.fits(node.rclass, c + attempt):
                        mrt.place(nid, node.rclass, c + attempt)
                        if attempt:
                            c += attempt
                            offset = 0.0
                        placed = True
                        break
                if not placed:
                    raise SchedulingError(
                        f"resource class {node.rclass!r} oversubscribed at II={ii}"
                    )

            cycle[nid] = c
            start[nid] = offset
        return cycle, start

    def _recurrence_violations(self, ii: int, cycle: dict[int, int],
                               start: dict[int, float]
                               ) -> list[tuple[int, float]]:
        """Loop-carried edges whose producer finishes after the consumer
        starts; returns (consumer, required_start_time) pairs."""
        tcp = self.tcp
        out: list[tuple[int, float]] = []
        for node in self.graph:
            for op in node.operands:
                if op.distance == 0:
                    continue
                u = op.source
                u_finish = cycle[u] * tcp + start[u] + self.delay_of(u)
                v_start = (cycle[node.nid] + ii * op.distance) * tcp \
                    + start[node.nid]
                if u_finish > v_start + 1e-9:
                    out.append((node.nid, u_finish - ii * op.distance * tcp))
        return out

    # ------------------------------------------------------------------
    def asap_latency(self) -> int:
        """Latency of the acyclic ASAP schedule (horizon estimation)."""
        return asap_schedule(self.graph, self.delay_of, self.tcp).latency
