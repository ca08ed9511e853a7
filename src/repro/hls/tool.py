"""The commercial-HLS-tool proxy: the full traditional flow.

``schedule -> freeze registers -> map per stage``, with additive
pre-characterized delays at schedule time — the flow whose pessimism the
paper quantifies. The entry point mirrors how Table 1's "HLS Tool" rows are
produced.
"""

from __future__ import annotations

from ..errors import SchedulingError
from ..ir.graph import CDFG
from ..ir.validate import validate
from ..mapping.stage_mapper import map_schedule
from ..scheduling.modulo import HeuristicModuloScheduler
from ..scheduling.schedule import Schedule
from ..tech.device import XC7, Device

__all__ = ["CommercialHLSProxy"]


class CommercialHLSProxy:
    """Heuristic additive-delay pipeline synthesis (the "HLS Tool" rows)."""

    def __init__(self, graph: CDFG, device: Device = XC7,
                 tcp: float = 10.0) -> None:
        validate(graph)
        self.graph = graph
        self.device = device
        self.tcp = tcp

    def run(self, target_ii: int = 1) -> Schedule:
        """Schedule (heuristic, additive), then map each stage to LUTs.

        The achieved II may exceed ``target_ii`` when the additive delay
        model cannot honor a recurrence — the commercial tool would emit the
        same larger II (this is one of the gaps mapping-awareness closes).
        """
        scheduler = HeuristicModuloScheduler(self.graph, self.device, self.tcp)
        schedule = scheduler.schedule(target_ii=target_ii)
        schedule = map_schedule(schedule, self.device)
        if not schedule.cover:
            raise SchedulingError("stage mapping produced an empty cover")
        return schedule
