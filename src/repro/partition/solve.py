"""Per-subgraph MILP solves, shaped for :func:`repro.runtime.run_parallel`.

The worker is a module-level function over a picklable task so the pool
can ship it to worker processes; results come back as serialized
schedules (:func:`repro.ir.serialize.schedule_to_dict`), which keeps the
pool protocol JSON-plain and lets the scheduler memoize them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.config import SchedulerConfig
from ..runtime.trace import Tracer
from ..tech.device import Device

__all__ = ["SubgraphSolveTask", "solve_subgraph_task"]


@dataclass(frozen=True)
class SubgraphSolveTask:
    """One subgraph solve: sweep from ``config.ii`` or pin an exact II."""

    design: str
    method: str  # "milp-map" | "milp-base"
    index: int
    fingerprint: str
    graph_data: Any  # graph_to_dict payload (picklable, canonical)
    device: Device
    config: SchedulerConfig
    pin_ii: int | None = None  # None = ascending-II sweep


def solve_subgraph_task(task: SubgraphSolveTask) -> dict[str, Any]:
    """Solve one subgraph; returns ``schedule_to_dict`` of the result.

    Pinned solves (``pin_ii``) run the scheduler at exactly that II;
    sweep solves start at ``config.ii`` and ascend, warm-started by the
    mapping-aware heuristic at every probe (the same machinery the
    monolithic flow uses).
    """
    from dataclasses import replace

    from ..core.mapsched import BaseScheduler, MapScheduler
    from ..ir.serialize import graph_from_dict, schedule_to_dict

    graph = graph_from_dict(task.graph_data)
    config = task.config
    if task.pin_ii is not None:
        config = replace(config, ii=task.pin_ii)
    cls = MapScheduler if task.method == "milp-map" else BaseScheduler
    scheduler = cls(graph, task.device, config, tracer=Tracer())
    if task.pin_ii is not None:
        schedule = scheduler.schedule()
    else:
        schedule = scheduler.sweep()
    return schedule_to_dict(schedule)
