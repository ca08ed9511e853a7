"""The paper's core contribution: mapping-aware modulo scheduling MILP."""

from .config import SchedulerConfig
from .formulation import MappingAwareFormulation
from .heuristic import MappingAwareHeuristicScheduler
from .mapsched import BaseScheduler, MapScheduler
from .verify import schedule_problems, verify_schedule

__all__ = [
    "BaseScheduler",
    "MapScheduler",
    "MappingAwareFormulation",
    "MappingAwareHeuristicScheduler",
    "SchedulerConfig",
    "schedule_problems",
    "verify_schedule",
]
