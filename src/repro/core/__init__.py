"""The paper's core contribution: mapping-aware modulo scheduling MILP."""

from .config import SchedulerConfig
from .formulation import MappingAwareFormulation
from .heuristic import MappingAwareHeuristicScheduler
from .mapsched import BaseScheduler, MapScheduler
from .verify import verify_schedule

__all__ = [
    "BaseScheduler",
    "MapScheduler",
    "MappingAwareFormulation",
    "MappingAwareHeuristicScheduler",
    "SchedulerConfig",
    "verify_schedule",
]
