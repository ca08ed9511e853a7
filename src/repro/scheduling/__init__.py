"""Scheduling substrate: ASAP/ALAP, MII, MRT, heuristic modulo scheduling."""

from .asap import ChainingTimes, alap_schedule, asap_schedule
from .mii import minimum_ii, rec_mii, res_mii
from .modulo import HeuristicModuloScheduler
from .mrt import ModuloReservationTable
from .schedule import Schedule

__all__ = [
    "ChainingTimes",
    "HeuristicModuloScheduler",
    "ModuloReservationTable",
    "Schedule",
    "alap_schedule",
    "asap_schedule",
    "minimum_ii",
    "rec_mii",
    "res_mii",
]
