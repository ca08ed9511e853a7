"""Functional and cycle-accurate simulation of kernels and schedules."""

from .functional import FunctionalSimulator, SimEnvironment
from .pipeline import PipelineSimulator, replay_equivalent

__all__ = [
    "FunctionalSimulator",
    "PipelineSimulator",
    "SimEnvironment",
    "replay_equivalent",
]
