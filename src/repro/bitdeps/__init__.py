"""Bit-level dependence tracking on the word-level DFG (paper Sec. 3.1).

Exports the per-bit ``DEP`` function for every operation class, a
:class:`SupportCalculator` that computes from it, for a node and a boundary
set, which boundary *bits* each output bit transitively depends on, and
the :class:`PackedSupportCalculator` whose per-slot DEP term the cut
enumerator composes to decide K-feasibility at the word level.
"""

from .bitblast import BlastResult, bit_blast
from .dep import DepEntry, dep_bits
from .packed import PackedSupportCalculator, Rows
from .support import SupportCalculator, popcount

__all__ = [
    "BlastResult",
    "DepEntry",
    "PackedSupportCalculator",
    "Rows",
    "SupportCalculator",
    "bit_blast",
    "dep_bits",
    "popcount",
]
