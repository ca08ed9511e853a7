"""Operation area characterization (LUT counts).

Like delays, area has two views: the paper's MILP objective charges
``Bits(v)`` LUTs per selected root (Eq. 15); the refined view used by both
the MILP objective weights and the hardware cost model additionally
recognizes free wiring (pure bit re-indexing), constant bits, and operator
(carry-chain / barrel / black-box) implementations. The same model is
applied to every flow, so relative comparisons are fair.
"""

from __future__ import annotations

import math

from ..cuts.cut import Cut
from ..ir.graph import CDFG
from ..ir.node import Node
from ..ir.types import OpClass, OpKind
from .delay import DelayModel
from .device import Device

__all__ = ["AreaModel"]


class AreaModel:
    """Maps (node, implementation) to a LUT count."""

    def __init__(self, device: Device, graph: CDFG) -> None:
        self.device = device
        self.graph = graph
        self._delay = DelayModel(device, graph)

    def paper_lut_cost(self, node: Node) -> int:
        """The paper's Eq. 15 cost: ``Bits(v)`` for any selected root."""
        return node.width

    def cut_lut_cost(self, node: Node, cut: Cut) -> int:
        """Refined LUT count of ``node`` implemented by ``cut``."""
        if node.op_class in (OpClass.BOUNDARY, OpClass.BLACKBOX):
            return 0
        if cut.is_unit and not cut.feasible(self.device.k):
            return self.operator_lut_cost(node)
        if self._delay.is_free_wiring(node, cut):
            return 0
        # One K-LUT per output bit that actually computes a function of at
        # least one variable; constant bits are free.
        return sum(1 for size in cut.support if size)

    def operator_lut_cost(self, node: Node) -> int:
        """LUT count of ``node`` as a standalone (non-cone) operator."""
        kind = node.kind
        if node.op_class in (OpClass.BOUNDARY, OpClass.BLACKBOX):
            return 0
        if node.op_class is OpClass.SHIFT or node.attrs.get("recurrence"):
            return 0
        if node.op_class is OpClass.BITWISE:
            return node.width
        if kind in (OpKind.ADD, OpKind.SUB, OpKind.NEG):
            return node.width  # one LUT + carry element per bit
        if kind in (OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.GE,
                    OpKind.SLT, OpKind.SGE):
            width = max(self.graph.node(op.source).width for op in node.operands)
            # A tree comparator packs ~ (K-2) bit-pairs per LUT level.
            return max(1, math.ceil(width / max(2, self.device.k - 2)))
        if kind in (OpKind.VSHL, OpKind.VSHR):
            levels = self._delay._barrel_levels(node.width)
            return node.width * levels
        raise AssertionError(f"unhandled kind {kind}")  # pragma: no cover

    def register_bits(self, node: Node) -> int:
        """FF cost of keeping ``node``'s value live for one extra cycle."""
        return node.width
