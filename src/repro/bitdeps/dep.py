"""The per-bit DEP function of Sec. 3.1.

``DEP(out[j])`` returns which *operand bits* output bit ``j`` of an operation
depends on, as ``(operand_slot, bit_index)`` pairs:

* bitwise ops — one same-indexed bit per input (plus the select bit for MUX);
* shifts (constant amount) — a single re-indexed bit;
* arithmetic — a bit range (carry chains) or, for comparisons, every bit of
  both inputs;
* a **sign-test refinement**: a signed value compared against the
  constant 0 as ``x < 0`` or ``x >= 0`` (the zero is operand 1) depends
  only on its sign bit. This is exactly the "B >= 0 is testing whether
  the most significant bit is zero" observation the paper makes for node C
  of Figure 2. The mirrored ``0 < x`` and ``0 >= x`` also ask whether x is
  zero, so they read every bit of x.

Bits that fall outside an operand (shifted-in zeros, zero-extension) simply
produce no entries. Constants produce no entries either: a LUT absorbs
constant inputs into its truth table for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CutError
from ..ir.graph import CDFG
from ..ir.node import Node
from ..ir.types import OpClass, OpKind

__all__ = ["DepEntry", "dep_bits"]


@dataclass(frozen=True)
class DepEntry:
    """One bit-level dependence: output depends on ``operands[slot][bit]``."""

    slot: int
    bit: int


def _range_entries(slot: int, lo: int, hi: int, width: int) -> list[DepEntry]:
    hi = min(hi, width - 1)
    return [DepEntry(slot, b) for b in range(max(lo, 0), hi + 1)]


def _all_bits(slot: int, width: int) -> list[DepEntry]:
    return [DepEntry(slot, b) for b in range(width)]


def _is_const_zero(graph: CDFG, node: Node, slot: int) -> bool:
    src = graph.node(node.operands[slot].source)
    return src.kind is OpKind.CONST and src.value == 0


def dep_bits(graph: CDFG, node: Node, j: int) -> list[DepEntry]:
    """``DEP(node[j])`` — the operand bits that output bit ``j`` reads.

    ``graph`` is needed for operand widths and for constant-aware
    refinements. Raises :class:`CutError` for black-box operations (their
    internals are opaque; the enumerator must not ask).
    """
    kind = node.kind
    if node.op_class is OpClass.BLACKBOX:
        raise CutError(f"DEP undefined for black-box node {node.nid}")
    if kind in (OpKind.INPUT, OpKind.CONST):
        return []

    widths = [graph.node(op.source).width for op in node.operands]

    if kind is OpKind.OUTPUT:
        return [DepEntry(0, j)] if j < widths[0] else []

    # ---- bitwise class -------------------------------------------------
    if kind in (OpKind.AND, OpKind.OR, OpKind.XOR):
        out = []
        for slot in (0, 1):
            if j < widths[slot]:
                out.append(DepEntry(slot, j))
        return out
    if kind is OpKind.NOT:
        return [DepEntry(0, j)] if j < widths[0] else []
    if kind is OpKind.MUX:
        out = [DepEntry(0, 0)]
        for slot in (1, 2):
            if j < widths[slot]:
                out.append(DepEntry(slot, j))
        return out

    # ---- shift class ---------------------------------------------------
    if kind is OpKind.SHL:
        src_bit = j - node.amount
        return [DepEntry(0, src_bit)] if 0 <= src_bit < widths[0] else []
    if kind is OpKind.SHR:
        src_bit = j + node.amount
        return [DepEntry(0, src_bit)] if src_bit < widths[0] else []
    if kind in (OpKind.TRUNC, OpKind.ZEXT):
        return [DepEntry(0, j)] if j < widths[0] else []
    if kind is OpKind.SLICE:
        src_bit = j + node.amount
        return [DepEntry(0, src_bit)] if src_bit < widths[0] else []
    if kind is OpKind.CONCAT:
        if j < widths[0]:
            return [DepEntry(0, j)]
        return [DepEntry(1, j - widths[0])] if j - widths[0] < widths[1] else []

    # ---- arithmetic class ------------------------------------------------
    if kind in (OpKind.ADD, OpKind.SUB):
        return (_range_entries(0, 0, j, widths[0])
                + _range_entries(1, 0, j, widths[1]))
    if kind is OpKind.NEG:
        return _range_entries(0, 0, j, widths[0])
    if kind in (OpKind.SLT, OpKind.SGE):
        # Sign test ``x < 0`` / ``x >= 0``: only the sign bit matters.
        if _is_const_zero(graph, node, 1):
            return [DepEntry(0, widths[0] - 1)]
        return _all_bits(0, widths[0]) + _all_bits(1, widths[1])
    if kind in (OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.GE):
        # Unsigned compare against zero still reads every bit (OR-reduction),
        # except `x >= 0` / `x < 0` which are constant — left to the folder.
        return _all_bits(0, widths[0]) + _all_bits(1, widths[1])
    if kind in (OpKind.VSHL, OpKind.VSHR):
        if kind is OpKind.VSHL:
            data = _range_entries(0, 0, j, widths[0])
        else:
            data = _range_entries(0, j, widths[0] - 1, widths[0])
        return data + _all_bits(1, widths[1])

    raise CutError(f"DEP not defined for {kind.value}")  # pragma: no cover
