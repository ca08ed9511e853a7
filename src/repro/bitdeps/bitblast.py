"""Bit-level decomposition of a word-level CDFG.

Sec. 3.1 motivates word-level cut enumeration by noting that the intuitive
alternative — "break down the word-level DFG into a bit-level graph and use
a traditional method" — "would generate an enormous number of cuts and make
an MILP approach intractable". This module implements that alternative so
the claim can be measured (see the bit-blast ablation): every word-level
operation is expanded into single-bit logic (ripple-carry adders, borrow
chains for comparisons, per-bit muxes), producing a plain boolean network
whose cut count can be compared against the word-level enumerator's.

Black-box operations are kept as opaque word-level nodes (they are never
LUT-mapped); their operand edges connect to the blasted bit producers via
CONCAT packing.
"""

from __future__ import annotations

from ..errors import IRError
from ..ir.builder import DFGBuilder, Value
from ..ir.graph import CDFG
from ..ir.types import OpKind

__all__ = ["bit_blast", "BlastResult"]


class BlastResult:
    """Bit-level graph plus the word-to-bits correspondence."""

    def __init__(self, graph: CDFG, bit_ids: dict[int, list[int | None]]) -> None:
        self.graph = graph
        #: word node id -> blasted node ids per bit (LSB first; None when the
        #: bit was optimized away as dead, e.g. a ripple adder's final carry)
        self.bit_ids = bit_ids

    @property
    def num_bit_ops(self) -> int:
        """Operation count of the blasted network."""
        return self.graph.num_operations


def _full_adder(b: DFGBuilder, x: Value, y: Value, cin: Value
                ) -> tuple[Value, Value]:
    s = (x ^ y) ^ cin
    carry = (x & y) | (cin & (x ^ y))
    return s, carry


def bit_blast(graph: CDFG) -> BlastResult:
    """Expand ``graph`` into single-bit logic.

    Loop-carried distances are preserved on the first bit-level edge of
    each recurrence path (each blasted bit of a registered value reads the
    corresponding producer bit at the original distance).
    """
    b = DFGBuilder(graph.name + "_bits", width=1)
    bits: dict[int, list[Value]] = {}
    deferred: list[tuple[int, int, int, int]] = []  # (consumer placeholder...)

    def zeros(n: int) -> list[Value]:
        return [b.const(0, 1) for _ in range(n)]

    def bit_of(nid: int, j: int, distance: int = 0) -> Value:
        """Bit j of word-level node nid; distance > 0 reads the registered
        copy via a 1-bit recurrence placeholder."""
        if distance == 0:
            vals = bits[nid]
            return vals[j] if j < len(vals) else b.const(0, 1)
        key = (nid, j, distance)
        if key not in reg_cache:
            reg = b.recurrence(f"r{nid}_{j}_{distance}", width=1,
                               initial=(int(graph.node(nid).attrs.get(
                                   "initial", 0)) >> j) & 1)
            reg_cache[key] = reg
            pending_regs.append((reg, nid, j, distance))
        return reg_cache[key]

    reg_cache: dict[tuple[int, int, int], Value] = {}
    pending_regs: list[tuple[Value, int, int, int]] = []

    for nid in graph.topological_order():
        node = graph.node(nid)
        kind = node.kind
        w = node.width

        def op_bits(slot: int) -> list[Value]:
            op = node.operands[slot]
            src_w = graph.node(op.source).width
            return [bit_of(op.source, j, op.distance) for j in range(src_w)]

        if kind is OpKind.INPUT:
            word = b.input(node.name or f"in{nid}", w)
            bits[nid] = [word.bit(j) for j in range(w)]
            continue
        if kind is OpKind.CONST:
            bits[nid] = [b.const((node.value >> j) & 1, 1) for j in range(w)]
            continue
        if kind is OpKind.OUTPUT:
            src = node.operands[0]
            vals = [bit_of(src.source, j, src.distance) for j in range(w)]
            word = vals[0]
            for v in vals[1:]:
                word = b.concat(v, word)
            b.output(word, node.name or f"out{nid}")
            bits[nid] = vals
            continue
        if node.is_blackbox:
            # Keep opaque: repack operand bits into words, instantiate the
            # original operation.
            words = []
            for slot, op in enumerate(node.operands):
                vals = op_bits(slot)
                word = vals[0]
                for v in vals[1:]:
                    word = b.concat(v, word)
                words.append(word)
            bb = b.blackbox(kind, *words, width=w, rclass=node.rclass,
                            delay=node.delay_override, name=node.name)
            bits[nid] = [bb.bit(j) for j in range(w)]
            continue

        if kind in (OpKind.AND, OpKind.OR, OpKind.XOR):
            a = op_bits(0)
            c = op_bits(1)
            out = []
            for j in range(w):
                x = a[j] if j < len(a) else b.const(0, 1)
                y = c[j] if j < len(c) else b.const(0, 1)
                out.append({OpKind.AND: x.__and__, OpKind.OR: x.__or__,
                            OpKind.XOR: x.__xor__}[kind](y))
            bits[nid] = out
        elif kind is OpKind.NOT:
            a = op_bits(0)
            bits[nid] = [~a[j] if j < len(a) else b.const(1, 1)
                         for j in range(w)]
        elif kind is OpKind.MUX:
            sel = bit_of(node.operands[0].source, 0, node.operands[0].distance)
            a = op_bits(1)
            c = op_bits(2)
            bits[nid] = [
                b.mux(sel,
                      a[j] if j < len(a) else b.const(0, 1),
                      c[j] if j < len(c) else b.const(0, 1))
                for j in range(w)
            ]
        elif kind in (OpKind.SHL, OpKind.SHR, OpKind.SLICE,
                      OpKind.TRUNC, OpKind.ZEXT):
            a = op_bits(0)
            out = []
            for j in range(w):
                if kind is OpKind.SHL:
                    src = j - node.amount
                elif kind in (OpKind.SHR, OpKind.SLICE):
                    src = j + (node.amount or 0)
                else:
                    src = j
                out.append(a[src] if 0 <= src < len(a) else b.const(0, 1))
            bits[nid] = out
        elif kind is OpKind.CONCAT:
            lo = op_bits(0)
            hi = op_bits(1)
            bits[nid] = (lo + hi)[:w]
        elif kind in (OpKind.ADD, OpKind.SUB, OpKind.NEG):
            a = op_bits(0)
            if kind is OpKind.NEG:
                # -a = ~a + 1 (ripple increment of the complement)
                inverted = [~(a[j] if j < len(a) else b.const(0, 1))
                            for j in range(w)]
                carry = b.const(1, 1)
                zero = b.const(0, 1)
                out = []
                for j in range(w):
                    s, carry = _full_adder(b, inverted[j], zero, carry)
                    out.append(s)
                bits[nid] = out
            else:
                c = op_bits(1)
                if kind is OpKind.SUB:
                    c = [~(c[j] if j < len(c) else b.const(0, 1))
                         for j in range(w)]
                    carry = b.const(1, 1)
                else:
                    c = [c[j] if j < len(c) else b.const(0, 1)
                         for j in range(w)]
                    carry = b.const(0, 1)
                a = [a[j] if j < len(a) else b.const(0, 1) for j in range(w)]
                out = []
                for j in range(w):
                    s, carry = _full_adder(b, a[j], c[j], carry)
                    out.append(s)
                bits[nid] = out
        elif kind in (OpKind.EQ, OpKind.NE):
            a = op_bits(0)
            c = op_bits(1)
            n = max(len(a), len(c))
            diff = None
            for j in range(n):
                x = a[j] if j < len(a) else b.const(0, 1)
                y = c[j] if j < len(c) else b.const(0, 1)
                d = x ^ y
                diff = d if diff is None else (diff | d)
            result = ~diff if kind is OpKind.EQ else diff
            bits[nid] = [result]
        elif kind in (OpKind.LT, OpKind.GE, OpKind.SLT, OpKind.SGE):
            signed = kind in (OpKind.SLT, OpKind.SGE)
            a = op_bits(0)
            c = op_bits(1)
            n = max(len(a), len(c))

            def pad(v: list[Value]) -> list[Value]:
                # Each operand extends from its own width: a signed one
                # with its MSB, an unsigned one with zeros.
                return v + [v[-1] if signed else b.const(0, 1)
                            for _ in range(n - len(v))]

            a = pad(a)
            c = pad(c)
            if signed:
                # flip sign bits: signed compare == unsigned on biased values
                a[n - 1] = ~a[n - 1]
                c[n - 1] = ~c[n - 1]
            lt = b.const(0, 1)
            for j in range(n):  # LSB-first borrow propagation
                eq = ~(a[j] ^ c[j])
                lt = (~a[j] & c[j]) | (eq & lt)
            result = lt if kind in (OpKind.LT, OpKind.SLT) else ~lt
            bits[nid] = [result]
        else:
            raise IRError(f"bit_blast does not support {kind.value}")

    # Close the 1-bit recurrences created for loop-carried reads. Producers
    # are wrapped in private zero-cost buffers (ZEXT is free wiring) so
    # shared bit producers — deduplicated constants in particular — never
    # collide on their per-recurrence initial values.
    for reg, nid, j, distance in pending_regs:
        buffer = b.op(OpKind.ZEXT, bits[nid][j], width=1)
        buffer.feed(reg, distance=distance)

    # Ripple chains leave dead tails (e.g. the final carry); drop them.
    from ..ir.transforms import eliminate_dead_code

    if b._pending_recurrences:
        raise IRError("bit_blast left unclosed recurrences")
    blasted, mapping = eliminate_dead_code(b.graph)
    bit_ids = {
        nid: [mapping.get(v.nid) for v in vals]
        for nid, vals in bits.items()
    }
    return BlastResult(blasted, bit_ids)
