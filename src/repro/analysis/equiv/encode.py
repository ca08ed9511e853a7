"""Word-level CDFG opcode encoders onto the AIG.

One function per concern: :func:`encode_node` lowers a single
:class:`~repro.ir.node.Node` to a bit vector (LSB-first list of AIG
literals) given already-encoded operand vectors, mirroring
:func:`repro.ir.semantics.eval_node` — the library's single source of
word-level truth — bit for bit. The construction mirrors
:mod:`repro.bitdeps.bitblast` where both exist (ripple carry adders,
borrow-chain comparators); the variable-shift barrel decoder and the
shift-add multiplier exist only here because bit-blasting refuses those
opcodes while the prover needs them.

Black-box operations with environment semantics (LOAD) or partial
semantics (DIV/MOD by zero) are *not* encoded: :func:`encode_node`
raises :class:`EncodeUnsupported` and the miter layer pairs the two
sides' instances through shared uninterpreted variables instead
(Ackermann-style, see :mod:`.machines`). STORE's value semantics (the
stored word) is exact and encoded here; its memory side effect is again
a pairing obligation.

Exhaustive ≤3-bit cross-checks against ``eval_node`` for every opcode
live in ``tests/test_equiv.py``.
"""

from __future__ import annotations

from typing import Sequence

from ...errors import ReproError
from ...ir.node import Node
from ...ir.semantics import mask
from ...ir.types import OpKind
from .aig import AIG, FALSE, TRUE, lit_not

__all__ = ["BitVec", "EncodeUnsupported", "const_bits", "adjust",
           "encode_node", "bits_to_int"]

#: A word as LSB-first AIG literals.
BitVec = list[int]

#: Opcodes the symbolic encoder refuses (paired as uninterpreted instead).
UNINTERPRETED_KINDS = frozenset({OpKind.LOAD, OpKind.DIV, OpKind.MOD})


class EncodeUnsupported(ReproError):
    """The opcode has no closed-form AIG encoding (memory/partial ops)."""


def const_bits(aig: AIG, value: int, width: int) -> BitVec:
    """The constant ``value`` as ``width`` literals."""
    value = mask(value, width)
    return [TRUE if (value >> j) & 1 else FALSE for j in range(width)]


def adjust(aig: AIG, bits: Sequence[int], width: int) -> BitVec:
    """Zero-extend or truncate to ``width`` (the ubiquitous ``mask``)."""
    out = list(bits[:width])
    out.extend([FALSE] * (width - len(out)))
    return out


def bits_to_int(bit_values: Sequence[int]) -> int:
    """Pack concrete 0/1 values (LSB first) into an int."""
    word = 0
    for j, bit in enumerate(bit_values):
        if bit:
            word |= 1 << j
    return word


# ----------------------------------------------------------------------
# Arithmetic helpers (ripple structures, shared by several opcodes).
# ----------------------------------------------------------------------

def _ripple_add(aig: AIG, a: BitVec, b: BitVec, carry: int) -> BitVec:
    """``a + b + carry`` over ``len(a)`` bits (full-adder chain)."""
    out: BitVec = []
    for j in range(len(a)):
        axb = aig.xor_(a[j], b[j])
        out.append(aig.xor_(axb, carry))
        carry = aig.or_(aig.and_(a[j], b[j]), aig.and_(axb, carry))
    return out


def _less_than(aig: AIG, a: BitVec, b: BitVec) -> int:
    """Unsigned ``a < b`` over equal-length vectors (LSB-first chain)."""
    lt = FALSE
    for j in range(len(a)):
        bit_lt = aig.and_(lit_not(a[j]), b[j])
        bit_eq = aig.xnor_(a[j], b[j])
        lt = aig.or_(bit_lt, aig.and_(bit_eq, lt))
    return lt


def _equals_const(aig: AIG, bits: BitVec, value: int) -> int:
    """``bits == value`` (value taken modulo the vector's range)."""
    if value >= (1 << len(bits)):
        return FALSE
    terms = []
    for j, bit in enumerate(bits):
        terms.append(bit if (value >> j) & 1 else lit_not(bit))
    return aig.and_many(terms)


def _sign_extend(aig: AIG, bits: BitVec, width: int) -> BitVec:
    """Sign-extend from the vector's own width (empty vectors stay zero)."""
    if not bits:
        return [FALSE] * width
    out = list(bits[:width])
    out.extend([bits[-1]] * (width - len(out)))
    return out


def _mux_word(aig: AIG, sel: int, if_true: BitVec, if_false: BitVec) -> BitVec:
    return [aig.mux(sel, t, f) for t, f in zip(if_true, if_false)]


# ----------------------------------------------------------------------
# The opcode dispatcher.
# ----------------------------------------------------------------------

def encode_node(aig: AIG, node: Node, args: Sequence[BitVec],
                widths: Sequence[int]) -> BitVec:
    """Lower one node; ``args[i]`` has exactly ``widths[i]`` literals.

    Returns ``node.width`` literals computing
    ``eval_node(node, args, widths)``. INPUT/CONST/LOAD/DIV/MOD are the
    caller's responsibility (fresh variables, constants, pairing).
    """
    kind = node.kind
    w = node.width

    if kind is OpKind.CONST:
        return const_bits(aig, int(node.value), w)
    if kind in (OpKind.OUTPUT, OpKind.TRUNC, OpKind.ZEXT):
        return adjust(aig, args[0], w)

    if kind is OpKind.AND:
        a, b = (adjust(aig, x, w) for x in args)
        return [aig.and_(a[j], b[j]) for j in range(w)]
    if kind is OpKind.OR:
        a, b = (adjust(aig, x, w) for x in args)
        return [aig.or_(a[j], b[j]) for j in range(w)]
    if kind is OpKind.XOR:
        a, b = (adjust(aig, x, w) for x in args)
        return [aig.xor_(a[j], b[j]) for j in range(w)]
    if kind is OpKind.NOT:
        a = adjust(aig, args[0], w)
        return [lit_not(a[j]) for j in range(w)]
    if kind is OpKind.MUX:
        sel = args[0][0] if args[0] else FALSE
        return _mux_word(aig, sel, adjust(aig, args[1], w),
                         adjust(aig, args[2], w))

    if kind in (OpKind.SHL, OpKind.SHR, OpKind.SLICE):
        amount = int(node.amount or 0)
        src = args[0]
        out: BitVec = []
        for j in range(w):
            k = j - amount if kind is OpKind.SHL else j + amount
            out.append(src[k] if 0 <= k < len(src) else FALSE)
        return out
    if kind is OpKind.CONCAT:
        lo, hi = args
        full = list(lo) + list(hi)
        return adjust(aig, full, w)

    if kind is OpKind.ADD:
        a, b = (adjust(aig, x, w) for x in args)
        return _ripple_add(aig, a, b, FALSE)
    if kind is OpKind.SUB:
        a, b = (adjust(aig, x, w) for x in args)
        return _ripple_add(aig, a, [lit_not(bit) for bit in b], TRUE)
    if kind is OpKind.NEG:
        a = adjust(aig, args[0], w)
        return _ripple_add(aig, [FALSE] * w, [lit_not(bit) for bit in a],
                           TRUE)

    if kind in (OpKind.EQ, OpKind.NE):
        n = max(widths[0], widths[1], 1)
        a, b = (adjust(aig, x, n) for x in args)
        eq = aig.and_many(aig.xnor_(a[j], b[j]) for j in range(n))
        bit = eq if kind is OpKind.EQ else lit_not(eq)
        return adjust(aig, [bit], w)
    if kind in (OpKind.LT, OpKind.GE):
        n = max(widths[0], widths[1], 1)
        a, b = (adjust(aig, x, n) for x in args)
        lt = _less_than(aig, a, b)
        bit = lt if kind is OpKind.LT else lit_not(lt)
        return adjust(aig, [bit], w)
    if kind in (OpKind.SLT, OpKind.SGE):
        n = max(widths[0], widths[1], 1)
        a = _sign_extend(aig, list(args[0]), n)
        b = _sign_extend(aig, list(args[1]), n)
        # Flipping the sign bit maps two's-complement order onto the
        # unsigned order (offset-binary trick).
        a[n - 1] = lit_not(a[n - 1])
        b[n - 1] = lit_not(b[n - 1])
        lt = _less_than(aig, a, b)
        bit = lt if kind is OpKind.SLT else lit_not(lt)
        return adjust(aig, [bit], w)

    if kind in (OpKind.VSHL, OpKind.VSHR):
        return _barrel_shift(aig, node, args, w)

    if kind is OpKind.MUL:
        a = adjust(aig, args[0], w)
        b = list(args[1])
        acc = [FALSE] * w
        for j in range(min(len(b), w)):
            partial = _mux_word(
                aig, b[j],
                [FALSE] * j + a[: w - j],
                [FALSE] * w)
            acc = _ripple_add(aig, acc, partial, FALSE)
        return acc
    if kind is OpKind.STORE:
        # Value semantics only: a STORE evaluates to the stored word.
        return adjust(aig, args[1], w)

    raise EncodeUnsupported(
        f"node {node.nid}: {kind.value} has no closed-form AIG encoding")


def _barrel_shift(aig: AIG, node: Node, args: Sequence[BitVec],
                  w: int) -> BitVec:
    """VSHL/VSHR with the ``min(amount, width)`` clamp of ``eval_node``.

    A one-hot decode of the amount selects among ``w`` constant shifts;
    amounts ``>= w`` clamp to exactly ``w`` (zero for VSHL; a possibly
    non-zero residue for VSHR when the operand is wider than the node).
    """
    src = list(args[0])
    amt = list(args[1])
    left = node.kind is OpKind.VSHL

    def shifted(s: int) -> BitVec:
        out: BitVec = []
        for j in range(w):
            k = j - s if left else j + s
            out.append(src[k] if 0 <= k < len(src) else FALSE)
        return out

    any_small = FALSE
    acc = [FALSE] * w
    for s in range(w):
        if s >= (1 << len(amt)):
            break
        eq = _equals_const(aig, amt, s)
        any_small = aig.or_(any_small, eq)
        term = shifted(s)
        acc = [aig.or_(acc[j], aig.and_(eq, term[j])) for j in range(w)]
    # amount >= w: clamp to a shift of exactly w.
    clamp = shifted(w)
    ge_w = lit_not(any_small)
    return [aig.or_(acc[j], aig.and_(ge_w, clamp[j])) for j in range(w)]
