"""Abstract transfer functions for every opcode in ``ir/semantics.py``.

:func:`transfer` is the abstract counterpart of
:func:`repro.ir.semantics.eval_node`: given the :class:`Facts` of a node's
operands (at their *source* widths), it returns the Facts of the node's
value (at the node's declared width). The contract mirrors the concrete
semantics exactly — values are unsigned words, results are truncated to
the node width, signedness is applied locally where an operation requires
it — so soundness can be checked differentially against the simulator.

Width conventions follow :mod:`repro.bitdeps`: operand values live in
``[0, 2**source_width)`` (bits above a source's width are proven zero),
and consuming an operand at a different width is plain zero-extension or
truncation of the value.
"""

from __future__ import annotations

from typing import Sequence

from ...errors import AnalysisError
from ...ir.node import Node
from ...ir.types import OpKind
from .domains import Facts, Interval, KnownBits, reduce_facts

__all__ = ["transfer"]


def _mask(width: int) -> int:
    return (1 << width) - 1


def _wrap_interval(lo: int, hi: int, width: int) -> Interval:
    """The interval of ``value mod 2**width`` for ``value`` in ``[lo, hi]``.

    Exact when the input range stays on one ``2**width`` page; otherwise
    the wrap splits the range and we return top (this domain does not
    represent wrapped intervals).
    """
    size = 1 << width
    if hi - lo >= size:
        return Interval.top(width)
    if lo // size == hi // size:
        return Interval(width, lo % size, hi % size)
    return Interval.top(width)


def _facts(bits: KnownBits, interval: Interval) -> Facts:
    return reduce_facts(bits, interval)


# ----------------------------------------------------------------------
# Known-bits kernels
# ----------------------------------------------------------------------

def _kb_not(a: KnownBits) -> KnownBits:
    return KnownBits(a.width, a.zeros, a.unknown)


def _kb_add(a: KnownBits, b: KnownBits, carry_zero: bool,
            carry_one: bool) -> KnownBits:
    """Known bits of ``a + b + carry`` (mod ``2**width``).

    The ripple argument (after LLVM's ``KnownBits::computeForAddCarry``):
    the all-unknowns-high sum and all-unknowns-low sum bound the carry
    chain, and a result bit is known only where both operands and the
    incoming carry are known.
    """
    width = a.width
    m = _mask(width)
    possible_sum_one = a.min_value + b.min_value + (1 if carry_one else 0)
    possible_sum_zero = a.max_value + b.max_value + (0 if carry_zero else 1)
    carry_known_zero = ~(possible_sum_zero ^ a.zeros ^ b.zeros)
    carry_known_one = possible_sum_one ^ a.ones ^ b.ones
    known = (
        (a.zeros | a.ones) & (b.zeros | b.ones)
        & (carry_known_zero | carry_known_one)
    )
    ones = possible_sum_one & known & m
    zeros = ~possible_sum_zero & known & m
    return KnownBits(width, ones, m & ~(ones | zeros))


def _kb_trailing_zeros(a: KnownBits) -> int:
    """Number of low bits proven zero."""
    live = a.ones | a.unknown
    if live == 0:
        return a.width
    return (live & -live).bit_length() - 1


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------

def _bool_facts(width: int, outcome: int | None) -> Facts:
    """Facts for a 1-bit predicate held in a ``width``-bit node."""
    if outcome is not None:
        return Facts.const(outcome & 1, width)
    return Facts(KnownBits(width, 0, 1), Interval(width, 0, 1))


def _eq_outcome(a: Facts, b: Facts) -> int | None:
    ca, cb = a.constant_value, b.constant_value
    if ca is not None and cb is not None:
        return int(ca == cb)
    w = max(a.width, b.width)
    ba, bb = a.bits.resize(w), b.bits.resize(w)
    if (ba.ones & bb.zeros) or (bb.ones & ba.zeros):
        return 0  # some bit is known to differ
    if a.range.hi < b.range.lo or b.range.hi < a.range.lo:
        return 0  # ranges are disjoint
    return None


def _ult_outcome(a: Facts, b: Facts) -> int | None:
    if a.range.hi < b.range.lo:
        return 1
    if a.range.lo >= b.range.hi:
        return 0
    return None


def _slt_outcome(a: Facts, b: Facts) -> int | None:
    a_min, a_max = a.range.signed_bounds()
    b_min, b_max = b.range.signed_bounds()
    if a_max < b_min:
        return 1
    if a_min >= b_max:
        return 0
    return None


def _negate(outcome: int | None) -> int | None:
    return None if outcome is None else 1 - outcome


# ----------------------------------------------------------------------
# The transfer function
# ----------------------------------------------------------------------

def transfer(node: Node, args: Sequence[Facts]) -> Facts:
    """Abstract evaluation of ``node`` over its operands' :class:`Facts`.

    ``args[i]`` is the fact for operand ``i`` at its source's width.
    Returns the fact of the node's value at ``node.width``. Sound for
    every opcode the concrete semantics defines; LOAD goes to top (memory
    contents are unknown) and STORE abstracts its forwarded value.
    """
    kind = node.kind
    w = node.width
    m = _mask(w)

    if kind is OpKind.CONST:
        return Facts.const(int(node.value), w)
    if kind is OpKind.INPUT:
        return Facts.top(w)
    if kind in (OpKind.OUTPUT, OpKind.TRUNC, OpKind.ZEXT):
        return args[0].resize(w)
    if kind is OpKind.STORE:
        return args[1].resize(w)
    if kind is OpKind.LOAD:
        return Facts.top(w)

    if kind in (OpKind.AND, OpKind.OR, OpKind.XOR):
        a, b = args[0].resize(w), args[1].resize(w)
        ka, kb = a.bits, b.bits
        if kind is OpKind.AND:
            ones = ka.ones & kb.ones
            zeros = ka.zeros | kb.zeros
            interval = Interval(w, 0, min(a.range.hi, b.range.hi))
        elif kind is OpKind.OR:
            ones = ka.ones | kb.ones
            zeros = ka.zeros & kb.zeros
            interval = Interval(w, max(a.range.lo, b.range.lo), m)
        else:  # XOR
            known = (ka.ones | ka.zeros) & (kb.ones | kb.zeros)
            ones = (ka.ones ^ kb.ones) & known
            zeros = known & ~ones & m
            interval = Interval.top(w)
        return _facts(KnownBits(w, ones, m & ~(ones | zeros)), interval)

    if kind is OpKind.NOT:
        a = args[0].resize(w)
        bits = _kb_not(a.bits)
        interval = Interval(w, m - a.range.hi, m - a.range.lo)
        return _facts(bits, interval)

    if kind is OpKind.MUX:
        sel = args[0].bits.bit(0)
        if sel == 1:
            return args[1].resize(w)
        if sel == 0:
            return args[2].resize(w)
        return args[1].resize(w).join(args[2].resize(w))

    if kind is OpKind.SHL:
        a = args[0]
        bits = KnownBits(w, (a.bits.ones << node.amount) & m,
                         (a.bits.unknown << node.amount) & m)
        interval = _wrap_interval(a.range.lo << node.amount,
                                  a.range.hi << node.amount, w)
        return _facts(bits, interval)

    if kind in (OpKind.SHR, OpKind.SLICE):
        a = args[0]
        bits = KnownBits(w, (a.bits.ones >> node.amount) & m,
                         (a.bits.unknown >> node.amount) & m)
        interval = _wrap_interval(a.range.lo >> node.amount,
                                  a.range.hi >> node.amount, w)
        return _facts(bits, interval)

    if kind is OpKind.CONCAT:
        lo, hi = args[0], args[1]
        shift = lo.width  # the *source* width positions the high part
        bits = KnownBits(w, (lo.bits.ones | (hi.bits.ones << shift)) & m,
                         (lo.bits.unknown | (hi.bits.unknown << shift)) & m)
        interval = _wrap_interval(lo.range.lo + (hi.range.lo << shift),
                                  lo.range.hi + (hi.range.hi << shift), w)
        return _facts(bits, interval)

    if kind in (OpKind.ADD, OpKind.SUB, OpKind.NEG):
        if kind is OpKind.ADD:
            a, b = args[0].resize(w), args[1].resize(w)
            bits = _kb_add(a.bits, b.bits, carry_zero=True, carry_one=False)
            interval = _wrap_interval(a.range.lo + b.range.lo,
                                      a.range.hi + b.range.hi, w)
        else:
            if kind is OpKind.NEG:
                a, b = Facts.const(0, w), args[0].resize(w)
            else:
                a, b = args[0].resize(w), args[1].resize(w)
            # a - b  ==  a + ~b + 1 (two's complement).
            bits = _kb_add(a.bits, _kb_not(b.bits),
                           carry_zero=False, carry_one=True)
            interval = _wrap_interval(a.range.lo - b.range.hi,
                                      a.range.hi - b.range.lo, w)
        return _facts(bits, interval)

    if kind in (OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.GE,
                OpKind.SLT, OpKind.SGE):
        a, b = args[0], args[1]
        if kind is OpKind.EQ:
            outcome = _eq_outcome(a, b)
        elif kind is OpKind.NE:
            outcome = _negate(_eq_outcome(a, b))
        elif kind is OpKind.LT:
            outcome = _ult_outcome(a, b)
        elif kind is OpKind.GE:
            outcome = _negate(_ult_outcome(a, b))
        elif kind is OpKind.SLT:
            outcome = _slt_outcome(a, b)
        else:  # SGE
            outcome = _negate(_slt_outcome(a, b))
        return _bool_facts(w, outcome)

    if kind in (OpKind.VSHL, OpKind.VSHR):
        a, amt = args[0], args[1]
        amt_const = amt.constant_value
        if amt_const is not None:
            s = min(amt_const, w)
            if kind is OpKind.VSHL:
                bits = KnownBits(w, (a.bits.ones << s) & m,
                                 (a.bits.unknown << s) & m)
                interval = _wrap_interval(a.range.lo << s, a.range.hi << s, w)
            else:
                bits = KnownBits(w, (a.bits.ones >> s) & m,
                                 (a.bits.unknown >> s) & m)
                interval = _wrap_interval(a.range.lo >> s, a.range.hi >> s, w)
            return _facts(bits, interval)
        if kind is OpKind.VSHR:
            # Shifting right never grows the value; the largest result
            # uses the smallest shift amount (capped at w by semantics).
            s_min = min(amt.range.lo, w)
            hi = a.range.hi >> s_min
            interval = _wrap_interval(0, hi, w)
            return _facts(KnownBits.top(w), interval)
        # VSHL: trailing zeros survive a left shift; the smallest
        # possible amount bounds the guaranteed run from below.
        tz = min(_kb_trailing_zeros(a.bits) + min(amt.range.lo, w), w)
        if a.constant_value == 0:
            return Facts.const(0, w)
        bits = KnownBits(w, 0, m & ~_mask(tz))
        return _facts(bits, Interval.top(w))

    if kind is OpKind.MUL:
        a, b = args[0], args[1]
        interval = _wrap_interval(a.range.lo * b.range.lo,
                                  a.range.hi * b.range.hi, w)
        tz = min(_kb_trailing_zeros(a.bits) + _kb_trailing_zeros(b.bits), w)
        bits = KnownBits(w, 0, m & ~_mask(tz))
        ca, cb = a.constant_value, b.constant_value
        if ca is not None and cb is not None:
            return Facts.const(ca * cb, w)
        return _facts(bits, interval)

    if kind in (OpKind.DIV, OpKind.MOD):
        a, b = args[0], args[1]
        # Division by zero raises in the concrete semantics — it produces
        # no value, so abstracting only the b >= 1 executions is sound.
        b_lo = max(b.range.lo, 1)
        b_hi = max(b.range.hi, 1)
        if kind is OpKind.DIV:
            interval = _wrap_interval(a.range.lo // b_hi,
                                      a.range.hi // b_lo, w)
        else:
            interval = _wrap_interval(0, min(a.range.hi, b_hi - 1), w)
        return _facts(KnownBits.top(w), interval)

    raise AnalysisError(
        f"no abstract transfer for {kind.value} node {node.nid}"
    )  # pragma: no cover - every OpKind is handled above
