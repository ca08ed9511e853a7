"""Packed-bitmask support kernels.

The reference :class:`~repro.bitdeps.support.SupportCalculator` represents a
per-bit support set as a Python big int and applies DEP one output bit at a
time. This module keeps the exact same global bit numbering but packs every
mask into a row of ``uint64`` words, so the supports of all output bits of a
node form one ``(width, words)`` ndarray (:class:`Rows`).

The one DEP kernel is :meth:`PackedSupportCalculator.term`: what one
operand slot adds to the support of every output bit of a node, as a
handful of whole-matrix ufunc calls per op class:

* bitwise class, shifts, SLICE, CONCAT — row re-indexing (pure slicing);
* ADD/SUB/NEG — a prefix-OR (``np.bitwise_or.accumulate``) indexed by
  ``min(j, w-1)``, the carry-chain ranges of Sec. 3.1 in one shot;
* comparisons — an OR-reduction broadcast to every output bit, with the
  sign-test refinement of ``x < 0`` / ``x >= 0`` preserved bit for bit;
* VSHL/VSHR — prefix/suffix OR of the data operand plus the reduced amount
  operand.

Sec. 3.1's DEP reads each operand slot independently and Algorithm 1
composes supports by OR, so a node's support given rows for several
slots is :func:`or_rows` of their terms (:meth:`transfer`), and
:func:`max_support_product` K-filters every merge combination of a node
in one batched popcount.

A :class:`Rows` stores only its **word window**: ``mat[:, i]`` is global
word ``lo + i``, and every word outside the window is zero. A term lives
on its operand's window, so cost tracks the span of the set bits (like
the reference big ints, which only pay for words up to their top set
bit) rather than the global bit space (626 words on XORR1251, where a
term's window averages 92). :func:`or_rows` and
:func:`max_support_product` are the only places windows are aligned.

Word order is little-endian, so ``int.from_bytes(row.tobytes(), "little")
<< 64 * lo`` reproduces the reference Python-int mask exactly;
tests/test_bitdeps.py pins this for every op class against
``SupportCalculator.supports``. Popcounts use ``np.bitwise_count`` when
the installed numpy has it (>= 2.0) and a uint8 lookup table otherwise.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from ..errors import CutError
from ..ir.graph import CDFG
from ..ir.node import Node
from ..ir.types import OpClass, OpKind
from .dep import _is_const_zero

__all__ = [
    "Rows",
    "PackedSupportCalculator",
    "popcount_rows",
    "max_support_product",
    "or_rows",
    "rows_to_ints",
]

_U64 = np.dtype("<u8")

# uint8 popcount lookup table; fallback for numpy < 2.0 (no np.bitwise_count).
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_BITWISE_COUNT = getattr(np, "bitwise_count", None)

# uint64 words per OR block of max_support_product (2 MiB): every merge
# product of the nine Table 1 designs fits in one block, and a capped
# product (up to max_candidates combinations, each a (width, words)
# matrix over a wide cone) never materializes at once.
_BLOCK_WORDS = 1 << 18

# Same-indexed operations: output bit j reads bit j of every operand slot
# (MUX only through its data slots 1 and 2).
_SAME_INDEX = frozenset({OpKind.OUTPUT, OpKind.NOT, OpKind.TRUNC,
                         OpKind.ZEXT, OpKind.AND, OpKind.OR, OpKind.XOR})


class Rows:
    """A packed ``(n, words)`` uint64 matrix over one word window.

    ``mat[:, i]`` is global word ``lo + i``; every word outside the window
    ``[lo, hi)`` is zero. An empty window (no words) means no support.
    """

    __slots__ = ("mat", "lo")

    def __init__(self, mat: np.ndarray, lo: int) -> None:
        self.mat = mat
        self.lo = lo

    @property
    def hi(self) -> int:
        return self.lo + self.mat.shape[1]

    @property
    def empty(self) -> bool:
        return self.mat.shape[1] == 0


def _no_support(width: int) -> Rows:
    return Rows(np.zeros((width, 0), dtype=_U64), 0)


def _row_counts(mat: np.ndarray) -> np.ndarray:
    """Set bits per row (the last axis) of a uint64 array of any rank."""
    if _BITWISE_COUNT is not None:
        return _BITWISE_COUNT(mat).sum(axis=-1, dtype=np.int64)
    as_bytes = np.ascontiguousarray(mat).view(np.uint8)
    return _POP8[as_bytes].sum(axis=-1, dtype=np.int64)


def popcount_rows(rows: Rows) -> np.ndarray:
    """Per-row set-bit counts of a packed matrix."""
    return _row_counts(rows.mat)


def _aligned(rows: Sequence[Rows], lo: int, hi: int,
             bits: slice = slice(None)) -> np.ndarray:
    """The ``bits`` rows of each of ``rows`` on the common window
    ``[lo, hi)``, stacked into one ``(len(rows), bits, hi - lo)`` array."""
    n = rows[0].mat[bits].shape[0]
    out = np.zeros((len(rows), n, hi - lo), dtype=_U64)
    for i, r in enumerate(rows):
        if not r.empty:
            out[i, :, r.lo - lo:r.hi - lo] = r.mat[bits]
    return out


def or_rows(terms: Sequence[Rows], width: int) -> Rows:
    """OR of ``width``-row matrices on the hull of their windows.

    Empty terms add nothing; a lone non-empty term is returned as is, and
    none at all gives an empty window.
    """
    live = [t for t in terms if not t.empty]
    if not live:
        return _no_support(width)
    if len(live) == 1:
        return live[0]
    lo = min(t.lo for t in live)
    hi = max(t.hi for t in live)
    return Rows(np.bitwise_or.reduce(_aligned(live, lo, hi), axis=0), lo)


def max_support_product(terms: Sequence[Sequence[Rows]]) -> np.ndarray:
    """Largest row popcount of the OR of every pick of one term per slot.

    ``terms[i]`` holds the terms of slot ``i``'s choices, all matrices
    with the node's width. Returns one int64 per combination, flat in
    ``itertools.product`` order; with no slots the product is the one
    empty combination, whose support is 0. The OR is broadcast across
    slots in blocks of at most ``_BLOCK_WORDS`` words, or of one output
    bit of one combination when that alone is larger.
    """
    best = np.zeros(math.prod(len(t) for t in terms), dtype=np.int64)
    live = [r for t in terms for r in t if not r.empty]
    if not live:
        return best
    lo = min(r.lo for r in live)
    hi = max(r.hi for r in live)
    width = live[0].mat.shape[0]
    step = min(width, max(1, _BLOCK_WORDS // (hi - lo)))
    for r0 in range(0, width, step):
        bits = slice(r0, r0 + step)
        _fold_best_support(best, None, [_aligned(t, lo, hi, bits)
                                        for t in terms])
    return best


def _fold_best_support(best: np.ndarray, prefix: np.ndarray | None,
                       stacks: list[np.ndarray]) -> None:
    """Fold into ``best`` the max row popcount of ``prefix`` ORed with
    every pick of one ``(rows, words)`` matrix per stack, in product order."""
    head, rest = stacks[0], stacks[1:]
    inner = math.prod(len(s) for s in rest)
    unit = inner * head[0].size
    if rest and unit > _BLOCK_WORDS:
        for c in range(len(head)):
            term = head[c] if prefix is None else prefix | head[c]
            _fold_best_support(best[c * inner:(c + 1) * inner], term, rest)
        return
    step = max(1, _BLOCK_WORDS // unit)
    for a in range(0, len(head), step):
        block = head[a:a + step]
        if prefix is not None:
            block = block | prefix
        for s in rest:
            block = block[..., None, :, :] | s
        counts = _row_counts(block).max(axis=-1).ravel()
        view = best[a * inner:a * inner + counts.size]
        np.maximum(view, counts, out=view)


def rows_to_ints(rows: Rows) -> list[int]:
    """Convert packed rows back to the reference Python-int masks."""
    n, words = rows.mat.shape
    if words == 0:
        return [0] * n
    raw = np.ascontiguousarray(rows.mat, dtype=_U64).tobytes()
    stride = words * 8
    shift = rows.lo * 64
    return [int.from_bytes(raw[i * stride:(i + 1) * stride], "little") << shift
            for i in range(n)]


class PackedSupportCalculator:
    """Per-node DEP terms on packed rows (the cut enumerator's kernel).

    Uses the global bit numbering of
    :class:`~repro.bitdeps.support.SupportCalculator` — bit ``b`` of node
    ``n`` at iteration distance ``d`` lives at ``offset[n] + d * width + b``
    — so masks round-trip bit-exactly between the two representations.
    """

    def __init__(self, graph: CDFG) -> None:
        self.graph = graph
        max_dist = max((op.distance for node in graph
                        for op in node.operands), default=0)
        self._offset: dict[int, int] = {}
        total = 0
        for nid in graph.node_ids:
            self._offset[nid] = total
            total += graph.node(nid).width * (max_dist + 1)
        self._leaf_cache: dict[tuple[int, int], Rows] = {}
        self._width_cache: dict[int, list[int]] = {}

    # -- representation ------------------------------------------------
    def global_index(self, nid: int, bit: int, distance: int = 0) -> int:
        return self._offset[nid] + distance * self.graph.node(nid).width + bit

    def leaf_rows(self, nid: int, distance: int = 0) -> Rows:
        """Packed equivalent of ``SupportCalculator.leaf_masks``."""
        key = (nid, distance)
        cached = self._leaf_cache.get(key)
        if cached is None:
            width = self.graph.node(nid).width
            idx = self.global_index(nid, 0, distance) + np.arange(width)
            lo = int(idx[0]) >> 6
            mat = np.zeros((width, (int(idx[-1]) >> 6) + 1 - lo), dtype=_U64)
            mat[np.arange(width), (idx >> 6) - lo] = np.uint64(1) << (
                idx & 63
            ).astype(_U64)
            mat.setflags(write=False)
            cached = Rows(mat, lo)
            self._leaf_cache[key] = cached
        return cached

    def _widths(self, node: Node) -> list[int]:
        widths = self._width_cache.get(node.nid)
        if widths is None:
            widths = [self.graph.node(op.source).width
                      for op in node.operands]
            self._width_cache[node.nid] = widths
        return widths

    # -- DEP -------------------------------------------------------------
    def term(self, node: Node, slot: int, rows: Rows) -> Rows:
        """What operand ``slot`` adds to the support of every output bit.

        ``rows`` are the packed supports of the operand's bits; the result
        has one row per output bit of ``node`` and lives on the operand's
        window, or is empty when no output bit reads the slot.
        """
        kind = node.kind
        if node.op_class is OpClass.BLACKBOX:
            raise CutError(f"DEP undefined for black-box node {node.nid}")
        W = node.width
        widths = self._widths(node)
        w = widths[slot]
        m = rows.mat

        def moved(dst: int, src: int, n: int, mat: np.ndarray = m) -> Rows:
            """Output bit ``dst + i`` reads row ``src + i`` of ``mat``, i < n."""
            if n <= 0:
                return _no_support(W)
            out = np.zeros((W, mat.shape[1]), dtype=_U64)
            out[dst:dst + n] = mat[src:src + n]
            return Rows(out, rows.lo)

        def every(row: np.ndarray) -> Rows:
            """Every output bit reads the one support row ``row``."""
            return Rows(np.repeat(row[None, :], W, axis=0), rows.lo)

        if kind in (OpKind.INPUT, OpKind.CONST):
            return _no_support(W)
        if kind in _SAME_INDEX or (kind is OpKind.MUX and slot):
            return moved(0, 0, min(W, w))
        if kind is OpKind.MUX:  # the select bit drives every output bit
            return every(m[0])
        if kind is OpKind.SHL:
            return moved(node.amount, 0, min(W - node.amount, w))
        if kind in (OpKind.SHR, OpKind.SLICE):
            return moved(0, node.amount, min(W, w - node.amount))
        if kind is OpKind.CONCAT:  # slot 0 is the low half
            dst = widths[0] if slot else 0
            return moved(dst, 0, min(W - dst, w))
        if kind in (OpKind.ADD, OpKind.SUB, OpKind.NEG) \
                or (kind is OpKind.VSHL and slot == 0):
            prefix = np.bitwise_or.accumulate(m, axis=0)
            return Rows(prefix[np.minimum(np.arange(W), w - 1)], rows.lo)
        if kind is OpKind.VSHR and slot == 0:
            suffix = np.bitwise_or.accumulate(m[::-1], axis=0)[::-1]
            return moved(0, 0, min(W, w), suffix)
        if kind in (OpKind.SLT, OpKind.SGE) \
                and _is_const_zero(self.graph, node, 1):
            # Sign test ``x < 0`` / ``x >= 0``: only x's sign bit matters.
            return _no_support(W) if slot == 1 else every(m[w - 1])
        if kind in (OpKind.SLT, OpKind.SGE, OpKind.EQ, OpKind.NE, OpKind.LT,
                    OpKind.GE, OpKind.VSHL, OpKind.VSHR):
            return every(np.bitwise_or.reduce(m, axis=0))
        raise CutError(f"DEP not defined for {kind.value}")  # pragma: no cover

    def transfer(self, node: Node, slot_rows: Mapping[int, Rows]) -> Rows:
        """Support rows of ``node`` given packed rows per operand *slot*:
        the OR of the slots' terms.

        Slots absent from ``slot_rows`` contribute nothing (constant
        operands are absorbed for free) — exactly the semantics of
        ``SupportCalculator.supports``.
        """
        return or_rows([self.term(node, slot, rows)
                        for slot, rows in slot_rows.items()], node.width)
