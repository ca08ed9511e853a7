"""Bit-support computation through cones.

Assigns every (node, bit) pair a **global bit index** so per-bit supports can
be represented as Python-int bitmasks; set union is then ``|`` and support
size is ``int.bit_count()``. Given a boundary set B, the support of ``v[j]``
is the set of boundary bits reachable from ``v[j]`` by repeatedly applying
DEP without crossing B, constants, or loop-carried edges.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..errors import CutError
from ..ir.graph import CDFG
from ..ir.types import OpKind
from .dep import dep_bits

__all__ = ["SupportCalculator", "popcount"]


def popcount(mask: int) -> int:
    """Number of set bits in a support mask."""
    return mask.bit_count()


class SupportCalculator:
    """Computes per-bit boundary supports on one CDFG.

    The calculator is cheap to construct and caches only the global bit
    numbering; support queries are memoized per call (the boundary differs
    between queries).
    """

    def __init__(self, graph: CDFG) -> None:
        self.graph = graph
        # Values of the same node at different iteration distances are
        # *different* LUT inputs (x and x-from-last-iteration), so the global
        # bit space is keyed by (node, distance): each node owns a block of
        # width * (max_distance + 1) bits.
        max_dist = 0
        for node in graph:
            for op in node.operands:
                max_dist = max(max_dist, op.distance)
        self._offset: dict[int, int] = {}
        total = 0
        for nid in graph.node_ids:
            self._offset[nid] = total
            total += graph.node(nid).width * (max_dist + 1)

    def global_index(self, nid: int, bit: int, distance: int = 0) -> int:
        """Global index of bit ``bit`` of node ``nid`` at ``distance``."""
        return self._offset[nid] + distance * self.graph.node(nid).width + bit

    def decode(self, mask: int) -> list[tuple[int, int, int]]:
        """Decode a support mask to sorted (node, distance, bit) triples."""
        import bisect

        offsets = sorted((off, nid) for nid, off in self._offset.items())
        starts = [off for off, _ in offsets]
        triples: list[tuple[int, int, int]] = []
        while mask:
            low = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            idx = bisect.bisect_right(starts, low) - 1
            off, nid = offsets[idx]
            width = self.graph.node(nid).width
            rel = low - off
            triples.append((nid, rel // width, rel % width))
        return triples

    def leaf_masks(self, nid: int, distance: int = 0) -> list[int]:
        """Support masks of a boundary node entering at ``distance``."""
        node = self.graph.node(nid)
        base = self._offset[nid] + distance * node.width
        return [1 << (base + j) for j in range(node.width)]

    def supports(
        self,
        target: int,
        boundary: Iterable[int],
        chosen: Mapping[int, list[int]] | None = None,
    ) -> list[int]:
        """Support masks for each output bit of ``target`` w.r.t. ``boundary``.

        ``boundary`` nodes contribute their own bits; constants contribute
        nothing; every other node reached must be expandable via DEP (not a
        black box) and must be reachable only over distance-0 edges —
        otherwise the boundary does not enclose a legal combinational cone
        and :class:`CutError` is raised.

        ``chosen`` optionally pre-seeds masks for specific nodes (used by the
        cut enumerator to compose supports from sub-cuts).
        """
        graph = self.graph
        bset = set(boundary)
        memo: dict[int, list[int]] = {}
        if chosen:
            memo.update(chosen)
        in_progress: set[int] = set()

        def rec(nid: int) -> list[int]:
            if nid in memo:
                return memo[nid]
            node = graph.node(nid)
            if nid in bset:
                result = self.leaf_masks(nid)
            elif node.kind is OpKind.CONST:
                result = [0] * node.width
            elif node.is_blackbox or node.kind is OpKind.INPUT:
                raise CutError(
                    f"boundary does not enclose node {nid} ({node.kind.value})"
                )
            else:
                if nid in in_progress:
                    raise CutError(f"combinational cycle through node {nid}")
                in_progress.add(nid)
                result = []
                operand_masks: dict[int, list[int]] = {}
                for j in range(node.width):
                    mask = 0
                    for entry in dep_bits(graph, node, j):
                        op = node.operands[entry.slot]
                        if op.distance != 0:
                            raise CutError(
                                f"cone crosses loop-carried edge into {op.source}"
                            )
                        if entry.slot not in operand_masks:
                            operand_masks[entry.slot] = rec(op.source)
                        src_masks = operand_masks[entry.slot]
                        if entry.bit < len(src_masks):
                            mask |= src_masks[entry.bit]
                    result.append(mask)
                in_progress.discard(nid)
            memo[nid] = result
            return result

        return rec(target)

    def max_support(self, target: int, boundary: Iterable[int]) -> int:
        """Largest per-output-bit support size of ``target`` w.r.t. boundary."""
        return max((popcount(m) for m in self.supports(target, boundary)), default=0)

    def is_k_feasible(self, target: int, boundary: Iterable[int], k: int) -> bool:
        """True iff every output bit's support fits in a K-input LUT."""
        try:
            return self.max_support(target, boundary) <= k
        except CutError:
            return False
