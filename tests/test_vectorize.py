"""Packed cut enumeration vs a big-int reference kernel.

The cut enumerator composes supports on packed uint64 bitmask rows
(:class:`~repro.bitdeps.packed.PackedSupportCalculator`). The scalar
kernel it replaced -- one Python-int mask per output bit, composed by
walking DEP bit by bit -- lives on here as the oracle: the enumerator is
run once as shipped and once with the packed kernel swapped for the
scalar one, and the two runs must agree exactly on every cut.
"""

import pytest

import repro.cuts.enumerate as cut_enum
from repro.bitdeps import SupportCalculator, dep_bits, popcount
from repro.cuts.enumerate import CutEnumerator
from repro.designs import BENCHMARKS
from repro.ir.transforms import narrow_graph


class BigIntKernel(SupportCalculator):
    """The scalar merge kernel behind the packed calculator's interface:
    a cut's "rows" are its list of per-bit Python-int masks."""

    words = 0  # no packing

    def leaf_rows(self, nid, distance=0):
        return self.leaf_masks(nid, distance)

    def transfer(self, node, slot_masks):
        masks = []
        for j in range(node.width):
            m = 0
            for entry in dep_bits(self.graph, node, j):
                src_masks = slot_masks.get(entry.slot)
                if src_masks is None:
                    continue  # constant operand: absorbed for free
                if entry.bit < len(src_masks):
                    m |= src_masks[entry.bit]
            masks.append(m)
        return masks


def use_big_int_kernel(monkeypatch):
    monkeypatch.setattr(cut_enum, "PackedSupportCalculator", BigIntKernel)
    monkeypatch.setattr(cut_enum, "rows_to_ints", list)
    monkeypatch.setattr(cut_enum, "ints_to_rows",
                        lambda masks, words: list(masks))
    monkeypatch.setattr(cut_enum, "max_popcount",
                        lambda masks: max(map(popcount, masks), default=0))


def canon_cuts(cut_sets):
    """Cut sets as a comparable structure (selection order preserved)."""
    return {
        root: [(c.kind, tuple(sorted(c.boundary)), c.masks,
                tuple(sorted(c.interior)), c.entries)
               for c in cs.selectable]
        for root, cs in cut_sets.items()
    }


class TestCutEnumerationParity:
    @pytest.mark.parametrize("name", ["GSM", "DR", "CLZ", "GFMUL", "MT"])
    def test_cut_sets_identical(self, name, monkeypatch):
        graph, _ = narrow_graph(BENCHMARKS[name].build())
        runs = []
        for big_int in (False, True):
            with monkeypatch.context() as m:
                if big_int:
                    use_big_int_kernel(m)
                enumerator = CutEnumerator(graph, 6, max_cuts=12)
                cuts = enumerator.run()
            assert isinstance(enumerator._pcalc, BigIntKernel) == big_int
            runs.append((canon_cuts(cuts),
                         enumerator.stats.candidates_generated,
                         enumerator.stats.total_selectable))
        assert runs[0] == runs[1]
