"""Batched packed cut enumeration vs the per-combination big-int reference.

The cut enumerator transfers each merge choice once on packed uint64 rows,
K-filters every combination in one batched popcount
(:func:`~repro.bitdeps.packed.max_support_product`) and prunes the
combinations on their entry sets and max supports before it builds a
single cut. The loop it replaced -- one full DEP transfer, one popcount
and one :class:`Cut` per combination, pruned as cuts -- lives on here as
:class:`ReferenceEnumerator`, over the scalar kernel that composed
supports as Python-int masks walked bit by bit, with its own walk of
``dep_bits`` for the DEP input slots. Both must agree exactly on every
cut, in order, and on the enumeration counters; a digest recorded before
the prune moved ahead of the cuts pins both on the nine designs.
"""

import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

import repro.bitdeps.packed as packed
import repro.cuts.enumerate as cut_enum
from repro.bitdeps import SupportCalculator, dep_bits, popcount
from repro.cuts.cut import Cut
from repro.cuts.enumerate import CutEnumerator
from repro.designs import BENCHMARKS
from repro.designs.synthetic import random_dfg
from repro.ir.transforms import narrow_graph
from repro.ir.types import OpKind


class BigIntKernel(SupportCalculator):
    """The scalar merge kernel behind the packed calculator's interface:
    a cut's "rows" are its list of per-bit Python-int masks."""

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


def dep_slots(graph, node):
    """Operand slots that some output bit of ``node`` reads, ascending."""
    return sorted({entry.slot for j in range(node.width)
                   for entry in dep_bits(graph, node, j)})


class ReferenceEnumerator(CutEnumerator):
    """The enumerator with the per-combination merge loop over big ints."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pcalc = BigIntKernel(self.graph)

    def _make_unit(self, nid):
        graph = self.graph
        node = graph.node(nid)
        if node.is_blackbox:
            return super()._make_unit(nid)
        pairs = set()
        slot_rows = {}
        for slot in dep_slots(graph, node):
            op = node.operands[slot]
            if graph.node(op.source).kind is OpKind.CONST:
                continue
            pairs.add((op.source, op.distance))
            slot_rows[slot] = self._pcalc.leaf_rows(op.source, op.distance)
        rows = self._pcalc.transfer(node, slot_rows)
        cut = Cut(nid, frozenset(p[0] for p in pairs),
                  tuple(map(popcount, rows)), kind="unit",
                  entries=tuple(sorted(pairs)))
        object.__setattr__(cut, "_rows", rows)
        return cut

    def _update_node(self, nid):
        graph = self.graph
        node = graph.node(nid)

        if self._unit[nid] is None:
            self._unit[nid] = self._make_unit(nid)
            changed = True
        else:
            changed = False

        if not node.is_mappable or node.kind is OpKind.OUTPUT:
            return changed
        if self.max_cuts == 0:
            return changed

        choice_lists = []
        for slot in dep_slots(graph, node):
            op = node.operands[slot]
            src_node = graph.node(op.source)
            if src_node.kind is OpKind.CONST:
                continue
            choices = [(slot, self._trivial[op.source], op.distance)]
            if op.distance == 0 and src_node.is_mappable \
                    and src_node.kind is not OpKind.OUTPUT:
                unit = self._unit[op.source]
                if unit is not None and unit.feasible(self.k):
                    choices.append((slot, unit, 0))
                choices.extend((slot, c, 0) for c in self._merged[op.source]
                               if c.feasible(self.k))
            choice_lists.append(choices)

        total = 1
        for lst in choice_lists:
            total *= len(lst)
        if total > self.max_candidates:
            self.stats.capped_nodes += 1
            choice_lists = [lst[: max(2, self.max_candidates // 1000)]
                            for lst in choice_lists]

        seen = {c.entries: c for c in self._merged[nid]}
        new_cuts = list(self._merged[nid])
        pcalc = self._pcalc
        for combo in itertools.product(*choice_lists):
            self.stats.candidates_generated += 1
            pairs = set()
            slot_rows = {}
            interior = set()
            for slot, cut, edge_dist in combo:
                if cut.is_trivial:
                    pairs.add((cut.root, edge_dist))
                    slot_rows[slot] = pcalc.leaf_rows(cut.root, edge_dist)
                else:
                    pairs.update(cut.entries)
                    slot_rows[slot] = cut.__dict__["_rows"]
                    interior.add(cut.root)
                    interior.update(cut.interior)
            entries = tuple(sorted(pairs))
            if entries in seen:
                continue
            boundary = frozenset(p[0] for p in pairs)
            rows = pcalc.transfer(node, slot_rows)
            support = tuple(map(popcount, rows))
            if max(support, default=0) > self.k:
                continue
            candidate = Cut(nid, boundary, support, kind="merged",
                            interior=frozenset(interior), entries=entries)
            object.__setattr__(candidate, "_rows", rows)
            seen[entries] = candidate
            new_cuts.append(candidate)

        new_cuts = self._prune(new_cuts)
        if {c.entries for c in new_cuts} != {c.entries for c in self._merged[nid]}:
            self._merged[nid] = new_cuts
            changed = True
        return changed

    def _prune(self, cuts):
        """Drop dominated cuts, then cap (small support / boundary first)."""
        cuts = sorted(cuts, key=lambda c: (len(c.boundary), c.max_support,
                                           tuple(sorted(c.boundary))))
        kept = []
        for cut in cuts:
            if any(k.boundary <= cut.boundary for k in kept):
                continue
            kept.append(cut)
        kept.sort(key=lambda c: (c.max_support, len(c.boundary),
                                 tuple(sorted(c.boundary))))
        return kept[: self.max_cuts]


def canon_cuts(cut_sets):
    """Cut sets as a comparable structure (selection order preserved)."""
    return {
        root: [(c.kind, tuple(sorted(c.boundary)), c.support,
                tuple(sorted(c.interior)), c.entries, c.max_support)
               for c in cs.selectable]
        for root, cs in cut_sets.items()
    }


def enumeration(enumerator):
    cuts = enumerator.run()
    stats = enumerator.stats
    return (canon_cuts(cuts), stats.candidates_generated, stats.cuts_kept,
            stats.capped_nodes)


def assert_matches_reference(graph, k=6, max_cuts=12, max_candidates=20000):
    batched = enumeration(CutEnumerator(graph, k, max_cuts, max_candidates))
    reference = enumeration(
        ReferenceEnumerator(graph, k, max_cuts, max_candidates))
    assert batched == reference
    return batched


def narrowed(name):
    return narrow_graph(BENCHMARKS[name].build())[0]


DESIGNS = ["GSM", "DR", "CLZ", "GFMUL", "MT", "XORR", "AES", "RS", "CORDIC"]


class TestCutEnumerationParity:
    @pytest.mark.parametrize("name", DESIGNS)
    def test_cut_sets_identical(self, name):
        assert_matches_reference(narrowed(name))

    @pytest.mark.parametrize("name", DESIGNS)
    def test_cut_sets_identical_k4(self, name):
        assert_matches_reference(narrowed(name), k=4, max_cuts=4)

    def test_capped_products_identical(self):
        _, _, _, capped = assert_matches_reference(narrowed("GFMUL"),
                                                   max_candidates=30)
        assert capped > 0

    @pytest.mark.parametrize("seed", range(10))
    def test_random_graphs_with_recurrences(self, seed):
        graph = random_dfg(seed, ops=14, width=6, inputs=3, recurrences=2)
        assert_matches_reference(graph, k=4, max_cuts=6)


# SHA-256 of every cut set and EnumerationStats field below, recorded with
# the per-combination Cut construction and Cut-based prune.
ENUMERATION_DIGEST = (
    "d11331110bcb828b9e0f62f71f790dfbaaef203d0db4a1f1c27af33b43d92662")


def test_enumeration_matches_recorded_digest():
    """The nine designs, original and narrowed, at K 4/6 and max_cuts
    0/4/12: cut sets, their order and every counter stay byte-identical."""
    digest = hashlib.sha256()
    for name in BENCHMARKS:
        original = BENCHMARKS[name].build()
        for graph in (original, narrow_graph(original)[0]):
            for k, max_cuts in itertools.product((4, 6), (0, 4, 12)):
                enumerator = CutEnumerator(graph, k, max_cuts)
                cuts = canon_cuts(enumerator.run())
                digest.update(json.dumps(
                    [name, k, max_cuts, cuts,
                     dataclasses.asdict(enumerator.stats)]).encode())
    assert digest.hexdigest() == ENUMERATION_DIGEST


def test_cuts_kept_counts_the_final_merged_cuts():
    enumerator = CutEnumerator(narrowed("DR"), 6, max_cuts=12)
    enumerator.run()
    assert enumerator.stats.cuts_kept == sum(
        len(cuts) for cuts in enumerator._merged.values())
    assert enumerator.stats.cuts_kept > 0


def kernel_calls(graph, monkeypatch):
    """Every ``max_support_product`` call of one enumeration, with its
    inputs and output."""
    calls = []
    real = cut_enum.max_support_product

    def record(terms):
        supports = real(terms)
        calls.append((terms, supports.copy()))
        return supports

    with monkeypatch.context() as m:
        m.setattr(cut_enum, "max_support_product", record)
        CutEnumerator(graph, 6, max_cuts=12).run()
    assert calls
    return calls


@pytest.mark.parametrize("name", ["GSM", "CLZ"])
def test_lookup_table_popcount_matches_bitwise_count(name, monkeypatch):
    """numpy < 2 has no ``bitwise_count``; the uint8 table must agree."""
    graph = narrowed(name)
    calls = kernel_calls(graph, monkeypatch)
    counts = [[packed.popcount_rows(r) for t in terms for r in t]
              for terms, _ in calls]
    shipped = enumeration(CutEnumerator(graph, 6, max_cuts=12))
    monkeypatch.setattr(packed, "_BITWISE_COUNT", None)
    for (terms, supports), want in zip(calls, counts):
        assert np.array_equal(packed.max_support_product(terms), supports)
        got = [packed.popcount_rows(r) for t in terms for r in t]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert enumeration(CutEnumerator(graph, 6, max_cuts=12)) == shipped


@pytest.mark.parametrize("name", ["GSM", "CLZ", "GFMUL"])
def test_small_block_budgets_keep_supports(name, monkeypatch):
    """Budgets of a few words split each product into many blocks, by
    output bit, by combination and by slot prefix (GFMUL has three-slot
    merges); the supports stay the same and no block is larger than the
    budget, or than one output bit of one combination when that alone is
    larger."""
    calls = kernel_calls(narrowed(name), monkeypatch)
    real_counts = packed._row_counts
    for budget in (5, 96):
        blocks = []

        def count_block(block):
            blocks.append(block.shape)
            return real_counts(block)

        with monkeypatch.context() as m:
            m.setattr(packed, "_BLOCK_WORDS", budget)
            m.setattr(packed, "_row_counts", count_block)
            for terms, supports in calls:
                assert np.array_equal(packed.max_support_product(terms),
                                      supports)
        assert len(blocks) > len(calls)
        assert all(np.prod(shape) <= max(budget, shape[-1])
                   for shape in blocks)
