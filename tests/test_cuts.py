"""Unit + property tests for word-level cut enumeration (Algorithm 1)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bitdeps import SupportCalculator, dep_bits
from repro.cuts import Cut, CutEnumerator, enumerate_cuts
from repro.designs import BENCHMARKS
from repro.designs.synthetic import random_dfg
from repro.errors import CutError
from repro.ir import DFGBuilder, OpKind
from repro.ir.transforms import narrow_graph


class TestCutObject:
    def test_entries_default_to_distance_zero(self):
        cut = Cut(root=3, boundary=frozenset({1, 2}), masks=(0b1, 0b10))
        assert cut.entries == ((1, 0), (2, 0))
        assert cut.entry_distance == {1: 0, 2: 0}

    def test_entry_distance_takes_minimum(self):
        cut = Cut(root=3, boundary=frozenset({1}), masks=(0,),
                  entries=((1, 0), (1, 2)))
        assert cut.entry_distance == {1: 0}

    def test_feasibility_uses_max_support(self):
        cut = Cut(root=3, boundary=frozenset({1}), masks=(0b111, 0b1))
        assert cut.max_support == 3
        assert cut.feasible(3) and not cut.feasible(2)

    def test_covers(self):
        cut = Cut(root=3, boundary=frozenset({1}), masks=(0,),
                  interior=frozenset({2}))
        assert cut.covers(3) and cut.covers(2) and not cut.covers(1)


class TestEnumeration:
    def test_k_must_be_sane(self, fig1_graph):
        with pytest.raises(CutError, match="K must be"):
            CutEnumerator(fig1_graph, k=1)

    def test_every_mappable_node_has_unit_cut(self, fig1_graph):
        cuts = enumerate_cuts(fig1_graph, k=4)
        for node in fig1_graph:
            if node.is_boundary and node.kind is not OpKind.OUTPUT:
                continue
            assert cuts[node.nid].unit is not None, node

    def test_unit_cut_boundary_is_direct_inputs(self, fig1_graph):
        cuts = enumerate_cuts(fig1_graph, k=4)
        for node in fig1_graph:
            if not node.is_mappable or node.kind is OpKind.OUTPUT:
                continue
            unit = cuts[node.nid].unit
            direct = {
                op.source for op in node.operands
                if fig1_graph.node(op.source).kind is not OpKind.CONST
            }
            assert unit.boundary <= direct

    def test_merged_cuts_are_k_feasible(self, fig1_graph):
        cuts = enumerate_cuts(fig1_graph, k=4)
        for cs in cuts.values():
            for cut in cs.merged:
                assert cut.feasible(4)

    def test_max_cuts_zero_disables_growth(self, fig1_graph):
        cuts = enumerate_cuts(fig1_graph, k=4, max_cuts=0)
        for cs in cuts.values():
            assert cs.merged == []

    def test_wide_adder_unit_is_infeasible_but_kept(self):
        b = DFGBuilder("t", width=16)
        a, c = b.input("a"), b.input("c")
        b.output(a + c, "o")
        cuts = enumerate_cuts(b.build(), k=6)
        add = next(n for n in b.graph if n.kind is OpKind.ADD)
        cs = cuts[add.nid]
        assert cs.unit is not None and not cs.unit.feasible(6)
        # nothing can absorb a 32-bit-support carry chain
        consumers = [n for n in b.graph if n.kind is OpKind.OUTPUT]
        assert cuts[consumers[0].nid].unit.boundary == {add.nid}

    def test_loop_carried_boundary_distance(self, recurrent_graph):
        cuts = enumerate_cuts(recurrent_graph, k=6)
        rec = next(n for n in recurrent_graph if n.attrs.get("recurrence"))
        unit = cuts[rec.nid].unit
        producer = rec.operands[1].source
        assert (producer, 1) in unit.entries

    def test_cone_never_crosses_register(self, recurrent_graph):
        cuts = enumerate_cuts(recurrent_graph, k=6)
        rec = next(n for n in recurrent_graph if n.attrs.get("recurrence"))
        producer = rec.operands[1].source
        for cs in cuts.values():
            for cut in cs.selectable:
                if producer in cut.interior:
                    # producer may be absorbed via distance-0 paths, but any
                    # cut containing the recurrence interiorly must still
                    # enter through a registered boundary
                    assert any(d >= 1 for _, d in cut.entries)

    def test_dominated_cuts_are_pruned(self):
        b = DFGBuilder("t", width=2)
        a, c = b.input("a"), b.input("c")
        x = a ^ c
        y = x ^ a
        b.output(y, "o")
        cuts = enumerate_cuts(b.build(), k=6)
        boundaries = [cut.boundary for cut in cuts[y.nid].selectable]
        for i, bi in enumerate(boundaries):
            for j, bj in enumerate(boundaries):
                if i != j:
                    assert not (bi < bj), "dominated cut survived pruning"

    def test_stats_populated(self, fig1_graph):
        en = CutEnumerator(fig1_graph, k=4)
        en.run()
        assert en.stats.nodes_processed > 0
        assert en.stats.candidates_generated > 0
        assert en.stats.total_selectable > 0

    def test_sign_test_gets_small_cut(self, fig1_graph):
        cuts = enumerate_cuts(fig1_graph, k=4)
        sge = next(n for n in fig1_graph if n.kind is OpKind.SGE)
        assert any(c.max_support == 1 for c in cuts[sge.nid].selectable)


def registered_cut_masks(calc, graph, cut):
    """Masks of a cut with registered (distance >= 1) entries, per bit.

    ``SupportCalculator.supports`` refuses loop-carried edges, so this
    walks DEP bit by bit itself: an operand absorbed into the interior
    over a distance-0 edge recurses, any other operand enters as the
    leaf bits of its source at the edge's distance.
    """
    memo = {}

    def masks(nid):
        if nid not in memo:
            node = graph.node(nid)
            memo[nid] = [0] * node.width
            for j in range(node.width):
                for entry in dep_bits(graph, node, j):
                    op = node.operands[entry.slot]
                    src = graph.node(op.source)
                    if src.kind is OpKind.CONST:
                        continue
                    if op.distance == 0 and op.source in cut.interior:
                        src_masks = masks(op.source)
                    else:
                        src_masks = calc.leaf_masks(op.source, op.distance)
                    if entry.bit < len(src_masks):
                        memo[nid][j] |= src_masks[entry.bit]
        return memo[nid]

    return masks(cut.root)


@settings(max_examples=20, deadline=None)
@given(source=st.integers(min_value=0, max_value=10**6))
@example(source="GSM")
@example(source="DR")
@example(source="CLZ")
@example(source="GFMUL")
@example(source="MT")
def test_property_cut_masks_match_recomputed_supports(source):
    """Every selectable cut's stored masks equal a from-scratch support
    computation over its boundary (catches merge-composition bugs);
    cuts with registered entries are recomputed by
    :func:`registered_cut_masks`.

    ``source`` is a random-graph seed or, as fixed inputs, a narrowed
    benchmark enumerated at the shipped K=6 / max_cuts=12.
    """
    if isinstance(source, str):
        g, _ = narrow_graph(BENCHMARKS[source].build())
        cuts = enumerate_cuts(g, k=6, max_cuts=12)
    else:
        g = random_dfg(source, ops=12, width=4, inputs=3, recurrences=1)
        cuts = enumerate_cuts(g, k=4, max_cuts=6)
    calc = SupportCalculator(g)
    checked = 0
    for nid, cs in cuts.items():
        node = g.node(nid)
        if not node.is_mappable or node.kind is OpKind.OUTPUT:
            continue
        for cut in cs.selectable:
            if cut.interior & cut.boundary:
                # the cone *recomputes* a boundary node (duplication); its
                # stored masks describe that implementation, while a
                # from-scratch support stops at the boundary — both valid,
                # not comparable
                continue
            try:
                if any(distance for _, distance in cut.entries):
                    fresh = registered_cut_masks(calc, g, cut)
                else:
                    fresh = calc.supports(nid, cut.boundary)
            except CutError:
                continue  # black-box root: no DEP to recompute
            assert tuple(fresh) == cut.masks, (nid, cut)
            checked += 1
    if isinstance(source, str):
        assert checked > 0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_property_interiors_are_ancestors(seed):
    """A cut's interior contains only combinational ancestors of its root."""
    g = random_dfg(seed, ops=12, width=4, inputs=3, recurrences=1)
    cuts = enumerate_cuts(g, k=4, max_cuts=6)

    def ancestors(nid):
        seen = set()
        stack = [nid]
        while stack:
            cur = stack.pop()
            for op in g.node(cur).operands:
                if op.source not in seen:
                    seen.add(op.source)
                    stack.append(op.source)
        return seen

    for nid, cs in cuts.items():
        anc = None
        for cut in cs.selectable:
            if cut.interior:
                anc = ancestors(nid) if anc is None else anc
                assert cut.interior <= anc
