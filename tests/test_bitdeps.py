"""Unit + property tests for bit-level dependence tracking (Sec. 3.1)."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitdeps import (
    PackedSupportCalculator,
    SupportCalculator,
    dep_bits,
    popcount,
)
from repro.bitdeps.packed import (
    Rows,
    or_rows,
    popcount_rows,
    rows_to_ints,
)
from repro.designs.synthetic import random_dfg
from repro.errors import CutError
from repro.ir import DFGBuilder, OpKind


def build(width=4):
    return DFGBuilder("t", width=width)


class TestDepFunctions:
    def test_bitwise_same_index(self):
        b = build()
        a, c = b.input("a"), b.input("c")
        v = (a ^ c).node
        deps = dep_bits(b.graph, v, 2)
        assert {(d.slot, d.bit) for d in deps} == {(0, 2), (1, 2)}

    def test_not_single_input(self):
        b = build()
        a = b.input("a")
        v = (~a).node
        assert [(d.slot, d.bit) for d in dep_bits(b.graph, v, 1)] == [(0, 1)]

    def test_mux_reads_select_bit(self):
        b = build()
        sel = b.input("sel", 1)
        a, c = b.input("a"), b.input("c")
        v = b.mux(sel, a, c).node
        deps = {(d.slot, d.bit) for d in dep_bits(b.graph, v, 3)}
        assert deps == {(0, 0), (1, 3), (2, 3)}

    def test_shr_reindexes(self):
        b = build()
        a = b.input("a")
        v = (a >> 1).node
        assert [(d.slot, d.bit) for d in dep_bits(b.graph, v, 0)] == [(0, 1)]
        # top bit shifted in from nowhere -> no deps
        assert dep_bits(b.graph, v, 3) == []

    def test_shl_zero_fill(self):
        b = build()
        a = b.input("a")
        v = (a << 2).node
        assert dep_bits(b.graph, v, 1) == []
        assert [(d.slot, d.bit) for d in dep_bits(b.graph, v, 3)] == [(0, 1)]

    def test_add_carry_range(self):
        b = build()
        a, c = b.input("a"), b.input("c")
        v = (a + c).node
        deps = {(d.slot, d.bit) for d in dep_bits(b.graph, v, 2)}
        assert deps == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)}

    def test_sign_test_refinement(self):
        b = build()
        a = b.input("a")
        v = a.sge(0).node
        deps = [(d.slot, d.bit) for d in dep_bits(b.graph, v, 0)]
        assert deps == [(0, 3)]  # only the MSB of a

    def test_sign_test_refinement_symmetric(self):
        # The mirrored 0 < a (and 0 >= a) asks whether a is zero too, so
        # it is no sign test: it reads every bit of a.
        b = build()
        a = b.input("a")
        zero = b.const(0)
        for kind in (OpKind.SLT, OpKind.SGE):
            v = b.op(kind, zero, a, width=1).node
            deps = [(d.slot, d.bit) for d in dep_bits(b.graph, v, 0)
                    if d.slot == 1]
            assert deps == [(1, 0), (1, 1), (1, 2), (1, 3)]

    def test_general_compare_reads_everything(self):
        b = build()
        a, c = b.input("a"), b.input("c")
        v = a.lt(c).node
        assert len(dep_bits(b.graph, v, 0)) == 8

    def test_concat_and_slice(self):
        b = build()
        a, c = b.input("a"), b.input("c")
        v = b.concat(a, c).node  # {a, c}: low half is c
        assert [(d.slot, d.bit) for d in dep_bits(b.graph, v, 1)] == [(0, 1)]
        assert [(d.slot, d.bit) for d in dep_bits(b.graph, v, 5)] == [(1, 1)]

    def test_blackbox_rejected(self):
        b = build()
        addr = b.input("addr")
        v = b.load(addr).node
        with pytest.raises(CutError, match="black-box"):
            dep_bits(b.graph, v, 0)

    def test_word_dep_sources(self):
        # Word-level DEP(v): the operand slots whose leaf term is non-empty.
        b = build()
        a, c = b.input("a"), b.input("c")
        nodes = [b.mux(a.bit(0), a, c).node,
                 (a << 4).node,  # shifts every bit out
                 (a >> 3).node]
        calc = PackedSupportCalculator(b.graph)
        live = [[slot for slot, op in enumerate(v.operands)
                 if not calc.term(v, slot, calc.leaf_rows(op.source)).empty]
                for v in nodes]
        assert live == [[0, 1, 2], [], [0]]


class TestSupportCalculator:
    def test_leaf_masks_identity(self):
        b = build()
        a = b.input("a")
        b.output(a, "o")
        calc = SupportCalculator(b.build())
        masks = calc.leaf_masks(a.nid)
        assert [popcount(m) for m in masks] == [1, 1, 1, 1]
        assert calc.decode(masks[2]) == [(a.nid, 0, 2)]

    def test_distance_blocks_are_distinct(self):
        b = build()
        i = b.input("i")
        r = b.recurrence("r")
        v = i ^ r
        v.feed(r)
        b.output(v, "o")
        g = b.build()
        calc = SupportCalculator(g)
        m0 = calc.leaf_masks(v.nid, 0)
        m1 = calc.leaf_masks(v.nid, 1)
        assert all(a & c == 0 for a, c in zip(m0, m1))

    def test_supports_through_cone(self):
        b = build()
        a, c = b.input("a"), b.input("c")
        x = (a >> 1) ^ c
        b.output(x, "o")
        g = b.build()
        calc = SupportCalculator(g)
        supp = calc.supports(x.nid, [a.nid, c.nid])
        # bit 0 of x reads a[1] and c[0]
        assert set(calc.decode(supp[0])) == {(a.nid, 0, 1), (c.nid, 0, 0)}
        # top bit only reads c (a shifted out)
        assert set(calc.decode(supp[3])) == {(c.nid, 0, 3)}

    def test_constants_are_free(self):
        b = build()
        a = b.input("a")
        x = a ^ b.const(5)
        b.output(x, "o")
        g = b.build()
        calc = SupportCalculator(g)
        assert calc.max_support(x.nid, [a.nid]) == 1

    def test_boundary_must_enclose(self):
        b = build()
        a, c = b.input("a"), b.input("c")
        x = a ^ c
        b.output(x, "o")
        g = b.build()
        calc = SupportCalculator(g)
        with pytest.raises(CutError, match="does not enclose"):
            calc.supports(x.nid, [a.nid])  # c not in boundary, is an input

    def test_loop_carried_edge_blocks_cone(self, recurrent_graph):
        g = recurrent_graph
        calc = SupportCalculator(g)
        # find the recurrence node and its producer
        rec = next(n for n in g if n.attrs.get("recurrence"))
        producer = rec.operands[1].source
        with pytest.raises(CutError, match="loop-carried"):
            calc.supports(rec.nid, [g.node(producer).operands[0].source])

    def test_k_feasibility(self):
        b = build()
        a, c = b.input("a"), b.input("c")
        x = a + c
        b.output(x, "o")
        g = b.build()
        calc = SupportCalculator(g)
        assert calc.is_k_feasible(x.nid, [a.nid, c.nid], k=8)
        assert not calc.is_k_feasible(x.nid, [a.nid, c.nid], k=4)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_property_support_consistent_with_flip_simulation(seed):
    """Bit-support over-approximates true sensitivity: flipping a bit
    outside the support never changes the output bit."""
    import random

    from repro.sim.functional import FunctionalSimulator

    g = random_dfg(seed, ops=10, width=4, inputs=2, recurrences=0,
                   allow_arith=True)
    calc = SupportCalculator(g)
    out = g.outputs[0]
    target = out.operands[0].source
    if g.node(target).kind.value in ("input", "const"):
        return
    boundary = [n.nid for n in g.inputs]
    try:
        supports = calc.supports(target, boundary)
    except CutError:
        return
    rng = random.Random(seed)
    base_inputs = {f"i{k}": rng.randrange(16) for k in range(2)}

    def run(inputs):
        sim = FunctionalSimulator(g)
        sim.step(inputs)
        return sim.values_at(0)[target]

    base_val = run(base_inputs)
    for inp_idx, inp in enumerate(g.inputs):
        for bit in range(inp.width):
            flipped = dict(base_inputs)
            flipped[inp.name] = flipped[inp.name] ^ (1 << bit)
            new_val = run(flipped)
            gbit = 1 << calc.global_index(inp.nid, bit)
            for j in range(g.node(target).width):
                if not supports[j] & gbit:
                    assert ((base_val >> j) & 1) == ((new_val >> j) & 1), (
                        f"bit {j} of node {target} changed when flipping "
                        f"{inp.name}[{bit}] outside its support"
                    )


def packed_cone(graph, target, boundary):
    """Compose :meth:`PackedSupportCalculator.transfer` over a cone.

    Boundary nodes enter as their leaf rows and constants are absorbed,
    exactly as the cut enumerator composes the rows of the cuts it merges.
    """
    calc = PackedSupportCalculator(graph)
    memo = {nid: calc.leaf_rows(nid) for nid in boundary}

    def rows(nid):
        if nid not in memo:
            node = graph.node(nid)
            memo[nid] = calc.transfer(node, {
                slot: rows(op.source)
                for slot, op in enumerate(node.operands)
                if graph.node(op.source).kind is not OpKind.CONST
            })
        return memo[nid]

    return rows_to_ints(rows(target))


def assert_packed_matches_reference(graph, target, boundary):
    """The packed masks equal ``SupportCalculator.supports`` (or both raise)."""
    try:
        want = SupportCalculator(graph).supports(target, boundary)
    except CutError:
        with pytest.raises(CutError):
            packed_cone(graph, target, boundary)
        return
    assert packed_cone(graph, target, boundary) == want


class OpClassSweeps:
    """One-op cones per op class and width, each handed to ``_check``."""

    WIDTHS = (1, 2, 3, 4, 7)

    def _sweep(self, make):
        for width in self.WIDTHS:
            b = DFGBuilder("t", width=width)
            value, boundary = make(b, width)
            b.output(value, "o")
            graph = b.build()
            self._check(graph, value.nid, [v.nid for v in boundary])

    @staticmethod
    def _two_input(b, op):
        a, c = b.input("a"), b.input("c")
        return op(a, c), [a, c]

    def test_bitwise(self):
        for op in (lambda a, c: a & c, lambda a, c: a | c,
                   lambda a, c: a ^ c):
            self._sweep(lambda b, w, op=op: self._two_input(b, op))

    def test_not(self):
        def make(b, w):
            a = b.input("a")
            return ~a, [a]
        self._sweep(make)

    def test_mux(self):
        def make(b, w):
            sel = b.input("sel", 1)
            a, c = b.input("a"), b.input("c")
            return b.mux(sel, a, c), [sel, a, c]
        self._sweep(make)

    def test_shifts(self):
        for amount in (0, 1, 3):
            def make(b, w, amount=amount):
                a = b.input("a")
                return a << amount, [a]
            self._sweep(make)

            def make(b, w, amount=amount):
                a = b.input("a")
                return a >> amount, [a]
            self._sweep(make)

    def test_variable_shifts(self):
        def make(b, w):
            a, s = b.input("a"), b.input("s")
            return b.op(OpKind.VSHL, a, s, width=w), [a, s]
        self._sweep(make)

        def make(b, w):
            a, s = b.input("a"), b.input("s")
            return b.op(OpKind.VSHR, a, s, width=w), [a, s]
        self._sweep(make)

    def test_resize_and_slice(self):
        def make(b, w):
            a = b.input("a")
            return a.zext(w + 2), [a]
        self._sweep(make)

        def make(b, w):
            a = b.input("a", w + 2)
            return a.trunc(w), [a]
        self._sweep(make)

        def make(b, w):
            a = b.input("a", w + 1)
            return a.slice(1, w), [a]
        self._sweep(make)

    def test_concat(self):
        def make(b, w):
            a, c = b.input("a"), b.input("c")
            return b.concat(a, c), [a, c]
        self._sweep(make)

    def test_arith(self):
        # MUL is a black box: no DEP, so both sides must refuse the cone.
        for op in (lambda a, c: a + c, lambda a, c: a - c,
                   lambda a, c: a * c):
            self._sweep(lambda b, w, op=op: self._two_input(b, op))

        def make(b, w):
            a = b.input("a")
            return -a, [a]
        self._sweep(make)

    def test_compares(self):
        for op in ("eq", "ne", "lt", "ge", "slt", "sge"):
            def make(b, w, op=op):
                a, c = b.input("a"), b.input("c")
                return getattr(a, op)(c), [a, c]
            self._sweep(make)

    def test_sign_test_refinement(self):
        # x >= 0 (signed) reads only the MSB — the refined DEP rule.
        def make(b, w):
            a = b.input("a")
            return a.sge(0), [a]
        self._sweep(make)

    def test_interior_constants(self):
        def make(b, w):
            a = b.input("a")
            return a ^ b.const(1), [a]
        self._sweep(make)


class TestPackedTransfer(OpClassSweeps):
    """The packed DEP transfer against the big-int reference, per op class.

    Each sweep builds a one-op cone per width and compares the transfer
    over the operands' leaf rows with a from-scratch
    ``SupportCalculator.supports`` of the same cone.
    """

    def _check(self, graph, target, boundary):
        assert_packed_matches_reference(graph, target, boundary)

    def test_deep_cone(self):
        b = DFGBuilder("t", width=4)
        a, c, d = b.input("a"), b.input("c"), b.input("d")
        x = (a + c) ^ (c >> 1)
        y = b.mux(d.bit(0), x, a - d)
        b.output(y, "o")
        graph = b.build()
        assert_packed_matches_reference(graph, y.nid, [a.nid, c.nid, d.nid])
        # intermediate boundary: stop the cone at x
        assert_packed_matches_reference(graph, y.nid, [x.nid, a.nid, d.nid])

    def test_random_graphs(self):
        for seed in range(25):
            graph = random_dfg(seed, ops=12, width=5, inputs=3,
                               recurrences=0, allow_arith=True)
            target = graph.outputs[0].operands[0].source
            if graph.node(target).kind in (OpKind.INPUT, OpKind.CONST):
                continue
            assert_packed_matches_reference(
                graph, target, [n.nid for n in graph.inputs])

    def test_round_trip_and_popcounts(self):
        masks = [0, 1, (1 << 64) - 1, 1 << 200, (1 << 130) | 7]
        for shift in (0, 128):  # windows starting at word 0 and word 2
            shifted = [m << shift for m in masks]
            rows = ints_to_rows(shifted)
            assert rows.lo == shift // 64
            assert rows_to_ints(rows) == shifted
            assert popcount_rows(rows).tolist() == [popcount(m)
                                                    for m in masks]


def ints_to_rows(masks):
    """Pack Python-int masks into :class:`Rows` on the window of their
    set bits."""
    bits = [m for m in masks if m]
    lo = min((m & -m).bit_length() - 1 for m in bits) >> 6 if bits else 0
    hi = max(((m.bit_length() + 63) >> 6 for m in bits), default=lo)
    mat = np.zeros((len(masks), hi - lo), dtype=np.uint64)
    for i, mask in enumerate(masks):
        mat[i] = np.frombuffer((mask >> 64 * lo).to_bytes(8 * (hi - lo),
                                                          "little"),
                               dtype=np.uint64)
    return Rows(mat, lo)


def random_rows(rng, n, words):
    """``n`` random rows whose set bits lie in a random word window of a
    ``words``-word space."""
    lo = rng.randrange(words)
    hi = rng.randrange(lo, words + 1)
    mat = np.zeros((n, hi - lo), dtype=np.uint64)
    for i in range(n):
        for w in range(hi - lo):
            mat[i, w] = rng.getrandbits(64) & rng.getrandbits(64)
    return Rows(mat, lo)


class TestTransferSeparability(OpClassSweeps):
    """Every op class's transfer ORs one independent term per operand slot.

    The cut enumerator's batched K-filter relies on this: the transfer of
    any set of slots must equal ``or_rows`` of the single-slot transfers,
    word window ``[lo, hi)`` included. The slot rows are random and sit
    in different word windows of a four-word space, so the window rule
    is exercised too.
    """

    WORDS = 4

    def _check(self, graph, target, boundary):
        node = graph.node(target)
        calc = PackedSupportCalculator(graph)
        rng = random.Random(node.width)
        slot_rows = {
            slot: random_rows(rng, graph.node(op.source).width, self.WORDS)
            for slot, op in enumerate(node.operands)
            if graph.node(op.source).kind is not OpKind.CONST
        }
        if node.is_blackbox:
            with pytest.raises(CutError):
                calc.transfer(node, slot_rows)
            return
        for n in range(len(slot_rows) + 1):
            for slots in itertools.combinations(sorted(slot_rows), n):
                whole = calc.transfer(node, {s: slot_rows[s] for s in slots})
                union = or_rows(
                    [calc.transfer(node, {s: slot_rows[s]}) for s in slots],
                    node.width)
                assert (union.lo, union.hi) == (whole.lo, whole.hi)
                assert np.array_equal(union.mat, whole.mat)
