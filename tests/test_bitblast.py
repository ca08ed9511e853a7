"""Tests for bit-level decomposition and the Sec. 3.1 tractability claim."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitdeps import bit_blast
from repro.cuts import CutEnumerator
from repro.designs import build_gfmul, random_dfg
from repro.ir import DFGBuilder, OpKind
from repro.ir.semantics import eval_node
from repro.ir.types import COMPARISON_KINDS, OpClass, arity_of, op_class_of
from repro.sim import FunctionalSimulator

from .conftest import build_fig1, build_recurrent

#: Every kind bit_blast expands into single-bit logic.
_BLASTED_KINDS = [
    kind for kind in OpKind
    if op_class_of(kind) not in (OpClass.BOUNDARY, OpClass.BLACKBOX)
    and kind not in (OpKind.VSHL, OpKind.VSHR)]


class TestBitBlast:
    def test_all_nodes_single_bit_except_io_and_blackbox(self):
        blast = bit_blast(build_fig1())
        for node in blast.graph:
            if node.kind in (OpKind.INPUT, OpKind.OUTPUT, OpKind.CONCAT):
                continue
            if node.is_blackbox:
                continue
            assert node.width == 1, node

    def test_equivalent_on_fig1(self, rng):
        g = build_fig1()
        blast = bit_blast(build_fig1())
        stream = [{"s": rng.randrange(4), "t": rng.randrange(4)}
                  for _ in range(16)]
        assert FunctionalSimulator(g).run(stream) == \
            FunctionalSimulator(blast.graph).run(stream)

    def test_equivalent_with_recurrence(self, rng):
        g = build_recurrent()
        blast = bit_blast(build_recurrent())
        stream = [{"s": rng.randrange(256), "t": rng.randrange(256)}
                  for _ in range(12)]
        assert FunctionalSimulator(g).run(stream) == \
            FunctionalSimulator(blast.graph).run(stream)

    def test_adder_becomes_full_adders(self):
        b = DFGBuilder("t", width=4)
        x, y = b.input("x"), b.input("y")
        b.output(x + y, "o")
        blast = bit_blast(b.build())
        hist = blast.graph.op_histogram()
        assert hist["xor"] >= 4 and hist["and"] >= 3  # ripple structure

    def test_blackbox_stays_opaque(self):
        b = DFGBuilder("t", width=8)
        addr = b.input("addr", 4)
        v = b.load(addr, name="rom")
        b.output(v ^ 1, "o")
        blast = bit_blast(b.build())
        loads = [n for n in blast.graph if n.kind is OpKind.LOAD]
        assert len(loads) == 1 and loads[0].width == 8

    def test_bit_ids_mapping(self):
        g = build_fig1()
        blast = bit_blast(g)
        out = g.outputs[0]
        ids = blast.bit_ids[out.nid]
        assert len(ids) == out.width

    def test_cut_blowup_on_gfmul(self):
        """The Sec. 3.1 claim: bit-level enumeration yields far more cuts."""
        g = build_gfmul()
        blast = bit_blast(build_gfmul())
        word = CutEnumerator(g, 6, max_cuts=8)
        word.run()
        bits = CutEnumerator(blast.graph, 6, max_cuts=8)
        bits.run()
        assert bits.stats.total_selectable > 3 * word.stats.total_selectable

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_property_blast_preserves_semantics(self, seed):
        g = random_dfg(seed, ops=10, width=5, inputs=2, recurrences=1)
        blast = bit_blast(g)
        rng = random.Random(seed)
        stream = [{f"i{k}": rng.randrange(32) for k in range(2)}
                  for _ in range(8)]
        assert FunctionalSimulator(g).run(stream) == \
            FunctionalSimulator(blast.graph).run(stream)


class TestBitBlastExhaustive:
    @pytest.mark.parametrize("kind", _BLASTED_KINDS, ids=lambda k: k.value)
    def test_every_kind_matches_eval_node(self, kind):
        """One ``kind`` node, each operand 1-3 bits wide on its own (so
        unequal widths are covered), every result width 1-3, against
        ``eval_node`` on every input."""
        out_widths = (1,) if kind in COMPARISON_KINDS else (1, 2, 3)
        for widths in itertools.product((1, 2, 3), repeat=arity_of(kind)):
            for width in out_widths:
                b = DFGBuilder(kind.value, width=width)
                args = [b.input(f"in{slot}", w)
                        for slot, w in enumerate(widths)]
                attrs = {"amount": 1} if kind in (
                    OpKind.SHL, OpKind.SHR, OpKind.SLICE) else {}
                value = b.op(kind, *args, width=width, **attrs)
                b.output(value, "o")
                node = b.graph.node(value.nid)
                sim = FunctionalSimulator(bit_blast(b.graph).graph)
                for vals in itertools.product(
                        *(range(1 << w) for w in widths)):
                    got = sim.step({f"in{slot}": v
                                    for slot, v in enumerate(vals)})["o"]
                    assert got == eval_node(node, vals, widths), (
                        widths, width, vals)
