"""Unit tests for CDFG validation and DOT export."""

import pytest

from repro.errors import ValidationError
from repro.ir import CDFG, DFGBuilder, OpKind, Operand, to_dot, validate


class TestValidation:
    def test_valid_graph_has_no_problems(self, fig1_graph):
        validate(fig1_graph)

    def test_missing_operand_source(self):
        g = CDFG()
        a = g.add_node(OpKind.INPUT, 4, name="a")
        x = g.add_node(OpKind.NOT, 4, operands=[Operand(a.nid)])
        g.add_node(OpKind.OUTPUT, 4, operands=[x.nid], name="o")
        g.set_operand(x.nid, 0, Operand(77, 1))
        with pytest.raises(ValidationError, match="missing node 77"):
            validate(g)

    def test_const_value_must_fit(self):
        g = CDFG()
        c = g.add_node(OpKind.CONST, 4, value=3)
        c.value = 99  # corrupt after construction
        g.add_node(OpKind.OUTPUT, 4, operands=[c.nid], name="o")
        with pytest.raises(ValidationError, match="does not fit"):
            validate(g)

    def test_mux_select_width(self):
        g = CDFG()
        sel = g.add_node(OpKind.INPUT, 2, name="sel")
        a = g.add_node(OpKind.INPUT, 4, name="a")
        m = g.add_node(OpKind.MUX, 4, operands=[sel.nid, a.nid, a.nid])
        g.add_node(OpKind.OUTPUT, 4, operands=[m.nid], name="o")
        with pytest.raises(ValidationError, match="width 2 != 1"):
            validate(g)

    def test_output_must_be_sink(self):
        g = CDFG()
        a = g.add_node(OpKind.INPUT, 4, name="a")
        o = g.add_node(OpKind.OUTPUT, 4, operands=[a.nid], name="o")
        g.add_node(OpKind.NOT, 4, operands=[o.nid])
        with pytest.raises(ValidationError, match="has consumers"):
            validate(g)

    def test_slice_out_of_range(self):
        g = CDFG()
        a = g.add_node(OpKind.INPUT, 4, name="a")
        s = g.add_node(OpKind.SLICE, 3, operands=[a.nid], amount=2)
        g.add_node(OpKind.OUTPUT, 3, operands=[s.nid], name="o")
        with pytest.raises(ValidationError, match="exceeds"):
            validate(g)

    def test_dead_code_flagged(self):
        b = DFGBuilder("t", width=4)
        i = b.input("i")
        _dead = i ^ 1
        b.output(i, "o")
        with pytest.raises(ValidationError, match="dead operation"):
            validate(b.graph)

    def test_no_outputs_flagged(self):
        g = CDFG()
        g.add_node(OpKind.INPUT, 4, name="a")
        with pytest.raises(ValidationError, match="no primary outputs"):
            validate(g)

    def test_validate_raises(self):
        g = CDFG()
        with pytest.raises(ValidationError):
            validate(g)

    def test_message_joins_first_eight_errors(self):
        b = DFGBuilder("t", width=4)
        i = b.input("i")
        for k in range(10):
            _dead = i ^ k
        b.output(i, "o")
        with pytest.raises(ValidationError) as exc:
            validate(b.graph)
        assert str(exc.value).count("dead operation") == 8


class TestDot:
    def test_contains_all_nodes_and_edges(self, fig1_graph):
        text = to_dot(fig1_graph)
        for node in fig1_graph:
            assert f"n{node.nid}" in text
        assert text.count("->") == sum(
            len(n.operands) for n in fig1_graph
        )

    def test_clusters_by_cycle(self, fig1_graph):
        cycles = {nid: 0 for nid in fig1_graph.node_ids}
        cycles[fig1_graph.outputs[0].nid] = 1
        text = to_dot(fig1_graph, cycle_of=cycles)
        assert "cluster_c0" in text and "cluster_c1" in text

    def test_back_edges_dashed(self, recurrent_graph):
        text = to_dot(recurrent_graph)
        assert "style=dashed" in text

    def test_highlight_roots(self, fig1_graph):
        text = to_dot(fig1_graph, highlight_roots={0})
        assert "penwidth=3" in text
