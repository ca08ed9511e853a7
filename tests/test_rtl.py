"""Unit tests for Verilog emission and the structural linter."""

import pytest

from repro.core import MapScheduler, SchedulerConfig
from repro.errors import RTLError
from repro.hls import CommercialHLSProxy
from repro.rtl import emit_verilog, lint_verilog
from repro.scheduling.schedule import Schedule
from repro.tech.device import TUTORIAL4, XC7

from .conftest import build_fig1, build_recurrent


class TestEmission:
    def test_ports_present(self):
        sched = MapScheduler(build_fig1(), TUTORIAL4,
                             SchedulerConfig(ii=1, tcp=5.0)).schedule()
        text = emit_verilog(sched)
        assert "module fig1" in text
        assert "input wire clk" in text
        assert "output wire out_valid" in text
        assert "input wire [1:0] s_0" in text

    def test_feedback_register_emitted(self):
        sched = MapScheduler(build_recurrent(), XC7,
                             SchedulerConfig(ii=1, tcp=10.0)).schedule()
        text = emit_verilog(sched)
        assert "_r1" in text  # at least one staged register
        assert "always @(posedge clk)" in text

    def test_initial_value_in_register(self):
        sched = MapScheduler(build_recurrent(), XC7,
                             SchedulerConfig(ii=1, tcp=10.0)).schedule()
        text = emit_verilog(sched)
        assert "8'd3" in text  # the recurrence's declared initial

    def test_memory_blackbox(self):
        from repro.designs import build_mt

        sched = MapScheduler(build_mt(), XC7,
                             SchedulerConfig(ii=1, tcp=10.0)).schedule()
        text = emit_verilog(sched)
        assert "black-box load" in text
        assert lint_verilog(text) == []

    def test_requires_cover(self, fig1_graph):
        bare = Schedule(graph=fig1_graph, ii=1, tcp=5.0,
                        cycle={n.nid: 0 for n in fig1_graph})
        with pytest.raises(RTLError, match="cover"):
            emit_verilog(bare)

    def test_ii_must_be_one(self, fig1_graph):
        bare = Schedule(graph=fig1_graph, ii=2, tcp=5.0,
                        cycle={n.nid: 0 for n in fig1_graph},
                        cover={0: None})
        with pytest.raises(RTLError, match="II=1"):
            emit_verilog(bare)

    @pytest.mark.parametrize("flow", ["map", "hls"])
    def test_lint_clean_for_both_flows(self, flow):
        g = build_recurrent()
        if flow == "map":
            sched = MapScheduler(g, XC7,
                                 SchedulerConfig(ii=1, tcp=10.0)).schedule()
        else:
            sched = CommercialHLSProxy(g, XC7, tcp=10.0).run()
        assert lint_verilog(emit_verilog(sched)) == []


class TestLinter:
    def test_detects_unbalanced_parens(self):
        assert "unbalanced parentheses" in " ".join(
            lint_verilog("module m (; endmodule")
        )

    def test_detects_missing_module(self):
        assert lint_verilog("wire x = 1;")

    def test_detects_undeclared_identifier(self):
        text = """module m (
input wire clk
);
wire [3:0] a = ghost + 1;
endmodule"""
        assert any("ghost" in p for p in lint_verilog(text))

    def test_detects_degenerate_range(self):
        text = """module m (
input wire clk
);
wire [-1:0] a = 1;
endmodule"""
        assert any("degenerate" in p for p in lint_verilog(text))

    def test_clean_module_passes(self):
        text = """module m (
input wire clk,
input wire [3:0] a
);
wire [3:0] b = a ^ 4'd3;
assign c = b;
wire [3:0] c;
endmodule"""
        assert lint_verilog(text) == []
