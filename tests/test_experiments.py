"""Tests for the experiment harnesses (Table 1/2, Figures 1/2, ablations)."""

from pathlib import Path

import pytest

from repro.core import SchedulerConfig
from repro.errors import ExperimentError
from repro.experiments import (
    METHODS,
    build_figure1_kernel,
    build_figure2_kernel,
    format_figure1,
    format_figure2,
    format_k_sweep,
    format_table1,
    format_table2,
    percent,
    render_table,
    run_figure1,
    run_figure2,
    run_flow,
    run_table1,
    run_table2,
    sweep_bitblast,
    sweep_k,
)
from repro.tech.device import TUTORIAL4, XC7


class TestReporting:
    def test_percent_formatting(self):
        assert percent(50, 100) == "(-50.0%)"
        assert percent(110, 100) == "(+10.0%)"
        assert percent(0, 0) == "(+0.0%)"
        assert percent(5, 0) == "(n/a)"

    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "-+-" in lines[2]
        assert len({len(line) for line in lines[1:]}) <= 2


class TestFlows:
    def test_unknown_method_rejected(self, fig1_graph):
        with pytest.raises(ExperimentError, match="unknown method"):
            run_flow(fig1_graph, "vivado", XC7)

    @pytest.mark.parametrize("method", METHODS)
    def test_each_method_produces_verified_hw(self, method, fast_config):
        flow = run_flow(build_figure1_kernel(), method, TUTORIAL4,
                        SchedulerConfig(ii=1, tcp=5.0, time_limit=30))
        assert flow.report.luts >= 0
        assert flow.report.cp <= 5.0
        assert flow.schedule.cover


class TestFigure1:
    def test_map_beats_tool_on_stages_and_luts(self):
        result = run_figure1()
        tool = result.reports["hls-tool"]
        mapped = result.reports["milp-map"]
        assert result.schedules["milp-map"].latency == 1
        assert result.schedules["hls-tool"].latency > 1
        assert mapped.luts < tool.luts
        assert mapped.ffs == 0

    def test_formatting_mentions_both_flows(self):
        text = format_figure1(run_figure1())
        assert "HLS tool" in text and "mapping-aware" in text
        assert "LUT" in text

    def test_dot_outputs_produced(self):
        result = run_figure1()
        for dot in result.dots.values():
            assert dot.startswith("digraph")


class TestFigure2:
    def test_kernel_matches_paper_structure(self):
        g = build_figure2_kernel()
        names = {n.name for n in g if n.name}
        assert {"A", "B", "C", "D", "E"} <= names

    def test_sign_bit_refinement_found(self):
        result = run_figure2()
        sge = next(n for n in result.kernel if n.kind.value == "sge")
        assert any(c.max_support == 1
                   for c in result.cuts[sge.nid].selectable)

    def test_loop_boundary_entries(self):
        result = run_figure2()
        mux = next(n for n in result.kernel if n.kind.value == "mux")
        assert any(
            any(d >= 1 for _, d in cut.entries)
            for cut in result.cuts[mux.nid].selectable
        )

    def test_formatting(self):
        text = format_figure2(run_figure2())
        assert "sign-test refinement" in text
        assert "selectable cuts" in text


class TestTables:
    def test_table1_on_small_subset(self):
        config = SchedulerConfig(ii=1, tcp=10.0, time_limit=30)
        result = run_table1(designs=["GFMUL"], config=config,
                            replay_iterations=8)
        assert len(result.rows) == 3
        assert all(r.replay_ok for r in result.rows)
        per = result.rows_for("GFMUL")
        assert per["milp-map"].report.ffs <= per["hls-tool"].report.ffs
        text = format_table1(result)
        assert "GFMUL" in text and "MILP-map" in text and "%" in text

    def test_table1_rejects_unknown_design(self):
        with pytest.raises(ExperimentError):
            run_table1(designs=["BOGUS"])

    def test_table2_on_small_subset(self):
        config = SchedulerConfig(ii=1, tcp=10.0, time_limit=30)
        result = run_table2(designs=["GFMUL"], config=config)
        row = result.rows[0]
        assert row.map_constraints > row.base_constraints
        assert row.num_ops > 0
        text = format_table2(result)
        assert "GFMUL" in text and "Mean" in text


RESULTS = Path(__file__).resolve().parent.parent / "results"


def result_rows(name, columns):
    """The leading ``columns`` cells of every data row of a results table."""
    lines = (RESULTS / name).read_text().splitlines()[3:]
    return [[cell.strip() for cell in line.split("|")[:columns]]
            for line in lines if line.strip()]


class TestAblations:
    def test_enumeration_counts_match_results(self):
        """The count columns of Ablations C and E (timings ignored);
        bit-blasted graphs have the most nodes per word of bit space of
        anything enumerated here."""
        k_rows = [[p.design, str(p.k), str(p.cuts), str(p.candidates)]
                  for p in sweep_k()]
        assert k_rows == result_rows("ablation_k.txt", 4)
        blast_rows = [[p.design, str(p.word_ops), str(p.bit_ops),
                       str(p.word_cuts), str(p.bit_cuts)]
                      for p in sweep_bitblast()]
        # the results table adds CLZ to the three default designs
        assert blast_rows == result_rows("ablation_bitblast.txt", 5)[:3]

    def test_k_sweep_counts_grow_with_k(self):
        points = sweep_k(designs=["GFMUL"], ks=[2, 4, 6])
        by_k = {p.k: p.cuts for p in points}
        assert by_k[2] <= by_k[4] <= by_k[6]
        assert "Ablation C" in format_k_sweep(points)
