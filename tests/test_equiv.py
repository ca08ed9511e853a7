"""Tests for the symbolic translation-validation engine.

Covers the AIG/SAT core, the word-level encoders (exhaustively, per
opcode, at small widths), the stage validators end to end, the budget's
own checks, injected-bug detection with counterexample decode + replay,
the warm-up gating that seeds recurrences correctly in hardware, the
extended RTL parser/linter checks and the DEP001 SAT tier.
"""

import dataclasses
import itertools
import json

import pytest

from repro.analysis import lint_graph
from repro.analysis.equiv import (
    AIG,
    EquivBudget,
    PairInstance,
    StageVerdict,
    validate_flow,
)
from repro.analysis.equiv.aig import FALSE, TRUE, lit_not
from repro.analysis.equiv.encode import bits_to_int, encode_node
from repro.analysis.equiv.machines import GraphMachine, PipelineMachine
from repro.analysis.equiv.netlist import RtlMachine
from repro.analysis.equiv.sat import solve_lit
from repro.analysis.equiv.validate import _check_stage
from repro.core import MapScheduler, SchedulerConfig
from repro.errors import AnalysisError
from repro.ir.builder import DFGBuilder
from repro.ir.semantics import eval_node
from repro.ir.types import OpKind
from repro.rtl import emit_verilog, lint_verilog
from repro.rtl.parse import Num, parse_module
from repro.tech.device import XC7

from .conftest import build_fig1, build_recurrent


def _schedule(graph):
    return MapScheduler(graph, XC7,
                        SchedulerConfig(ii=1, tcp=10.0)).schedule()


# ----------------------------------------------------------------------
# AIG core and SAT solver
# ----------------------------------------------------------------------

class TestAigCore:
    def test_rewriting_identities(self):
        aig = AIG()
        a = aig.new_input("a")
        b = aig.new_input("b")
        assert aig.and_(a, a) == a
        assert aig.and_(a, lit_not(a)) == FALSE
        assert aig.and_(a, TRUE) == a
        assert aig.and_(a, FALSE) == FALSE
        # Structural hashing: the same AND is the same literal.
        assert aig.and_(a, b) == aig.and_(b, a)

    def test_eval_lit_xor_mux(self):
        aig = AIG()
        a = aig.new_input("a")
        b = aig.new_input("b")
        s = aig.new_input("s")
        x = aig.xor_(a, b)
        m = aig.mux(s, a, b)
        for va, vb, vs in itertools.product((False, True), repeat=3):
            env = {a >> 1: va, b >> 1: vb, s >> 1: vs}
            assert aig.eval_lit(env, x) == (va ^ vb)
            assert aig.eval_lit(env, m) == (va if vs else vb)


class TestSat:
    def test_unsat_contradiction(self):
        aig = AIG()
        a = aig.new_input("a")
        assert solve_lit(aig, aig.and_(a, lit_not(a))).status == "unsat"

    def test_miter_of_identical_cones_is_unsat(self):
        aig = AIG()
        ins = [aig.new_input(f"i{k}") for k in range(4)]
        f = aig.or_(aig.and_(ins[0], ins[1]), aig.xor_(ins[2], ins[3]))
        g = aig.or_(aig.xor_(ins[2], ins[3]), aig.and_(ins[1], ins[0]))
        assert solve_lit(aig, aig.xor_(f, g)).status == "unsat"

    def test_sat_model_satisfies_cone(self):
        aig = AIG()
        a = aig.new_input("a")
        b = aig.new_input("b")
        lit = aig.and_(aig.xor_(a, b), a)
        res = solve_lit(aig, lit)
        assert res.status == "sat"
        env = {v: bool(res.model.get(v, False)) for v in aig.inputs}
        assert aig.eval_lit(env, lit) is True

    def test_cnf_agrees_with_aig_semantics(self):
        """Pinning inputs with assumptions, SAT == direct evaluation."""
        aig = AIG()
        ins = [aig.new_input(f"i{k}") for k in range(3)]
        f = aig.mux(ins[0], aig.xor_(ins[1], ins[2]),
                    aig.and_(ins[1], lit_not(ins[2])))
        for vals in itertools.product((False, True), repeat=3):
            env = dict(zip((l >> 1 for l in ins), vals))
            assumptions = [l if v else lit_not(l)
                           for l, v in zip(ins, vals)]
            res = solve_lit(aig, f, assumptions=assumptions)
            assert (res.status == "sat") == aig.eval_lit(env, f)


# ----------------------------------------------------------------------
# Word-level encoders: exhaustive per-opcode cross-check
# ----------------------------------------------------------------------

def _ops_graph():
    b = DFGBuilder("ops", width=3)
    a = b.input("a", 3)
    c = b.input("c", 3)
    vals = [
        a & c, a | c, a ^ c, ~a, a + c, a - c, -a, a * c,
        a.eq(c), a.ne(c), a.lt(c), a.ge(c), a.slt(c), a.sge(c),
        a.trunc(2), a.zext(5), a.slice(1, 2), a.bit(2),
        a << 1, a >> 2, b.mux(a.bit(0), a, c), b.concat(a, c),
    ]
    for i, v in enumerate(vals):
        b.output(v, f"o{i}")
    return b.build()


class TestEncodersExhaustive:
    def test_every_opcode_matches_functional_semantics(self):
        graph = _ops_graph()
        covered = set()
        for node in graph:
            if node.kind in (OpKind.INPUT, OpKind.OUTPUT, OpKind.CONST):
                continue
            covered.add(node.kind)
            aig = AIG()
            widths = [graph.node(op.source).width for op in node.operands]
            arg_bits = [[aig.new_input(f"s{s}b{i}") for i in range(w)]
                        for s, w in enumerate(widths)]
            out = encode_node(aig, node, arg_bits, widths)
            assert len(out) == node.width
            for vals in itertools.product(
                    *(range(1 << w) for w in widths)):
                env = {}
                for bits, val in zip(arg_bits, vals):
                    for i, lit in enumerate(bits):
                        env[lit >> 1] = bool((val >> i) & 1)
                got = bits_to_int([aig.eval_lit(env, l) for l in out])
                want = eval_node(node, list(vals), widths)
                assert got == want, (node.kind, vals)
        # The graph must actually exercise a healthy opcode spread.
        assert {OpKind.ADD, OpKind.MUL, OpKind.SLT, OpKind.MUX,
                OpKind.CONCAT} <= covered


# ----------------------------------------------------------------------
# Stage validators end to end
# ----------------------------------------------------------------------

class TestValidateFlow:
    @pytest.mark.parametrize("build", [build_fig1, build_recurrent])
    def test_all_stages_proved(self, build):
        graph = build()
        sched = _schedule(graph)
        report = validate_flow(graph, sched)
        assert [v.stage for v in report.stages] == [
            "narrow", "cover", "pipeline", "rtl"]
        for v in report.stages:
            assert v.status == "proved", (v.stage, v.detail, v.notes)
        assert report.ok

    def test_narrow_alone_without_schedule(self, fig1_graph):
        report = validate_flow(fig1_graph, None, stages=("narrow",))
        assert report.stages[0].status == "proved"

    def test_verdict_dict_round_trip(self, fig1_graph):
        sched = _schedule(fig1_graph)
        report = validate_flow(fig1_graph, sched, stages=("rtl",))
        v = report.stages[0]
        again = StageVerdict.from_dict(v.to_dict())
        assert again.to_dict() == v.to_dict()

    def test_starved_budget_leaves_stages_bounded(self, recurrent_graph):
        sched = _schedule(recurrent_graph)
        budget = EquivBudget(max_frames=1, induction_k=0, sat_conflicts=1)
        report = validate_flow(recurrent_graph, sched, budget=budget)
        assert [(v.stage, v.status, v.frames) for v in report.stages] == [
            (stage, "bounded", 1)
            for stage in ("narrow", "cover", "pipeline", "rtl")]
        assert report.ok


class TestEquivBudget:
    @pytest.mark.parametrize("field,value", [
        ("max_frames", 0), ("max_frames", -1), ("induction_k", -1),
        ("sat_conflicts", -1), ("max_frames", 2.0), ("induction_k", True),
        ("sat_conflicts", "10")])
    def test_vacuous_or_mistyped_budget_raises(self, field, value):
        with pytest.raises(AnalysisError) as info:
            EquivBudget(**{field: value})
        assert field in str(info.value)
        assert info.value.report is None

    def test_budget_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EquivBudget().max_frames = 1

    def test_cli_rejects_zero_frames(self, capsys):
        from repro.__main__ import main

        assert main(["equiv", "DR", "--method", "heur-map", "--frames", "0",
                     "--induction-k", "0"]) == 2
        assert "max_frames" in capsys.readouterr().err

    def test_cli_runs_smallest_budget(self, capsys):
        from repro.__main__ import main

        assert main(["equiv", "DR", "--method", "heur-map", "--frames", "2",
                     "--induction-k", "0", "--sat-conflicts", "0",
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [v["status"] for v in document["reports"][0]["stages"]] \
            == ["bounded"] * 4


class TestInjectedBugs:
    def test_tampered_rtl_is_caught_with_replayed_cex(self, fig1_graph):
        sched = _schedule(fig1_graph)
        text = emit_verilog(sched)
        assert " ^ " in text
        # The last xor is the mux's (t ^ s) data leg; AND-ing it instead
        # is observable whenever the two share a set bit.
        idx = text.rindex(" ^ ")
        bad = text[:idx] + " & " + text[idx + 3:]
        module = parse_module(bad)
        verdict = _check_stage(
            "rtl", sched.graph,
            lambda: (GraphMachine(sched.graph), RtlMachine(module, sched)),
            [], EquivBudget())
        assert verdict.status == "inequivalent", verdict.notes
        cex = verdict.counterexample
        assert cex is not None
        assert cex.stream, "decoded input stream must not be empty"
        assert cex.a_value != cex.b_value
        # The model was independently confirmed — at minimum by abstract
        # re-evaluation, and for output goals by functional replay.
        assert cex.confirmed in ("abstract", "replay")

    def test_corrupted_schedule_cycle_is_caught(self, recurrent_graph):
        sched = _schedule(recurrent_graph)
        # Delay every covered root by one cycle but leave the declared
        # latency/output taps alone: replayed iterations misalign.
        import dataclasses

        cycle = dict(sched.cycle)
        out_src = {op.source for n in sched.graph.outputs
                   for op in n.operands}
        bump = [nid for nid in sched.cover
                if nid in cycle and nid not in out_src]
        if not bump:
            pytest.skip("no interior root to misalign")
        for nid in bump:
            cycle[nid] += 1
        bad = dataclasses.replace(sched, cycle=cycle)
        verdict = _check_stage(
            "pipeline", sched.graph,
            lambda: (GraphMachine(sched.graph), PipelineMachine(bad)),
            [], EquivBudget())
        assert verdict.status in ("inequivalent", "error"), verdict


# ----------------------------------------------------------------------
# Warm-up gating: recurrences must see their declared initials
# ----------------------------------------------------------------------

class TestWarmGating:
    def test_warm_sr_emitted_for_carried_state(self, recurrent_graph):
        sched = _schedule(recurrent_graph)
        text = emit_verilog(sched)
        assert "warm_sr" in text
        assert lint_verilog(text) == []
        machine = RtlMachine(parse_module(text), sched)
        assert machine.warm_frames >= 1

    def test_no_warm_sr_for_feedforward(self, fig1_graph):
        sched = _schedule(fig1_graph)
        assert "warm_sr" not in emit_verilog(sched)

    def test_nonzero_initial_recurrence_proves(self):
        # Seed-4 regression class: a true recurrence (acc += step) whose
        # declared initial is nonzero. Without the warm gate the
        # hardware seeds the accumulator from a junk cold-pipeline value
        # and every frame diverges.
        b = DFGBuilder("warmacc", width=8)
        t = b.input("t", 8)
        acc = b.recurrence("acc", width=8, initial=107)
        nxt = -(~acc)  # acc + 1, via the seed-4 shape
        nxt.feed(acc)
        b.output(nxt ^ t, "out")
        graph = b.build()
        sched = _schedule(graph)
        report = validate_flow(graph, sched)
        for v in report.stages:
            assert v.status == "proved", (v.stage, v.detail, v.notes)

    def test_wrong_warm_initial_is_caught_in_cold_frames(
            self, recurrent_graph):
        # Soundness of the induction split: the steady state is proved by
        # induction with the gate saturated, so an initialization bug is
        # only visible while warm_sr fills — BMC must cover those frames.
        sched = _schedule(recurrent_graph)
        text = emit_verilog(sched)
        assert ": 8'd3)" in text  # the warm mux's declared-initial leg
        bad = text.replace(": 8'd3)", ": 8'd5)")
        module = parse_module(bad)
        verdict = _check_stage(
            "rtl", sched.graph,
            lambda: (GraphMachine(sched.graph), RtlMachine(module, sched)),
            [], EquivBudget())
        assert verdict.status == "inequivalent", verdict.notes
        machine = RtlMachine(module, sched)
        assert verdict.counterexample.frame < machine.warm_frames


# ----------------------------------------------------------------------
# RTL parser + linter extensions
# ----------------------------------------------------------------------

class TestParserAndLint:
    def test_parser_accepts_binary_and_hex_literals(self):
        text = (
            "module m (input wire clk, input wire in_valid,\n"
            "          input wire [3:0] a_0, output wire [3:0] o_1,\n"
            "          output wire out_valid);\n"
            "wire [3:0] x_2 = {a_0[2:0], 1'b1} ^ 4'hA;\n"
            "reg [1:0] valid_sr = 0;\n"
            "always @(posedge clk) begin\n"
            "    valid_sr <= {valid_sr[0:0], in_valid};\n"
            "end\n"
            "assign o_1 = x_2;\n"
            "assign out_valid = valid_sr[0];\n"
            "endmodule\n"
        )
        module = parse_module(text)
        wire = next(w for w in module.wires if w.name == "x_2")
        nums = []

        def walk(e):
            if isinstance(e, Num):
                nums.append((e.value, e.width))
            for attr in ("left", "right", "arg", "cond", "if_true",
                         "if_false", "index"):
                sub = getattr(e, attr, None)
                if sub is not None:
                    walk(sub)
            for p in getattr(e, "parts", ()):
                walk(p)

        walk(wire.expr)
        assert (1, 1) in nums  # 1'b1
        assert (10, 4) in nums  # 4'hA

    def test_lint_flags_undriven_wire(self):
        text = ("module m (input wire clk);\n"
                "wire [3:0] floating;\n"
                "endmodule\n")
        assert any("never driven" in p for p in lint_verilog(text))

    def test_lint_flags_out_of_range_select(self):
        probs = lint_verilog("module m (\n    input wire [3:0] a_0,\n"
                             "    output wire [3:0] o_1\n);\n"
                             "wire [3:0] x_2 = a_0[5:1];\n"
                             "assign o_1 = x_2;\nendmodule\n")
        assert any("reaches past" in p for p in probs)

    def test_lint_flags_overflowing_literal(self):
        probs = lint_verilog("module m (\n    output wire [3:0] o_1\n);\n"
                             "wire [3:0] x_2 = 2'd9;\n"
                             "assign o_1 = x_2;\nendmodule\n")
        assert any("overflows" in p for p in probs)

    def test_lint_flags_concat_width_mismatch(self):
        probs = lint_verilog("module m (\n    input wire [3:0] a_0,\n"
                             "    output wire [3:0] o_1\n);\n"
                             "wire [4:0] x_2 = {a_0[1:0], a_0[1:0]};\n"
                             "assign o_1 = x_2;\nendmodule\n")
        assert any("concatenation" in p for p in probs)

    def test_lint_flags_oversized_literal_assign(self):
        probs = lint_verilog("module m (\n    output wire [1:0] o_1\n);\n"
                             "wire [1:0] x_2 = 1'd0;\n"
                             "assign o_1 = 8'd3;\nendmodule\n")
        assert any("sized 8 bits" in p for p in probs)

    @pytest.mark.parametrize("build", [build_fig1, build_recurrent])
    def test_emitted_modules_lint_clean(self, build):
        assert lint_verilog(emit_verilog(_schedule(build()))) == []


# ----------------------------------------------------------------------
# DEP001 SAT tier
# ----------------------------------------------------------------------

class TestDepSatTier:
    def test_sat_tier_prunes_false_suspects(self, recurrent_graph):
        report = lint_graph(recurrent_graph)
        assert "DEP001" not in {d.code for d in report.diagnostics}

    def test_tiny_conflict_budget_does_not_crash(self, fig1_graph):
        report = lint_graph(fig1_graph, options={"dep_sat_conflicts": 1})
        assert report is not None


# ----------------------------------------------------------------------
# Fuzz-found emitter bug regressions (context-width sizing, fill window)
# ----------------------------------------------------------------------

class TestFuzzRegressions:
    # Seeds that historically exposed real emitter bugs: 3 (inlined
    # interior evaluated at context width, and $signed taking its sign
    # from the self-determined width), 1/9 (gap-0 carried edges: fill
    # transients that must be excused only when the steady state proves),
    # 7 (masked-interior shape). Seed 4 (recurrence mis-seeding) is
    # covered by TestWarmGating at a fraction of the cost.
    @pytest.mark.parametrize("seed", [1, 3, 7, 9])
    def test_seed_passes_equiv_oracle(self, seed):
        from repro.fuzz.generate import generate_case
        from repro.fuzz.oracles import FuzzCase, run_oracle

        case = FuzzCase(generate_case(seed))
        result = run_oracle("equiv", case)
        assert result.status in ("pass", "skip"), result.message
