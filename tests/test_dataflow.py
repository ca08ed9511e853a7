"""Tests for the abstract-interpretation framework (repro.analysis.dataflow).

The centerpiece is the *differential* harness: for every benchmark, ≥1,000
random concrete executions are checked against every abstract fact — a
known bit that a concrete value violates, an interval that fails to cover
an observed value, or a "dead" MUX arm that was concretely taken would
each be a soundness bug in a transfer function, and fails loudly here.
"""

import dataclasses
import json
import random

import pytest

from repro.analysis import Linter, lint_graph
from repro.analysis.dataflow import (
    Facts,
    Interval,
    KnownBits,
    analyze,
    cached_analyze,
    reduce_facts,
    transfer,
)
from repro.analysis.dataflow.engine import _initial_fact
from repro.designs.registry import BENCHMARKS
from repro.errors import AnalysisError
from repro.ir.graph import CDFG
from repro.ir.node import Node, Operand
from repro.ir.semantics import eval_node, mask
from repro.ir.transforms import narrow_graph
from repro.ir.types import COMPARISON_KINDS, OpKind
from repro.sim.functional import FunctionalSimulator

from .conftest import build_fig1, build_recurrent


# ----------------------------------------------------------------------
# Domains: lattice algebra
# ----------------------------------------------------------------------

class TestKnownBits:
    def test_const_knows_everything(self):
        kb = KnownBits.const(0b1010, 4)
        assert kb.is_constant and kb.value == 0b1010
        assert kb.zeros == 0b0101
        assert [kb.bit(i) for i in range(4)] == [0, 1, 0, 1]
        assert kb.bit(99) == 0  # beyond the width is proven zero

    def test_join_keeps_agreement_only(self):
        j = KnownBits.const(0b1100, 4).join(KnownBits.const(0b1010, 4))
        assert j.bit(3) == 1  # both have bit 3 set
        assert j.bit(0) == 0  # both have bit 0 clear
        assert j.bit(1) is None and j.bit(2) is None

    def test_invariant_enforced(self):
        with pytest.raises(AnalysisError):
            KnownBits(4, ones=0b0001, unknown=0b0001)
        with pytest.raises(AnalysisError):
            KnownBits(2, ones=0b100, unknown=0)

    def test_dead_high_bits(self):
        assert KnownBits(8, 0, 0b1111).dead_high_bits() == 4
        assert KnownBits.const(0, 8).dead_high_bits() == 8
        assert KnownBits.top(8).dead_high_bits() == 0

    def test_contains_matches_concretization(self):
        kb = KnownBits(3, ones=0b001, unknown=0b010)
        assert {v for v in range(8) if kb.contains(v)} == {0b001, 0b011}


class TestInterval:
    def test_signed_bounds_pages(self):
        assert Interval(4, 1, 6).signed_bounds() == (1, 6)
        assert Interval(4, 9, 15).signed_bounds() == (-7, -1)
        assert Interval(4, 6, 9).signed_bounds() == (-8, 7)  # straddles

    def test_join_and_widen(self):
        a, b = Interval(8, 10, 20), Interval(8, 15, 40)
        assert a.join(b) == Interval(8, 10, 40)
        # hi moved up since previous -> widened to the extreme; lo stable.
        assert Interval(8, 10, 40).widen(a) == Interval(8, 10, 255)
        assert a.widen(a) == a

    def test_resize_truncation_pages(self):
        assert Interval(8, 3, 7).resize(4) == Interval(4, 3, 7)
        # Same 16-value page: exact.
        assert Interval(8, 0x12, 0x15).resize(4) == Interval(4, 2, 5)
        # Crosses a page boundary: top.
        assert Interval(8, 14, 17).resize(4) == Interval.top(4)

    def test_invariant_enforced(self):
        with pytest.raises(AnalysisError):
            Interval(4, 5, 3)
        with pytest.raises(AnalysisError):
            Interval(4, 0, 16)


class TestReducedProduct:
    def test_bits_clip_interval(self):
        kb = KnownBits(4, ones=0b1000, unknown=0b0011)  # value in [8, 11]
        f = reduce_facts(kb, Interval.top(4))
        assert f.range == Interval(4, 8, 11)

    def test_interval_pins_bits(self):
        f = reduce_facts(KnownBits.top(4), Interval(4, 12, 13))
        # 12..13 share prefix 110x.
        assert f.bits.bit(3) == 1 and f.bits.bit(2) == 1
        assert f.bits.bit(1) == 0 and f.bits.bit(0) is None

    def test_empty_product_raises(self):
        with pytest.raises(AnalysisError):
            reduce_facts(KnownBits.const(2, 4), Interval(4, 8, 9))

    def test_constant_from_either_domain(self):
        assert Facts.const(9, 4).constant_value == 9
        assert Facts(KnownBits.top(4), Interval(4, 7, 7)).constant_value == 7


# ----------------------------------------------------------------------
# Transfer functions: exhaustive micro-soundness at small widths
# ----------------------------------------------------------------------

def _facts_of(values, width):
    """The join of const facts for a concrete value set."""
    out = Facts.const(values[0], width)
    for v in values[1:]:
        out = out.join(Facts.const(v, width))
    return out


_BINARY_KINDS = [
    OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.ADD, OpKind.SUB,
    OpKind.MUL, OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.GE,
    OpKind.SLT, OpKind.SGE, OpKind.VSHL, OpKind.VSHR,
    OpKind.DIV, OpKind.MOD,
]


class TestTransferExhaustive:
    """Abstract outputs must cover every concrete combination.

    For each op we abstract two small concrete sets, run the transfer
    function once, and check the result contains eval_node's output for
    the full cross product — over *all* 3-bit value-set pairs drawn from a
    seeded sampler. This is the same over-approximation contract the
    benchmark-level differential harness checks, pushed to exhaustion on
    tiny words where every corner (wrap, sign flip, shift clamp) occurs.
    """

    @pytest.mark.parametrize("kind", _BINARY_KINDS,
                             ids=lambda k: k.value)
    def test_binary_ops_cover_cross_product(self, kind):
        rng = random.Random(hash(kind.value) & 0xFFFF)
        width = 3
        out_width = 1 if kind in COMPARISON_KINDS else width
        for _ in range(120):
            a_set = rng.sample(range(8), rng.randint(1, 3))
            b_set = rng.sample(range(8), rng.randint(1, 3))
            if kind in (OpKind.DIV, OpKind.MOD):
                b_set = [b for b in b_set if b] or [1]
            node = Node(nid=0, kind=kind, width=out_width,
                        operands=[Operand(1), Operand(2)])
            abstract = transfer(node, [_facts_of(a_set, width),
                                       _facts_of(b_set, width)])
            for a in a_set:
                for b in b_set:
                    concrete = eval_node(node, [a, b], [width, width])
                    assert abstract.contains(concrete), (
                        f"{kind.value}({a}, {b}) = {concrete} "
                        f"not in {abstract}"
                    )

    def test_mux_covers_both_arms_and_decides(self):
        node = Node(nid=0, kind=OpKind.MUX, width=3,
                    operands=[Operand(1), Operand(2), Operand(3)])
        sel_top = Facts.top(1)
        out = transfer(node, [sel_top, Facts.const(5, 3), Facts.const(2, 3)])
        assert out.contains(5) and out.contains(2)
        decided = transfer(node, [Facts.const(1, 1), Facts.const(5, 3),
                                  Facts.const(2, 3)])
        assert decided.constant_value == 5

    def test_shift_slice_concat_exact_on_constants(self):
        shl = Node(nid=0, kind=OpKind.SHL, width=6, operands=[Operand(1)],
                   amount=2)
        assert transfer(shl, [Facts.const(5, 4)]).constant_value == 20
        sl = Node(nid=0, kind=OpKind.SLICE, width=2, operands=[Operand(1)],
                  amount=1)
        assert transfer(sl, [Facts.const(0b0110, 4)]).constant_value == 0b11
        cc = Node(nid=0, kind=OpKind.CONCAT, width=6,
                  operands=[Operand(1), Operand(2)])
        got = transfer(cc, [Facts.const(0b10, 2), Facts.const(0b1011, 4)])
        assert got.constant_value == 0b101110

    def test_not_neg_exact(self):
        n = Node(nid=0, kind=OpKind.NOT, width=4, operands=[Operand(1)])
        assert transfer(n, [Facts.const(0b0101, 4)]).constant_value == 0b1010
        g = Node(nid=0, kind=OpKind.NEG, width=4, operands=[Operand(1)])
        assert transfer(g, [Facts.const(3, 4)]).constant_value == 13


# ----------------------------------------------------------------------
# Engine: fixpoint behavior
# ----------------------------------------------------------------------

class TestEngine:
    def test_terminates_and_proves_recurrence_facts(self):
        g = build_recurrent()
        df = analyze(g)
        assert df.sweeps <= 10
        for node in g:
            assert df.fact(node.nid).width == node.width

    def test_proves_constant_through_mux(self):
        g = CDFG("decided")
        a = g.add_node(OpKind.INPUT, 4, name="a")
        zero = g.add_node(OpKind.CONST, 4, value=0)
        band = g.add_node(OpKind.AND, 4, operands=[a.nid, zero.nid])
        one = g.add_node(OpKind.CONST, 1, value=1)
        nz = g.add_node(OpKind.NE, 1, operands=[band.nid, zero.nid])
        # nz is provably 0 -> the mux always takes arm 2.
        m = g.add_node(OpKind.MUX, 4, operands=[nz.nid, a.nid, zero.nid])
        g.add_node(OpKind.OUTPUT, 4, operands=[m.nid], name="o")
        _ = one
        df = analyze(g)
        assert df.constant_value(band.nid) == 0
        assert df.comparison_outcome(nz.nid) == 0
        assert df.mux_select(m.nid) == 0
        assert df.constant_value(m.nid) == 0

    def test_widening_caps_sweeps_on_counter(self):
        g = CDFG("counter")
        one = g.add_node(OpKind.CONST, 8, value=1)
        acc = g.add_node(OpKind.ADD, 8,
                         operands=[Operand(one.nid), Operand(one.nid, 1)])
        g.set_operand(acc.nid, 1, Operand(acc.nid, 1))
        g.add_node(OpKind.OUTPUT, 8, operands=[acc.nid], name="o")
        df = analyze(g)
        # The counter wraps through all 256 values: widening must kick in
        # long before 256 sweeps.
        assert df.sweeps < 64
        sim = FunctionalSimulator(g)
        for i in range(300):
            out = sim.step({})
            assert df.fact(acc.nid).contains(out["o"])

    def test_cache_reused_and_invalidated(self):
        g = build_fig1()
        first = cached_analyze(g)
        assert cached_analyze(g) is first
        g.add_node(OpKind.CONST, 4, value=3)
        assert cached_analyze(g) is not first


# ----------------------------------------------------------------------
# The differential harness (ISSUE 2 acceptance: zero violations)
# ----------------------------------------------------------------------

N_SIMS = 1000


def _check_facts_against_run(graph, df, sim, inputs_stream):
    """Assert every abstract fact covers every concrete observation."""
    history = []
    for inputs in inputs_stream:
        sim.step(inputs)
    for i in range(len(inputs_stream)):
        history.append(sim.values_at(i))

    initials = {n.nid: mask(int(n.attrs.get("initial", 0)), n.width)
                for n in graph}
    for i, values in enumerate(history):
        for node in graph:
            value = values[node.nid]
            fact = df.fact(node.nid)
            assert fact.contains(value), (
                f"iter {i}: node {node.nid} ({node.kind.value}) = {value} "
                f"escapes {fact}"
            )
        # Operand-level facts: what each consumer actually saw, including
        # loop-carried reads resolved from history/initials.
        for node in graph:
            for slot, op in enumerate(node.operands):
                if op.distance == 0:
                    seen = values[op.source]
                elif i - op.distance >= 0:
                    seen = history[i - op.distance][op.source]
                else:
                    seen = initials[op.source]
                ofact = df.operand_fact(node.nid, slot)
                assert ofact.contains(seen), (
                    f"iter {i}: operand {slot} of node {node.nid} = {seen} "
                    f"escapes {ofact}"
                )
            if node.kind is OpKind.MUX:
                decided = df.mux_select(node.nid)
                if decided is not None:
                    sel = (values[node.operands[0].source]
                           if node.operands[0].distance == 0 else None)
                    if sel is not None:
                        assert sel & 1 == decided
            if node.kind in COMPARISON_KINDS:
                outcome = df.comparison_outcome(node.nid)
                if outcome is not None:
                    assert values[node.nid] == outcome


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_differential_soundness(name):
    spec = BENCHMARKS[name]
    graph = spec.build()
    df = analyze(graph)
    sim = FunctionalSimulator(graph, spec.make_env(11))
    stream = spec.input_stream(seed=11, n=N_SIMS)
    assert len(stream) >= 1000
    _check_facts_against_run(graph, df, sim, stream)


def test_differential_soundness_tutorial_kernels():
    for builder in (build_fig1, build_recurrent):
        graph = builder()
        df = analyze(graph)
        rng = random.Random(23)
        widths = {n.name: n.width for n in graph.inputs}
        stream = [{k: rng.randrange(1 << w) for k, w in widths.items()}
                  for _ in range(N_SIMS)]
        _check_facts_against_run(graph, df, FunctionalSimulator(graph), stream)


# ----------------------------------------------------------------------
# narrow_graph: equivalence + measured shrink
# ----------------------------------------------------------------------

class TestNarrowGraph:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_functionally_equivalent(self, name):
        spec = BENCHMARKS[name]
        graph = spec.build()
        narrowed, mapping = narrow_graph(graph)
        stream = spec.input_stream(seed=5, n=300)
        ref = FunctionalSimulator(graph, spec.make_env(5))
        new = FunctionalSimulator(narrowed, spec.make_env(5))
        for inputs in stream:
            assert ref.step(inputs) == new.step(inputs)
        # The interface survives: same input/output names and widths.
        assert {(n.name, n.width) for n in graph.inputs} == \
            {(n.name, n.width) for n in narrowed.inputs}
        assert {(n.name, n.width) for n in graph.outputs} == \
            {(n.name, n.width) for n in narrowed.outputs}
        # Every surviving node maps into the new graph.
        for old_id, new_id in mapping.items():
            assert new_id in narrowed

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_never_introduces_lint_errors(self, name):
        narrowed, _ = narrow_graph(BENCHMARKS[name].build())
        assert not lint_graph(narrowed).errors

    def test_narrows_bits_somewhere(self):
        # Dataflow must beat syntax on at least these benchmarks.
        shrunk = {}
        for name in ("CLZ", "DR", "GSM"):
            g = BENCHMARKS[name].build()
            n, _ = narrow_graph(g)
            shrunk[name] = (sum(x.width for x in g),
                            sum(x.width for x in n))
        assert all(after < before for before, after in shrunk.values()), shrunk

    def test_milp_and_cuts_shrink_on_gsm(self):
        """ISSUE 2 acceptance: measured reduction with narrowing on."""
        from repro.core.config import SchedulerConfig
        from repro.core.formulation import MappingAwareFormulation
        from repro.core.mapsched import MapScheduler
        from repro.tech.device import XC7

        sizes = []
        graph = BENCHMARKS["GSM"].build()
        for g in (graph, narrow_graph(graph)[0]):
            sched = MapScheduler(g, XC7, SchedulerConfig())
            cuts = sched.enumerate()
            model = MappingAwareFormulation(
                g, cuts, XC7, sched.config, sched._horizon()).build()
            sizes.append((sum(len(cs.selectable) for cs in cuts.values()),
                          model.num_vars))
        (cuts_before, vars_before), (cuts_after, vars_after) = sizes
        assert cuts_after < cuts_before
        assert vars_after < vars_before

    def test_run_flow_no_narrow_escape_hatch(self):
        from repro.core.config import SchedulerConfig
        from repro.experiments import run_flow
        from repro.tech.device import TUTORIAL4

        cfg = SchedulerConfig(ii=1, tcp=5.0, time_limit=10.0)
        graph = build_fig1()
        on = run_flow(graph, "milp-map", TUTORIAL4, cfg)
        off = run_flow(graph, "milp-map", TUTORIAL4,
                       dataclasses.replace(cfg, narrow=False))
        # The escape hatch schedules the original node count.
        assert len(list(off.schedule.graph)) == len(list(graph))
        assert on.report.luts <= off.report.luts


# ----------------------------------------------------------------------
# DF rules
# ----------------------------------------------------------------------

class TestDFRules:
    def test_df001_reports_structural_dead_bits(self):
        g = CDFG("deadhigh")
        a = g.add_node(OpKind.INPUT, 8, name="a")
        seven = g.add_node(OpKind.CONST, 8, value=7)
        low = g.add_node(OpKind.AND, 8, operands=[a.nid, seven.nid])
        g.add_node(OpKind.OUTPUT, 8, operands=[low.nid], name="o")
        report = lint_graph(g, select=["DF001"])
        assert [d.node for d in report] == [low.nid]
        assert "top 5 of 8 bits" in report.diagnostics[0].message

    def test_df001_silent_on_definitional_zeros(self):
        g = CDFG("zext")
        a = g.add_node(OpKind.INPUT, 4, name="a")
        z = g.add_node(OpKind.ZEXT, 8, operands=[a.nid])
        g.add_node(OpKind.OUTPUT, 8, operands=[z.nid], name="o")
        assert len(lint_graph(g, select=["DF001"])) == 0

    def test_df002_guaranteed_truncation(self):
        g = CDFG("trunclost")
        a = g.add_node(OpKind.INPUT, 4, name="a")
        high = g.add_node(OpKind.CONST, 8, value=0x80)
        v = g.add_node(OpKind.OR, 8, operands=[a.nid, high.nid])
        t = g.add_node(OpKind.TRUNC, 4, operands=[v.nid])
        g.add_node(OpKind.OUTPUT, 4, operands=[t.nid], name="o")
        report = lint_graph(g, select=["DF002"])
        assert [d.node for d in report] == [t.nid]

    def test_df003_dead_mux_arm(self):
        g = CDFG("deadarm")
        a = g.add_node(OpKind.INPUT, 4, name="a")
        zero = g.add_node(OpKind.CONST, 4, value=0)
        band = g.add_node(OpKind.AND, 4, operands=[a.nid, zero.nid])
        nz = g.add_node(OpKind.NE, 1, operands=[band.nid, zero.nid])
        m = g.add_node(OpKind.MUX, 4, operands=[nz.nid, a.nid, zero.nid])
        g.add_node(OpKind.OUTPUT, 4, operands=[m.nid], name="o")
        report = lint_graph(g, select=["DF003"])
        assert [d.node for d in report] == [m.nid]
        assert "arm 1" in report.diagnostics[0].message

    def test_df003_defers_syntactic_const_select_to_ir011(self):
        g = CDFG("synsel")
        a = g.add_node(OpKind.INPUT, 4, name="a")
        b = g.add_node(OpKind.INPUT, 4, name="b")
        one = g.add_node(OpKind.CONST, 1, value=1)
        m = g.add_node(OpKind.MUX, 4, operands=[one.nid, a.nid, b.nid])
        g.add_node(OpKind.OUTPUT, 4, operands=[m.nid], name="o")
        assert len(lint_graph(g, select=["DF003"])) == 0
        assert len(lint_graph(g, select=["IR011"])) == 1

    def test_df004_beyond_syntactic_folding(self):
        g = CDFG("semconst")
        a = g.add_node(OpKind.INPUT, 4, name="a")
        zero = g.add_node(OpKind.CONST, 4, value=0)
        # One operand is not a constant, so IR012's syntactic walk cannot
        # fold this — but the known-bits domain proves it is 0.
        x = g.add_node(OpKind.AND, 4, operands=[a.nid, zero.nid])
        g.add_node(OpKind.OUTPUT, 4, operands=[x.nid], name="o")
        report = lint_graph(g, select=["DF004"])
        assert [d.node for d in report] == [x.nid]
        assert "constant 0" in report.diagnostics[0].message

    def test_df005_decided_comparison(self):
        g = CDFG("alwaystrue")
        a = g.add_node(OpKind.INPUT, 4, name="a")
        sixteen = g.add_node(OpKind.ZEXT, 5, operands=[a.nid])
        c16 = g.add_node(OpKind.CONST, 5, value=16)
        lt = g.add_node(OpKind.LT, 1, operands=[sixteen.nid, c16.nid])
        g.add_node(OpKind.OUTPUT, 1, operands=[lt.nid], name="o")
        report = lint_graph(g, select=["DF005"])
        assert [d.node for d in report] == [lt.nid]
        assert "always true" in report.diagnostics[0].message

    def test_clean_fig1_stays_clean(self):
        assert len(lint_graph(build_fig1(), select=["DF"])) == 0

    def test_rules_quiet_on_malformed_graphs(self):
        g = CDFG("broken")
        a = g.add_node(OpKind.INPUT, 4, name="a")
        g.add_node(OpKind.NOT, 4, operands=[Operand(a.nid, 1)])
        g.node(a.nid)  # keep a referenced
        bad = g.add_node(OpKind.NOT, 4, operands=[a.nid])
        bad.operands[0] = Operand(999, 0)  # dangling source
        report = lint_graph(g)
        assert not report.filter(codes=["DF"])


# ----------------------------------------------------------------------
# CLI satellites: selector validation, baseline, SARIF
# ----------------------------------------------------------------------

class TestLinterSelectorValidation:
    def test_unmatched_patterns_detected(self):
        assert Linter(select=["IR1"]).unmatched_patterns() == ["IR1"]
        assert Linter(select=["IR"], ignore=["ZZZ"]).unmatched_patterns() \
            == ["ZZZ"]
        assert Linter(select=["DF001", "IR"]).unmatched_patterns() == []
        # EQ001-EQ006 and MILP001-MILP005 are retired: no registered rule
        # matches either family.
        assert Linter(select=["EQ"]).unmatched_patterns() == ["EQ"]
        assert Linter(select=["MILP"]).unmatched_patterns() == ["MILP"]

    def test_cli_exits_2_on_unknown_selector(self, capsys):
        from repro.__main__ import main

        assert main(["lint", "CLZ", "--select", "IR1"]) == 2
        assert "IR1" in capsys.readouterr().err
        assert main(["lint", "CLZ", "--ignore", "NOPE"]) == 2
        # repro lint runs only CDFG rules: a schedule rule selects nothing.
        assert main(["lint", "--select", "SCH003",
                     "--fail-on", "warning"]) == 2
        assert main(["lint", "--select", "MILP", "CLZ"]) == 2

    def test_cli_accepts_family_prefixes(self):
        from repro.__main__ import main

        assert main(["lint", "GSM", "--select", "DF",
                     "--fail-on", "error"]) == 0


class TestBaseline:
    def test_round_trip_suppresses_known_findings(self, tmp_path, capsys):
        from repro.__main__ import main

        base = tmp_path / "baseline.json"
        assert main(["lint", "GSM", "--write-baseline", str(base)]) == 0
        data = json.loads(base.read_text())
        assert data["schema"] == "repro-lint-baseline/v1"
        assert data["fingerprints"]  # GSM has DF004 findings
        capsys.readouterr()
        # Without the baseline the warnings gate --fail-on warning...
        assert main(["lint", "GSM", "--fail-on", "warning"]) == 1
        # ...with it they are known and the run is green.
        capsys.readouterr()
        assert main(["lint", "GSM", "--fail-on", "warning",
                     "--baseline", str(base)]) == 0
        out = capsys.readouterr().out
        assert "0 warning(s)" in out

    def test_new_findings_still_gate(self, tmp_path):
        from repro.analysis.baseline import (
            fingerprint,
            load_baseline,
            suppress,
            write_baseline,
        )

        report = lint_graph(BENCHMARKS["GSM"].build())
        path = tmp_path / "b.json"
        write_baseline(str(path), [report])
        known = load_baseline(str(path))
        assert all(fingerprint(d) in known for d in report)
        # A finding at a new location is not suppressed.
        import dataclasses
        moved = dataclasses.replace(report.diagnostics[0], node=424242)
        from repro.analysis import DiagnosticReport
        fresh = suppress([DiagnosticReport("gsm", [moved])], known)
        assert len(fresh[0]) == 1

    def test_rejects_malformed_baseline(self, tmp_path, capsys):
        from repro.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "something-else", "fingerprints": []}')
        assert main(["lint", "GSM", "--baseline", str(bad)]) == 2
        assert "baseline" in capsys.readouterr().err


class TestSarif:
    def test_cli_emits_valid_sarif(self, capsys):
        from repro.__main__ import main

        assert main(["lint", "GSM", "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        result_ids = {r["ruleId"] for r in run["results"]}
        assert result_ids <= rule_ids
        for result in run["results"]:
            assert result["level"] in ("error", "warning", "note")
            assert result["message"]["text"]

    def test_locations_are_logical(self):
        from repro.analysis.sarif import to_sarif

        report = lint_graph(BENCHMARKS["GSM"].build())
        log = to_sarif([report])
        locs = [r["locations"][0]["logicalLocations"][0]
                for r in log["runs"][0]["results"] if "locations" in r]
        assert locs
        assert all(loc["fullyQualifiedName"].startswith("gsm/")
                   for loc in locs)


# ----------------------------------------------------------------------
# Engine internals exercised directly
# ----------------------------------------------------------------------

def test_initial_fact_mirrors_simulator():
    g = CDFG("init")
    n = g.add_node(OpKind.CONST, 4, value=0, attrs={"initial": 0x1F})
    # The simulator masks initial values at the node width; so do we.
    assert _initial_fact(g.node(n.nid)).constant_value == 0xF
