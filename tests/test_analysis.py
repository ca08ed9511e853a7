"""Unit tests for the static-analysis engine (repro.analysis).

Every diagnostic code gets at least one trigger test and the corresponding
clean case; ``validate`` and ``verify_schedule``, which raise from the
linter's errors, are checked to pass on the nine benchmarks and on mapped
schedules.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import numpy as np
import pytest

from repro.analysis import (
    Diagnostic,
    DiagnosticReport,
    Linter,
    SCHEMA_VERSION,
    Severity,
    all_rules,
    lint_graph,
    lint_schedule,
    rule_for,
)
from repro.bitdeps.packed import PackedSupportCalculator, Rows
from repro.core import MapScheduler, SchedulerConfig, verify_schedule
from repro.designs.registry import BENCHMARKS
from repro.errors import AnalysisError, ValidationError
from repro.ir import CDFG, DFGBuilder, OpKind, Operand, validate
from repro.ir.types import COMPARISON_KINDS, OpClass, arity_of, op_class_of
from repro.tech.device import TUTORIAL4, XC7

from .conftest import build_fig1, build_recurrent


def codes_of(report: DiagnosticReport) -> set[str]:
    return report.codes()


@pytest.fixture
def mapped_schedule():
    return MapScheduler(build_fig1(), TUTORIAL4,
                        SchedulerConfig(ii=1, tcp=5.0)).schedule()


# ----------------------------------------------------------------------
# IR rules
# ----------------------------------------------------------------------

class TestIRRules:
    def test_clean_graph_has_no_findings(self, fig1_graph):
        report = lint_graph(fig1_graph)
        assert len(report) == 0
        assert report.worst is None

    def test_ir001_missing_operand_source(self):
        g = CDFG()
        a = g.add_node(OpKind.INPUT, 4, name="a")
        x = g.add_node(OpKind.NOT, 4, operands=[Operand(a.nid)])
        g.add_node(OpKind.OUTPUT, 4, operands=[x.nid], name="o")
        g.set_operand(x.nid, 0, Operand(77, 1))
        report = lint_graph(g)
        assert "IR001" in codes_of(report)

    def test_ir001_gates_other_structural_rules(self):
        # A graph with a dangling operand AND an overflowing const: only the
        # well-formedness establisher may report; gated rules are skipped.
        g = CDFG()
        c = g.add_node(OpKind.CONST, 4, value=3)
        c.value = 99
        x = g.add_node(OpKind.NOT, 4, operands=[Operand(c.nid)])
        g.add_node(OpKind.OUTPUT, 4, operands=[x.nid], name="o")
        g.set_operand(x.nid, 0, Operand(77, 1))
        report = lint_graph(g)
        assert "IR001" in codes_of(report)
        assert "IR002" not in codes_of(report)

    def test_ir002_const_overflow(self):
        g = CDFG()
        c = g.add_node(OpKind.CONST, 4, value=3)
        c.value = 99
        g.add_node(OpKind.OUTPUT, 4, operands=[c.nid], name="o")
        assert "IR002" in codes_of(lint_graph(g))

    def test_ir003_mux_select_width(self):
        g = CDFG()
        sel = g.add_node(OpKind.INPUT, 2, name="sel")
        a = g.add_node(OpKind.INPUT, 4, name="a")
        m = g.add_node(OpKind.MUX, 4, operands=[sel.nid, a.nid, a.nid])
        g.add_node(OpKind.OUTPUT, 4, operands=[m.nid], name="o")
        assert "IR003" in codes_of(lint_graph(g))

    def test_ir004_output_not_sink(self):
        g = CDFG()
        a = g.add_node(OpKind.INPUT, 4, name="a")
        o = g.add_node(OpKind.OUTPUT, 4, operands=[a.nid], name="o")
        g.add_node(OpKind.NOT, 4, operands=[o.nid])
        assert "IR004" in codes_of(lint_graph(g))

    def test_ir005_slice_out_of_range(self):
        g = CDFG()
        a = g.add_node(OpKind.INPUT, 4, name="a")
        s = g.add_node(OpKind.SLICE, 3, operands=[a.nid], amount=2)
        g.add_node(OpKind.OUTPUT, 3, operands=[s.nid], name="o")
        assert "IR005" in codes_of(lint_graph(g))

    def test_ir006_combinational_cycle(self):
        g = CDFG()
        a = g.add_node(OpKind.INPUT, 4, name="a")
        x = g.add_node(OpKind.NOT, 4, operands=[Operand(a.nid)])
        y = g.add_node(OpKind.NOT, 4, operands=[Operand(x.nid)])
        g.add_node(OpKind.OUTPUT, 4, operands=[y.nid], name="o")
        g.set_operand(x.nid, 0, Operand(y.nid, 0))  # x <- y <- x, distance 0
        report = lint_graph(g)
        assert "IR006" in codes_of(report)
        diag = report.by_code("IR006")[0]
        # The reported set is the cycle plus anything locked behind it.
        assert {x.nid, y.nid} <= set(diag.nodes)

    def test_ir006_loop_carried_edge_is_not_a_cycle(self, recurrent_graph):
        assert "IR006" not in codes_of(lint_graph(recurrent_graph))

    def test_ir007_no_primary_outputs(self):
        g = CDFG()
        g.add_node(OpKind.INPUT, 4, name="a")
        assert "IR007" in codes_of(lint_graph(g))

    def test_ir008_dead_operation(self):
        b = DFGBuilder("t", width=4)
        i = b.input("i")
        _dead = i ^ 1
        b.output(i, "o")
        assert "IR008" in codes_of(lint_graph(b.graph))

    def test_ir010_width_mismatch(self):
        g = CDFG()
        a = g.add_node(OpKind.INPUT, 4, name="a")
        bn = g.add_node(OpKind.INPUT, 4, name="b")
        s = g.add_node(OpKind.ADD, 12, operands=[a.nid, bn.nid])
        g.add_node(OpKind.OUTPUT, 12, operands=[s.nid], name="o")
        report = lint_graph(g)
        assert "IR010" in codes_of(report)
        assert report.by_code("IR010")[0].severity is Severity.WARNING

    def test_ir010_carry_bit_is_fine(self):
        g = CDFG()
        a = g.add_node(OpKind.INPUT, 4, name="a")
        bn = g.add_node(OpKind.INPUT, 4, name="b")
        s = g.add_node(OpKind.ADD, 5, operands=[a.nid, bn.nid])
        g.add_node(OpKind.OUTPUT, 5, operands=[s.nid], name="o")
        assert "IR010" not in codes_of(lint_graph(g))

    def test_ir011_constant_select(self):
        b = DFGBuilder("t", width=4)
        a = b.input("a")
        c = b.input("c")
        m = b.mux(b.const(1, 1), a, c)
        b.output(m, "o")
        report = lint_graph(b.graph)
        assert "IR011" in codes_of(report)
        assert "arm 2" in report.by_code("IR011")[0].message

    def test_ir011_identical_arms(self):
        b = DFGBuilder("t", width=4)
        a = b.input("a")
        sel = b.input("s", 1)
        m = b.mux(sel, a, a)
        b.output(m, "o")
        report = lint_graph(b.graph)
        assert any("identical arms" in d.message
                   for d in report.by_code("IR011"))

    def test_ir012_constant_foldable(self):
        b = DFGBuilder("t", width=4)
        a = b.input("a")
        k = b.const(3) ^ b.const(5)  # compile-time constant
        b.output(a & k, "o")
        report = lint_graph(b.graph)
        assert "IR012" in codes_of(report)

    def test_ir012_reports_frontier_only(self):
        b = DFGBuilder("t", width=4)
        a = b.input("a")
        k1 = b.const(3) ^ b.const(5)
        k2 = k1 & b.const(6)  # frontier: only k2 feeds non-const logic
        b.output(a & k2, "o")
        report = lint_graph(b.graph)
        assert [d.node for d in report.by_code("IR012")] == [k2.nid]

    def test_ir013_unused_input(self):
        b = DFGBuilder("t", width=4)
        a = b.input("a")
        _unused = b.input("spare")
        b.output(a, "o")
        report = lint_graph(b.graph)
        assert "IR013" in codes_of(report)
        assert report.by_code("IR013")[0].severity is Severity.INFO


# ----------------------------------------------------------------------
# DEP soundness
# ----------------------------------------------------------------------

def inject_empty_dep(monkeypatch):
    """Make the cut-sizing DEP kernel say no operand bit is ever read."""
    monkeypatch.setattr(
        PackedSupportCalculator, "term",
        lambda self, node, slot, rows:
            Rows(np.zeros((node.width, 0), dtype=np.uint64), 0))


def inject_one_bit_fault(monkeypatch):
    """Make DEP drop the lowest set bit of every slot-0 row."""
    real = PackedSupportCalculator.term

    def term(self, node, slot, rows):
        out = real(self, node, slot, rows)
        if slot or out.empty:
            return out
        mat = out.mat.copy()
        rows_hit = np.flatnonzero(mat.any(axis=1))
        first = (mat[rows_hit] != 0).argmax(axis=1)
        word = mat[rows_hit, first]
        mat[rows_hit, first] = word & (word - np.uint64(1))
        return Rows(mat, out.lo)

    monkeypatch.setattr(PackedSupportCalculator, "term", term)


class TestDepSoundness:
    def test_dep001_clean_on_real_dep(self, fig1_graph, recurrent_graph):
        for g in (fig1_graph, recurrent_graph):
            assert "DEP001" not in codes_of(lint_graph(g))

    def test_dep001_fires_on_underapproximate_dep(self, monkeypatch):
        b = DFGBuilder("t", width=4)
        x = b.input("x")
        y = b.input("y")
        b.output(x ^ y, "o")
        inject_empty_dep(monkeypatch)
        report = lint_graph(b.graph)
        assert "DEP001" in codes_of(report)
        diag = report.by_code("DEP001")[0]
        assert diag.severity is Severity.ERROR
        assert "omits operand" in diag.message

    def test_dep001_respects_sign_test_refinement(self):
        # DEP keeps only the MSB of `x >= 0`; the other bits feed the borrow
        # chain but never the result — must NOT be reported.
        b = DFGBuilder("t", width=6)
        x = b.input("x")
        b.output(x.sge(0), "o")
        assert "DEP001" not in codes_of(lint_graph(b.graph))

    def test_dep001_handles_wide_comparisons(self):
        # Result bits above bit 0 of a comparison are constant zero: they
        # are sampled like any other bit and reach no operand bit.
        b = DFGBuilder("t", width=4)
        b.output(b.op(OpKind.EQ, b.input("x"), b.input("y"), width=4), "o")
        assert not lint_graph(b.graph, select=["DEP001"]).diagnostics

    def test_dep001_budget_zero_disables(self, monkeypatch):
        b = DFGBuilder("t", width=4)
        x = b.input("x")
        y = b.input("y")
        b.output(x ^ y, "o")
        inject_empty_dep(monkeypatch)
        report = lint_graph(b.graph, options={"dep_nodes": 0})
        assert "DEP001" not in codes_of(report)


def stub_sat_unknown(monkeypatch):
    """Make every DEP001 SAT call run out of conflicts; returns the calls."""
    from repro.analysis import dep_rules
    from repro.analysis.equiv.sat import SatResult

    calls = []

    def unknown(aig, lit, **kwargs):
        calls.append(lit)
        return SatResult("unknown")

    monkeypatch.setattr(dep_rules, "solve_lit", unknown)
    return calls


class TestDepSamplingFallback:
    """DEP001 when every SAT call runs out of conflicts."""

    def test_one_bit_fault_is_still_reported(self, monkeypatch):
        calls = stub_sat_unknown(monkeypatch)
        b = DFGBuilder("t", width=4)
        b.output(b.input("x") ^ b.input("y"), "o")
        inject_one_bit_fault(monkeypatch)
        found = lint_graph(b.graph, select=["DEP001"]).diagnostics
        assert calls and found
        assert all(d.message.endswith("(sampled witness)") for d in found)

    def test_real_kernel_gives_no_finding(self, monkeypatch, fig1_graph,
                                          recurrent_graph):
        stub_sat_unknown(monkeypatch)
        graphs = [fig1_graph, recurrent_graph] + [
            BENCHMARKS[name].build() for name in ("GSM", "CLZ", "DR")]
        for graph in graphs:
            assert not lint_graph(graph, select=["DEP001"]).diagnostics

    def test_sampled_findings_are_proven_findings(self, monkeypatch,
                                                  recurrent_graph):
        # Every output bit is checked, so the fallback's draws cannot move
        # which bits are sampled: each finding it samples must be one the
        # SAT tier proves.
        options = {"dep_bit_samples": 64}
        inject_empty_dep(monkeypatch)
        proven = {d.message.replace("exact SAT", "sampled")
                  for d in lint_graph(recurrent_graph, options=options,
                                      select=["DEP001"]).diagnostics}
        stub_sat_unknown(monkeypatch)
        sampled = {d.message
                   for d in lint_graph(recurrent_graph, options=options,
                                       select=["DEP001"]).diagnostics}
        assert sampled and sampled <= proven


# ----------------------------------------------------------------------
# DEP001 against a bit-blasted reference
# ----------------------------------------------------------------------
#
# The reference below is how DEP001 decided before it encoded each node on
# its own AIG: rebuild the node in a probe graph, bit-blast it, slice each
# sampled output bit's cone back to the probe's input bits and decide each
# suspect by SAT on the sliced cone. The shipped rule must report exactly
# what it reports, in the same order.

def _probe(graph, node):
    """Rebuild ``node`` alone in a fresh graph suitable for blasting.

    Returns ``(probe_graph, probe_nid, slot_input_nids)`` where
    ``slot_input_nids[slot]`` is the probe INPUT standing in for that operand
    (``None`` for constant operands, which are copied).
    """
    b = DFGBuilder(f"dep_probe_{node.nid}", width=node.width)
    vals = []
    slot_inputs: list[int | None] = []
    for slot, op in enumerate(node.operands):
        src = graph.node(op.source)
        if src.kind is OpKind.CONST:
            vals.append(b.const(src.value or 0, src.width))
            slot_inputs.append(None)
        else:
            v = b.input(f"op{slot}", src.width)
            vals.append(v)
            slot_inputs.append(v.nid)
    attrs = {} if node.amount is None else {"amount": node.amount}
    probe = b.op(node.kind, *vals, width=node.width, **attrs)
    b.output(probe, "out")
    return b.graph, probe.nid, slot_inputs


def _cone(graph, out_id: int, leaves: set[int]) -> tuple[list[int], set[int]]:
    """Backward slice from ``out_id`` stopping at ``leaves`` and constants:
    ``(interior_in_topo_order, reached_leaves)``."""
    interior: set[int] = set()
    reached: set[int] = set()
    stack = [out_id]
    while stack:
        nid = stack.pop()
        if nid in leaves:
            reached.add(nid)
            continue
        if nid in interior:
            continue
        node = graph.node(nid)
        if node.kind is OpKind.CONST:
            continue
        interior.add(nid)
        stack.extend(op.source for op in node.operands)
    return sorted(interior), reached


def _sat_witness(bg, order, reached, fid, out_id, max_conflicts):
    """Decide whether flipping leaf ``fid`` can flip ``out_id``:
    ``"sat"``, ``"unsat"`` or ``"unknown"``."""
    from repro.analysis.equiv.aig import AIG, FALSE, TRUE
    from repro.analysis.equiv.encode import const_bits, encode_node
    from repro.analysis.equiv.sat import solve_lit

    aig = AIG()
    leaf_vars = {leaf: aig.new_input() for leaf in sorted(reached)
                 if leaf != fid}

    def build(pin: int) -> int:
        values = {leaf: [var] for leaf, var in leaf_vars.items()}
        values[fid] = [TRUE if pin else FALSE]
        for nid in order:
            node = bg.node(nid)
            args = []
            for op in node.operands:
                src = bg.node(op.source)
                if op.source in values:
                    args.append(values[op.source])
                elif src.kind is OpKind.CONST:
                    args.append(const_bits(aig, src.value or 0, src.width))
                else:  # outside the slice: cannot influence the cone
                    args.append([FALSE] * src.width)
            values[nid] = encode_node(aig, node, args, [
                bg.node(op.source).width for op in node.operands])
        return values[out_id][0]

    lo, hi = build(0), build(1)
    return solve_lit(aig, aig.xor_(lo, hi),
                     max_conflicts=max_conflicts).status


def _evaluate(graph, order, assignment, out_id) -> int:
    """Evaluate the cone under a leaf/const assignment: the out bit."""
    from repro.ir.semantics import eval_node

    values = dict(assignment)
    for nid in order:
        node = graph.node(nid)
        args = []
        for op in node.operands:
            src = graph.node(op.source)
            if op.source in values:
                args.append(values[op.source])
            elif src.kind is OpKind.CONST:
                args.append(src.value or 0)
            else:  # outside the slice: cannot influence the cone
                args.append(0)
        values[nid] = eval_node(node, args, [
            graph.node(op.source).width for op in node.operands])
    return values[out_id] & 1


def bitblast_dep001(graph, options):
    """DEP001's findings on ``graph``, decided on bit-blasted probes."""
    import random

    from repro.analysis.dep_rules import _dep_pairs
    from repro.bitdeps.bitblast import bit_blast
    from repro.errors import CutError, IRError

    max_nodes = int(options.get("dep_nodes", 12))
    max_bits = int(options.get("dep_bit_samples", 4))
    trials = int(options.get("dep_trials", 4))
    sat_conflicts = int(options.get("dep_sat_conflicts", 20_000))
    if max_nodes <= 0:
        return []
    candidates = [node for node in graph
                  if node.is_mappable and node.operands]
    rng = random.Random(0xD5EED ^ len(graph))
    if len(candidates) > max_nodes:
        candidates = rng.sample(candidates, max_nodes)
        candidates.sort(key=lambda n: n.nid)

    pcalc = PackedSupportCalculator(graph)
    found = []
    for node in candidates:
        try:
            probe_graph, probe_nid, slot_inputs = _probe(graph, node)
            blast = bit_blast(probe_graph)
            dep = _dep_pairs(pcalc, node)
        except (IRError, CutError):
            continue  # kind the blaster or DEP does not model
        leaf_pair: dict[int, tuple[int, int]] = {}
        for slot, in_nid in enumerate(slot_inputs):
            if in_nid is None:
                continue
            for bidx, fid in enumerate(blast.bit_ids.get(in_nid, [])):
                if fid is not None:
                    leaf_pair[fid] = (slot, bidx)
        bg = blast.graph
        bit_indices = list(range(node.width))
        if len(bit_indices) > max_bits:
            bit_indices = sorted(rng.sample(bit_indices, max_bits))
        for j in bit_indices:
            out_id = blast.bit_ids[probe_nid][j]
            if out_id is None:
                continue
            order, reached = _cone(bg, out_id, set(leaf_pair))
            for fid in sorted(reached):
                if leaf_pair[fid] in dep[j]:
                    continue
                status = _sat_witness(bg, order, reached, fid, out_id,
                                      sat_conflicts)
                if status == "unsat":
                    continue
                if status == "sat":
                    how = "exact SAT witness"
                else:
                    how = "sampled witness"
                    for _ in range(trials):
                        base = {leaf: rng.getrandbits(1) for leaf in reached}
                        if _evaluate(bg, order, {**base, fid: 0}, out_id) \
                                != _evaluate(bg, order, {**base, fid: 1},
                                             out_id):
                            break
                    else:
                        continue
                slot, bidx = leaf_pair[fid]
                src = node.operands[slot].source
                found.append((
                    f"DEP({node.kind.value} {node.nid}[{j}]) omits operand "
                    f"{slot} bit {bidx} (node {src}), but flipping that bit "
                    f"changes the output of the node's and-inverter graph "
                    f"({how})",
                    node.nid, (src, node.nid),
                    "fix PackedSupportCalculator.term for this kind: "
                    "an under-approximate DEP silently mis-sizes every "
                    "cut through it"))
    return found


def shipped_dep001(graph, options):
    from repro.analysis.dep_rules import dep_soundness
    from repro.analysis.registry import AnalysisContext

    return [(d.message, d.node, d.edge, d.hint) for d in dep_soundness(
        AnalysisContext(graph=graph, options=options))]


def _variable_shift_graph():
    """Fourteen 8-bit mappable nodes, two of them the variable shifts
    DEP001 skips, so that bits are sampled after a skipped node."""
    b = DFGBuilder("vshift", width=8)
    x = b.input("x")
    y = b.input("y")
    s = b.input("s", 3)
    v = b.op(OpKind.VSHL, x + y, s, width=8)
    for _ in range(5):
        v = (v ^ y) - x
    b.output(b.op(OpKind.VSHR, v, s, width=8) | x, "o")
    return b.graph


def _parity_graph(name):
    from repro.fuzz.generate import generate_case
    from repro.ir.transforms import narrow_graph

    if name == "vshift":
        return _variable_shift_graph()
    if name.startswith("fuzz"):
        return generate_case(int(name[4:])).graph
    design, _, narrowed = name.partition("-")
    graph = BENCHMARKS[design].build()
    return narrow_graph(graph)[0] if narrowed else graph


_PARITY_GRAPHS = ["vshift", "GSM", "GSM-narrowed", "CLZ", "CLZ-narrowed",
                  "DR", "DR-narrowed"] + [f"fuzz{seed}" for seed in range(20)]


_CHECKED_KINDS = [
    kind for kind in OpKind
    if op_class_of(kind) not in (OpClass.BOUNDARY, OpClass.BLACKBOX)
    and kind not in (OpKind.VSHL, OpKind.VSHR)]


def _one_node_graph(kind, width, consts):
    """One ``kind`` node over ``width``-bit operands (a MUX select is one
    bit); ``consts[slot]`` is that operand's constant, or ``None`` for an
    input."""
    b = DFGBuilder(f"{kind.value}{width}", width=width)
    args = []
    for slot, value in enumerate(consts):
        w = 1 if kind is OpKind.MUX and slot == 0 else width
        args.append(b.input(f"in{slot}", w) if value is None
                    else b.const(value, w))
    out_width = {OpKind.CONCAT: 2 * width, OpKind.ZEXT: width + 1,
                 OpKind.TRUNC: max(width - 1, 1),
                 OpKind.SLICE: max(width - 1, 1)}.get(kind, width)
    if kind in COMPARISON_KINDS:
        out_width = 1
    attrs = {"amount": 1} if kind in (OpKind.SHL, OpKind.SHR,
                                      OpKind.SLICE) else {}
    b.output(b.op(kind, *args, width=out_width, **attrs), "o")
    return b.graph


class TestDepBitBlastParity:
    def test_variable_shifts_stay_unchecked(self, monkeypatch):
        graph = _variable_shift_graph()
        assert len([n for n in graph if n.is_mappable]) == 14
        shifts = {n.nid for n in graph
                  if n.kind in (OpKind.VSHL, OpKind.VSHR)}
        inject_empty_dep(monkeypatch)
        checked = {finding[1] for finding in shipped_dep001(
            graph, {"dep_nodes": 64, "dep_bit_samples": 1})}
        assert len(shifts) == 2 and len(checked) == 12
        assert not checked & shifts

    @pytest.mark.parametrize("name", _PARITY_GRAPHS)
    @pytest.mark.parametrize("fault", ["real", "empty", "one-bit"])
    def test_findings_match_reference(self, monkeypatch, name, fault):
        graph = _parity_graph(name)
        options = {}
        if fault == "empty":
            # Every reached bit is a suspect: one output bit per node keeps
            # the SAT work of both sides to seconds.
            options = {"dep_bit_samples": 1}
            inject_empty_dep(monkeypatch)
        elif fault == "one-bit":
            inject_one_bit_fault(monkeypatch)
        expected = bitblast_dep001(graph, options)
        assert shipped_dep001(graph, options) == expected
        assert bool(expected) == (fault != "real")

    @pytest.mark.parametrize("kind", _CHECKED_KINDS, ids=lambda k: k.value)
    def test_every_checked_kind_matches_reference(self, monkeypatch, kind):
        inject_one_bit_fault(monkeypatch)
        reported = 0
        for width in range(1, 6):
            for consts in itertools.product((None, 0, 0b10110),
                                            repeat=arity_of(kind)):
                graph = _one_node_graph(kind, width, consts)
                expected = bitblast_dep001(graph, {})
                assert shipped_dep001(graph, {}) == expected, (width, consts)
                reported += len(expected)
        assert reported

    @pytest.mark.parametrize("kind", _CHECKED_KINDS, ids=lambda k: k.value)
    def test_real_dep_is_sound_on_one_node_graphs(self, kind):
        """The shipped ``term`` against the node's own AIG, every output
        bit checked: no DEP001 on any mix of input and constant operands
        (0, all-ones or mixed), in every operand order."""
        options = {"dep_nodes": 64, "dep_bit_samples": 64}
        for width in range(1, 7):
            ones = (1 << width) - 1
            for consts in itertools.product((None, 0, ones, 0b10110 & ones),
                                            repeat=arity_of(kind)):
                graph = _one_node_graph(kind, width, consts)
                assert shipped_dep001(graph, options) == [], (width, consts)


# ----------------------------------------------------------------------
# Schedule rules
# ----------------------------------------------------------------------

class TestScheduleRules:
    def test_clean_schedule_has_no_errors(self, mapped_schedule):
        report = lint_schedule(mapped_schedule, TUTORIAL4)
        assert not report.errors

    def test_sch001_unscheduled(self, mapped_schedule):
        nid = next(iter(mapped_schedule.cycle))
        del mapped_schedule.cycle[nid]
        report = lint_schedule(mapped_schedule, TUTORIAL4)
        assert "SCH001" in codes_of(report)
        # SCH001 breaks the scheduled gate: no timing rule may crash/report.
        assert codes_of(report) == {"SCH001"}

    def test_sch002_root_mismatch(self, mapped_schedule):
        roots = [nid for nid, cut in mapped_schedule.cover.items()]
        a, b = roots[0], roots[1]
        mapped_schedule.cover[a] = mapped_schedule.cover[b]
        report = lint_schedule(mapped_schedule, TUTORIAL4)
        assert "SCH002" in codes_of(report)

    def test_sch003_infeasible_cut(self, mapped_schedule):
        tight = dataclasses.replace(TUTORIAL4, k=1)
        report = lint_schedule(mapped_schedule, tight)
        assert "SCH003" in codes_of(report)

    def test_sch004_cut_input_not_root(self, mapped_schedule):
        # Drop a *mappable* root that feeds another cone's boundary (INPUT
        # boundary values are exempt from the roots-only rule).
        graph = mapped_schedule.graph
        boundary_feeders = set()
        for nid, cut in mapped_schedule.cover.items():
            for u in cut.boundary:
                if u in mapped_schedule.cover and graph.node(u).is_mappable:
                    boundary_feeders.add(u)
        victim = sorted(boundary_feeders)[0]
        del mapped_schedule.cover[victim]
        report = lint_schedule(mapped_schedule, TUTORIAL4)
        assert {"SCH004", "SCH005"} <= codes_of(report)

    def test_sch007_cycle_budget(self, mapped_schedule):
        nid = next(iter(mapped_schedule.cover))
        mapped_schedule.start[nid] = mapped_schedule.tcp + 1.0
        report = lint_schedule(mapped_schedule, TUTORIAL4)
        assert "SCH007" in codes_of(report)

    def test_sch008_chaining_violation(self, mapped_schedule):
        # Push a boundary producer's start late without moving its consumer.
        for nid, cut in mapped_schedule.cover.items():
            feeders = [u for u in cut.boundary if u in mapped_schedule.cover]
            if feeders:
                mapped_schedule.start[feeders[0]] = mapped_schedule.tcp - 0.01
                break
        report = lint_schedule(mapped_schedule, TUTORIAL4)
        assert {"SCH007", "SCH008"} & codes_of(report)

    def test_sch009_dependence_violation(self, mapped_schedule):
        out = mapped_schedule.graph.outputs[0]
        src = out.operands[0].source
        mapped_schedule.cycle[src] = mapped_schedule.cycle[out.nid] + 5
        report = lint_schedule(mapped_schedule, TUTORIAL4)
        assert "SCH009" in codes_of(report)

    def test_sch010_resource_oversubscribed(self):
        b = DFGBuilder("mem", width=8)
        addr = b.input("addr")
        v1 = b.load(addr, name="l1")
        v2 = b.load(addr + 1, name="l2")
        b.output(v1 ^ v2, "o")
        graph = b.build()
        sched = MapScheduler(graph, XC7,
                             SchedulerConfig(ii=1, tcp=20.0)).schedule()
        # At II=1 every op shares modulo slot 0, so linting against a
        # single-port device must flag the two loads.
        capped = dataclasses.replace(XC7, blackbox_counts={"mem_port": 1})
        report = lint_schedule(sched, capped)
        assert "SCH010" in codes_of(report)

    def test_sch011_duplicated_logic(self, mapped_schedule):
        # Graft one root's node into another cone's interior.
        roots = list(mapped_schedule.cover)
        a, b = roots[0], roots[1]
        cut = mapped_schedule.cover[a]
        mapped_schedule.cover[a] = dataclasses.replace(
            cut, interior=frozenset(set(cut.interior) | {b}))
        report = lint_schedule(mapped_schedule, TUTORIAL4)
        assert "SCH011" in codes_of(report)
        assert report.by_code("SCH011")[0].severity is Severity.INFO

    def test_sch012_recurrence_slack(self):
        graph = build_recurrent()
        sched = MapScheduler(graph, TUTORIAL4,
                             SchedulerConfig(ii=1, tcp=10.0)).schedule()
        # Shrink the period until the loop-carried budget is within one LUT
        # level of the (zero) implementation delays we leave in place.
        sched.tcp = TUTORIAL4.lut_level_delay * 0.5
        for nid in list(sched.cover):
            del sched.cover[nid]
        report = lint_schedule(sched, TUTORIAL4)
        assert "SCH012" in codes_of(report)
        assert report.by_code("SCH012")[0].severity is Severity.WARNING

    def test_sch012_quiet_on_relaxed_clock(self, recurrent_graph):
        sched = MapScheduler(recurrent_graph, TUTORIAL4,
                             SchedulerConfig(ii=1, tcp=10.0)).schedule()
        report = lint_schedule(sched, TUTORIAL4)
        assert "SCH012" not in codes_of(report)


# ----------------------------------------------------------------------
# Linter configuration, report API, JSON schema
# ----------------------------------------------------------------------

def _graph_with_warning_and_info():
    b = DFGBuilder("t", width=4)
    a = b.input("a")
    _unused = b.input("spare")          # IR013 info
    k = b.const(3) ^ b.const(5)         # IR012 warning
    b.output(a & k, "o")
    return b.graph


class TestLinterConfig:
    def test_select_prefix(self):
        report = lint_graph(_graph_with_warning_and_info(), select=["IR013"])
        assert codes_of(report) == {"IR013"}

    def test_ignore(self):
        report = lint_graph(_graph_with_warning_and_info(), ignore=["IR012"])
        assert "IR012" not in codes_of(report)
        assert "IR013" in codes_of(report)

    def test_severity_override(self):
        report = lint_graph(_graph_with_warning_and_info(),
                            severity_overrides={"IR012": "error"})
        assert report.by_code("IR012")[0].severity is Severity.ERROR
        assert report.fails("error")

    def test_fails_threshold(self):
        report = lint_graph(_graph_with_warning_and_info())
        assert not report.fails("error")
        assert report.fails("warning")

    def test_raise_if(self):
        report = lint_graph(_graph_with_warning_and_info())
        with pytest.raises(AnalysisError) as exc:
            report.raise_if("warning")
        assert exc.value.report is report

    def test_rule_metadata(self):
        rule = rule_for("IR006")
        assert rule.name == "combinational-cycle"
        assert rule.target == "cdfg"
        codes = [r.code for r in all_rules()]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))

    def test_json_schema_stability(self):
        report = lint_graph(_graph_with_warning_and_info())
        payload = json.loads(report.to_json())
        assert payload["schema"] == SCHEMA_VERSION
        assert set(payload) == {"schema", "subject", "summary", "diagnostics"}
        assert set(payload["summary"]) == {"error", "warning", "info"}
        for diag in payload["diagnostics"]:
            assert {"code", "severity", "rule", "message"} <= set(diag)
            assert set(diag) <= {"code", "severity", "rule", "message",
                                 "node", "nodes", "edge", "constraint",
                                 "hint", "subject"}

    def test_sorted_most_severe_first(self):
        report = DiagnosticReport("t", [
            Diagnostic("IR013", Severity.INFO, "info finding"),
            Diagnostic("IR001", Severity.ERROR, "error finding"),
            Diagnostic("IR012", Severity.WARNING, "warning finding"),
        ])
        assert [d.severity for d in report.sorted()] == \
            [Severity.ERROR, Severity.WARNING, Severity.INFO]

    def test_render_text_mentions_code_and_summary(self):
        report = lint_graph(_graph_with_warning_and_info())
        text = report.render_text()
        assert "IR012" in text and "warning(s)" in text


# ----------------------------------------------------------------------
# validate / verify_schedule: the linter's errors, raised
# ----------------------------------------------------------------------

class TestWrapperCompatibility:
    def test_validate_passes_all_benchmarks(self):
        for spec in BENCHMARKS.values():
            validate(spec.build())

    def test_verify_schedule_passes_mapped_schedules(self):
        for build in (build_fig1, build_recurrent):
            sched = MapScheduler(build(), TUTORIAL4,
                                 SchedulerConfig(ii=1, tcp=5.0)).schedule()
            assert verify_schedule(sched, TUTORIAL4) is sched

    def test_validate_message_joins_rule_messages(self):
        g = CDFG()
        a = g.add_node(OpKind.INPUT, 4, name="a")
        s = g.add_node(OpKind.SLICE, 3, operands=[a.nid], amount=2)
        x = g.add_node(OpKind.NOT, 3, operands=[Operand(s.nid)])
        y = g.add_node(OpKind.NOT, 3, operands=[Operand(x.nid)])
        g.add_node(OpKind.OUTPUT, 3, operands=[y.nid], name="o")
        g.set_operand(x.nid, 0, Operand(y.nid, 0))  # x <- y <- x, distance 0
        report = lint_graph(g, select=["IR00"])
        # Linter order: the acyclicity gate (IR006) runs before IR005, and
        # the slice cut off by the rewiring is dead (IR008).
        assert [d.code for d in report] == ["IR006", "IR005", "IR008"]
        with pytest.raises(ValidationError) as exc:
            validate(g)
        assert str(exc.value) == "; ".join(d.message for d in report)

    def test_benchmarks_lint_error_free(self):
        for name, spec in BENCHMARKS.items():
            report = lint_graph(spec.build())
            assert not report.errors, (name, report.render_text())


# ----------------------------------------------------------------------
# CLI: python -m repro lint
# ----------------------------------------------------------------------

class TestLintCli:
    def test_lint_single_benchmark_text(self, capsys):
        from repro.__main__ import main

        assert main(["lint", "clz"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_lint_json_schema(self, capsys):
        from repro.__main__ import main

        assert main(["lint", "CLZ", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["failed"] is False
        assert payload["reports"][0]["subject"] == "clz"

    def test_lint_file_target(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.ir.serialize import save_graph

        b = DFGBuilder("t", width=4)
        a = b.input("a")
        _unused = b.input("spare")
        b.output(a, "o")
        path = tmp_path / "design.json"
        save_graph(b.graph, str(path))
        assert main(["lint", str(path)]) == 0
        assert main(["lint", str(path), "--fail-on", "warning"]) == 0
        out = capsys.readouterr().out
        assert "IR013" in out

    def test_lint_fail_on_warning(self, tmp_path):
        from repro.__main__ import main
        from repro.ir.serialize import save_graph

        path = tmp_path / "warny.json"
        save_graph(_graph_with_warning_and_info(), str(path))
        assert main(["lint", str(path)]) == 0
        assert main(["lint", str(path), "--fail-on", "warning"]) == 1
        assert main(["lint", str(path), "--fail-on", "warning",
                     "--ignore", "IR012", "--ignore", "IR013",
                     "--ignore", "DF"]) == 0

    def test_lint_select(self, capsys):
        from repro.__main__ import main

        assert main(["lint", "CLZ", "--select", "IR006",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["diagnostics"] == []

    def test_lint_unknown_target(self, capsys):
        from repro.__main__ import main

        assert main(["lint", "no-such-design"]) == 2
        assert "unknown design" in capsys.readouterr().err

    def test_lint_unloadable_file(self, capsys, tmp_path):
        from repro.__main__ import main

        bad = tmp_path / "bad.json"

        def one_input(**fields):
            node = {"id": 0, "kind": "input", "width": 4, "operands": []}
            return {"format": 1, "nodes": [{**node, **fields}]}

        def shift(amount):
            doc = one_input()
            doc["nodes"].append({"id": 1, "kind": "shl", "width": 4,
                                 "operands": [[0, 0]], "amount": amount})
            return doc

        for doc in ("not json {", one_input(operands=[[0]]), [1],
                    {"format": 1, "nodes": [5]}, one_input(width="4"),
                    one_input(attrs=5), shift("3"),
                    one_input(kind="const", value="5"),
                    one_input(kind="const", value=5.5), shift(True)):
            bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            assert main(["lint", str(bad)]) == 2
            assert "failed to load" in capsys.readouterr().err

    def test_lint_defaults_to_all_benchmarks(self, capsys):
        from repro.__main__ import main

        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert out.count("error(s)") == len(BENCHMARKS)


# ----------------------------------------------------------------------
# Flow integration: run_flow pre-flight lint
# ----------------------------------------------------------------------

class TestFlowIntegration:
    def test_run_flow_rejects_error_graphs(self):
        from repro.experiments import run_flow

        g = CDFG()
        a = g.add_node(OpKind.INPUT, 4, name="a")
        x = g.add_node(OpKind.NOT, 4, operands=[Operand(a.nid)])
        g.add_node(OpKind.OUTPUT, 4, operands=[x.nid], name="o")
        g.set_operand(x.nid, 0, Operand(77, 1))
        with pytest.raises(AnalysisError) as exc:
            run_flow(g, "milp-map", TUTORIAL4,
                     SchedulerConfig(ii=1, tcp=5.0))
        assert "IR001" in {d.code for d in exc.value.report}

    def test_verification_error_carries_report(self, mapped_schedule):
        from repro.core import verify_schedule
        from repro.errors import ScheduleVerificationError

        nid = next(iter(mapped_schedule.cover))
        mapped_schedule.start[nid] = mapped_schedule.tcp + 1.0
        with pytest.raises(ScheduleVerificationError) as exc:
            verify_schedule(mapped_schedule, TUTORIAL4)
        assert exc.value.report is not None
        assert "SCH007" in exc.value.report.codes()
