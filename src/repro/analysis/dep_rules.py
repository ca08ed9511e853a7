"""DEP-soundness spot checks (code ``DEP001``).

The word-level ``DEP`` kernel that sizes cuts
(:meth:`repro.bitdeps.packed.PackedSupportCalculator.term`) must
*over-approximate* the true bit-level dependences: every operand bit that can
actually influence an output bit must be in its support, or cut enumeration
will build cones whose LUTs miss inputs. This rule samples nodes and output
bits and compares each non-constant slot's term over the slot's own leaf
bits, decoded to ``(slot, bit)`` pairs, against a bit-blasted ground truth
(:func:`repro.bitdeps.bitblast.bit_blast`).

Each sampled node is rebuilt in an *isolated probe graph* — fresh primary
inputs per non-constant operand slot, constants copied verbatim — and that
probe is blasted. Blasting the node in situ would not work: the blaster
implements shifts, slices and extensions by aliasing bit values rather than
creating nodes, so "operand 1 bit 14" of an adder can be the very same
blasted node as a bit arriving through operand 0, and cutting the network at
operand-bit ids would conflate the two paths. Fresh inputs per slot make the
operand-bit boundary a true cut, which also matches DEP's semantics (slots
are independent free inputs, even when they share a word-level source).

Structural reachability alone would still over-report: ``DEP`` legitimately
refines away bits that are structurally wired but functionally inert (the
sign-test refinement keeps only the MSB of ``B >= 0`` even though the
blasted borrow chain touches every bit). So a reached-but-unlisted bit is
only reported when a *functional witness* exists: a leaf assignment where
flipping that one bit flips the sampled output bit. A witness is
irrefutable evidence of unsoundness.

Witnesses are found in two tiers. When the sliced cone is small enough
(``dep_sat_nodes`` interior nodes, default 1500), the question is decided
*exactly*: the cone is encoded twice into an and-inverter graph over
shared leaf variables — the suspect bit pinned 0 on one side, 1 on the
other — and the SAT solver (:mod:`repro.analysis.equiv.sat`) searches for
an assignment where the outputs differ. UNSAT proves the reached bit
functionally inert (the refinement was right); SAT decodes to a concrete
witness. Larger cones, and SAT calls that exhaust their conflict budget
(``dep_sat_conflicts``), fall back to random sampling, which can miss
witnesses but never fabricates one.

Sampling budgets come from the linter options (``dep_nodes``,
``dep_bit_samples``, ``dep_trials``); node kinds the blaster does not model
(e.g. variable shifts) are skipped.
"""

from __future__ import annotations

import random
from typing import Iterator

from ..errors import CutError, IRError
from ..ir.builder import DFGBuilder
from ..ir.semantics import eval_node
from ..ir.types import OpKind
from ..bitdeps.packed import PackedSupportCalculator, rows_to_ints
from .diagnostic import Diagnostic, Severity
from .registry import GATE_ACYCLIC, AnalysisContext, finding, register

_CONE_CAP = 4000  # nodes per sampled output bit; beyond this, skip the bit


def _probe(graph, node):
    """Rebuild ``node`` alone in a fresh graph suitable for blasting.

    Returns ``(probe_graph, probe_nid, slot_input_nids)`` where
    ``slot_input_nids[slot]`` is the probe INPUT standing in for that operand
    (``None`` for constant operands, which are copied so constant-aware DEP
    refinements see the same context).
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


def _dep_pairs(pcalc: PackedSupportCalculator,
               node) -> list[set[tuple[int, int]]]:
    """Per output bit of ``node``, the ``(slot, bit)`` operand bits in its
    DEP: each non-constant slot's term over the slot's own leaf rows,
    decoded relative to the slot's source bits."""
    graph = pcalc.graph
    pairs: list[set[tuple[int, int]]] = [set() for _ in range(node.width)]
    for slot, op in enumerate(node.operands):
        if graph.node(op.source).kind is OpKind.CONST:
            continue
        base = pcalc.global_index(op.source, 0, op.distance)
        leaf = pcalc.leaf_rows(op.source, op.distance)
        for j, mask in enumerate(rows_to_ints(pcalc.term(node, slot, leaf))):
            mask >>= base
            pairs[j].update((slot, bit) for bit in range(mask.bit_length())
                            if mask >> bit & 1)
    return pairs


def _cone(graph, out_id: int, leaves: set[int]) -> tuple[list[int], set[int], bool]:
    """Backward slice from ``out_id`` stopping at ``leaves`` and constants.

    Returns ``(interior_in_topo_order, reached_leaves, ok)``; interior node
    ids ascend, which is a valid topological order for rebuilt graphs.
    """
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
        if len(interior) > _CONE_CAP:
            return [], set(), False
        for op in node.operands:
            stack.append(op.source)
    return sorted(interior), reached, True


def _sat_witness(bg, order: list[int], reached: set[int], fid: int,
                 out_id: int, max_conflicts: int):
    """Decide exactly whether flipping leaf ``fid`` can flip ``out_id``.

    Returns ``("sat", witness)`` with a leaf assignment, ``("unsat",
    None)`` — a *proof* the bit is functionally inert — or ``("unknown",
    None)`` when the encoding is unsupported or the budget runs out.
    """
    from .equiv.aig import AIG, FALSE, TRUE
    from .equiv.encode import EncodeUnsupported, const_bits, encode_node
    from .equiv.sat import solve_lit

    aig = AIG()
    leaf_vars = {leaf: aig.new_input(f"leaf{leaf}")
                 for leaf in sorted(reached) if leaf != fid}

    def build(pin: int) -> int | None:
        values: dict[int, list[int]] = {
            leaf: [var] for leaf, var in leaf_vars.items()}
        values[fid] = [TRUE if pin else FALSE]
        for nid in order:
            node = bg.node(nid)
            args = []
            widths = []
            for op in node.operands:
                src = bg.node(op.source)
                if op.source in values:
                    args.append(values[op.source])
                elif src.kind is OpKind.CONST:
                    args.append(const_bits(aig, src.value or 0, src.width))
                else:  # outside the slice: cannot influence the cone
                    args.append([FALSE] * src.width)
                widths.append(src.width)
            values[nid] = encode_node(aig, node, args, widths)
        bit = values.get(out_id)
        return None if bit is None else bit[0]

    try:
        lo = build(0)
        hi = build(1)
    except EncodeUnsupported:
        return "unknown", None
    if lo is None or hi is None:
        return "unknown", None
    result = solve_lit(aig, aig.xor_(lo, hi), max_conflicts=max_conflicts)
    if result.status != "sat":
        return result.status, None
    model = result.model or {}
    witness = {leaf: int(model.get(var_lit >> 1, False))
               for leaf, var_lit in leaf_vars.items()}
    return "sat", witness


def _evaluate(graph, order: list[int], assignment: dict[int, int],
              out_id: int) -> int:
    """Evaluate the cone under a leaf/const assignment; returns the out bit."""
    values = dict(assignment)
    for nid in order:
        node = graph.node(nid)
        args = []
        widths = []
        for op in node.operands:
            src = graph.node(op.source)
            if op.source in values:
                args.append(values[op.source])
            elif src.kind is OpKind.CONST:
                args.append(src.value or 0)
            else:  # outside the slice: cannot influence the cone
                args.append(0)
            widths.append(src.width)
        values[nid] = eval_node(node, args, widths)
    return values[out_id] & 1


@register("DEP001", "dep-underapproximation", "cdfg", Severity.ERROR,
          "Word-level DEP misses a bit-level dependence proven by the "
          "bit-blasted ground truth.", gate=GATE_ACYCLIC)
def dep_soundness(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    opts = ctx.options
    max_nodes = int(opts.get("dep_nodes", 12))
    max_bits = int(opts.get("dep_bit_samples", 4))
    trials = int(opts.get("dep_trials", 4))
    sat_nodes = int(opts.get("dep_sat_nodes", 1500))
    sat_conflicts = int(opts.get("dep_sat_conflicts", 20_000))
    if max_nodes <= 0:
        return

    candidates = [
        node for node in graph if node.is_mappable and node.operands
    ]
    rng = random.Random(0xD5EED ^ len(graph))
    if len(candidates) > max_nodes:
        candidates = rng.sample(candidates, max_nodes)
        candidates.sort(key=lambda n: n.nid)

    pcalc = PackedSupportCalculator(graph)
    for node in candidates:
        try:
            from ..bitdeps.bitblast import bit_blast

            probe_graph, probe_nid, slot_inputs = _probe(graph, node)
            blast = bit_blast(probe_graph)
            dep = _dep_pairs(pcalc, node)
        except (IRError, CutError):
            continue  # kind the blaster or DEP does not model

        # Probe input bit id -> the unique (operand slot, bit index) it
        # stands for. Fresh inputs per slot guarantee uniqueness.
        leaf_pair: dict[int, tuple[int, int]] = {}
        for slot, in_nid in enumerate(slot_inputs):
            if in_nid is None:
                continue
            for bidx, fid in enumerate(blast.bit_ids.get(in_nid, [])):
                if fid is not None:
                    leaf_pair[fid] = (slot, bidx)
        leaves = set(leaf_pair)

        bg = blast.graph
        bit_indices = list(range(node.width))
        if len(bit_indices) > max_bits:
            bit_indices = sorted(rng.sample(bit_indices, max_bits))
        for j in bit_indices:
            out_id = blast.bit_ids[probe_nid][j]
            if out_id is None:
                continue
            order, reached, ok = _cone(bg, out_id, leaves)
            if not ok:
                continue
            suspects = [
                fid for fid in sorted(reached)
                if leaf_pair[fid] not in dep[j]
            ]
            for fid in suspects:
                witness = None
                how = "sampled witness"
                status = "unknown"
                if len(order) <= sat_nodes:
                    status, witness = _sat_witness(bg, order, reached, fid,
                                                   out_id, sat_conflicts)
                if status == "unsat":
                    continue  # proved inert: the DEP refinement was right
                if status == "sat":
                    how = "exact SAT witness"
                else:  # cone too big or budget hit: sampling fallback
                    for _ in range(trials):
                        base = {leaf: rng.getrandbits(1) for leaf in reached}
                        lo = dict(base)
                        lo[fid] = 0
                        hi = dict(base)
                        hi[fid] = 1
                        if _evaluate(bg, order, lo, out_id) != \
                                _evaluate(bg, order, hi, out_id):
                            witness = base
                            break
                    if witness is None:
                        continue
                slot, bidx = leaf_pair[fid]
                src = node.operands[slot].source
                yield finding(
                    f"DEP({node.kind.value} {node.nid}[{j}]) omits operand "
                    f"{slot} bit {bidx} (node {src}), but flipping that bit "
                    f"changes the output in the bit-blasted ground truth "
                    f"({how})",
                    node=node.nid,
                    edge=(src, node.nid),
                    hint="fix PackedSupportCalculator.term for this kind: "
                         "an under-approximate DEP silently mis-sizes every "
                         "cut through it",
                )
