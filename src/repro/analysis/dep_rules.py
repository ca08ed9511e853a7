"""DEP-soundness spot checks (code ``DEP001``).

The word-level ``DEP`` kernel that sizes cuts
(:meth:`repro.bitdeps.packed.PackedSupportCalculator.term`) must
*over-approximate* the true bit-level dependences: every operand bit that can
actually influence an output bit must be in its support, or cut enumeration
will build cones whose LUTs miss inputs. This rule samples nodes and output
bits and compares each non-constant slot's term over the slot's own leaf
bits, decoded to ``(slot, bit)`` pairs, against the node's own and-inverter
graph.

Each sampled node is encoded once onto a fresh AIG
(:func:`repro.analysis.equiv.encode.encode_node`): every bit of a
non-constant operand slot is a fresh input, and constant slots are constant
literals, so constant-aware DEP refinements see the same context. Fresh
inputs per slot match DEP's semantics (slots are independent free inputs,
even when they share a word-level source). The AIG's support of a sampled
output bit is the set of operand bits it is still wired to after constant
propagation and rewriting.

Structural reachability alone could still over-report: ``DEP``
legitimately refines away bits that are wired but functionally inert (the
sign-test refinement keeps only the MSB of ``B >= 0``). So a
reached-but-unlisted bit is only reported when a *functional witness*
exists: an operand assignment where flipping that one bit flips the sampled
output bit. A witness is irrefutable evidence of unsoundness.

Each such suspect is decided exactly on a fresh AIG that holds only the
output bit's cone, copied twice over shared variables with the suspect
pinned 0 in one copy and 1 in the other; the SAT solver
(:mod:`repro.analysis.equiv.sat`) searches for an assignment where the
copies differ. UNSAT proves the bit inert (the refinement was right); SAT is
a witness. A call that exhausts its conflict budget (``dep_sat_conflicts``)
falls back to evaluating the cone on ``dep_trials`` random assignments,
which can miss a witness but never fabricates one.

The sample sizes are the linter options ``dep_nodes`` and
``dep_bit_samples``. Variable shifts (VSHL, VSHR) are left unchecked and
draw no output bits from the shared random stream: checking them would move
the sampled bits of every later node, and with them every report.
"""

from __future__ import annotations

import random
from typing import Iterator

from ..bitdeps.packed import PackedSupportCalculator, rows_to_ints
from ..errors import IRError
from ..ir.types import OpKind
from .diagnostic import Diagnostic, Severity
from .equiv.aig import AIG, FALSE, TRUE
from .equiv.encode import const_bits, encode_node
from .equiv.sat import solve_lit
from .registry import GATE_ACYCLIC, AnalysisContext, finding, register

_UNCHECKED = frozenset({OpKind.VSHL, OpKind.VSHR})


def _encode(graph, node) -> tuple[AIG, list[int], dict[int, tuple[int, int]]]:
    """``node`` alone on a fresh AIG.

    Returns ``(aig, out_bits, leaf_pair)``: the node's output literals, and
    the ``(slot, bit)`` each operand-bit input variable stands for.
    """
    aig = AIG()
    args = []
    widths = []
    leaf_pair: dict[int, tuple[int, int]] = {}
    for slot, op in enumerate(node.operands):
        src = graph.node(op.source)
        if src.kind is OpKind.CONST:
            args.append(const_bits(aig, src.value or 0, src.width))
        else:
            bits = [aig.new_input() for _ in range(src.width)]
            leaf_pair.update((lit >> 1, (slot, j))
                             for j, lit in enumerate(bits))
            args.append(bits)
        widths.append(src.width)
    return aig, encode_node(aig, node, args, widths), leaf_pair


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


def _pinned_cone(aig: AIG, out: int, leaves: list[int],
                 suspect: int) -> tuple[AIG, int, list[int]]:
    """Copy ``out``'s cone onto a fresh AIG twice over shared inputs, with
    the input variable ``suspect`` pinned 0 in one copy and 1 in the other.

    Returns ``(cone, diff, inputs)``: ``diff`` is the XOR of the two copies
    and ``inputs`` the fresh variables of the other ``leaves``.
    """
    cone = AIG()
    shared = {var: cone.new_input() for var in leaves if var != suspect}
    order = aig.cone_vars([out])
    copies = []
    for pin in (FALSE, TRUE):
        lit_of = {0: FALSE, suspect: pin, **shared}
        for var in order:
            pair = aig.fanins[var]
            if pair is not None:
                a, b = pair
                lit_of[var] = cone.and_(lit_of[a >> 1] ^ (a & 1),
                                        lit_of[b >> 1] ^ (b & 1))
        copies.append(lit_of[out >> 1] ^ (out & 1))
    return cone, cone.xor_(*copies), [lit >> 1 for lit in shared.values()]


@register("DEP001", "dep-underapproximation", "cdfg", Severity.ERROR,
          "Word-level DEP misses a bit-level dependence proven on the "
          "node's own and-inverter graph.", gate=GATE_ACYCLIC)
def dep_soundness(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    opts = ctx.options
    max_nodes = int(opts.get("dep_nodes", 12))
    max_bits = int(opts.get("dep_bit_samples", 4))
    trials = int(opts.get("dep_trials", 4))
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
        if node.kind in _UNCHECKED:
            continue
        try:
            aig, out_bits, leaf_pair = _encode(graph, node)
            dep = _dep_pairs(pcalc, node)
        except IRError:
            continue  # an operand source missing from the graph (IR001)
        bit_indices = list(range(node.width))
        if len(bit_indices) > max_bits:
            bit_indices = sorted(rng.sample(bit_indices, max_bits))
        for j in bit_indices:
            reached = sorted(aig.support([out_bits[j]]))
            for var in reached:
                if leaf_pair[var] in dep[j]:
                    continue
                cone, diff, inputs = _pinned_cone(aig, out_bits[j], reached,
                                                  var)
                status = solve_lit(cone, diff,
                                   max_conflicts=sat_conflicts).status
                if status == "unsat":
                    continue  # proved inert: the DEP refinement was right
                if status == "sat":
                    how = "exact SAT witness"
                elif any(cone.eval_lit({v: rng.getrandbits(1)
                                        for v in inputs}, diff)
                         for _ in range(trials)):
                    how = "sampled witness"  # budget hit: sampling fallback
                else:
                    continue
                slot, bidx = leaf_pair[var]
                src = node.operands[slot].source
                yield finding(
                    f"DEP({node.kind.value} {node.nid}[{j}]) omits operand "
                    f"{slot} bit {bidx} (node {src}), but flipping that bit "
                    f"changes the output of the node's and-inverter graph "
                    f"({how})",
                    node=node.nid,
                    edge=(src, node.nid),
                    hint="fix PackedSupportCalculator.term for this kind: "
                         "an under-approximate DEP silently mis-sizes every "
                         "cut through it",
                )
