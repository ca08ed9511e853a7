"""CDFG structural and semantic rules (codes ``IR0xx``).

``IR001``–``IR008`` are the structural checks :func:`repro.ir.validate.validate`
raises on, one check per rule. ``IR010``+ are semantic rules, which
``validate`` does not run.
"""

from __future__ import annotations

from typing import Iterator

from ..ir.graph import CDFG
from ..ir.node import Node
from ..ir.types import COMPARISON_KINDS, OpKind
from .diagnostic import Diagnostic, Severity
from .registry import (
    GATE_ACYCLIC,
    GATE_WELLFORMED,
    AnalysisContext,
    finding,
    register,
)

__all__ = ["live_set"]


def live_set(graph: CDFG) -> set[int]:
    """Nodes backward-reachable from outputs (across any distance)."""
    live: set[int] = set()
    stack = [out.nid for out in graph.outputs]
    while stack:
        nid = stack.pop()
        if nid in live:
            continue
        live.add(nid)
        for op in graph.node(nid).operands:
            if op.source not in live:
                stack.append(op.source)
    return live


# ----------------------------------------------------------------------
# Structural checks (the rules validate() runs).
# ----------------------------------------------------------------------

@register("IR001", "missing-operand-source", "cdfg", Severity.ERROR,
          "An operand references a node id that does not exist.",
          establishes=GATE_WELLFORMED)
def missing_operand_source(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    for node in graph:
        for idx, op in enumerate(node.operands):
            if op.source not in graph:
                yield finding(
                    f"node {node.nid} operand {idx} references missing "
                    f"node {op.source}",
                    node=node.nid,
                    hint="rebuild the graph or patch the operand with "
                         "set_operand before analysis",
                )


@register("IR002", "const-overflow", "cdfg", Severity.ERROR,
          "A constant's value does not fit its declared width.",
          gate=GATE_WELLFORMED)
def const_overflow(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    for node in ctx.graph:
        if node.kind is OpKind.CONST and node.value is not None:
            if node.value < 0 or node.value >= (1 << node.width):
                yield finding(
                    f"const {node.nid} value {node.value} does not fit "
                    f"width {node.width}",
                    node=node.nid,
                    hint=f"mask the value to {node.width} bits or widen "
                         "the constant",
                )


@register("IR003", "mux-select-width", "cdfg", Severity.ERROR,
          "A MUX select input is not 1 bit wide.", gate=GATE_WELLFORMED)
def mux_select_width(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    for node in graph:
        if node.kind is OpKind.MUX:
            sel = graph.node(node.operands[0].source)
            if sel.width != 1:
                yield finding(
                    f"mux {node.nid} select (node {sel.nid}) has width "
                    f"{sel.width} != 1",
                    node=node.nid,
                    edge=(sel.nid, node.nid),
                    hint="slice a single bit out of the select value",
                )


@register("IR004", "output-not-sink", "cdfg", Severity.ERROR,
          "An OUTPUT node has downstream consumers.", gate=GATE_WELLFORMED)
def output_not_sink(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    for node in graph:
        if node.kind is OpKind.OUTPUT and graph.uses(node.nid):
            yield finding(
                f"output {node.nid} has consumers",
                node=node.nid,
                hint="consume the output's operand directly instead",
            )


@register("IR005", "slice-out-of-range", "cdfg", Severity.ERROR,
          "A SLICE reads past the end of its source value.",
          gate=GATE_WELLFORMED)
def slice_out_of_range(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    for node in graph:
        if node.kind is OpKind.SLICE:
            src = graph.node(node.operands[0].source)
            if node.amount + node.width > src.width:
                yield finding(
                    f"slice {node.nid} [{node.amount}+:{node.width}] exceeds "
                    f"source width {src.width}",
                    node=node.nid,
                    edge=(src.nid, node.nid),
                )


@register("IR006", "combinational-cycle", "cdfg", Severity.ERROR,
          "Distance-0 edges form a cycle (zero-delay feedback loop).",
          gate=GATE_WELLFORMED, establishes=GATE_ACYCLIC)
def combinational_cycle(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    # Kahn's algorithm over distance-0 edges; the leftover set is exactly
    # the union of all combinational cycles plus anything locked behind one.
    indeg: dict[int, int] = {nid: 0 for nid in graph.node_ids}
    for node in graph:
        for op in node.operands:
            if op.distance == 0 and op.source in graph:
                indeg[node.nid] += 1
    queue = [nid for nid, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        nid = queue.pop()
        seen += 1
        for use in graph.uses(nid):
            if use.distance == 0:
                indeg[use.consumer] -= 1
                if indeg[use.consumer] == 0:
                    queue.append(use.consumer)
    if seen == len(graph.node_ids):
        return
    cyclic = sorted(nid for nid, d in indeg.items() if d > 0)
    yield finding(
        f"combinational cycle through nodes {cyclic[:10]}",
        nodes=cyclic[:10],
        hint="break the loop with a distance>=1 (loop-carried) edge",
    )


@register("IR007", "no-primary-outputs", "cdfg", Severity.ERROR,
          "The graph has no OUTPUT nodes, so every operation is dead.",
          gate=GATE_WELLFORMED)
def no_primary_outputs(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    if not ctx.graph.outputs:
        yield finding(
            "graph has no primary outputs",
            hint="declare at least one OUTPUT node",
        )


@register("IR008", "dead-operation", "cdfg", Severity.ERROR,
          "An operation does not reach any primary output.",
          gate=GATE_WELLFORMED)
def dead_operation(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    if not graph.outputs:
        return  # IR007 covers this; flagging every node would be noise
    live = live_set(graph)
    for node in graph:
        if not node.is_boundary and node.nid not in live:
            yield finding(
                f"dead operation {node.nid} ({node.kind.value}) "
                "does not reach any output",
                node=node.nid,
                hint="run eliminate_dead_code or wire the value to an output",
            )


# ----------------------------------------------------------------------
# Semantic rules.
# ----------------------------------------------------------------------

def _expected_width_problem(graph: CDFG, node: Node) -> str | None:
    """Describe a width-inference mismatch, or None when consistent."""
    kind = node.kind
    widths = [graph.node(op.source).width for op in node.operands]
    if kind in COMPARISON_KINDS and node.width != 1:
        return (f"comparison produces 1 bit but node declares "
                f"width {node.width}")
    if kind is OpKind.CONCAT and node.width != widths[0] + widths[1]:
        return (f"concat of {widths[0]}+{widths[1]} bits declares "
                f"width {node.width}")
    if kind is OpKind.TRUNC and node.width > widths[0]:
        return (f"trunc widens: source has {widths[0]} bits, result "
                f"declares {node.width}")
    if kind is OpKind.ZEXT and node.width < widths[0]:
        return (f"zext narrows: source has {widths[0]} bits, result "
                f"declares {node.width}")
    if kind in (OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.NOT) \
            and node.width > max(widths):
        return (f"result width {node.width} exceeds widest operand "
                f"({max(widths)} bits); upper bits carry no information")
    if kind is OpKind.MUX and node.width > max(widths[1], widths[2]):
        return (f"mux width {node.width} exceeds both arms "
                f"({widths[1]} and {widths[2]} bits)")
    if kind in (OpKind.ADD, OpKind.SUB) and node.width > max(widths) + 1:
        return (f"{kind.value} of {widths[0]}- and {widths[1]}-bit values "
                f"needs at most {max(widths) + 1} bits, declares {node.width}")
    return None


@register("IR010", "width-mismatch", "cdfg", Severity.WARNING,
          "Operand and result widths are inconsistent for the operation.",
          gate=GATE_WELLFORMED)
def width_mismatch(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    for node in graph:
        if node.is_boundary or node.is_blackbox or not node.operands:
            continue
        problem = _expected_width_problem(graph, node)
        if problem is not None:
            yield finding(
                f"node {node.nid} ({node.kind.value}): {problem}",
                node=node.nid,
                hint="declared widths directly inflate the Eq. 13/15 "
                     "LUT/FF bit counts; tighten them",
            )


@register("IR011", "never-selected-mux-arm", "cdfg", Severity.WARNING,
          "A MUX select is constant, so one arm is never selected.",
          gate=GATE_WELLFORMED)
def never_selected_mux_arm(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    for node in graph:
        if node.kind is not OpKind.MUX:
            continue
        sel_op = node.operands[0]
        sel = graph.node(sel_op.source)
        if sel.kind is OpKind.CONST and sel_op.distance == 0:
            taken = 1 if (sel.value or 0) & 1 else 2
            dead_slot = 2 if taken == 1 else 1
            dead_src = node.operands[dead_slot].source
            yield finding(
                f"mux {node.nid} select is constant {sel.value & 1}: "
                f"arm {dead_slot} (node {dead_src}) is never selected",
                node=node.nid,
                edge=(dead_src, node.nid),
                hint="replace the mux with the selected arm",
            )
        elif (node.operands[1].source == node.operands[2].source
              and node.operands[1].distance == node.operands[2].distance):
            yield finding(
                f"mux {node.nid} has identical arms (node "
                f"{node.operands[1].source}); the select is irrelevant",
                node=node.nid,
                hint="forward the arm value and drop the mux",
            )


@register("IR012", "constant-foldable", "cdfg", Severity.WARNING,
          "An operation computes a compile-time constant.",
          gate=GATE_ACYCLIC)
def constant_foldable(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    # Propagate constness topologically so whole subgraphs are caught, then
    # report only the *frontier* (constant nodes with a non-constant or
    # boundary consumer) to keep reports proportional to the fix, not to
    # the subgraph size.
    is_const: set[int] = set()
    for nid in graph.topological_order():
        node = graph.node(nid)
        if node.kind is OpKind.CONST:
            is_const.add(nid)
            continue
        if node.is_boundary or node.is_blackbox or not node.operands:
            continue
        if all(op.distance == 0 and op.source in is_const
               for op in node.operands):
            is_const.add(nid)
    foldable = [nid for nid in is_const
                if graph.node(nid).kind is not OpKind.CONST]
    total_bits = sum(graph.node(nid).width for nid in foldable)
    for nid in foldable:
        node = graph.node(nid)
        consumers = graph.successor_ids(nid)
        if all(c in is_const for c in consumers) and consumers:
            continue  # an interior node of a larger foldable subgraph
        yield finding(
            f"node {nid} ({node.kind.value}) computes a constant "
            f"({total_bits} foldable bits in this graph)",
            node=nid,
            hint="run fold_constants before scheduling; constant logic "
                 "inflates LUT-bit counts",
        )


@register("IR013", "unused-input", "cdfg", Severity.INFO,
          "A primary input is never read.", gate=GATE_WELLFORMED)
def unused_input(ctx: AnalysisContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    for node in graph.inputs:
        if not graph.uses(node.nid):
            yield finding(
                f"input {node.nid} ({node.label}) is never read",
                node=node.nid,
                hint="drop the port or wire it into the datapath",
            )
