"""Verilog emission for a scheduled, covered II=1 pipeline.

Emits one synthesizable-style module per schedule:

* each LUT root becomes a combinational ``assign`` whose expression is the
  word-level dataflow of its cone (synthesis tools re-derive the truth
  tables; the *structure* — what is chained in which stage — is what the
  schedule decided and what the emitted registers pin down);
* a value consumed ``n`` cycles after it is produced rides an ``n``-deep
  register chain — exactly the FFs the cost model counts;
* black-box memory operations become behavioral array reads/writes;
* a ``valid`` shift register tracks pipeline fill.

Only II=1 schedules are supported (every experiment in the paper is fully
pipelined to II=1); other IIs raise :class:`RTLError`.
"""

from __future__ import annotations

from ..errors import RTLError
from ..ir.graph import CDFG
from ..ir.node import Node
from ..ir.types import OpKind
from ..scheduling.schedule import Schedule

__all__ = ["VerilogEmitter", "emit_verilog"]


def _ident(node: Node) -> str:
    base = node.name if node.name else f"{node.kind.value}_{node.nid}"
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in base)
    if not safe or safe[0].isdigit():
        safe = "n_" + safe
    return f"{safe}_{node.nid}" if node.name else safe


class VerilogEmitter:
    """Builds the Verilog text for one schedule."""

    def __init__(self, schedule: Schedule, module_name: str | None = None) -> None:
        if schedule.ii != 1:
            raise RTLError(
                f"Verilog emission supports II=1 pipelines, got II={schedule.ii}"
            )
        if not schedule.cover:
            raise RTLError("Verilog emission needs a covered schedule")
        self.schedule = schedule
        self.graph: CDFG = schedule.graph
        self.module_name = module_name or schedule.graph.name.replace("-", "_")
        self._stage_depth: dict[int, int] = {}
        self._warm_depth = 0

    # ------------------------------------------------------------------
    # Expression construction
    # ------------------------------------------------------------------
    def _expr(self, nid: int, frame_root: int, depth: int = 0) -> str:
        """Verilog expression for ``nid`` inside ``frame_root``'s cone.

        Cut-boundary nodes reference their (possibly staged) wire; interior
        nodes expand recursively.
        """
        if depth > 256:
            raise RTLError(f"expression for node {nid} is unreasonably deep")
        graph = self.graph
        node = graph.node(nid)
        cut = self.schedule.cover[frame_root]
        if node.kind is OpKind.CONST:
            return f"{node.width}'d{node.value}"
        if nid != frame_root and nid in cut.boundary:
            raise RTLError("boundary nodes are referenced via _staged_ref")

        def operand(slot: int) -> str:
            op = node.operands[slot]
            src = graph.node(op.source)
            if src.kind is OpKind.CONST:
                return f"{src.width}'d{src.value}"
            if op.source in cut.boundary or op.source in (
                u for u, _ in cut.entries
            ):
                return self._staged_ref(op.source, frame_root, op.distance)
            if op.source in cut.interior or op.source == frame_root:
                inner = self._expr(op.source, frame_root, depth + 1)
                if self._fits_width(src):
                    return "(" + inner + ")"
                # Verilog evaluates an inlined expression at the *context*
                # width, keeping carries, borrow wraps and inverted high
                # bits that the IR masks off at every node boundary. A
                # root gets that mask for free from its wire declaration;
                # an interior needs it spelled out (the sized mask literal
                # also pins the context to at least the node's width).
                m = (1 << src.width) - 1
                return f"(({inner}) & {src.width}'d{m})"
            # Neither boundary nor in-cone: no output bit of the cone
            # reads this operand (its DEP term is empty, e.g. a shift-out
            # that became constant after narrowing), so the enumerator
            # left it out of the cut. No wire exists; any constant
            # preserves the function, so feed zero.
            return f"{src.width}'d0"

        k = node.kind
        if k is OpKind.AND:
            return f"{operand(0)} & {operand(1)}"
        if k is OpKind.OR:
            return f"{operand(0)} | {operand(1)}"
        if k is OpKind.XOR:
            return f"{operand(0)} ^ {operand(1)}"
        if k is OpKind.NOT:
            return f"~{operand(0)}"
        if k is OpKind.MUX:
            return f"{operand(0)} ? {operand(1)} : {operand(2)}"
        if k is OpKind.SHL:
            return f"{operand(0)} << {node.amount}"
        if k is OpKind.SHR:
            return f"{operand(0)} >> {node.amount}"
        if k is OpKind.ZEXT:
            return f"{node.width}'d0 | {operand(0)}"
        if k is OpKind.TRUNC:
            mask_lit = (1 << node.width) - 1
            return f"({operand(0)}) & {node.width}'d{mask_lit}"
        if k is OpKind.SLICE:
            src = graph.node(node.operands[0].source)
            hi = node.amount + node.width - 1
            if src.kind is OpKind.CONST:
                sliced = (src.value >> node.amount) & ((1 << node.width) - 1)
                return f"{node.width}'d{sliced}"
            inner = operand(0)
            if inner.startswith("("):
                # Expressions cannot be bit-sliced in Verilog: shift + mask.
                mask_lit = (1 << node.width) - 1
                return f"(({inner}) >> {node.amount}) & {node.width}'d{mask_lit}"
            return f"{inner}[{hi}:{node.amount}]"
        if k is OpKind.CONCAT:
            lo_w = graph.node(node.operands[0].source).width
            lo, hi = operand(0), operand(1)
            if lo.startswith("(") or hi.startswith("("):
                # A concat part's placement is its *self-determined*
                # width, and an inlined expression's self-width need not
                # match its node's width; shift-or keeps the layout
                # explicit instead (callers mask it, so the context is
                # wide enough to hold the shifted high part).
                return f"({hi} << {lo_w}) | {lo}"
            return f"{{{hi}, {lo}}}"
        if k is OpKind.ADD:
            return f"{operand(0)} + {operand(1)}"
        if k is OpKind.SUB:
            return f"{operand(0)} - {operand(1)}"
        if k is OpKind.NEG:
            return f"-{operand(0)}"
        if k is OpKind.EQ:
            return f"{operand(0)} == {operand(1)}"
        if k is OpKind.NE:
            return f"{operand(0)} != {operand(1)}"
        if k is OpKind.LT:
            return f"{operand(0)} < {operand(1)}"
        if k is OpKind.GE:
            return f"{operand(0)} >= {operand(1)}"
        if k in (OpKind.SLT, OpKind.SGE):
            # ``$signed`` takes its sign bit from the operand's
            # *self-determined* width, which for an inlined expression
            # need not match the node width the IR signs at. The offset-
            # binary form depends only on operand *values*: mapping
            # ``x -> sext(x) + 2^(W-1)`` (over ``W = max(w0, w1)`` bits)
            # preserves signed order under an unsigned compare, and the
            # W-sized bias literal pins the comparison context to W.
            w0 = graph.node(node.operands[0].source).width
            w1 = graph.node(node.operands[1].source).width
            wide = max(w0, w1)

            def biased(e: str, w: int) -> str:
                sign = 1 << (w - 1)
                bias = (1 << (wide - 1)) - sign
                return f"(({e} ^ {w}'d{sign}) + {wide}'d{bias})"

            rel = "<" if k is OpKind.SLT else ">="
            return (f"{biased(operand(0), w0)} {rel} "
                    f"{biased(operand(1), w1)}")
        if k is OpKind.VSHL:
            return f"{operand(0)} << {operand(1)}"
        if k is OpKind.VSHR:
            return f"{operand(0)} >> {operand(1)}"
        if k is OpKind.MUL:
            return f"{operand(0)} * {operand(1)}"
        if k is OpKind.DIV:
            return f"{operand(0)} / {operand(1)}"
        if k is OpKind.MOD:
            return f"{operand(0)} % {operand(1)}"
        if k is OpKind.OUTPUT:
            return operand(0)
        raise RTLError(f"cannot emit expression for {k.value}")

    _EXACT_KINDS = frozenset((
        OpKind.TRUNC,   # emits its own mask
        OpKind.SLICE,   # exact bit range (or shift+mask fallback)
        OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.GE,
        OpKind.SLT, OpKind.SGE,  # comparisons are one bit in Verilog
    ))

    def _fits_width(self, node: Node) -> bool:
        """Whether ``node``'s emitted expression can never exceed
        ``mask(node.width)``, in *any* (wider) evaluation context.

        Nodes that fit need no guard when inlined: their Verilog value
        equals the IR value bit for bit. Everything else — arithmetic
        carries and borrow wraps, shifted-out bits, ``~`` inverting
        context-extension bits, bitwise/mux operands wider than the
        node — must be masked back down at the point of inlining.
        CONCAT is conservatively guarded: its shift-or form relies on
        the caller's mask literal to size the context.
        """
        if node.kind in self._EXACT_KINDS:
            return True
        widths = [self.graph.node(op.source).width for op in node.operands]
        if node.kind is OpKind.AND:
            return bool(widths) and min(widths) <= node.width
        if node.kind in (OpKind.OR, OpKind.XOR, OpKind.ZEXT):
            return bool(widths) and max(widths) <= node.width
        if node.kind is OpKind.MUX:
            return max(widths[1:]) <= node.width
        return False

    def _staged_ref(self, source: int, consumer_root: int,
                    distance: int) -> str:
        """Reference to a boundary value, staged by the cycle gap."""
        sched = self.schedule
        src = self.graph.node(source)
        gap = (sched.cycle[consumer_root] + distance
               - sched.cycle.get(source, 0))
        if gap < 0:
            raise RTLError(
                f"negative stage gap {gap} from {source} to {consumer_root}"
            )
        name = _ident(src)
        self._stage_depth[source] = max(self._stage_depth.get(source, 0), gap)
        ref = name if gap == 0 else f"{name}_r{gap}"
        if distance > 0:
            # Cold-start gate for carried dependences. The consumer
            # computes iteration i = clock - S_consumer and wants source
            # iteration i - d, which only exists once i >= d — before
            # that, the chain (or, for gap 0, the same-cycle wire) holds
            # values derived from other initials, not the declared seed,
            # which would permanently contaminate recurrences. warm_sr
            # shifts in ones, so warm_sr[k] is high iff clock >= k + 1;
            # gate on k = d + S_consumer - 1 to substitute the declared
            # initial during exactly the cold iterations i < d.
            k = distance + sched.cycle[consumer_root] - 1
            self._warm_depth = max(self._warm_depth, k + 1)
            init = int(src.attrs.get("initial", 0)) & ((1 << src.width) - 1)
            return f"(warm_sr[{k}] ? {ref} : {src.width}'d{init})"
        return ref

    def _operand_ref(self, node: Node, slot: int) -> str:
        """Staged reference for one operand, with constants as literals.

        CONST nodes are never declared as wires, so referencing one by name
        (as ``_staged_ref`` would) produces a dangling identifier; they are
        also the same in every cycle, so they never need staging.
        """
        op = node.operands[slot]
        src = self.graph.node(op.source)
        if src.kind is OpKind.CONST:
            return f"{src.width}'d{src.value}"
        return self._staged_ref(op.source, node.nid, op.distance)

    # ------------------------------------------------------------------
    def emit(self) -> str:
        """Return the module text."""
        graph = self.graph
        sched = self.schedule
        lines: list[str] = []
        inputs = graph.inputs
        outputs = graph.outputs

        ports = ["input wire clk", "input wire in_valid"]
        for node in inputs:
            ports.append(f"input wire [{node.width - 1}:0] {_ident(node)}")
        for node in outputs:
            ports.append(f"output wire [{node.width - 1}:0] {_ident(node)}")
        ports.append("output wire out_valid")
        lines.append(f"module {self.module_name} (")
        lines.append("    " + ",\n    ".join(ports))
        lines.append(");")
        lines.append("")
        lines.append(f"// generated by repro (method={sched.method}, "
                     f"II={sched.ii}, latency={sched.latency})")
        lines.append("")

        # Combinational cones (topological order keeps definitions first).
        body: list[str] = []
        order = graph.topological_order()
        memories: list[Node] = []
        for nid in order:
            node = graph.node(nid)
            if nid not in sched.cover:
                continue
            if node.kind in (OpKind.INPUT, OpKind.OUTPUT):
                continue
            if node.kind is OpKind.CONST:
                continue
            name = _ident(node)
            if node.kind in (OpKind.LOAD, OpKind.STORE):
                memories.append(node)
                continue
            expr = self._expr(nid, nid)
            body.append(f"wire [{node.width - 1}:0] {name} = {expr};")

        # Black-box memories: one behavioral array per LOAD/STORE.
        mem_lines: list[str] = []
        for node in memories:
            name = _ident(node)
            mem = f"{name}_mem"
            addr = self._operand_ref(node, 0)
            mem_lines.append(
                f"reg [{node.width - 1}:0] {mem} [0:1023]; "
                f"// black-box {node.kind.value}"
            )
            if node.kind is OpKind.LOAD:
                mem_lines.append(
                    f"wire [{node.width - 1}:0] {name} = {mem}[{addr}];"
                )
            else:
                data = self._operand_ref(node, 1)
                mem_lines.append(
                    f"wire [{node.width - 1}:0] {name} = {data};"
                )
                mem_lines.append("always @(posedge clk) begin")
                mem_lines.append(f"    {mem}[{addr}] <= {data};")
                mem_lines.append("end")

        # Output assigns (may add staging requirements).
        out_lines: list[str] = []
        for node in outputs:
            op = node.operands[0]
            src = graph.node(op.source)
            if src.kind is OpKind.CONST:
                ref = f"{src.width}'d{src.value}"
            else:
                ref = self._staged_ref(op.source, node.nid, op.distance)
            out_lines.append(f"assign {_ident(node)} = {ref};")

        # Register chains discovered during expression construction.
        reg_lines: list[str] = []
        always_lines: list[str] = []
        for source in sorted(self._stage_depth):
            depth = self._stage_depth[source]
            if depth == 0:
                continue
            src = graph.node(source)
            name = _ident(src)
            init = int(src.attrs.get("initial", 0)) & ((1 << src.width) - 1)
            for d in range(1, depth + 1):
                reg_lines.append(
                    f"reg [{src.width - 1}:0] {name}_r{d} = {src.width}'d{init};"
                )
                prev = name if d == 1 else f"{name}_r{d - 1}"
                always_lines.append(f"    {name}_r{d} <= {prev};")

        if self._warm_depth:
            d = self._warm_depth
            reg_lines.append(f"reg [{d - 1}:0] warm_sr = 0;")
            if d == 1:
                always_lines.append("    warm_sr <= 1'b1;")
            else:
                always_lines.append(
                    f"    warm_sr <= {{warm_sr[{d - 2}:0], 1'b1}};")

        latency = sched.latency
        reg_lines.append(f"reg [{max(latency, 1)}:0] valid_sr = 0;")
        always_lines.append(
            f"    valid_sr <= {{valid_sr[{max(latency, 1) - 1}:0], in_valid}};"
        )

        lines.extend(body)
        lines.append("")
        lines.extend(mem_lines)
        lines.append("")
        lines.extend(reg_lines)
        lines.append("")
        lines.append("always @(posedge clk) begin")
        lines.extend(always_lines)
        lines.append("end")
        lines.append("")
        lines.extend(out_lines)
        lines.append(f"assign out_valid = valid_sr[{max(latency - 1, 0)}];")
        lines.append("")
        lines.append("endmodule")
        return "\n".join(lines)


def emit_verilog(schedule: Schedule, module_name: str | None = None) -> str:
    """Emit Verilog for a covered II=1 schedule."""
    return VerilogEmitter(schedule, module_name).emit()
