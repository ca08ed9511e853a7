"""Symbolic frame machines: one per flow stage representation.

A *machine* is a symbolic transition system over AIG bit vectors. Each
frame corresponds to one loop iteration (graph/cover machines) or one
clock cycle (pipeline/RTL machines); loop-carried or register state is
read through a driver-provided callback so the same machine definition
serves bounded model checking (concrete initial values) and the
inductive step (free history constrained by the stage correspondence).

Machines never talk to the SAT solver: they only *encode*. The pairing
of two machines into miters, history resolution and obligation
collection live in :mod:`.miter`.

State correspondence contract: a :class:`StateElem` with key ``k``
written at frame ``u`` holds the value of reference-graph node
``a_node`` at iteration ``u - a_shift``. Iteration-indexed machines use
``a_shift == 0``; cycle-indexed machines use the schedule cycle of the
producing node. The driver leans on this to align induction windows and
to state the per-node correspondence obligations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping

from ...errors import ReproError
from ...ir.graph import CDFG
from ...ir.node import Node
from ...ir.semantics import mask
from ...ir.types import OpKind
from ...scheduling.schedule import Schedule
from .aig import AIG
from .encode import (
    UNINTERPRETED_KINDS,
    BitVec,
    adjust,
    const_bits,
    encode_node,
)

__all__ = [
    "FrameContext",
    "FrameResult",
    "GraphMachine",
    "CoverMachine",
    "PipelineMachine",
    "StateElem",
    "MachineError",
]


class MachineError(ReproError):
    """The stage artifact cannot be modeled (the validator reports it)."""


@dataclass(frozen=True)
class StateElem:
    """One carried value: a shift register of ``depth`` frames."""

    key: Hashable
    width: int
    depth: int
    initial: int
    a_node: int | None  # reference-graph node this state tracks
    a_shift: int = 0    # frame u holds a_node's iteration u - a_shift


@dataclass
class FrameResult:
    outputs: dict[str, BitVec] = field(default_factory=dict)
    # State writes plus (for the reference side) every node value, so the
    # driver can state correspondence obligations against any a_node.
    writes: dict[Hashable, BitVec] = field(default_factory=dict)


class FrameContext:
    """Driver-side services handed to :meth:`Machine.eval_frame`.

    ``read(key, back)`` resolves a state read ``back >= 1`` frames ago.
    ``blackbox(a_key, i, width, operands)`` returns the shared
    uninterpreted value for an effectful op instance (LOAD) and records
    the operand vectors for Ackermann-style pairing obligations;
    ``record_effect`` does the recording alone (STOREs have exact value
    semantics but their memory side effect must still pair up).
    """

    def __init__(self, aig: AIG, frame: int,
                 inputs: Mapping[str, BitVec],
                 read: Callable[[Hashable, int], BitVec],
                 blackbox: Callable[[Hashable, int, int, list[BitVec]], BitVec],
                 record_effect: Callable[[Hashable, int, list[BitVec]], None],
                 steady: bool = False):
        self.aig = aig
        self.frame = frame
        # ``steady`` is True in induction mode: ``frame`` is an offset
        # into an arbitrarily late window, so any warm-up machinery
        # (the emitter's ``warm_sr``) must be modeled as saturated.
        self.steady = steady
        self._inputs = inputs
        self.read = read
        self.blackbox = blackbox
        self.record_effect = record_effect

    def input(self, name: str) -> BitVec:
        try:
            return self._inputs[name]
        except KeyError:
            raise MachineError(f"no symbolic input named {name!r}") from None


def _initial_of(node: Node) -> int:
    return mask(int(node.attrs.get("initial", 0)), node.width)


def _input_name(node: Node) -> str:
    return node.name or f"in{node.nid}"


def _output_name(node: Node) -> str:
    return node.name or f"out{node.nid}"


class GraphMachine:
    """Reference semantics: one frame = one functional-sim iteration."""

    kind = "graph"

    def __init__(self, graph: CDFG, *,
                 pair_map: Mapping[int, int] | None = None) -> None:
        """``pair_map`` maps this graph's node ids to reference-graph ids
        for blackbox pairing and state correspondence (identity when this
        machine *is* the reference side)."""
        self.graph = graph
        self.pair_map = dict(pair_map) if pair_map is not None else None
        self._order = graph.topological_order()
        self._state = self._collect_state()

    def _a_node(self, nid: int) -> int | None:
        if self.pair_map is None:
            return nid
        return self.pair_map.get(nid)

    def _collect_state(self) -> list[StateElem]:
        depth: dict[int, int] = {}
        for nid in self.graph.node_ids:
            for op in self.graph.node(nid).operands:
                if op.distance > 0:
                    depth[op.source] = max(depth.get(op.source, 0),
                                           op.distance)
        elems = []
        for src, d in sorted(depth.items()):
            node = self.graph.node(src)
            elems.append(StateElem(key=src, width=node.width, depth=d,
                                   initial=_initial_of(node),
                                   a_node=self._a_node(src)))
        return elems

    @property
    def inputs(self) -> list[tuple[str, int]]:
        return [(_input_name(n), n.width) for n in self.graph.inputs]

    @property
    def outputs(self) -> list[tuple[str, int, int]]:
        return [(_output_name(n), n.width, 0) for n in self.graph.outputs]

    @property
    def state(self) -> list[StateElem]:
        return self._state

    @property
    def max_offset(self) -> int:
        return 0

    def eval_frame(self, fx: FrameContext) -> FrameResult:
        graph = self.graph
        values: dict[int, BitVec] = {}
        result = FrameResult()
        for nid in self._order:
            node = graph.node(nid)
            if node.kind is OpKind.INPUT:
                values[nid] = adjust(fx.aig, fx.input(_input_name(node)),
                                     node.width)
            elif node.kind is OpKind.CONST:
                values[nid] = const_bits(fx.aig, int(node.value), node.width)
            else:
                args = []
                widths = []
                for op in node.operands:
                    src = graph.node(op.source)
                    widths.append(src.width)
                    if op.distance == 0:
                        args.append(values[op.source])
                    else:
                        args.append(fx.read(op.source, op.distance))
                values[nid] = self._apply(fx, node, args, widths)
            result.writes[nid] = values[nid]
        for node in graph.outputs:
            result.outputs[_output_name(node)] = values[node.nid]
        return result

    def _apply(self, fx: FrameContext, node: Node, args: list[BitVec],
               widths: list[int]) -> BitVec:
        if node.kind in UNINTERPRETED_KINDS:
            a_key = self._a_node(node.nid)
            if a_key is None:
                raise MachineError(
                    f"unpaired {node.kind.value} node {node.nid}")
            return fx.blackbox((a_key, node.kind.value), fx.frame,
                               node.width, args)
        if node.kind is OpKind.STORE:
            a_key = self._a_node(node.nid)
            if a_key is not None:
                fx.record_effect((a_key, "store"), fx.frame, args)
            return encode_node(fx.aig, node, args, widths)
        return encode_node(fx.aig, node, args, widths)


class _CoverEvalMixin:
    """Shared cone evaluation mirroring ``VerilogEmitter._expr``.

    Out-of-cone, non-boundary operands are fed zero — exactly the
    emitter's fallback; validating *that* choice against the functional
    reference is the point of the cuts stage.
    """

    graph: CDFG
    schedule: Schedule

    def _cone_bits(self, fx: FrameContext, values: dict[int, BitVec],
                   frame_root: int, nid: int, depth: int = 0) -> BitVec:
        if depth > 256:
            raise MachineError(f"cone of node {frame_root} is too deep")
        graph = self.graph
        node = graph.node(nid)
        cut = self.schedule.cover[frame_root]
        if node.kind is OpKind.CONST:
            return const_bits(fx.aig, int(node.value), node.width)
        if node.kind in UNINTERPRETED_KINDS or node.kind is OpKind.STORE:
            raise MachineError(
                f"{node.kind.value} node {nid} inside cone of {frame_root}")
        entry_sources = {u for u, _ in cut.entries}
        args: list[BitVec] = []
        widths: list[int] = []
        for op in node.operands:
            src = graph.node(op.source)
            widths.append(src.width)
            if src.kind is OpKind.CONST:
                args.append(const_bits(fx.aig, int(src.value), src.width))
            elif op.source in cut.boundary or op.source in entry_sources:
                args.append(self._staged(fx, values, op.source, frame_root,
                                         op.distance))
            elif op.source in cut.interior or op.source == frame_root:
                args.append(self._cone_bits(fx, values, frame_root,
                                            op.source, depth + 1))
            else:
                args.append(const_bits(fx.aig, 0, src.width))
        return encode_node(fx.aig, node, args, widths)

    def _staged(self, fx: FrameContext, values: dict[int, BitVec],
                source: int, consumer: int, distance: int) -> BitVec:
        raise NotImplementedError

    # -- shared wiring ---------------------------------------------------
    def _wire_nodes(self) -> list[int]:
        """Nodes carrying a wire: covered roots plus inputs, topo order."""
        out = []
        for nid in self.graph.topological_order():
            node = self.graph.node(nid)
            if node.kind is OpKind.INPUT or nid in self.schedule.cover:
                if node.kind not in (OpKind.OUTPUT, OpKind.CONST):
                    out.append(nid)
        return out

    def _eval_wire(self, fx: FrameContext, values: dict[int, BitVec],
                   nid: int) -> BitVec:
        node = self.graph.node(nid)
        if node.kind is OpKind.INPUT:
            return adjust(fx.aig, fx.input(_input_name(node)), node.width)
        if node.kind in UNINTERPRETED_KINDS:
            args = [self._operand_ref(fx, values, node, slot)
                    for slot in range(len(node.operands))]
            return fx.blackbox((nid, node.kind.value), self._pair_frame(nid),
                               node.width, args)
        if node.kind is OpKind.STORE:
            addr = self._operand_ref(fx, values, node, 0)
            data = self._operand_ref(fx, values, node, 1)
            fx.record_effect((nid, "store"), self._pair_frame(nid),
                             [addr, data])
            return adjust(fx.aig, data, node.width)
        return self._cone_bits(fx, values, nid, nid)

    def _operand_ref(self, fx: FrameContext, values: dict[int, BitVec],
                     node: Node, slot: int) -> BitVec:
        op = node.operands[slot]
        src = self.graph.node(op.source)
        if src.kind is OpKind.CONST:
            return const_bits(fx.aig, int(src.value), src.width)
        return self._staged(fx, values, op.source, node.nid, op.distance)

    def _pair_frame(self, nid: int) -> int:
        raise NotImplementedError

    def _emit_outputs(self, fx: FrameContext, values: dict[int, BitVec],
                      result: FrameResult) -> None:
        for node in self.graph.outputs:
            op = node.operands[0]
            src = self.graph.node(op.source)
            if src.kind is OpKind.CONST:
                bits = const_bits(fx.aig, int(src.value), src.width)
            else:
                bits = self._staged(fx, values, op.source, node.nid,
                                    op.distance)
            result.outputs[_output_name(node)] = adjust(fx.aig, bits,
                                                        node.width)


class CoverMachine(_CoverEvalMixin):
    """Cut-cover semantics, iteration-indexed.

    Each covered root is recomputed from its cone over boundary wires;
    carried boundary references read state at their dependence distance.
    Catches cones that do not compute their root (a wrong interior or a
    missing entry) and bad boundary choices, independent of any
    scheduling concern.
    """

    kind = "cover"

    def __init__(self, schedule: Schedule) -> None:
        if not schedule.cover:
            raise MachineError("cover validation needs a covered schedule")
        self.schedule = schedule
        self.graph = schedule.graph
        self._wires = self._wire_nodes()
        self._state = self._collect_state()

    def _collect_state(self) -> list[StateElem]:
        depth: dict[int, int] = {}

        def note(source: int, distance: int) -> None:
            if distance > 0:
                src = self.graph.node(source)
                if src.kind is not OpKind.CONST:
                    depth[source] = max(depth.get(source, 0), distance)

        for nid in self.graph.node_ids:
            for op in self.graph.node(nid).operands:
                note(op.source, op.distance)
        elems = []
        for src, d in sorted(depth.items()):
            node = self.graph.node(src)
            elems.append(StateElem(key=src, width=node.width, depth=d,
                                   initial=_initial_of(node), a_node=src))
        return elems

    @property
    def inputs(self) -> list[tuple[str, int]]:
        return [(_input_name(n), n.width) for n in self.graph.inputs]

    @property
    def outputs(self) -> list[tuple[str, int, int]]:
        return [(_output_name(n), n.width, 0) for n in self.graph.outputs]

    @property
    def state(self) -> list[StateElem]:
        return self._state

    @property
    def max_offset(self) -> int:
        return 0

    def _staged(self, fx, values, source, consumer, distance):
        if distance == 0:
            try:
                return values[source]
            except KeyError:
                raise MachineError(
                    f"node {consumer} references {source}, which has no "
                    f"wire (not covered)") from None
        return fx.read(source, distance)

    def _pair_frame(self, nid: int) -> int:
        return self._current_frame

    def eval_frame(self, fx: FrameContext) -> FrameResult:
        self._current_frame = fx.frame
        values: dict[int, BitVec] = {}
        result = FrameResult()
        for nid in self._wires:
            values[nid] = self._eval_wire(fx, values, nid)
            result.writes[nid] = values[nid]
        self._emit_outputs(fx, values, result)
        return result


class PipelineMachine(_CoverEvalMixin):
    """Register-chain semantics, cycle-indexed (II=1).

    The same cones as :class:`CoverMachine`, but every boundary
    reference rides a chain of ``gap = S_consumer + d - S_source``
    registers — the exact structure the Verilog emitter pins down. A
    wire written at cycle ``u`` holds its node's iteration
    ``u - S_node``, so a corrupted schedule cycle misaligns iterations
    and shows up as a miter counterexample.
    """

    kind = "pipeline"

    def __init__(self, schedule: Schedule) -> None:
        if schedule.ii != 1:
            raise MachineError(
                f"pipeline validation supports II=1, got II={schedule.ii}")
        if not schedule.cover:
            raise MachineError("pipeline validation needs a covered schedule")
        self.schedule = schedule
        self.graph = schedule.graph
        self._wires = self._wire_nodes()
        self._wire_set = set(self._wires)
        self._warm_frames = 0
        self._gaps = self._collect_gaps()
        self._state = self._build_state()

    @property
    def warm_frames(self) -> int:
        """Clock frames before every carried read is warm (see _staged)."""
        return self._warm_frames

    def _cycle(self, nid: int) -> int:
        return int(self.schedule.cycle.get(nid, 0))

    def _gap(self, source: int, consumer: int, distance: int) -> int:
        gap = self._cycle(consumer) + distance - self._cycle(source)
        if gap < 0:
            raise MachineError(
                f"negative stage gap {gap} from {source} to {consumer}")
        return gap

    def _collect_gaps(self) -> dict[int, int]:
        """Max register-chain depth per staged source (like the emitter)."""
        gaps: dict[int, int] = {}

        def note(source: int, consumer: int, distance: int) -> None:
            src = self.graph.node(source)
            if src.kind is OpKind.CONST:
                return
            if distance > 0:
                self._warm_frames = max(self._warm_frames,
                                        distance + self._cycle(consumer))
            gap = self._gap(source, consumer, distance)
            if gap > 0:
                gaps[source] = max(gaps.get(source, 0), gap)

        cover = self.schedule.cover
        for root, cut in cover.items():
            node = self.graph.node(root)
            if node.kind in UNINTERPRETED_KINDS or node.kind is OpKind.STORE:
                for op in node.operands:
                    if self.graph.node(op.source).kind is not OpKind.CONST:
                        note(op.source, root, op.distance)
                continue
            entry_sources = {u for u, _ in cut.entries}
            stack = [root]
            seen = set()
            while stack:
                nid = stack.pop()
                if nid in seen:
                    continue
                seen.add(nid)
                for op in self.graph.node(nid).operands:
                    src = self.graph.node(op.source)
                    if src.kind is OpKind.CONST:
                        continue
                    if op.source in cut.boundary or op.source in entry_sources:
                        note(op.source, root, op.distance)
                    elif op.source in cut.interior or op.source == root:
                        stack.append(op.source)
        for node in self.graph.outputs:
            op = node.operands[0]
            if self.graph.node(op.source).kind is not OpKind.CONST:
                note(op.source, node.nid, op.distance)
        return gaps

    def _build_state(self) -> list[StateElem]:
        elems = []
        for src in sorted(self._gaps):
            node = self.graph.node(src)
            elems.append(StateElem(key=src, width=node.width,
                                   depth=self._gaps[src],
                                   initial=_initial_of(node), a_node=src,
                                   a_shift=self._cycle(src)))
        return elems

    @property
    def inputs(self) -> list[tuple[str, int]]:
        return [(_input_name(n), n.width) for n in self.graph.inputs]

    @property
    def outputs(self) -> list[tuple[str, int, int]]:
        return [(_output_name(n), n.width, self._cycle(n.nid))
                for n in self.graph.outputs]

    @property
    def state(self) -> list[StateElem]:
        return self._state

    @property
    def max_offset(self) -> int:
        offs = [off for _, _, off in self.outputs]
        offs.extend(e.a_shift + e.depth for e in self._state)
        return max(offs, default=0)

    def _staged(self, fx, values, source, consumer, distance):
        if distance > 0 and not fx.steady \
                and fx.frame - self._cycle(consumer) < distance:
            # Cold carried read: the consumer is computing iteration
            # i = frame - S_consumer < d, so source iteration i - d was
            # never produced — the register chain (or same-cycle wire)
            # holds junk derived from other initials. The emitter's
            # ``warm_sr`` gate substitutes the declared initial in
            # exactly these cycles; mirror it.
            node = self.graph.node(source)
            return const_bits(fx.aig, _initial_of(node), node.width)
        gap = self._gap(source, consumer, distance)
        if gap == 0:
            # Same-cycle wire reference. A carried edge can land here when
            # the source is scheduled ``distance`` cycles later than the
            # consumer (S_s = S_c + d): Verilog wires reference each other
            # in any declaration order, so resolve on demand.
            if source in self._wire_set:
                return self._demand(fx, values, source)
            raise MachineError(
                f"node {consumer} references {source} in the same "
                f"cycle, but it has no wire")
        return fx.read(source, gap)

    def _demand(self, fx: FrameContext, values: dict[int, BitVec],
                nid: int) -> BitVec:
        if nid in values:
            return values[nid]
        if nid in self._visiting:
            raise MachineError(f"combinational cycle through node {nid}")
        self._visiting.add(nid)
        try:
            values[nid] = self._eval_wire(fx, values, nid)
        finally:
            self._visiting.discard(nid)
        return values[nid]

    def _pair_frame(self, nid: int) -> int:
        return self._current_frame - self._cycle(nid)

    def eval_frame(self, fx: FrameContext) -> FrameResult:
        self._current_frame = fx.frame
        values: dict[int, BitVec] = {}
        result = FrameResult()
        self._visiting: set[int] = set()
        for nid in self._wires:
            self._demand(fx, values, nid)
        for nid in self._wires:
            result.writes[nid] = values[nid]
        self._emit_outputs(fx, values, result)
        return result
