"""The RTL-stage machine: semantics of *parsed* emitted Verilog.

:class:`RtlMachine` is built from the text the emitter produced
(:func:`repro.rtl.parse.parse_module`), not from the schedule's
in-memory structures — the schedule is consulted only to *pair* the
netlist back to reference nodes (wire names carry node ids via
``_ident``) and to know each node's pipeline cycle. Everything
behavioral — expression evaluation with Verilog-2001 context sizing,
register chains with their textual reset values, behavioral memories —
comes from the parse tree, so printing bugs, wrong staging references
and bad initializers are modeled faithfully and show up as miter
counterexamples.

Width semantics implemented (the subset the emitter can produce):
operands of arithmetic/bitwise/unary operators stretch to the context
width (the max of the assignment LHS and every context-determined
operand's self width); shift amounts, comparison operands, ternary
conditions and concat parts are self-determined; comparisons yield one
bit; ``$signed`` pairs compare sign-extended at the max operand width.
"""

from __future__ import annotations

from ...ir.types import OpKind
from ...rtl.parse import (
    Binary, Concat, Expr, Index, Num, Part, Ref, Signed,
    Ternary, Unary, VerilogModule,
)
from ...rtl.verilog import _ident
from ...scheduling.schedule import Schedule
from .aig import FALSE, TRUE, lit_not
from .encode import (
    BitVec,
    _equals_const,
    _less_than,
    _ripple_add,
    _sign_extend,
    adjust,
    const_bits,
)
from .machines import (
    FrameContext, FrameResult, MachineError, StateElem, _input_name,
    _output_name,
)

__all__ = ["RtlMachine"]

_UNSIZED_WIDTH = 32  # Verilog unsized decimal literals


class RtlMachine:
    """Cycle-indexed machine over a parsed emitted module."""

    kind = "rtl"

    def __init__(self, module: VerilogModule, schedule: Schedule) -> None:
        self.module = module
        self.schedule = schedule
        self.graph = schedule.graph
        self._wires = {w.name: w for w in module.wires}
        self._mems = {m.name: m for m in module.memories}
        self._ident_nid = {_ident(n): n.nid for n in self.graph}
        self._port_width = {p.name: p.width for p in module.ports}
        self._inputs, self._input_ports = self._map_inputs()
        self._chains = self._resolve_chains()
        self._warm_width = next(
            (r.width for r in self.module.regs if r.name == "warm_sr"), 0)
        self._check_valid_protocol()
        self._outputs, self._out_exprs = self._map_outputs()
        self._state = self._build_state()

    # -- structural resolution -------------------------------------------
    def _cycle(self, nid: int) -> int:
        return int(self.schedule.cycle.get(nid, 0))

    def _nid_of(self, name: str) -> int:
        nid = self._ident_nid.get(name)
        if nid is None:
            raise MachineError(f"identifier {name!r} maps to no graph node")
        return nid

    def _map_inputs(self) -> tuple[list[tuple[str, int]], dict[str, str]]:
        """Machine inputs (functional names) + port-name → input-name."""
        inputs: list[tuple[str, int]] = []
        by_port: dict[str, str] = {}
        graph_inputs = {_ident(n): n for n in self.graph.inputs}
        for port in self.module.ports:
            if port.direction != "input" or port.name in ("clk", "in_valid"):
                continue
            node = graph_inputs.pop(port.name, None)
            if node is None:
                raise MachineError(
                    f"input port {port.name!r} matches no graph INPUT")
            if port.width != node.width:
                raise MachineError(
                    f"input port {port.name!r} is {port.width} bits, "
                    f"graph input is {node.width}")
            inputs.append((_input_name(node), node.width))
            by_port[port.name] = _input_name(node)
        if graph_inputs:
            missing = ", ".join(sorted(graph_inputs))
            raise MachineError(f"graph inputs missing from ports: {missing}")
        return inputs, by_port

    def _resolve_chains(self) -> dict[str, tuple[str, int, int]]:
        """reg name → (base identifier, depth, init) by following updates.

        The base identifier is a wire or an input port; every register in
        the chain must agree on width and reset value, which is what
        makes one :class:`StateElem` a faithful model of the chain.
        """
        regs = {r.name: r for r in self.module.regs}
        updates: dict[str, Expr] = {}
        for upd in self.module.updates:
            if upd.target in updates:
                raise MachineError(f"register {upd.target!r} written twice")
            updates[upd.target] = upd.expr
        chains: dict[str, tuple[str, int, int]] = {}

        def resolve(name: str, trail: tuple[str, ...]) -> tuple[str, int, int]:
            if name in chains:
                return chains[name]
            if name in trail:
                raise MachineError(f"register cycle through {name!r}")
            reg = regs[name]
            expr = updates.get(name)
            if not isinstance(expr, Ref):
                raise MachineError(
                    f"register {name!r} is not a simple chain stage")
            prev = expr.name
            if prev in self._wires or prev in self._input_ports:
                chains[name] = (prev, 1, reg.init)
                return chains[name]
            if prev not in regs:
                raise MachineError(
                    f"register {name!r} chains from unknown {prev!r}")
            base, depth, init = resolve(prev, trail + (name,))
            if regs[prev].width != reg.width:
                raise MachineError(
                    f"register chain {name!r} changes width "
                    f"({regs[prev].width} -> {reg.width})")
            if init != reg.init:
                raise MachineError(
                    f"register chain {name!r} changes reset value")
            chains[name] = (base, depth + 1, reg.init)
            return chains[name]

        for name in regs:
            if name in ("valid_sr", "warm_sr"):
                continue
            resolve(name, ())
        return chains

    def _check_valid_protocol(self) -> None:
        latency = max(int(self.schedule.latency) - 1, 0)
        for assign in self.module.assigns:
            if assign.target != "out_valid":
                continue
            expr = assign.expr
            if (isinstance(expr, Index) and expr.name == "valid_sr"
                    and isinstance(expr.index, Num)
                    and expr.index.value == latency):
                return
            raise MachineError(
                f"out_valid taps {expr!r}, expected valid_sr[{latency}]")
        raise MachineError("module never assigns out_valid")

    def _map_outputs(self) -> tuple[list[tuple[str, int, int]],
                                    dict[str, Expr]]:
        outs: list[tuple[str, int, int]] = []
        exprs: dict[str, Expr] = {}
        assigns = {a.target: a.expr for a in self.module.assigns}
        for node in self.graph.outputs:
            port_name = _ident(node)
            if port_name not in self._port_width:
                raise MachineError(f"no output port for {port_name!r}")
            expr = assigns.get(port_name)
            if expr is None:
                raise MachineError(f"output {port_name!r} never assigned")
            offset = 0
            ref = expr
            if (isinstance(ref, Ternary) and isinstance(ref.cond, Index)
                    and ref.cond.name == "warm_sr"
                    and isinstance(ref.if_true, Ref)):
                ref = ref.if_true  # warm-gated tap: stage like the bare ref
            if isinstance(ref, Ref):
                base, depth = self._ident_base(ref.name)
                offset = self._cycle(self._nid_of(base)) + depth
            exprs[_output_name(node)] = expr
            outs.append((_output_name(node), node.width, offset))
        return outs, exprs

    def _ident_base(self, name: str) -> tuple[str, int]:
        """Resolve ``name`` to (base wire/port identifier, register depth)."""
        if name in self._wires or name in self._input_ports:
            return name, 0
        chain = self._chains.get(name)
        if chain is None:
            raise MachineError(f"unknown identifier {name!r}")
        return chain[0], chain[1]

    def _build_state(self) -> list[StateElem]:
        depth_by_base: dict[str, int] = {}
        init_by_base: dict[str, int] = {}
        for base, depth, init in self._chains.values():
            depth_by_base[base] = max(depth_by_base.get(base, 0), depth)
            init_by_base[base] = init
        elems = []
        for base in sorted(depth_by_base):
            nid = self._nid_of(base)
            node = self.graph.node(nid)
            elems.append(StateElem(
                key=nid, width=node.width, depth=depth_by_base[base],
                initial=init_by_base[base], a_node=nid,
                a_shift=self._cycle(nid)))
        return elems

    # -- machine interface -----------------------------------------------
    @property
    def inputs(self) -> list[tuple[str, int]]:
        return list(self._inputs)

    @property
    def outputs(self) -> list[tuple[str, int, int]]:
        return list(self._outputs)

    @property
    def state(self) -> list[StateElem]:
        return self._state

    @property
    def max_offset(self) -> int:
        offs = [off for _, _, off in self._outputs]
        offs.extend(e.a_shift + e.depth for e in self._state)
        return max(offs, default=0)

    @property
    def warm_frames(self) -> int:
        """Clock frames before the emitter's warm_sr gate saturates."""
        return self._warm_width

    def eval_frame(self, fx: FrameContext) -> FrameResult:
        self._fx = fx
        self._values: dict[str, BitVec] = {}
        self._visiting: set[str] = set()
        if self._warm_width:
            # warm_sr shifts in ones: bit k is high iff clock > k. In
            # induction mode the window sits arbitrarily late, so the
            # gate is saturated.
            self._values["warm_sr"] = [
                TRUE if (fx.steady or fx.frame > k) else FALSE
                for k in range(self._warm_width)]
        result = FrameResult()
        for port_name, input_name in self._input_ports.items():
            bits = adjust(fx.aig, fx.input(input_name),
                          self._port_width[port_name])
            self._values[port_name] = bits
            result.writes[self._nid_of(port_name)] = bits
        for wire in self.module.wires:
            self._demand(wire.name)
        for wire in self.module.wires:
            result.writes[self._nid_of(wire.name)] = self._values[wire.name]
        self._run_mem_writes(fx)
        for name, width, _off in self._outputs:
            result.outputs[name] = self._eval(self._out_exprs[name], width)
        return result

    # -- wire resolution -------------------------------------------------
    def _demand(self, name: str) -> BitVec:
        if name in self._values:
            return self._values[name]
        if name in self._visiting:
            raise MachineError(f"combinational cycle through wire {name!r}")
        self._visiting.add(name)
        try:
            wire = self._wires[name]
            mem_load = self._as_memory_load(wire)
            if mem_load is not None:
                bits = mem_load
            else:
                n = max(wire.width, self._self_width(wire.expr))
                bits = adjust(self._fx.aig, self._eval(wire.expr, n),
                              wire.width)
            self._values[name] = bits
        finally:
            self._visiting.discard(name)
        return bits

    def _as_memory_load(self, wire) -> BitVec | None:
        """``wire x = x_mem[addr];`` → uninterpreted LOAD pairing."""
        expr = wire.expr
        if not isinstance(expr, Index) or expr.name not in self._mems:
            return None
        nid = self._nid_of(wire.name)
        node = self.graph.node(nid)
        if node.kind is not OpKind.LOAD:
            raise MachineError(
                f"wire {wire.name!r} reads memory but node {nid} "
                f"is {node.kind.value}")
        addr_w = self._self_width(expr.index)
        addr = self._eval(expr.index, addr_w)
        return adjust(self._fx.aig, self._fx.blackbox(
            (nid, node.kind.value), self._fx.frame - self._cycle(nid),
            wire.width, [addr]), wire.width)

    def _run_mem_writes(self, fx: FrameContext) -> None:
        for write in self.module.mem_writes:
            base = write.mem
            if base.endswith("_mem"):
                base = base[: -len("_mem")]
            nid = self._nid_of(base)
            addr = self._eval(write.addr, self._self_width(write.addr))
            data = self._eval(write.data, self._self_width(write.data))
            fx.record_effect((nid, "store"), fx.frame - self._cycle(nid),
                             [addr, data])

    def _resolve_ident(self, name: str) -> BitVec:
        if name in self._values:
            return self._values[name]
        if name in self._wires:
            return self._demand(name)
        chain = self._chains.get(name)
        if chain is not None:
            base, depth, _init = chain
            return self._fx.read(self._nid_of(base), depth)
        raise MachineError(f"unknown identifier {name!r} in expression")

    # -- Verilog expression semantics ------------------------------------
    def _decl_width(self, name: str) -> int:
        if name in self._wires:
            return self._wires[name].width
        if name in self._port_width:
            return self._port_width[name]
        for reg in self.module.regs:
            if reg.name == name:
                return reg.width
        if name in self._mems:
            return self._mems[name].width
        raise MachineError(f"unknown identifier {name!r}")

    def _self_width(self, expr: Expr) -> int:
        if isinstance(expr, Num):
            return expr.width if expr.width is not None else _UNSIZED_WIDTH
        if isinstance(expr, Ref):
            return self._decl_width(expr.name)
        if isinstance(expr, Part):
            return expr.hi - expr.lo + 1
        if isinstance(expr, Index):
            if expr.name in self._mems:
                return self._mems[expr.name].width
            return 1
        if isinstance(expr, Concat):
            return sum(self._self_width(p) for p in expr.parts)
        if isinstance(expr, Unary):
            return self._self_width(expr.arg)
        if isinstance(expr, Signed):
            return self._self_width(expr.arg)
        if isinstance(expr, Ternary):
            return max(self._self_width(expr.if_true),
                       self._self_width(expr.if_false))
        if isinstance(expr, Binary):
            if expr.op in ("<<", ">>"):
                return self._self_width(expr.left)
            if expr.op in ("<", ">", "<=", ">=", "==", "!="):
                return 1
            return max(self._self_width(expr.left),
                       self._self_width(expr.right))
        raise MachineError(f"cannot size {expr!r}")

    def _eval(self, expr: Expr, n: int) -> BitVec:
        """Evaluate at context width ``n``; returns exactly ``n`` bits."""
        aig = self._fx.aig
        if isinstance(expr, Num):
            return const_bits(aig, expr.value, n)
        if isinstance(expr, Ref):
            return adjust(aig, self._resolve_ident(expr.name), n)
        if isinstance(expr, Part):
            bits = self._resolve_ident(expr.name)
            out = [bits[j] if j < len(bits) else FALSE
                   for j in range(expr.lo, expr.hi + 1)]
            return adjust(aig, out, n)
        if isinstance(expr, Index):
            if expr.name in self._mems:
                raise MachineError(
                    f"memory {expr.name!r} read outside a LOAD wire")
            bits = self._resolve_ident(expr.name)
            if not isinstance(expr.index, Num):
                raise MachineError("variable bit-select is out of subset")
            j = expr.index.value
            bit = bits[j] if j < len(bits) else FALSE
            return adjust(aig, [bit], n)
        if isinstance(expr, Concat):
            out: BitVec = []
            for part in reversed(expr.parts):  # listed MSB-first
                out.extend(self._eval(part, self._self_width(part)))
            return adjust(aig, out, n)
        if isinstance(expr, Unary):
            arg = self._eval(expr.arg, n)
            if expr.op == "~":
                return [lit_not(b) for b in arg]
            return _ripple_add(aig, const_bits(aig, 0, n),
                               [lit_not(b) for b in arg], TRUE)
        if isinstance(expr, Signed):
            w = self._self_width(expr.arg)
            return _sign_extend(aig, self._eval(expr.arg, w), n)
        if isinstance(expr, Ternary):
            cw = self._self_width(expr.cond)
            cond = aig.or_many(self._eval(expr.cond, cw))
            t = self._eval(expr.if_true, n)
            f = self._eval(expr.if_false, n)
            return [aig.mux(cond, tb, fb) for tb, fb in zip(t, f)]
        if isinstance(expr, Binary):
            return self._eval_binary(expr, n)
        raise MachineError(f"cannot evaluate {expr!r}")

    def _eval_binary(self, expr: Binary, n: int) -> BitVec:
        aig = self._fx.aig
        op = expr.op
        if op in ("&", "|", "^"):
            a = self._eval(expr.left, n)
            b = self._eval(expr.right, n)
            gate = {"&": aig.and_, "|": aig.or_, "^": aig.xor_}[op]
            return [gate(x, y) for x, y in zip(a, b)]
        if op == "+":
            return _ripple_add(aig, self._eval(expr.left, n),
                               self._eval(expr.right, n), FALSE)
        if op == "-":
            b = self._eval(expr.right, n)
            return _ripple_add(aig, self._eval(expr.left, n),
                               [lit_not(x) for x in b], TRUE)
        if op == "*":
            a = self._eval(expr.left, n)
            b = self._eval(expr.right, n)
            acc = const_bits(aig, 0, n)
            for j in range(n):
                partial = [aig.and_(b[j], x)
                           for x in ([FALSE] * j + a[: n - j])]
                acc = _ripple_add(aig, acc, partial, FALSE)
            return acc
        if op in ("<<", ">>"):
            return self._eval_shift(expr, n)
        if op in ("<", ">", "<=", ">=", "==", "!="):
            return adjust(aig, [self._eval_compare(expr)], n)
        raise MachineError(f"operator {op!r} is out of subset (DIV/MOD "
                           "stay uninterpreted)")

    def _eval_shift(self, expr: Binary, n: int) -> BitVec:
        aig = self._fx.aig
        src = self._eval(expr.left, n)
        left = expr.op == "<<"
        if isinstance(expr.right, Num):
            s = expr.right.value
            return [src[j - s] if left and 0 <= j - s < n
                    else src[j + s] if not left and j + s < n
                    else FALSE for j in range(n)]
        amt_w = self._self_width(expr.right)
        amt = self._eval(expr.right, amt_w)

        def shifted(s: int) -> BitVec:
            out = []
            for j in range(n):
                k = j - s if left else j + s
                out.append(src[k] if 0 <= k < n else FALSE)
            return out

        acc = const_bits(aig, 0, n)
        for s in range(n):
            if s >= (1 << len(amt)):
                break
            eq = _equals_const(aig, amt, s)
            term = shifted(s)
            acc = [aig.or_(acc[j], aig.and_(eq, term[j])) for j in range(n)]
        # Verilog: amounts >= n shift everything out.
        return acc

    def _eval_compare(self, expr: Binary) -> int:
        aig = self._fx.aig
        signed = isinstance(expr.left, Signed) and isinstance(expr.right,
                                                             Signed)
        la, ra = (expr.left.arg, expr.right.arg) if signed \
            else (expr.left, expr.right)
        m = max(self._self_width(la), self._self_width(ra), 1)
        if signed:
            a = _sign_extend(aig, self._eval(la, self._self_width(la)), m)
            b = _sign_extend(aig, self._eval(ra, self._self_width(ra)), m)
            a[m - 1] = lit_not(a[m - 1])
            b[m - 1] = lit_not(b[m - 1])
        else:
            a = self._eval(la, m)
            b = self._eval(ra, m)
        if expr.op in ("==", "!="):
            eq = aig.and_many(aig.xnor_(x, y) for x, y in zip(a, b))
            return eq if expr.op == "==" else lit_not(eq)
        if expr.op in ("<", ">="):
            lt = _less_than(aig, a, b)
            return lt if expr.op == "<" else lit_not(lt)
        gt = _less_than(aig, b, a)
        return gt if expr.op == ">" else lit_not(gt)
