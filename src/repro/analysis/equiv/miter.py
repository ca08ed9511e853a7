"""Pairing two machines into miters and discharging them.

:class:`PairInstance` unrolls a reference machine A (always the
iteration-indexed :class:`~.machines.GraphMachine` of the original CDFG)
against a stage machine B into one shared AIG, producing *goals* — bit
differences that must be unsatisfiable:

* output equality at aligned frames,
* per-state correspondence (B's carried/registered values track the
  reference node they claim to implement),
* Ackermann pairing of effectful ops (LOAD/DIV/MOD values may be shared
  only if their operands provably agree; STORE side effects must match).

Two modes share all of the encoding:

``bmc``
    Frames start from the concrete initial state (register/recurrence
    initials). A satisfiable goal here is a *real* divergence: the model
    decodes to a named input stream.

``induction``
    Pre-window history is replaced by fresh variables shared between the
    two sides through the stage correspondence (plus declared invariants
    such as narrowing's high-bits-zero), and goals are only asserted at
    the last frame — earlier frames' correspondence becomes an
    assumption, giving k-step induction over recurrences. UNSAT closes
    the proof for every reachable (indeed every corresponding) state; a
    satisfiable goal may start from an unreachable state and is *not*
    reported as a counterexample.

Each goal is discharged cheapest-first: structural (the miter literal
collapsed to FALSE), 64-way random simulation (assumption-aware), then
CDCL SAT under a conflict budget. A goal whose SAT call exhausts the
budget stays ``unknown``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, Mapping

from ...errors import AnalysisError
from ...ir.graph import CDFG
from .aig import AIG, FALSE, lit_not
from .encode import BitVec, adjust, bits_to_int, const_bits
from .machines import FrameContext, MachineError, StateElem
from .sat import solve_lit

__all__ = ["EquivBudget", "Goal", "PairInstance", "PairOutcome",
           "Invariant", "decode_stream"]

#: Rounds of 64 random patterns per goal set.
_SIM_ROUNDS = 8


@dataclass(frozen=True)
class EquivBudget:
    """Resource caps for one stage check (see ``docs/equivalence.md``).

    A budget that could prove nothing is rejected with
    :class:`~repro.errors.AnalysisError`: no BMC frame, a negative
    induction depth or conflict budget, or a field that is not an int.
    """

    max_frames: int = 6          # BMC depth (iterations of the reference)
    induction_k: int = 2         # deepest induction window to try
    sat_conflicts: int = 30_000  # CDCL conflicts per miter

    def __post_init__(self) -> None:
        for name, least in (("max_frames", 1), ("induction_k", 0),
                            ("sat_conflicts", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise AnalysisError(
                    f"equivalence budget {name} must be an int, "
                    f"not {value!r}")
            if value < least:
                raise AnalysisError(
                    f"equivalence budget {name} must be at least {least}, "
                    f"not {value}")


@dataclass(frozen=True)
class Invariant:
    """A declared fact about a reference node's values (narrowing).

    ``kind == "zext"``: bits at and above ``param`` are zero.
    ``kind == "const"``: the value equals ``param``.
    """

    a_node: int
    kind: str
    param: int


@dataclass
class Goal:
    label: str
    kind: str                    # "output" | "state" | "effect"
    frame: int                   # reference iteration the goal speaks about
    lit: int = FALSE
    a_bits: BitVec | None = None
    b_bits: BitVec | None = None
    name: str | None = None      # output name / state key / effect key
    # Discharge results:
    status: str = "open"         # "unsat" | "sat" | "unknown"
    method: str | None = None    # "structural" | "sim" | "sat"
    conflicts: int = 0
    model: dict[int, bool] | None = None


@dataclass
class PairOutcome:
    status: str                  # "equal" | "diverges" | "unknown"
    goals: list[Goal] = field(default_factory=list)
    failed: Goal | None = None
    notes: list[str] = field(default_factory=list)
    aig_nodes: int = 0

    @property
    def stats(self) -> dict:
        methods: dict[str, int] = {}
        for g in self.goals:
            if g.method:
                methods[g.method] = methods.get(g.method, 0) + 1
        return {"goals": len(self.goals), "methods": methods,
                "conflicts": sum(g.conflicts for g in self.goals),
                "aig_nodes": self.aig_nodes}


class PairInstance:
    """One unrolled A-vs-B instance in one shared AIG."""

    def __init__(self, ref_graph: CDFG, machine_a, machine_b, *,
                 mode: str, frames_a: int, budget: EquivBudget,
                 invariants: list[Invariant] = (),
                 compare_from: int = 0, seed: int = 0) -> None:
        self.ref_graph = ref_graph
        self.ma = machine_a
        self.mb = machine_b
        self.mode = mode
        self.frames_a = frames_a
        self.budget = budget
        self.invariants = list(invariants)
        self.compare_from = compare_from
        self.rng = random.Random(seed)
        self.aig = AIG()
        self.notes: list[str] = []
        self.pairing_complete = True
        self.assumptions: list[int] = []
        self.goals: list[Goal] = []
        # (t, name) -> input variable list (positive literals).
        self.input_vars: dict[tuple[int, str], list[int]] = {}
        self._freehist: dict[tuple[Hashable, int], BitVec] = {}
        self._effects: dict[tuple[Hashable, int], dict] = {}
        self._stored: dict[str, list[dict[Hashable, BitVec]]] = {
            "a": [], "b": []}
        self._state_index = {
            "a": {e.key: e for e in machine_a.state},
            "b": {e.key: e for e in machine_b.state},
        }
        self._check_interfaces()

    # -- interface sanity ------------------------------------------------
    def _check_interfaces(self) -> None:
        ins_a = dict(self.ma.inputs)
        ins_b = dict(self.mb.inputs)
        if ins_a != ins_b:
            raise MachineError(
                f"input interfaces differ: {sorted(ins_a.items())} vs "
                f"{sorted(ins_b.items())}")
        outs_a = {(n, w) for n, w, _ in self.ma.outputs}
        outs_b = {(n, w) for n, w, _ in self.mb.outputs}
        if outs_a != outs_b:
            raise MachineError(
                f"output interfaces differ: {sorted(outs_a)} vs "
                f"{sorted(outs_b)}")

    # -- symbolic plumbing ----------------------------------------------
    def _input(self, t: int, name: str, width: int) -> BitVec:
        key = (t, name)
        if key not in self.input_vars:
            self.input_vars[key] = [
                self.aig.new_input(f"{name}@{t}") >> 1 for _ in range(width)]
        return [2 * v for v in self.input_vars[key]]

    def _free_word(self, tag: str, width: int) -> list[int]:
        return [self.aig.new_input(f"{tag}.{j}") >> 1 for j in range(width)]

    def _ref_width(self, nid: int) -> int:
        return self.ref_graph.node(nid).width

    def _freehist_bits(self, elem: StateElem, side: str, i: int) -> BitVec:
        """Pre-window value of ``elem`` at reference iteration ``i < 0``."""
        if elem.a_node is not None:
            key: Hashable = ("ref", elem.a_node, i)
            width = self._ref_width(elem.a_node)
        else:
            key = ("side", side, elem.key, i)
            width = elem.width
        if key not in self._freehist:
            vars_ = self._free_word(f"hist{key}", width)
            bits = [2 * v for v in vars_]
            self._freehist[key] = bits
            if elem.a_node is not None:
                self._assume_invariants(elem.a_node, bits)
        bits = self._freehist[key]
        return adjust(self.aig, bits, elem.width)

    def _assume_invariants(self, a_node: int, bits: BitVec) -> None:
        for inv in self.invariants:
            if inv.a_node != a_node:
                continue
            if inv.kind == "zext":
                for j in range(inv.param, len(bits)):
                    self.assumptions.append(lit_not(bits[j]))
            elif inv.kind == "const":
                want = const_bits(self.aig, inv.param, len(bits))
                for got, exp in zip(bits, want):
                    self.assumptions.append(self.aig.xnor_(got, exp))

    def _read(self, side: str, u: int, key: Hashable, back: int) -> BitVec:
        elem = self._state_index[side].get(key)
        if elem is None:
            # Reading something never declared as state (reference side
            # reads arbitrary node history): synthesize an element.
            if side != "a":
                raise MachineError(f"machine read of undeclared state {key!r}")
            node = self.ref_graph.node(key)
            elem = StateElem(key=key, width=node.width, depth=back,
                             initial=int(node.attrs.get("initial", 0))
                             & ((1 << node.width) - 1), a_node=key)
            self._state_index[side][key] = elem
        c = u - back
        if self.mode == "bmc":
            if c >= 0:
                return self._stored_bits(side, c, key, elem)
            return const_bits(self.aig, elem.initial, elem.width)
        i = c - elem.a_shift
        if c >= 0 and i >= 0:
            return self._stored_bits(side, c, key, elem)
        return self._freehist_bits(elem, side, i)

    def _stored_bits(self, side: str, c: int, key: Hashable,
                     elem: StateElem) -> BitVec:
        frames = self._stored[side]
        if c >= len(frames) or key not in frames[c]:
            raise MachineError(
                f"state {key!r} read at frame {c} before it was written")
        return adjust(self.aig, frames[c][key], elem.width)

    def _blackbox(self, side: str, a_key: Hashable, i: int, width: int,
                  operands: list[BitVec]) -> BitVec:
        entry = self._effects.setdefault((a_key, i), {"bits": None, "ops": {}})
        if entry["bits"] is None:
            entry["bits"] = [2 * v for v in
                             self._free_word(f"bb{a_key}@{i}", width)]
        entry["ops"][side] = [list(b) for b in operands]
        return adjust(self.aig, entry["bits"], width)

    def _record_effect(self, side: str, a_key: Hashable, i: int,
                       operands: list[BitVec]) -> None:
        entry = self._effects.setdefault((a_key, i), {"bits": None, "ops": {}})
        entry["ops"][side] = [list(b) for b in operands]

    # -- unrolling -------------------------------------------------------
    def build(self) -> None:
        frames_b = self.frames_a + self.mb.max_offset
        widths = dict(self.ma.inputs)
        total_frames = max(self.frames_a, frames_b)
        for t in range(total_frames):
            for name, w in widths.items():
                self._input(t, name, w)
        outs_a: list[dict[str, BitVec]] = []
        for t in range(self.frames_a):
            fx = self._fx("a", t)
            res = self.ma.eval_frame(fx)
            self._stored["a"].append(res.writes)
            outs_a.append(res.outputs)
        outs_b: list[dict[str, BitVec]] = []
        for t in range(frames_b):
            fx = self._fx("b", t)
            res = self.mb.eval_frame(fx)
            self._stored["b"].append(res.writes)
            outs_b.append(res.outputs)
        self._collect_goals(outs_a, outs_b)

    def _fx(self, side: str, t: int) -> FrameContext:
        widths = dict(self.ma.inputs)
        inputs = {name: self._input(t, name, w) for name, w in widths.items()}
        return FrameContext(
            self.aig, t, inputs,
            read=lambda key, back, _s=side, _t=t: self._read(_s, _t, key, back),
            blackbox=lambda a_key, i, w, ops, _s=side:
                self._blackbox(_s, a_key, i, w, ops),
            record_effect=lambda a_key, i, ops, _s=side:
                self._record_effect(_s, a_key, i, ops),
            steady=(self.mode == "induction"),
        )

    # -- goal collection -------------------------------------------------
    def _add_goal(self, goal: Goal, a_bits: BitVec, b_bits: BitVec,
                  *, assume_instead: bool) -> None:
        n = max(len(a_bits), len(b_bits))
        a = adjust(self.aig, a_bits, n)
        b = adjust(self.aig, b_bits, n)
        diff = self.aig.or_many(self.aig.xor_(x, y) for x, y in zip(a, b))
        if assume_instead:
            self.assumptions.append(lit_not(diff))
            return
        goal.lit = diff
        goal.a_bits = a
        goal.b_bits = b
        self.goals.append(goal)

    def _goal_frames(self) -> tuple[int, int]:
        """(first, last-exclusive) reference frames whose goals are proof
        obligations; earlier induction frames become assumptions."""
        if self.mode == "bmc":
            return self.compare_from, self.frames_a
        return self.frames_a - 1, self.frames_a

    def _collect_goals(self, outs_a, outs_b) -> None:
        lo, hi = self._goal_frames()
        induction = self.mode == "induction"
        # Outputs.
        offsets = {name: off for name, _w, off in self.mb.outputs}
        for i in range(self.compare_from if not induction else 0,
                       self.frames_a):
            if induction and i < lo:
                continue  # output equality is a sink; no need to assume it
            for name, _w, _off in self.ma.outputs:
                u = i + offsets[name]
                if u >= len(outs_b):
                    continue
                self._add_goal(
                    Goal(label=f"output {name}@{i}", kind="output",
                         frame=i, name=name),
                    outs_a[i][name], outs_b[u][name], assume_instead=False)
        # State correspondence.
        for elem in self.mb.state:
            if elem.a_node is None:
                continue
            for u in range(len(self._stored["b"])):
                i = u - elem.a_shift
                if i < 0 or i >= self.frames_a:
                    continue
                if not induction and i < self.compare_from:
                    continue
                a_bits = self._stored["a"][i].get(elem.a_node)
                b_bits = self._stored["b"][u].get(elem.key)
                if a_bits is None or b_bits is None:
                    continue
                self._add_goal(
                    Goal(label=f"state {elem.key}@{i}", kind="state",
                         frame=i, name=str(elem.key)),
                    adjust(self.aig, a_bits, elem.width), b_bits,
                    assume_instead=induction and i < lo)
        # Declared invariants must be re-established by the reference side.
        for inv in self.invariants:
            for i in range(self.compare_from if not induction else 0,
                           self.frames_a):
                bits = self._stored["a"][i].get(inv.a_node)
                if bits is None:
                    continue
                if inv.kind == "zext":
                    want = adjust(self.aig, bits[:inv.param], len(bits))
                else:
                    want = const_bits(self.aig, inv.param, len(bits))
                self._add_goal(
                    Goal(label=f"invariant n{inv.a_node}@{i}", kind="state",
                         frame=i, name=f"n{inv.a_node}"),
                    bits, want, assume_instead=induction and i < lo)
        # Effect pairing.
        for (a_key, i), entry in sorted(self._effects.items(),
                                        key=lambda kv: str(kv[0])):
            ops = entry["ops"]
            if i < 0 or i >= self.frames_a:
                if len(ops) == 1 and "b" in ops and i < 0:
                    self.notes.append(
                        f"effect {a_key!r} during pipeline fill (frame {i}) "
                        "is not validated")
                    self.pairing_complete = False
                continue
            if len(ops) < 2:
                self.notes.append(
                    f"effect {a_key!r}@{i} present on only one side; "
                    "cannot pair")
                self.pairing_complete = False
                continue
            if len(ops["a"]) != len(ops["b"]):
                self.notes.append(
                    f"effect {a_key!r}@{i} operand counts differ "
                    f"({len(ops['a'])} vs {len(ops['b'])}); cannot pair")
                self.pairing_complete = False
                continue
            for slot, (oa, ob) in enumerate(zip(ops["a"], ops["b"])):
                self._add_goal(
                    Goal(label=f"effect {a_key!r}@{i} operand {slot}",
                         kind="effect", frame=i, name=str(a_key)),
                    oa, ob,
                    assume_instead=induction and i < lo)

    # -- discharge -------------------------------------------------------
    def discharge(self, tracer=None, stage: str = "") -> PairOutcome:
        outcome = PairOutcome(status="equal", goals=self.goals,
                              notes=self.notes, aig_nodes=len(self.aig))
        pending = []
        for g in self.goals:
            if g.lit == FALSE:
                g.status, g.method = "unsat", "structural"
            else:
                pending.append(g)
        if pending:
            self._simulate(pending)
        for goal in self.goals:
            if goal.status == "sat":       # found by simulation
                outcome.status = "diverges"
                outcome.failed = goal
                return outcome
        for goal in self.goals:
            if goal.status != "open":
                continue
            if tracer is not None:
                with tracer.span("miter", stage=stage,
                                 goal=goal.label) as span:
                    self._discharge_one(goal)
                    span.meta.update(status=goal.status, method=goal.method,
                                     conflicts=goal.conflicts)
            else:
                self._discharge_one(goal)
            if goal.status == "sat":
                outcome.status = "diverges"
                outcome.failed = goal
                return outcome
        if any(g.status == "unknown" for g in self.goals):
            outcome.status = "unknown"
        elif not self.pairing_complete:
            outcome.status = "unknown"
        return outcome

    def _simulate(self, goals: list[Goal]) -> None:
        """64-wide random patterns; assumption-aware counterexample hunt."""
        fixed = self._sim_fixed_bits()
        lits = [g.lit for g in goals]
        assume = list(self.assumptions)
        for _ in range(_SIM_ROUNDS):
            assignment = {
                v: fixed[v] if v in fixed else self.rng.getrandbits(64)
                for v in self.aig.inputs}
            words = self.aig.eval_many(assignment, assume + lits)
            ok = (1 << 64) - 1
            for w in words[:len(assume)]:
                ok &= w
            if not ok:
                continue
            for goal, word in zip(goals, words[len(assume):]):
                hit = word & ok
                if hit and goal.status == "open":
                    bit = (hit & -hit).bit_length() - 1
                    goal.status = "sat"
                    goal.method = "sim"
                    goal.model = {v: bool((assignment.get(v, 0) >> bit) & 1)
                                  for v in self.aig.inputs}

    def _sim_fixed_bits(self) -> dict[int, int]:
        """Pattern words for input vars pinned by simple unit assumptions."""
        fixed: dict[int, int] = {}
        ones = (1 << 64) - 1
        for lit in self.assumptions:
            var = lit >> 1
            if self.aig.fanins[var] is None and var != 0:
                fixed[var] = 0 if (lit & 1) else ones
        return fixed

    def _discharge_one(self, goal: Goal) -> None:
        result = solve_lit(self.aig, goal.lit, assumptions=self.assumptions,
                           max_conflicts=self.budget.sat_conflicts)
        goal.status, goal.method = result.status, "sat"
        goal.conflicts = result.conflicts
        goal.model = result.model


def decode_stream(instance: PairInstance,
                  model: Mapping[int, bool]) -> list[dict[str, int]]:
    """SAT model → named input stream (missing variables read as zero)."""
    frames = max((t for t, _ in instance.input_vars), default=-1) + 1
    stream: list[dict[str, int]] = []
    for t in range(frames):
        frame: dict[str, int] = {}
        for (ft, name), vars_ in instance.input_vars.items():
            if ft != t:
                continue
            frame[name] = bits_to_int(
                [1 if model.get(v, False) else 0 for v in vars_])
        stream.append(frame)
    return stream
