"""Worklist fixpoint engine over CDFGs.

:func:`analyze` runs Kleene iteration from bottom: nodes are evaluated in
topological order over distance-0 edges, loop-carried (distance >= 1)
operands read the *join* of the recurrence's declared initial value and
the producer's fact from the previous sweep, and sweeps repeat until no
fact changes. Facts only ascend (each update joins with the previous
fact), the known-bits lattice has finite height, and interval bounds that
keep moving are widened to their extremes after ``widen_after`` updates —
so the iteration terminates in a small, bounded number of sweeps.

The resulting :class:`DataflowResult` is the fact store that DF rules,
:func:`repro.ir.transforms.narrow_graph` and downstream passes query:
per-node known bits and intervals, proven constants, dead high bits,
decided MUX selects and decided comparison outcomes.

Per-graph results are memoized on the CDFG itself (the cache is dropped
whenever the graph is structurally invalidated), so a linter run with
five DF rules pays for one fixpoint, not five.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...errors import AnalysisError
from ...ir.graph import CDFG
from ...ir.node import Node
from ...ir.semantics import mask
from ...ir.types import COMPARISON_KINDS, OpKind
from .domains import Facts
from .transfer import transfer

__all__ = ["DataflowResult", "analyze", "cached_analyze"]

#: Interval updates tolerated per node before bounds are widened.
DEFAULT_WIDEN_AFTER = 4

#: Hard sweep cap; on reaching it, still-unstable nodes go straight to
#: top (sound, and guarantees the next sweep is the last).
_SWEEP_CAP = 64


def _initial_fact(node: Node) -> Facts:
    """The abstraction of a recurrence's declared initial value, exactly
    as the functional simulator computes it."""
    return Facts.const(mask(int(node.attrs.get("initial", 0)), node.width),
                       node.width)


@dataclass
class DataflowResult:
    """Proven facts for every node of one CDFG, plus fixpoint statistics."""

    graph: CDFG
    facts: dict[int, Facts]
    sweeps: int = 0
    transfers: int = 0
    widened: set[int] = field(default_factory=set)

    # -- raw access -----------------------------------------------------
    def fact(self, nid: int) -> Facts:
        return self.facts[nid]

    def interval(self, nid: int):
        """The unsigned :class:`Interval` proven for node ``nid``."""
        return self.facts[nid].range

    def operand_fact(self, nid: int, slot: int) -> Facts:
        """The fact for operand ``slot`` *as consumed* by ``nid``: for a
        loop-carried operand this joins the recurrence's initial value."""
        node = self.graph.node(nid)
        op = node.operands[slot]
        source = self.graph.node(op.source)
        fact = self.facts[op.source]
        if op.distance > 0:
            fact = fact.join(_initial_fact(source))
        return fact

    # -- derived queries ------------------------------------------------
    def constant_value(self, nid: int) -> int | None:
        """The proven compile-time constant of ``nid``, or None."""
        return self.facts[nid].constant_value

    def dead_high_bits(self, nid: int) -> int:
        """How many top bits of ``nid`` are proven zero on every execution."""
        return self.facts[nid].bits.dead_high_bits()

    def mux_select(self, nid: int) -> int | None:
        """The proven select value (bit 0) of a MUX node, or None."""
        node = self.graph.node(nid)
        if node.kind is not OpKind.MUX:
            raise AnalysisError(f"node {nid} is not a MUX")
        return self.operand_fact(nid, 0).bits.bit(0)

    def comparison_outcome(self, nid: int) -> int | None:
        """The proven outcome of a comparison node, or None."""
        node = self.graph.node(nid)
        if node.kind not in COMPARISON_KINDS:
            raise AnalysisError(f"node {nid} is not a comparison")
        value = self.facts[nid].constant_value
        return None if value is None else value & 1


def analyze(graph: CDFG, widen_after: int = DEFAULT_WIDEN_AFTER
            ) -> DataflowResult:
    """Run the fixpoint and return the fact store.

    Requires a well-formed graph whose distance-0 edges form a DAG
    (:class:`~repro.errors.ValidationError` propagates from the
    topological sort otherwise).
    """
    order = graph.topological_order()
    result = DataflowResult(graph, facts={})
    facts = result.facts
    updates: dict[int, int] = {}

    def in_fact(node: Node, slot: int) -> Facts:
        op = node.operands[slot]
        source = graph.node(op.source)
        if op.distance == 0:
            return facts[op.source]
        carried = facts.get(op.source)
        initial = _initial_fact(source)
        # First sweep may not have reached a forward recurrence source
        # yet; bottom join leaves just the initial value.
        return initial if carried is None else initial.join(carried)

    while True:
        result.sweeps += 1
        changed = False
        force_top = result.sweeps > _SWEEP_CAP
        for nid in order:
            node = graph.node(nid)
            args = [in_fact(node, slot) for slot in range(len(node.operands))]
            out = transfer(node, args)
            result.transfers += 1
            old = facts.get(nid)
            if old is not None:
                out = old.join(out)
                count = updates.get(nid, 0)
                if out != old:
                    updates[nid] = count + 1
                    if force_top:
                        out = Facts.top(node.width)
                        result.widened.add(nid)
                    elif updates[nid] > widen_after:
                        widened = out.range.widen(old.range)
                        if widened != out.range:
                            result.widened.add(nid)
                        out = Facts(out.bits, widened)
            if out != old:
                facts[nid] = out
                changed = True
        if not changed:
            break
    return result


def cached_analyze(graph: CDFG, widen_after: int = DEFAULT_WIDEN_AFTER
                   ) -> DataflowResult:
    """Memoized :func:`analyze`, keyed on the graph's structural identity.

    The cache lives on the CDFG and is cleared by every structural
    mutation (``CDFG._invalidate``), so results never outlive the graph
    shape they describe.
    """
    cache = getattr(graph, "_analysis_cache", None)
    if cache is None:
        cache = graph._analysis_cache = {}
    key = ("dataflow", widen_after)
    if key not in cache:
        cache[key] = analyze(graph, widen_after=widen_after)
    return cache[key]
