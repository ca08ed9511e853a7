"""Delta-debugging minimizer for fuzz divergences.

Given a graph + stimulus that trips one oracle, :func:`shrink` searches for
a smaller case that *still trips the same oracle*, re-running only that
oracle per candidate. Three reduction dimensions, cheapest first:

1. **stimulus** — ddmin-lite over iterations (halves, then singles);
2. **nodes** — drop one operation at a time, rewiring its consumers to a
   same-width operand (or a zero constant) so the graph stays legal;
3. **widths** — clamp individual node widths toward 1 bit.

Every candidate is ``validate``-clean before the oracle sees it, so the
minimizer can never "shrink" a divergence into an invalid-IR artifact. The
total number of oracle re-runs is budgeted (``max_checks``) — minimization
is best-effort, monotone, and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import ReproError, ValidationError
from ..ir.graph import CDFG
from ..ir.node import Operand
from ..ir.types import OpKind
from ..ir.validate import validate

__all__ = ["ShrinkResult", "shrink", "drop_node"]

#: ``failing(graph, stimulus) -> bool`` — True when the candidate still
#: trips the original oracle.
FailingFn = Callable[[CDFG, list[dict[str, int]]], bool]


@dataclass
class ShrinkResult:
    """Outcome of one minimization run."""

    graph: CDFG
    stimulus: list[dict[str, int]]
    checks: int          # oracle re-runs spent
    dropped_nodes: int   # node count: original - minimized
    dropped_iters: int   # stimulus length: original - minimized


def drop_node(graph: CDFG, nid: int) -> CDFG | None:
    """Remove one operation, rewiring its consumers; None if illegal.

    Consumers are redirected to a same-width distance-0 operand of the
    dropped node when one exists (keeping the case connected), else to a
    fresh zero constant of the same width. Followed by dead-code
    elimination and validation, so the result is always a legal, smaller
    graph or ``None``.
    """
    from ..ir.transforms import eliminate_dead_code

    node = graph.node(nid)
    if node.kind in (OpKind.INPUT, OpKind.OUTPUT):
        return None
    g = graph.copy()
    replacement: int | None = None
    for op in g.node(nid).operands:
        if op.distance == 0 and g.node(op.source).width == node.width:
            replacement = op.source
            break
    if replacement is None:
        replacement = g.add_node(OpKind.CONST, node.width, value=0).nid
    for use in list(g.uses(nid)):
        g.set_operand(use.consumer, use.operand_index,
                      Operand(replacement, use.distance))
    try:
        cleaned, mapping = eliminate_dead_code(g)
    except ReproError:
        return None
    if nid in mapping:
        return None   # a self-loop kept it alive (ids are renumbered, so
                      # membership must be tested via the old->new mapping)
    return _valid(cleaned)


def _narrow_node(graph: CDFG, nid: int, width: int) -> CDFG | None:
    """Clamp one node's width; None when the result is not legal."""
    node = graph.node(nid)
    if node.kind in (OpKind.OUTPUT,) or node.width <= width:
        return None
    g = graph.copy()
    g.node(nid).width = width
    if g.node(nid).kind is OpKind.CONST:
        g.node(nid).value &= (1 << width) - 1
    g._invalidate()
    return _valid(g)


def _valid(graph: CDFG) -> CDFG | None:
    """``graph`` when it passes :func:`validate`, else ``None``."""
    try:
        validate(graph)
    except ValidationError:
        return None
    return graph


def _clip_stimulus(stimulus: list[dict[str, int]],
                   failing: Callable[[list[dict[str, int]]], bool],
                   budget: list[int]) -> list[dict[str, int]]:
    """ddmin-lite over iterations: try halves, then drop single rows."""
    current = stimulus

    def attempt(candidate: list[dict[str, int]]) -> bool:
        if not candidate or budget[0] <= 0:
            return False
        budget[0] -= 1
        return failing(candidate)

    changed = True
    while changed and len(current) > 1:
        changed = False
        half = len(current) // 2
        for part in (current[:half], current[half:]):
            if len(part) < len(current) and attempt(part):
                current = part
                changed = True
                break
    k = 0
    while k < len(current) and len(current) > 1:
        candidate = current[:k] + current[k + 1:]
        if attempt(candidate):
            current = candidate
        else:
            k += 1
    return current


def shrink(graph: CDFG, stimulus: list[dict[str, int]], failing: FailingFn,
           max_checks: int = 200) -> ShrinkResult:
    """Minimize ``(graph, stimulus)`` while ``failing`` stays True.

    ``failing(graph, stimulus)`` must already be True for the input —
    callers hand in a confirmed divergence, not a suspicion.
    """
    budget = [max_checks]
    current = graph
    stim = _clip_stimulus(
        stimulus, lambda s: failing(current, s), budget)

    # Greedy node drops, largest ids first (later nodes tend to be the
    # accumulated XOR-join scaffolding, cheap to remove), to fixpoint.
    progress = True
    while progress and budget[0] > 0:
        progress = False
        for nid in sorted((n.nid for n in current), reverse=True):
            if budget[0] <= 0:
                break
            if nid not in {n.nid for n in current}:
                continue
            candidate = drop_node(current, nid)
            if candidate is None:
                continue
            budget[0] -= 1
            if failing(candidate, stim):
                current = candidate
                progress = True

    # Width clamping: try 1 bit per node (then give up — widths between
    # 1 and the original rarely change which oracle trips).
    for node in list(current):
        if budget[0] <= 0:
            break
        candidate = _narrow_node(current, node.nid, 1)
        if candidate is None:
            continue
        budget[0] -= 1
        if failing(candidate, stim):
            current = candidate

    # One more stimulus pass: a smaller graph often needs fewer iterations.
    stim = _clip_stimulus(stim, lambda s: failing(current, s), budget)
    return ShrinkResult(
        graph=current, stimulus=stim, checks=max_checks - budget[0],
        dropped_nodes=len(graph) - len(current),
        dropped_iters=len(stimulus) - len(stim))
