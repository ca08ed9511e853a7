"""Graph mutators for the differential fuzzer.

Each mutator takes a ``validate``-clean CDFG and a seeded RNG and returns a
*new* graph (the input is never touched) that is again ``validate``-clean,
or ``None`` when the chosen mutation site cannot be legalized. Mutations
are **not** semantics-preserving — a mutant is a fresh test case for the
oracle layer, not an equivalence claim. What they must preserve is the
generator's contract: only constructs every downstream layer supports.

Mutators work on a copy of the node list and re-validate the result, so a
mutation that would break an IR invariant (a multi-bit MUX select, a
combinational cycle, dead code) is discarded instead of shipped.
"""

from __future__ import annotations

import random

from ..errors import ReproError
from ..ir.graph import CDFG
from ..ir.node import Operand
from ..ir.types import OpKind
from ..ir.validate import validate

__all__ = ["MUTATORS", "mutate", "splice", "width_perturb",
           "constant_inject", "recurrence_rewire"]


def _finish(graph: CDFG) -> CDFG | None:
    """Dead-code-eliminate and validate a mutated graph; None if broken."""
    from ..ir.transforms import eliminate_dead_code

    try:
        cleaned, _ = eliminate_dead_code(graph)
        validate(cleaned)
    except ReproError:
        return None
    return cleaned


def splice(graph: CDFG, rng: random.Random) -> CDFG | None:
    """Insert a fresh unary op on a randomly chosen combinational edge.

    ``consumer.operand[slot]`` is rewired from ``src`` to ``f(src)`` where
    ``f`` is NOT or a 1-position shift — semantics change, structure (and
    widths) stay legal.
    """
    edges = [(node.nid, slot, op.source)
             for node in graph
             for slot, op in enumerate(node.operands)
             if op.distance == 0 and node.kind is not OpKind.OUTPUT]
    if not edges:
        return None
    consumer, slot, src = rng.choice(edges)
    sel_slot = graph.node(consumer).kind is OpKind.MUX and slot == 0
    g = graph.copy()
    width = g.node(src).width
    if width > 1 and not sel_slot and rng.random() < 0.5:
        amount = rng.randrange(1, width)
        kind = rng.choice([OpKind.SHL, OpKind.SHR])
        new = g.add_node(kind, width, operands=[Operand(src, 0)],
                         amount=amount)
    else:
        # NOT keeps a 1-bit value 1 bit wide, so MUX selects stay legal.
        new = g.add_node(OpKind.NOT, width, operands=[Operand(src, 0)])
    g.set_operand(consumer, slot, Operand(new.nid, 0))
    return _finish(g)


def width_perturb(graph: CDFG, rng: random.Random) -> CDFG | None:
    """Grow or shrink one operation's declared width by one bit.

    Nodes whose width is load-bearing for IR legality (constants, slices,
    comparisons, and anything feeding a MUX select) are skipped; the
    validator catches whatever this misses.
    """
    protected: set[int] = set()
    for node in graph:
        if node.kind is OpKind.MUX:
            protected.add(node.operands[0].source)
    candidates = [
        n.nid for n in graph
        if n.nid not in protected
        and n.kind in (OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.NOT,
                       OpKind.ADD, OpKind.SUB, OpKind.NEG, OpKind.MUX,
                       OpKind.ZEXT, OpKind.TRUNC)
    ]
    if not candidates:
        return None
    nid = rng.choice(candidates)
    g = graph.copy()
    node = g.node(nid)
    delta = rng.choice([-1, 1])
    if node.width + delta < 1:
        delta = 1
    node.width += delta
    g._invalidate()
    return _finish(g)


def constant_inject(graph: CDFG, rng: random.Random) -> CDFG | None:
    """Replace one operand edge with a fresh random constant."""
    edges = [(node.nid, slot, op)
             for node in graph
             for slot, op in enumerate(node.operands)
             if node.kind is not OpKind.OUTPUT]
    if not edges:
        return None
    consumer, slot, op = rng.choice(edges)
    g = graph.copy()
    width = g.node(op.source).width
    const = g.add_node(OpKind.CONST, width,
                       value=rng.randrange(1 << width))
    # Distance collapses to 0: a constant is the same in every iteration.
    g.set_operand(consumer, slot, Operand(const.nid, 0))
    return _finish(g)


def recurrence_rewire(graph: CDFG, rng: random.Random) -> CDFG | None:
    """Retarget or re-time one loop-carried edge.

    Either the dependence distance changes (1..3) or the back-edge source
    moves to another node of the same width — both legal by construction
    (back edges cannot create combinational cycles).
    """
    back_edges = [(node.nid, slot, op)
                  for node in graph
                  for slot, op in enumerate(node.operands)
                  if op.distance >= 1]
    if not back_edges:
        return None
    consumer, slot, op = rng.choice(back_edges)
    g = graph.copy()
    if rng.random() < 0.5:
        new_distance = rng.choice([d for d in (1, 2, 3) if d != op.distance])
        g.set_operand(consumer, slot, Operand(op.source, new_distance))
    else:
        width = g.node(op.source).width
        same_width = [n.nid for n in g
                      if n.width == width and n.nid != op.source
                      and n.kind not in (OpKind.OUTPUT,)]
        if not same_width:
            return None
        g.set_operand(consumer, slot,
                      Operand(rng.choice(same_width), op.distance))
    return _finish(g)


MUTATORS = {
    "splice": splice,
    "width-perturb": width_perturb,
    "constant-inject": constant_inject,
    "recurrence-rewire": recurrence_rewire,
}


def mutate(graph: CDFG, seed: int, rounds: int = 2) -> CDFG:
    """Apply up to ``rounds`` random mutations; always returns a valid graph
    (falling back to the input when every attempted mutation is rejected)."""
    rng = random.Random(seed ^ 0xB10B)
    current = graph
    for _ in range(rounds):
        name = rng.choice(list(MUTATORS))
        mutated = MUTATORS[name](current, rng)
        if mutated is not None:
            current = mutated
    return current
