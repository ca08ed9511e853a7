"""Materialize one partition subgraph as a standalone, valid CDFG.

A subgraph owns a set of operation/OUTPUT nodes. Everything else it needs
is synthesized:

* **replicas** — INPUT and CONST nodes read by an owned node are copied
  in verbatim (they carry no schedule freedom; the stitcher pins INPUTs
  to cycle 0 and CONSTs are timeless);
* **placeholders** — a crossing in-value produced by an operation owned
  elsewhere becomes a local INPUT node of the same width. Consumers keep
  their original operand distances, so loop-carried reads stay
  loop-carried locally;
* **exposers** — a crossing out-value (an owned operation consumed by
  another subgraph) grows a local OUTPUT sink. The MILP forces OUTPUT
  producers to be cover roots (Eq. 3/4), so every value that crosses a
  boundary is guaranteed to be a root — exactly what SCH004 demands of
  the composed global cover.

Node ids are densely renumbered (the serializer requires it);
``to_global`` maps every local node that has a real counterpart back to
the source graph. Exposers map to nothing and are dropped at stitch time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..ir.graph import CDFG
from ..ir.node import Operand
from ..ir.types import OpKind

__all__ = ["SubgraphExtraction", "extract_subgraph"]


@dataclass
class SubgraphExtraction:
    """One subgraph plus the bookkeeping the stitcher needs.

    Attributes
    ----------
    graph:
        The standalone subgraph CDFG (valid; dense ids).
    index:
        Position in the partition chain.
    to_global:
        Local id -> source-graph id for owned nodes, replicas and
        placeholders. Exposer OUTPUTs are absent.
    owned_local:
        Local ids of nodes this subgraph *owns* (their cycles/starts and
        cover entries flow into the composed schedule).
    placeholder_local:
        Local ids of INPUT placeholders standing in for values produced
        by other subgraphs.
    fingerprint:
        SHA-256 over the canonical serialized subgraph. Content-addressed:
        two extractions of the same owned set are identical, whatever
        their chain position — this keys both the solve memo and the
        per-subgraph RNG seed, so re-cuts never perturb untouched
        subgraphs.
    """

    graph: CDFG
    index: int
    to_global: dict[int, int] = field(default_factory=dict)
    owned_local: set[int] = field(default_factory=set)
    placeholder_local: set[int] = field(default_factory=set)
    fingerprint: str = ""


def extract_subgraph(graph: CDFG, owned: tuple[int, ...] | set[int],
                     index: int) -> SubgraphExtraction:
    """Extract the subgraph of ``graph`` owning ``owned`` node ids."""
    owned_set = set(owned)
    topo_pos = {nid: pos for pos, nid in enumerate(graph.topological_order())}

    # Gather external sources read by owned nodes, split by treatment.
    replicas: set[int] = set()
    placeholders: set[int] = set()
    for gid in owned_set:
        for op in graph.node(gid).operands:
            if op.source in owned_set:
                continue
            src = graph.node(op.source)
            if src.kind in (OpKind.INPUT, OpKind.CONST):
                replicas.add(op.source)
            else:
                placeholders.add(op.source)

    # Owned values consumed outside get an OUTPUT exposer (forces them to
    # be cover roots). OUTPUT nodes are sinks and INPUT replicas are free
    # to be re-read elsewhere — neither needs exposing.
    exposed: list[int] = []
    for gid in sorted(owned_set):
        node = graph.node(gid)
        if node.kind is OpKind.OUTPUT:
            continue
        if any(use.consumer not in owned_set for use in graph.uses(gid)):
            exposed.append(gid)

    # Local id plan: replicas and placeholders first (sorted by global
    # id), then owned nodes in source topological order, then exposers.
    # Distance-0 operands of owned nodes always point backwards in this
    # order; loop-carried internal edges may point forward, which the
    # CDFG builder permits.
    order: list[int] = sorted(replicas) + sorted(placeholders)
    order += sorted(owned_set, key=lambda nid: topo_pos[nid])
    local_of = {gid: lid for lid, gid in enumerate(order)}

    # The name must NOT embed the chain index: the fingerprint hashes the
    # serialized graph, and feedback re-cuts renumber positions while
    # leaving untouched subgraphs byte-identical.
    sub = CDFG(f"{graph.name}#part")
    for gid in order:
        node = graph.node(gid)
        if gid in placeholders:
            sub.add_node(OpKind.INPUT, node.width,
                         name=f"bx_{node.label}", signed=node.signed)
            continue
        sub.add_node(
            node.kind, node.width,
            operands=[Operand(local_of[op.source], op.distance)
                      for op in node.operands] if gid in owned_set else [],
            name=node.name, value=node.value, amount=node.amount,
            rclass=node.rclass, delay_override=node.delay_override,
            signed=node.signed, attrs=dict(node.attrs),
        )
    for gid in exposed:
        sub.add_node(OpKind.OUTPUT, graph.node(gid).width,
                     operands=[Operand(local_of[gid], 0)],
                     name=f"expose_{graph.node(gid).label}")

    to_global = {lid: gid for gid, lid in local_of.items()}
    fingerprint = _content_fingerprint(sub)
    return SubgraphExtraction(
        graph=sub,
        index=index,
        to_global=to_global,
        owned_local={local_of[gid] for gid in owned_set},
        placeholder_local={local_of[gid] for gid in placeholders},
        fingerprint=fingerprint,
    )


def _content_fingerprint(sub: CDFG) -> str:
    from ..ir.serialize import graph_to_dict

    blob = json.dumps(graph_to_dict(sub), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
