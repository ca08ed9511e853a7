"""Compose per-subgraph schedules into one global verified schedule.

Boundary semantics (docs/partitioning.md): every value that crosses a
subgraph boundary is handed off through at least one pipeline register —
the consumer's cycle must satisfy ``S_v + II·d >= S_u + 1`` for a
crossing dependence ``u -> v`` at iteration distance ``d``. Because the
producer is a cover root in its own subgraph (the exposer forced it),
its cone finishes within its cycle (SCH007), so a one-cycle handoff
always satisfies the global chaining rule (SCH008) regardless of where
either side sits within its clock period.

The partitioner guarantees every crossing edge points forward in chain
order, so the offset system ``off[i] >= off[j] + delta`` (j < i) is
solved exactly by one forward longest-path pass — stitching never fails
for latency reasons. Black-box resource oversubscription across
subgraphs (possible at II > 1, since each local solve only polices its
own modulo slots) is repaired by bumping offsets and re-running the
pass, bounded; II = 1 needs no repair because slot usage equals total
usage, which partitioning does not change.

The stitcher also *prices* every handoff: per crossing value, the
register bits implied by its global lifetime. That per-boundary pressure
map is the feedback signal the scheduler's re-cut loop consumes, and it
flows into the composed objective estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import SchedulerConfig
from ..cuts.cut import Cut
from ..errors import SchedulingError
from ..ir.graph import CDFG
from ..scheduling.schedule import Schedule
from ..tech.device import Device
from .extract import SubgraphExtraction

__all__ = ["StitchInfo", "stitch_schedules"]


@dataclass
class StitchInfo:
    """Bookkeeping from one stitch: offsets, pricing, repair effort."""

    offsets: list[int] = field(default_factory=list)
    #: (producer subgraph, consumer subgraph) -> boundary register bits.
    boundary_bits: dict[tuple[int, int], int] = field(default_factory=dict)
    total_boundary_bits: int = 0
    crossing_values: int = 0
    repair_bumps: int = 0

    def worst_pair(self) -> tuple[int, int] | None:
        """The boundary carrying the most register bits (ties: earliest)."""
        if not self.boundary_bits:
            return None
        return min(self.boundary_bits,
                   key=lambda pair: (-self.boundary_bits[pair], pair))


def stitch_schedules(graph: CDFG, subs: list[SubgraphExtraction],
                     scheds: list[Schedule], device: Device,
                     config: SchedulerConfig,
                     method: str) -> tuple[Schedule, StitchInfo]:
    """Compose local ``scheds`` (one per sub, all at one II) globally."""
    if not subs:
        raise SchedulingError("cannot stitch an empty partition")
    ii = scheds[0].ii
    if any(s.ii != ii for s in scheds):
        raise SchedulingError(
            f"subgraph IIs disagree: {[s.ii for s in scheds]}")

    owner: dict[int, tuple[int, int]] = {}
    for i, sub in enumerate(subs):
        for lid in sub.owned_local:
            owner[sub.to_global[lid]] = (i, lid)

    # off[i] >= off[j] + delta for every crossing edge; all j < i by the
    # partitioner's chain invariant.
    constraints: list[list[tuple[int, int]]] = [[] for _ in subs]
    crossings: list[tuple[int, int, int, int, int]] = []  # u, v, d, j, i
    for node in graph:
        place = owner.get(node.nid)
        if place is None:
            continue
        i, lid = place
        cv = scheds[i].cycle[lid]
        for op in node.operands:
            src_place = owner.get(op.source)
            if src_place is None or src_place[0] == i:
                continue
            j, src_lid = src_place
            if j > i:
                raise SchedulingError(
                    f"partition chain broken: edge {op.source} -> "
                    f"{node.nid} crosses backwards ({j} -> {i})")
            cu = scheds[j].cycle[src_lid]
            constraints[i].append((j, cu - cv + 1 - ii * op.distance))
            crossings.append((op.source, node.nid, op.distance, j, i))

    lower = [0] * len(subs)
    offsets = _forward_offsets(constraints, lower)
    cycle, start = _compose_times(graph, subs, scheds, offsets)

    # Cross-subgraph black-box packing repair (II > 1 only).
    bumps = 0
    max_bumps = ii * len(subs) + 8
    while True:
        violations = _resource_violations(graph, cycle, ii, device)
        if not violations:
            break
        if ii == 1:
            rclass, _, nids = violations[0]
            raise SchedulingError(
                f"resource {rclass} oversubscribed at II=1 "
                f"({len(nids)} ops); the device cannot fit this design")
        if bumps >= max_bumps:
            rclass, slot, _ = violations[0]
            raise SchedulingError(
                f"could not repair modulo packing of {rclass} "
                f"(slot {slot}) after {bumps} offset bumps")
        # Shift the subgraph owning the latest-cycled conflicting op one
        # cycle later; downstream offsets follow in the re-run pass.
        _, _, nids = violations[0]
        victim = max(nids, key=lambda nid: (cycle[nid], nid))
        sub_idx = owner[victim][0]
        lower[sub_idx] = offsets[sub_idx] + 1
        offsets = _forward_offsets(constraints, lower)
        cycle, start = _compose_times(graph, subs, scheds, offsets)
        bumps += 1

    cover = _compose_cover(subs, scheds)

    info = StitchInfo(offsets=offsets, repair_bumps=bumps)
    _price_boundaries(graph, crossings, cycle, ii, info)

    objective = None
    if all(s.objective is not None for s in scheds):
        objective = sum(s.objective for s in scheds) \
            + config.beta * info.total_boundary_bits
    stitched = Schedule(
        graph=graph,
        ii=ii,
        tcp=config.tcp,
        cycle=cycle,
        start=start,
        cover=cover,
        method=method,
        objective=objective,
        solve_seconds=sum(s.solve_seconds for s in scheds),
        optimal=len(subs) == 1 and scheds[0].optimal,
    )
    return stitched, info


# ----------------------------------------------------------------------
def _forward_offsets(constraints: list[list[tuple[int, int]]],
                     lower: list[int]) -> list[int]:
    offsets = [0] * len(constraints)
    for i, rows in enumerate(constraints):
        best = lower[i]
        for j, delta in rows:
            best = max(best, offsets[j] + delta)
        offsets[i] = max(0, best)
    return offsets


def _compose_times(graph: CDFG, subs: list[SubgraphExtraction],
                   scheds: list[Schedule], offsets: list[int]
                   ) -> tuple[dict[int, int], dict[int, float]]:
    cycle: dict[int, int] = {}
    start: dict[int, float] = {}
    for i, sub in enumerate(subs):
        sched = scheds[i]
        for lid in sub.owned_local:
            gid = sub.to_global[lid]
            cycle[gid] = offsets[i] + sched.cycle[lid]
            start[gid] = sched.start.get(lid, 0.0)
    # INPUT/CONST nodes are owned by nobody: pin them to cycle 0 — valid
    # for every rule (inputs have zero implementation delay; constants
    # are exempt from chaining and dependence checks) and honestly priced
    # by the evaluator as input staging registers.
    for node in graph:
        if node.nid not in cycle:
            if not node.is_boundary:
                raise SchedulingError(
                    f"operation {node.nid} belongs to no subgraph")
            cycle[node.nid] = 0
            start[node.nid] = 0.0
    return cycle, start


def _compose_cover(subs: list[SubgraphExtraction],
                   scheds: list[Schedule]) -> dict[int, Cut]:
    cover: dict[int, Cut] = {}
    for i, sub in enumerate(subs):
        remap = sub.to_global
        for lid, cut in scheds[i].cover.items():
            if lid not in remap:
                continue  # exposer OUTPUT: no global counterpart
            if lid in sub.placeholder_local:
                # The placeholder's trivial self-cut describes a value
                # *produced elsewhere*; the producing subgraph owns the
                # real cone for that global node.
                continue
            gid = remap[lid]
            remapped = Cut(
                root=gid,
                boundary=frozenset(remap[b] for b in cut.boundary),
                support=cut.support,
                kind=cut.kind,
                interior=frozenset(remap[w] for w in cut.interior),
                entries=tuple(sorted((remap[u], d)
                                     for u, d in cut.entries)),
            )
            if lid in sub.owned_local:
                cover[gid] = remapped
            elif gid not in cover:
                # INPUT/CONST replica: every replica carries the same
                # trivial cut; keep the first, mirroring the monolithic
                # cover's implicit input roots.
                cover[gid] = remapped
    return cover


def _resource_violations(graph: CDFG, cycle: dict[int, int], ii: int,
                         device: Device
                         ) -> list[tuple[str, int, list[int]]]:
    usage: dict[tuple[str, int], list[int]] = {}
    for node in graph:
        if node.is_blackbox and node.rclass:
            slot = cycle[node.nid] % ii
            usage.setdefault((node.rclass, slot), []).append(node.nid)
    violations = []
    for (rclass, slot), nids in sorted(usage.items()):
        cap = device.blackbox_counts.get(rclass)
        if cap is not None and len(nids) > cap:
            violations.append((rclass, slot, sorted(nids)))
    return violations


def _price_boundaries(graph: CDFG,
                      crossings: list[tuple[int, int, int, int, int]],
                      cycle: dict[int, int], ii: int,
                      info: StitchInfo) -> None:
    """Register bits per boundary: width x global lifetime per value.

    Mirrors the evaluator's liveness model (a value read at
    ``S_v + II·d`` lives from its production cycle to that read), folded
    per (value, consumer-subgraph) so multi-use reads are not
    double-counted.
    """
    lifetime: dict[tuple[int, int], tuple[int, int]] = {}
    for u, v, d, j, i in crossings:
        span = max(1, cycle[v] + ii * d - cycle[u])
        key = (u, i)
        prev = lifetime.get(key)
        if prev is None or span > prev[0]:
            lifetime[key] = (span, j)
    bits: dict[tuple[int, int], int] = {}
    for (u, i), (span, j) in lifetime.items():
        bits[(j, i)] = bits.get((j, i), 0) \
            + graph.node(u).width * span
    info.boundary_bits = bits
    info.total_boundary_bits = sum(bits.values())
    info.crossing_values = len(lifetime)
