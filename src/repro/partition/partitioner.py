"""Recurrence-aware, cut-cone-respecting CDFG partitioning.

The partitioner produces a *chain* of subgraphs: an ordered list of
disjoint node sets whose every crossing dependence edge — loop-carried
edges included — points forward in chain order. That invariant is what
makes stitching trivially feasible (a single forward pass assigns cycle
offsets; see :mod:`repro.partition.stitch`) and it is obtained by
construction, not by luck:

* **atomic clusters** are formed first: the strongly connected components
  of the dependence graph over *all* edges (so no recurrence is ever cut),
  unioned with every enumerated cut's ``{root} ∪ interior`` (so no cone
  the monolithic enumerator could select is split across a boundary);
* the cluster quotient graph is then **condensed** (clusters that ended up
  on a mutual cycle — possible once overlapping cones are unioned — are
  merged), leaving a DAG;
* a deterministic topological order of that DAG is **greedily chunked**
  into subgraphs of roughly ``config.partition_size`` nodes. A cluster is
  never split, so one oversized recurrence or cone yields one oversized
  subgraph rather than an invalid cut.

INPUT and CONST nodes are not assigned to any subgraph: extraction
replicates them into every subgraph that reads them (they carry no
schedule freedom — the stitcher pins them to cycle 0).
"""

from __future__ import annotations

import heapq

from ..core.config import SchedulerConfig
from ..ir.graph import CDFG
from ..ir.types import OpKind
from ..tech.device import XC7, Device

__all__ = ["partition_graph"]


class _UnionFind:
    def __init__(self, items) -> None:
        self.parent = {i: i for i in items}

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic representative: the smaller id wins.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _sccs(graph: CDFG, eligible: set[int]) -> list[list[int]]:
    """SCCs over *all* dependence edges (any distance), iteratively.

    Tarjan via an explicit stack: paper-sized graphs (2500+ nodes) would
    blow the recursion limit otherwise.
    """
    succ: dict[int, list[int]] = {nid: [] for nid in eligible}
    for nid in eligible:
        for use in graph.uses(nid):
            if use.consumer in succ:
                succ[nid].append(use.consumer)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = [0]
    sccs: list[list[int]] = []
    for start in sorted(eligible):
        if start in index:
            continue
        work = [(start, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack.add(v)
            recursed = False
            edges = succ[v]
            while pi < len(edges):
                w = edges[pi]
                pi += 1
                if w not in index:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    recursed = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if recursed:
                continue
            work.pop()
            if low[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


def _selected_cones(graph: CDFG, device: Device,
                    config: SchedulerConfig) -> list[set[int]]:
    """``{root} ∪ interior`` of every cone in a mapping-aware heuristic
    cover of the full graph.

    Unioning *every* enumerated cone would be degenerate — overlapping
    candidates chain transitively until the whole graph is one cluster.
    The heuristic cover picks one cone per root, which is exactly the
    kind of cone the per-subgraph MILP will want to select; keeping those
    intact is what "no enumerated cut is split across subgraphs" buys in
    practice. Heuristic failure degrades to SCC-only clustering.
    """
    from ..core.heuristic import MappingAwareHeuristicScheduler

    try:
        schedule = MappingAwareHeuristicScheduler(
            graph, device, config).schedule(config.ii)
    except Exception:
        return []
    cones: list[set[int]] = []
    for cut in schedule.cover.values():
        if cut.interior:
            cones.append({cut.root} | set(cut.interior))
    return cones


def partition_graph(graph: CDFG, device: Device = XC7,
                    config: SchedulerConfig | None = None,
                    respect_cones: bool = True) -> list[tuple[int, ...]]:
    """Cut ``graph`` into a chain of owned node sets.

    Returns an ordered list of sorted node-id tuples. Every dependence
    edge between two different subgraphs — at any iteration distance —
    goes from an earlier tuple to a later one. INPUT/CONST nodes are
    owned by no subgraph (extraction replicates them).

    ``respect_cones=False`` skips the cut enumeration (used by MILP-base,
    whose unit cuts never span nodes, and by tests that want pure
    SCC/size-driven chunking).
    """
    config = config or SchedulerConfig()
    eligible = {n.nid for n in graph
                if n.kind not in (OpKind.INPUT, OpKind.CONST)}
    if not eligible:
        return []

    uf = _UnionFind(eligible)
    for scc in _sccs(graph, eligible):
        first = min(scc)
        for nid in scc:
            uf.union(first, nid)
    if respect_cones and config.max_cuts > 0:
        for cone in _selected_cones(graph, device, config):
            members = [nid for nid in cone if nid in eligible]
            for nid in members[1:]:
                uf.union(members[0], nid)

    # Cluster quotient over all edges; condense any cycles the cone
    # unions introduced (overlapping cones can bridge two clusters both
    # ways even though the node graph is acyclic through them).
    members: dict[int, list[int]] = {}
    for nid in eligible:
        members.setdefault(uf.find(nid), []).append(nid)
    cluster_of = {nid: rep for rep, nids in members.items() for nid in nids}
    edges: dict[int, set[int]] = {rep: set() for rep in members}
    for nid in eligible:
        for use in graph.uses(nid):
            if use.consumer not in cluster_of:
                continue
            a, b = cluster_of[nid], cluster_of[use.consumer]
            if a != b:
                edges[a].add(b)

    condensed = _condense(members, edges)

    # Deterministic topological order of the condensed DAG: Kahn with a
    # min-heap keyed by the smallest member id, then greedy chunking.
    indeg = {rep: 0 for rep in condensed.members}
    for rep, outs in condensed.edges.items():
        for other in outs:
            indeg[other] += 1
    heap = [(min(condensed.members[rep]), rep)
            for rep, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    chain: list[tuple[int, ...]] = []
    current: list[int] = []
    target = max(1, config.partition_size)
    while heap:
        _, rep = heapq.heappop(heap)
        current.extend(condensed.members[rep])
        if len(current) >= target:
            chain.append(tuple(sorted(current)))
            current = []
        for other in sorted(condensed.edges.get(rep, ())):
            indeg[other] -= 1
            if indeg[other] == 0:
                heapq.heappush(heap, (min(condensed.members[other]), other))
    if current:
        chain.append(tuple(sorted(current)))
    return chain


class _Condensed:
    def __init__(self, members: dict[int, list[int]],
                 edges: dict[int, set[int]]) -> None:
        self.members = members
        self.edges = edges


def _condense(members: dict[int, list[int]],
              edges: dict[int, set[int]]) -> _Condensed:
    """Merge quotient-level SCCs so the cluster graph is a DAG."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = [0]
    groups: list[list[int]] = []
    for start in sorted(members):
        if start in index:
            continue
        work = [(start, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack.add(v)
            recursed = False
            succ = sorted(edges.get(v, ()))
            while pi < len(succ):
                w = succ[pi]
                pi += 1
                if w not in index:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    recursed = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if recursed:
                continue
            work.pop()
            if low[v] == index[v]:
                group = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    group.append(w)
                    if w == v:
                        break
                groups.append(group)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    rep_of: dict[int, int] = {}
    merged_members: dict[int, list[int]] = {}
    for group in groups:
        rep = min(group)
        for old in group:
            rep_of[old] = rep
        merged: list[int] = []
        for old in group:
            merged.extend(members[old])
        merged_members[rep] = sorted(merged)
    merged_edges: dict[int, set[int]] = {rep: set() for rep in merged_members}
    for old, outs in edges.items():
        a = rep_of[old]
        for other in outs:
            b = rep_of[other]
            if a != b:
                merged_edges[a].add(b)
    return _Condensed(merged_members, merged_edges)
