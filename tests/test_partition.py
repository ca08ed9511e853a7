"""Tests for repro.partition: the chain invariant, extraction
fingerprints, boundary handoff semantics, the feedback loop, and the
partition-vs-monolithic differential suite."""

from __future__ import annotations

import pytest

from repro.bitdeps import SupportCalculator, popcount
from repro.core.config import SchedulerConfig
from repro.core.verify import verify_schedule
from repro.designs import BENCHMARKS, FULLSIZE, random_dfg
from repro.errors import CutError, SchedulingError
from repro.experiments import run_flow
from repro.hw.cost import evaluate
from repro.ir.types import OpKind
from repro.partition import (
    PartitionScheduler,
    extract_subgraph,
    partition_graph,
)
from repro.runtime import flow_fingerprint
from repro.tech.device import XC7

from .conftest import build_fig1, build_recurrent
from .test_cuts import registered_cut_masks

FAST = SchedulerConfig(ii=1, tcp=10.0, time_limit=30.0, max_cuts=8)


def _chain_position(chain):
    pos = {}
    for i, owned in enumerate(chain):
        for nid in owned:
            pos[nid] = i
    return pos


# ----------------------------------------------------------------------
# Partitioner: the chain invariant
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph", [
    BENCHMARKS["GFMUL"].build(),
    BENCHMARKS["CORDIC"].build(),
    build_recurrent(),
    random_dfg(seed=7, ops=40),
], ids=["gfmul", "cordic", "recurrent", "random7"])
def test_partition_chain_invariant(graph):
    config = SchedulerConfig(partition=True, partition_size=10)
    chain = partition_graph(graph, XC7, config)
    pos = _chain_position(chain)

    owned_all = [nid for owned in chain for nid in owned]
    assert len(owned_all) == len(set(owned_all)), "subgraphs overlap"
    eligible = {n.nid for n in graph
                if n.kind not in (OpKind.INPUT, OpKind.CONST)}
    assert set(owned_all) == eligible, "every op/OUTPUT is owned exactly once"

    # Every crossing edge — at any iteration distance — points forward.
    for node in graph:
        if node.nid not in pos:
            continue
        for op in node.operands:
            if op.source in pos:
                assert pos[op.source] <= pos[node.nid], (
                    f"edge {op.source}->{node.nid} (d={op.distance}) "
                    f"crosses backwards")


def test_partition_keeps_recurrences_whole():
    """Even at partition_size=1 a recurrence is never split: its SCC over
    all-distance edges is an atomic cluster."""
    graph = build_recurrent()
    chain = partition_graph(graph, XC7,
                            SchedulerConfig(partition=True, partition_size=1))
    pos = _chain_position(chain)
    carried = [(op.source, node.nid)
               for node in graph for op in node.operands
               if op.distance >= 1 and op.source in pos
               and node.nid in pos]
    assert carried, "build_recurrent must contain a loop-carried edge"
    for src, dst in carried:
        # build_recurrent's feed edge closes a cycle, so both endpoints
        # are mutually dependent and must share a subgraph.
        assert pos[src] == pos[dst], (
            f"recurrence edge {src}->{dst} split across subgraphs")


def test_partition_respects_size_target():
    graph = BENCHMARKS["GFMUL"].build()
    small = partition_graph(graph, XC7,
                            SchedulerConfig(partition=True,
                                            partition_size=12))
    huge = partition_graph(graph, XC7,
                           SchedulerConfig(partition=True,
                                           partition_size=10_000))
    assert len(small) > 1
    assert len(huge) == 1


# ----------------------------------------------------------------------
# Extraction: content fingerprints and seeds
# ----------------------------------------------------------------------
def test_extraction_fingerprint_ignores_chain_position():
    graph = BENCHMARKS["GFMUL"].build()
    chain = partition_graph(graph, XC7,
                            SchedulerConfig(partition=True,
                                            partition_size=12))
    assert len(chain) > 2
    owned = chain[1]
    a = extract_subgraph(graph, owned, index=1)
    b = extract_subgraph(graph, owned, index=5)
    assert a.fingerprint == b.fingerprint, (
        "re-cuts renumber chain positions; untouched subgraphs must keep "
        "their fingerprint (solve memo + RNG seed stability)")
    other = extract_subgraph(graph, chain[0], index=0)
    assert other.fingerprint != a.fingerprint


def test_extraction_is_valid_standalone_graph():
    from repro.ir.validate import validate

    graph = BENCHMARKS["GFMUL"].build()
    chain = partition_graph(graph, XC7,
                            SchedulerConfig(partition=True,
                                            partition_size=12))
    for i, owned in enumerate(chain):
        sub = extract_subgraph(graph, owned, i)
        validate(sub.graph)
        # Every owned local maps back to the source graph.
        for lid in sub.owned_local:
            assert sub.to_global[lid] in owned


# ----------------------------------------------------------------------
# Scheduler + stitcher
# ----------------------------------------------------------------------
def test_partition_scheduler_rejects_unsupported_method():
    with pytest.raises(SchedulingError, match="milp-map/milp-base"):
        PartitionScheduler(build_fig1(), XC7, FAST, method="hls-tool")


def test_partition_schedule_verifies_and_respects_handoffs():
    graph = BENCHMARKS["GFMUL"].build()
    config = SchedulerConfig(ii=1, tcp=10.0, time_limit=30.0, max_cuts=8,
                             partition=True, partition_size=12,
                             partition_rounds=0)
    scheduler = PartitionScheduler(graph, XC7, config, method="milp-map")
    schedule = scheduler.schedule()
    verify_schedule(schedule, XC7)
    assert scheduler.subgraph_counts[0] > 1

    # Registered handoff: every crossing edge u->v at distance d obeys
    # S_v + II*d >= S_u + 1 (stitch.py's boundary semantics, stronger
    # than the SCH009 dependence rule verify_schedule checks).
    chain = partition_graph(graph, XC7, config)
    pos = _chain_position(chain)
    ii = schedule.ii
    for node in graph:
        if node.nid not in pos:
            continue
        for op in node.operands:
            if op.source in pos and pos[op.source] != pos[node.nid]:
                assert (schedule.cycle[node.nid] + ii * op.distance
                        >= schedule.cycle[op.source] + 1), (
                    f"boundary edge {op.source}->{node.nid} not registered")


def test_stitched_cover_supports_match_the_full_graph():
    """Stitching only renames a subgraph cut's ids: each stitched cut's
    per-bit support sizes must equal a from-scratch support computation
    on the full graph, as if the cut had been enumerated there."""
    config = SchedulerConfig(ii=1, tcp=10.0, time_limit=30.0, max_cuts=8,
                             partition=True, partition_size=12,
                             partition_rounds=0)
    flow = run_flow(BENCHMARKS["GFMUL"].build(), "milp-map", XC7, config,
                    lint=False)
    schedule = flow.schedule
    graph = schedule.graph
    calc = SupportCalculator(graph)
    assert flow.trace.find("subgraph-solve")[0].meta["subgraphs"] > 1
    checked = 0
    for nid, cut in schedule.cover.items():
        if cut.is_trivial:
            assert cut.support == tuple(map(popcount, calc.leaf_masks(nid)))
            continue
        if cut.interior & cut.boundary:
            continue  # recomputed boundary node, see test_cuts.py
        try:
            fresh = registered_cut_masks(calc, graph, cut)
        except CutError:
            continue  # black-box root: no DEP to recompute
        assert cut.support == tuple(map(popcount, fresh)), (nid, cut)
        checked += 1
    assert checked > 0


def test_partition_feedback_merges_worst_boundary():
    graph = BENCHMARKS["GFMUL"].build()
    config = SchedulerConfig(ii=1, tcp=10.0, time_limit=30.0, max_cuts=8,
                             partition=True, partition_size=12,
                             partition_rounds=2)
    scheduler = PartitionScheduler(graph, XC7, config, method="milp-map")
    schedule = scheduler.schedule()
    verify_schedule(schedule, XC7)
    assert scheduler.rounds_run == 3
    counts = scheduler.subgraph_counts
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] < counts[0], "feedback never merged anything"


# ----------------------------------------------------------------------
# Differential suite: partitioned vs monolithic
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", ["milp-map", "milp-base"])
def test_partition_flow_matches_monolithic_when_single_subgraph(method):
    graph = build_fig1(4)
    mono = run_flow(build_fig1(4), method, XC7, FAST, lint=False)
    part_cfg = SchedulerConfig(ii=1, tcp=10.0, time_limit=30.0, max_cuts=8,
                               partition=True, partition_size=10_000,
                               partition_rounds=0)
    part = run_flow(graph, method, XC7, part_cfg, lint=False)
    # One subgraph == the monolithic solve on (an isomorphic copy of)
    # the same graph: the acceptance bar is cost within 5%.
    mono_cost = 0.5 * mono.report.luts + 0.5 * mono.report.ffs
    part_cost = 0.5 * part.report.luts + 0.5 * part.report.ffs
    assert part_cost <= mono_cost * 1.05 + 1e-9
    assert part.report.ii == mono.report.ii


def test_partition_flow_forced_cut_verifies_and_stays_close():
    graph = BENCHMARKS["GFMUL"].build()
    mono = run_flow(BENCHMARKS["GFMUL"].build(), "milp-map", XC7, FAST,
                    lint=False)
    part_cfg = SchedulerConfig(ii=1, tcp=10.0, time_limit=30.0, max_cuts=8,
                               partition=True, partition_size=12,
                               partition_rounds=1)
    part = run_flow(graph, "milp-map", XC7, part_cfg, lint=False)
    assert part.report.ii == mono.report.ii
    # A deliberately tiny partition_size pays real boundary registers;
    # the stitched result must stay in the same ballpark, not collapse.
    mono_cost = 0.5 * mono.report.luts + 0.5 * mono.report.ffs
    part_cost = 0.5 * part.report.luts + 0.5 * part.report.ffs
    assert part_cost <= mono_cost * 1.6 + 8
    spans = [s.name for s in part.trace.spans]
    assert "partition-cut" in spans and "stitch" in spans


def test_partition_flow_equiv_proves_stitched_schedule():
    graph = build_fig1(4)
    cfg = SchedulerConfig(ii=1, tcp=10.0, time_limit=30.0, max_cuts=8,
                          partition=True, partition_size=3,
                          partition_rounds=0)
    flow = run_flow(graph, "milp-map", XC7, cfg, lint=False,
                    validate=("cover", "pipeline"))
    assert flow.equiv is not None and flow.equiv.ok, (
        flow.equiv and [(v.stage, v.status) for v in flow.equiv.stages])


def test_partition_params_enter_flow_fingerprint():
    graph = build_fig1()
    base = flow_fingerprint(graph, "milp-map", XC7, FAST)
    on = flow_fingerprint(
        graph, "milp-map", XC7,
        SchedulerConfig(ii=1, tcp=10.0, time_limit=30.0, max_cuts=8,
                        partition=True))
    sized = flow_fingerprint(
        graph, "milp-map", XC7,
        SchedulerConfig(ii=1, tcp=10.0, time_limit=30.0, max_cuts=8,
                        partition=True, partition_size=7))
    assert len({base, on, sized}) == 3


def test_partition_config_validation():
    with pytest.raises(Exception):
        SchedulerConfig(partition_size=0)
    with pytest.raises(Exception):
        SchedulerConfig(partition_rounds=-1)


# ----------------------------------------------------------------------
# Full-size registry
# ----------------------------------------------------------------------
def test_fullsize_registry_is_paper_scale_and_disjoint():
    assert len(FULLSIZE) >= 3
    assert not set(FULLSIZE) & set(BENCHMARKS)
    for name, spec in FULLSIZE.items():
        graph = spec.build()
        assert 387 <= len(graph.node_ids) <= 2503, (
            f"{name}: {len(graph.node_ids)} nodes outside the paper range")


def test_fullsize_design_partitions_into_many_subgraphs():
    graph = FULLSIZE["GFMUL64"].build()
    chain = partition_graph(graph, XC7,
                            SchedulerConfig(partition=True,
                                            partition_size=48))
    assert len(chain) >= 4
