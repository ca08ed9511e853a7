"""Tests for repro.runtime (fingerprint / cache / parallel / trace) and
the bugfix sweep riding on the same PR: parallel-vs-serial parity,
warm-cache zero-solve proofs, solver status plumbing, flow fallback
breadth, and partial-table formatting."""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace

import pytest

from repro.core.config import SchedulerConfig
from repro.core.mapsched import MapScheduler
from repro.designs import BENCHMARKS, FULLSIZE, random_dfg
from repro.errors import (
    AnalysisError,
    ScheduleVerificationError,
    SolverError,
)
from repro.experiments import (
    ALL_METHODS,
    Table1Result,
    Table1Row,
    format_table1,
    format_table2,
    run_flow,
    run_table1,
    run_table2,
)
from repro.experiments import flows as flows_mod
from repro.hw.cost import HardwareReport
from repro.ir.serialize import schedule_from_dict, schedule_to_dict
from repro.milp import scipy_backend
from repro.milp.model import Model, SolveStatus
from repro.rtl import emit_verilog, lint_verilog
from repro.runtime import (
    CACHE_FILE_SCHEMA,
    FlowCache,
    Tracer,
    flow_fingerprint,
    resolve_jobs,
    run_parallel,
)
from repro.runtime import fingerprint as fingerprint_mod
from repro.sim import replay_equivalent
from repro.tech.device import TUTORIAL4, XC7

from .conftest import build_fig1

FAST = SchedulerConfig(ii=1, tcp=10.0, time_limit=30.0, max_cuts=8)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_tracer_span_records_and_survives_failure():
    tracer = Tracer()
    with tracer.span("lint", k=6):
        pass
    with pytest.raises(ValueError):
        with tracer.span("solve", backend="scipy"):
            raise ValueError("boom")
    assert [s.name for s in tracer.spans] == ["lint", "solve"]
    assert tracer.spans[0].meta == {"k": 6}
    assert tracer.spans[1].seconds >= 0.0  # failed attempts stay visible


def test_tracer_context_meta_inherited():
    tracer = Tracer()
    with tracer.context(graph="narrowed"):
        with tracer.span("solve"):
            pass
    with tracer.span("verify"):
        pass
    assert tracer.spans[0].meta["graph"] == "narrowed"
    assert "graph" not in tracer.spans[1].meta


def test_tracer_absorb_and_fresh_only_counts():
    original = Tracer()
    with original.span("solve"):
        pass
    live = Tracer()
    with live.span("cache-load"):
        pass
    live.absorb(original.spans, cached=True)
    assert live.count("solve") == 1
    assert live.count("solve", fresh_only=True) == 0
    assert live.count("cache-load", fresh_only=True) == 1


def test_tracer_dict_roundtrip_marks_cached():
    tracer = Tracer()
    with tracer.span("milp-build", constraints=17):
        pass
    rebuilt = Tracer.from_dict(tracer.to_dict(), cached=True)
    assert rebuilt.count("milp-build") == 1
    assert rebuilt.spans[0].cached
    assert rebuilt.spans[0].meta["constraints"] == 17
    assert "milp-build" in tracer.render_text()


def test_tracer_listener_fires_on_start_and_end():
    events: list[tuple[str, str, bool]] = []
    tracer = Tracer(listener=lambda ev, s: events.append(
        (ev, s.name, s.seconds > 0.0)))
    with tracer.span("lint"):
        pass
    # Start fires before the body (duration still zero), end after.
    assert events == [("start", "lint", False), ("end", "lint", True)]
    # Absorbed (cached) spans describe work done elsewhere: no events.
    other = Tracer()
    with other.span("solve"):
        pass
    tracer.absorb(other.spans, cached=True)
    assert len(events) == 2


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_stable_across_rebuilds():
    fp1 = flow_fingerprint(build_fig1(), "milp-map", XC7, FAST)
    fp2 = flow_fingerprint(build_fig1(), "milp-map", XC7, FAST)
    assert fp1 == fp2
    assert len(fp1) == 64


def test_fingerprint_invalidates_on_every_input():
    base = flow_fingerprint(build_fig1(), "milp-map", XC7, FAST)
    assert flow_fingerprint(build_fig1(3), "milp-map", XC7, FAST) != base
    assert flow_fingerprint(build_fig1(), "milp-base", XC7, FAST) != base
    assert flow_fingerprint(build_fig1(), "milp-map", TUTORIAL4, FAST) != base
    tweaked = SchedulerConfig(ii=1, tcp=10.0, time_limit=30.0, max_cuts=8,
                              alpha=0.9, beta=0.1)
    assert flow_fingerprint(build_fig1(), "milp-map", XC7, tweaked) != base
    # config.narrow is the flows' one narrowing switch: an un-narrowed
    # result can never answer a narrowing lookup.
    assert flow_fingerprint(build_fig1(), "milp-map", XC7,
                            replace(FAST, narrow=False)) != base


def test_fingerprint_invalidates_on_schema_bump(monkeypatch):
    base = flow_fingerprint(build_fig1(), "milp-map", XC7, FAST)
    monkeypatch.setattr(fingerprint_mod, "CACHE_SCHEMA_VERSION", 999)
    assert flow_fingerprint(build_fig1(), "milp-map", XC7, FAST) != base


# ----------------------------------------------------------------------
# Schedule serialization + FlowCache
# ----------------------------------------------------------------------
def test_schedule_json_roundtrip():
    flow = run_flow(build_fig1(), "milp-map", XC7, FAST, lint=False)
    sched = flow.schedule
    data = json.loads(json.dumps(schedule_to_dict(sched)))
    back = schedule_from_dict(data)
    assert back.cycle == sched.cycle
    assert back.start == sched.start
    assert back.ii == sched.ii and back.tcp == sched.tcp
    assert back.method == sched.method
    assert back.optimal == sched.optimal
    assert set(back.cover) == set(sched.cover)
    for root, cut in sched.cover.items():
        assert back.cover[root].boundary == cut.boundary
        assert back.cover[root].entries == cut.entries


def test_flow_cache_roundtrip_and_zero_fresh_solves(tmp_path):
    cache = FlowCache(str(tmp_path))
    cold = run_flow(build_fig1(), "milp-map", XC7, FAST, lint=False,
                    cache=cache)
    assert not cold.cached
    assert cache.stores == 1 and len(cache) == 1
    warm = run_flow(build_fig1(), "milp-map", XC7, FAST, lint=False,
                    cache=cache)
    assert warm.cached
    assert cache.hits == 1
    assert warm.fingerprint == cold.fingerprint
    # The warm trace replays the original spans (marked cached) plus a
    # fresh cache-load; no solver work happened.
    assert warm.trace.count("solve") >= 1
    assert warm.trace.count("solve", fresh_only=True) == 0
    assert warm.trace.count("cache-load", fresh_only=True) == 1
    assert warm.report.to_dict() == cold.report.to_dict()
    assert warm.schedule.cycle == cold.schedule.cycle


def test_flow_cache_corrupt_and_stale_entries_miss(tmp_path):
    cache = FlowCache(str(tmp_path))
    fp = flow_fingerprint(build_fig1(), "milp-map", XC7, FAST)
    path = cache.path_for(fp)
    import os

    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{ not json")
    assert cache.load(fp) is None
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": "repro-flow-cache/v0", "fingerprint": fp,
                   "result": {}}, handle)
    assert cache.load(fp) is None
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": CACHE_FILE_SCHEMA, "fingerprint": fp,
                   "result": {"schedule": {}}}, handle)
    assert cache.load(fp) is None
    assert cache.misses == 3 and cache.hits == 0


def test_flow_cache_invalidation_on_config_change(tmp_path):
    cache = FlowCache(str(tmp_path))
    run_flow(build_fig1(), "milp-map", XC7, FAST, lint=False, cache=cache)
    tweaked = SchedulerConfig(ii=1, tcp=10.0, time_limit=30.0, max_cuts=8,
                              alpha=0.9, beta=0.1)
    again = run_flow(build_fig1(), "milp-map", XC7, tweaked, lint=False,
                     cache=cache)
    assert not again.cached  # different fingerprint, fresh solve
    assert cache.stores == 2 and len(cache) == 2


def test_flow_cache_validated_flow_stores_one_result_and_its_verdict(
        tmp_path):
    cache = FlowCache(str(tmp_path))
    cold = run_flow(build_fig1(), "milp-map", XC7, FAST, lint=False,
                    cache=cache, validate=True)
    assert cold.equiv is not None
    assert os.path.exists(cache.equiv_path_for(cold.fingerprint))
    # len() counts flow results only, not the verdict beside them.
    assert cache.stores == 1 and len(cache) == 1
    # A warm rerun loads both and proves nothing again...
    warm = run_flow(build_fig1(), "milp-map", XC7, FAST, lint=False,
                    cache=cache, validate=True)
    assert warm.cached and warm.trace.count("equiv") == 0
    assert warm.equiv.to_dict() == cold.equiv.to_dict()
    # ...but a verdict for other stages is a miss and is proved afresh.
    subset = run_flow(build_fig1(), "milp-map", XC7, FAST, lint=False,
                      cache=cache, validate=("narrow",))
    assert subset.trace.count("equiv", fresh_only=True) == 1
    assert [v.stage for v in subset.equiv.stages] == ["narrow"]


# ----------------------------------------------------------------------
# run_parallel
# ----------------------------------------------------------------------
def _square(n: int) -> int:
    return n * n


def _fail_on_three(n: int) -> int:
    if n == 3:
        raise ValueError("task three is broken")
    return n


def test_run_parallel_preserves_task_order():
    tasks = list(range(10))
    assert run_parallel(tasks, _square, jobs=1) == [n * n for n in tasks]
    assert run_parallel(tasks, _square, jobs=4) == [n * n for n in tasks]


def test_run_parallel_propagates_worker_exception():
    with pytest.raises(ValueError, match="task three"):
        run_parallel([1, 2, 3, 4], _fail_on_three, jobs=1)
    with pytest.raises(ValueError, match="task three"):
        run_parallel([1, 2, 3, 4], _fail_on_three, jobs=2)


def _mark_then_run(task):
    index, marker_dir, fail, sleep_s = task
    import pathlib

    pathlib.Path(marker_dir, f"ran-{index}").touch()
    if fail:
        raise ValueError(f"task {index} is broken")
    time.sleep(sleep_s)
    return index


def test_run_parallel_cancels_queued_tasks_on_failure(tmp_path):
    """A failing task must not wait on unrelated queued work: the pool
    shuts down with cancel_futures on first failure, so queued tasks
    never start and the exception surfaces promptly."""
    tasks = [(0, str(tmp_path), True, 0.0)] + [
        (i, str(tmp_path), False, 1.5) for i in range(1, 13)]
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="task 0"):
        run_parallel(tasks, _mark_then_run, jobs=2)
    elapsed = time.perf_counter() - t0
    ran = {p.name for p in tmp_path.iterdir()}
    assert "ran-0" in ran
    # The queue held 12 slow tasks when task 0 failed. Tasks already
    # handed to the pool's internal call queue (max_workers + 1 items)
    # cannot be cancelled, so besides the failing task up to two
    # in-flight slots plus that prefetch buffer may still run — but the
    # rest of the queue must never start.
    assert len(ran) <= 7, f"queued tasks ran after failure: {sorted(ran)}"
    # Draining all 12 queued sleeps across 2 workers would cost >= 9s.
    assert elapsed < 7.0, f"failure waited on queued tasks ({elapsed:.1f}s)"


def _sleep_then_return(task):
    time.sleep(task[1])
    return task[0]


def test_run_parallel_pool_progress_fires_on_completion():
    """The pool path reports progress as tasks *finish* (completion
    order), while results stay in task order."""
    tasks = [("slow", 1.0), ("fast", 0.0)]
    seen: list[str] = []
    out = run_parallel(tasks, _sleep_then_return, jobs=2,
                       progress=lambda t: seen.append(t[0]))
    assert out == ["slow", "fast"]
    assert seen == ["fast", "slow"]


def test_run_parallel_serial_progress_fires_before_each_task():
    events: list[tuple[str, int]] = []

    def worker(n: int) -> int:
        events.append(("run", n))
        return n

    out = run_parallel([1, 2], worker, jobs=1,
                       progress=lambda n: events.append(("progress", n)))
    assert out == [1, 2]
    assert events == [("progress", 1), ("run", 1),
                      ("progress", 2), ("run", 2)]


def test_resolve_jobs_env_default(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(0) == 1
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs(None) == 3
    assert resolve_jobs(1) == 1  # explicit beats env
    monkeypatch.setenv("REPRO_JOBS", "junk")
    assert resolve_jobs(None) == 1


# ----------------------------------------------------------------------
# Table 1 / Table 2 parity + warm cache (the acceptance criteria)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def table1_runs(tmp_path_factory):
    """One cold serial, one cold jobs=2, one warm rerun of Table 1 (GFMUL)."""
    dir_serial = str(tmp_path_factory.mktemp("cache-serial"))
    dir_parallel = str(tmp_path_factory.mktemp("cache-parallel"))
    kwargs = dict(designs=["GFMUL"], config=FAST, check_replay=False)
    serial = run_table1(jobs=1, cache_dir=dir_serial, **kwargs)
    parallel = run_table1(jobs=2, cache_dir=dir_parallel, **kwargs)
    warm = run_table1(jobs=1, cache_dir=dir_serial, **kwargs)
    return {"serial": serial, "parallel": parallel, "warm": warm,
            "dir_serial": dir_serial}


def test_table1_parallel_byte_identical(table1_runs):
    assert format_table1(table1_runs["parallel"]) == \
        format_table1(table1_runs["serial"])


def test_table1_warm_cache_hits_everything_zero_solves(table1_runs):
    warm = table1_runs["warm"]
    assert all(row.cached for row in warm.rows)
    for row in warm.rows:
        assert row.trace.count("solve", fresh_only=True) == 0
        assert row.trace.count("milp-build", fresh_only=True) == 0
        assert row.trace.count("cache-load", fresh_only=True) == 1
    # MILP rows must still carry the original (cached) solve spans.
    by_method = {row.method: row for row in warm.rows}
    assert by_method["milp-map"].trace.count("solve") >= 1
    assert format_table1(warm) == format_table1(table1_runs["serial"])


def test_table2_shares_cache_and_is_reproducible(table1_runs):
    kwargs = dict(designs=["GFMUL"], config=FAST,
                  cache_dir=table1_runs["dir_serial"])
    first = run_table2(jobs=1, **kwargs)
    second = run_table2(jobs=2, **kwargs)
    # Both MILP flows were already computed by the Table 1 run above, so
    # Table 2 rides the same cache: identical (stored) solve seconds make
    # the rendered tables byte-identical, parallel or not.
    row = first.rows[0]
    assert row.base_trace.count("solve", fresh_only=True) == 0
    assert row.map_trace.count("solve", fresh_only=True) == 0
    assert row.base_seconds > 0.0
    assert format_table2(first) == format_table2(second)


# ----------------------------------------------------------------------
# format_table1 partial-result regression (satellite c)
# ----------------------------------------------------------------------
def _report(method: str) -> HardwareReport:
    return HardwareReport(design="GFMUL", method=method, cp=7.5, luts=100,
                          ffs=10, latency=2, ii=1)


def test_format_table1_without_hls_row_blank_percentages():
    rows = [
        Table1Row(design="GFMUL", domain="Kernel", description="",
                  method=method, report=_report(method))
        for method in ("milp-base", "milp-map")
    ]
    result = Table1Result(config=FAST, device=XC7, rows=rows)
    text = format_table1(result)  # must not raise AttributeError
    assert "MILP-base" in text and "MILP-map" in text
    assert "%)" not in text  # percentage cells are blank, not computed
    assert "GFMUL" in text


# ----------------------------------------------------------------------
# Solver status plumbing (satellite b)
# ----------------------------------------------------------------------
class _StubResult:
    def __init__(self, status, x, message="stub"):
        self.status = status
        self.x = x
        self.message = message
        self.mip_gap = None


def test_scipy_status1_without_incumbent_is_no_incumbent(monkeypatch):
    model = Model("stub")
    x = model.integer("x", lo=0, hi=10)
    model.add(x >= 1)
    model.minimize(x)
    monkeypatch.setattr(scipy_backend.optimize, "milp",
                        lambda **kw: _StubResult(1, None, "time limit hit"))
    solution = scipy_backend.solve_scipy(model)
    assert solution.status == SolveStatus.NO_INCUMBENT
    assert not solution.ok
    assert solution.objective is None


def test_scipy_round_snap_violation_becomes_error(monkeypatch):
    model = Model("snap")
    x = model.integer("x", lo=0, hi=1)
    model.add(x >= 0.4)
    model.add(x <= 0.6)
    model.minimize(x)
    import numpy as np

    monkeypatch.setattr(scipy_backend.optimize, "milp",
                        lambda **kw: _StubResult(0, np.array([0.4])))
    solution = scipy_backend.solve_scipy(model)
    assert solution.status == SolveStatus.ERROR
    assert "rounded solution violates" in solution.message
    assert solution.values == {} and solution.objective is None


def test_mapscheduler_no_incumbent_raises_time_cap_message(monkeypatch):
    from repro.milp.model import Solution

    monkeypatch.setattr(
        Model, "solve",
        lambda self, **kw: Solution(status=SolveStatus.NO_INCUMBENT,
                                    objective=None))
    # Without a warm start there is no fallback incumbent to fall back on.
    scheduler = MapScheduler(build_fig1(), XC7,
                             replace(FAST, warm_start=False))
    with pytest.raises(SolverError, match="time cap too tight"):
        scheduler.schedule()


def test_mapscheduler_no_incumbent_falls_back_to_warm_start(monkeypatch):
    from repro.milp.model import Solution

    monkeypatch.setattr(
        Model, "solve",
        lambda self, **kw: Solution(status=SolveStatus.NO_INCUMBENT,
                                    objective=None))
    # With warm starts on, the heuristic schedule stands in for the
    # missing solver incumbent instead of aborting the run.
    scheduler = MapScheduler(build_fig1(), XC7, FAST)
    schedule = scheduler.schedule()
    assert schedule.ii == FAST.ii
    fallback = scheduler.tracer.find("warm-start")
    assert fallback and fallback[-1].meta["used"] is True


# ----------------------------------------------------------------------
# Narrowed-graph fallback breadth (satellite a)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("exc", [
    ScheduleVerificationError(["stage 0 too deep"]),
    AnalysisError("narrowed graph flagged"),
    SolverError("lost the incumbent lottery"),
])
def test_flow_falls_back_to_original_graph(monkeypatch, exc):
    real_dispatch = flows_mod._dispatch
    calls = []

    def flaky_dispatch(graph, method, device, config, design, tracer,
                       jobs=1):
        calls.append(graph.name)
        if len(calls) == 1:
            raise exc
        return real_dispatch(graph, method, device, config, design, tracer,
                             jobs)

    monkeypatch.setattr(flows_mod, "_dispatch", flaky_dispatch)
    flow = run_flow(build_fig1(), "milp-map", XC7,
                    replace(FAST, narrow=True), lint=False)
    assert len(calls) == 2  # narrowed attempt, then the original graph
    assert flow.source_graph == "original"
    fallback = flow.trace.last("narrow-fallback")
    assert fallback is not None
    assert fallback.meta["error"] == type(exc).__name__


def test_flow_records_narrowed_source_graph():
    flow = run_flow(build_fig1(), "milp-map", XC7,
                    replace(FAST, narrow=True), lint=False)
    assert flow.source_graph == "narrowed"
    assert all(s.meta.get("graph") == "narrowed"
               for s in flow.trace.find("solve"))


# ----------------------------------------------------------------------
# Cooperative flow cancellation (rides the repro.service PR)
# ----------------------------------------------------------------------
def test_run_flow_cancel_before_start_raises_at_first_checkpoint():
    from repro.errors import FlowCancelled

    with pytest.raises(FlowCancelled) as info:
        run_flow(build_fig1(), "milp-map", XC7, FAST, lint=False,
                 tracer=Tracer(cancel=lambda: True))
    assert info.value.phase == "narrow"


def test_run_flow_cancel_mid_flow_stops_at_next_phase():
    from repro.errors import FlowCancelled

    cancelled = {"flag": False}

    def on_phase(event: str, span) -> None:
        # Trip the cancel flag while the solve phase is running; the
        # flow must finish that phase and stop at the next checkpoint.
        if event == "start" and span.name == "solve":
            cancelled["flag"] = True

    with pytest.raises(FlowCancelled) as info:
        run_flow(build_fig1(), "milp-map", XC7, replace(FAST, narrow=False),
                 lint=False,
                 tracer=Tracer(listener=on_phase,
                               cancel=lambda: cancelled["flag"]))
    assert info.value.phase == "verify"


def test_run_flow_cancel_stops_before_the_solve_it_has_not_entered():
    """Every span is a checkpoint: a cancel raised while the MILP is being
    built stops the flow before presolve, so the solve never runs."""
    from repro.errors import FlowCancelled

    cancelled = {"flag": False}

    def on_phase(event: str, span) -> None:
        if event == "start" and span.name == "milp-build":
            cancelled["flag"] = True

    tracer = Tracer(listener=on_phase, cancel=lambda: cancelled["flag"])
    with pytest.raises(FlowCancelled) as info:
        run_flow(BENCHMARKS["GSM"].build(), "milp-map", XC7, FAST,
                 tracer=tracer)
    assert info.value.phase == "presolve"
    assert tracer.count("milp-build") == 1
    assert tracer.count("solve") == 0


def test_run_flow_cancel_during_partition_leaves_no_pool_workers():
    """Cancelling during a partitioned solve must never orphan the
    per-subgraph process pool: the running phase completes (joining its
    pool) before FlowCancelled surfaces at the next checkpoint."""
    import multiprocessing

    from repro.errors import FlowCancelled

    cancelled = {"flag": False}

    def on_phase(event: str, span) -> None:
        if event == "start" and span.name == "subgraph-solve":
            cancelled["flag"] = True

    config = replace(FAST, partition=True, partition_size=12,
                     partition_rounds=1, narrow=False)
    with pytest.raises(FlowCancelled) as info:
        run_flow(BENCHMARKS["GFMUL"].build(), "milp-map", XC7, config,
                 lint=False, jobs=2,
                 tracer=Tracer(listener=on_phase,
                               cancel=lambda: cancelled["flag"]))
    # The subgraph pool ran to completion (workers joined), then the
    # stitch span observed the flag. FlowCancelled is not a
    # SchedulingError, so no narrow-fallback retry can swallow it.
    assert info.value.phase == "stitch"
    assert multiprocessing.active_children() == []


def test_every_span_a_flow_opens_is_a_canonical_name(tmp_path):
    """Each span name is a possible FlowCancelled.phase and NDJSON phase,
    so all of them must be in SPAN_NAMES."""
    from repro.runtime import SPAN_NAMES

    cache = FlowCache(str(tmp_path))
    tracer = Tracer()
    for method in ALL_METHODS:
        run_flow(BENCHMARKS["GSM"].build(), method, XC7, FAST, cache=cache,
                 tracer=tracer)
    run_flow(BENCHMARKS["GFMUL"].build(), "milp-map", XC7,
             replace(FAST, partition=True, partition_size=12,
                     partition_rounds=1), tracer=tracer)
    run_flow(BENCHMARKS["GSM"].build(), "milp-map", XC7, FAST,
             validate=True, tracer=tracer)
    opened = {span.name for span in tracer.spans}
    assert {"cache-load", "cache-store", "schedule", "map", "solve",
            "partition-cut", "subgraph-solve", "stitch", "equiv",
            "miter"} <= opened
    assert opened <= set(SPAN_NAMES)


# ----------------------------------------------------------------------
# FlowCache atomicity under concurrent same-fingerprint writers
# ----------------------------------------------------------------------
def _hammer_store(task):
    """Store one fingerprint repeatedly with a recognizable design tag."""
    cache_dir, tag, rounds = task
    from repro.runtime import FlowCache

    cache = FlowCache(cache_dir)
    flow = run_flow(build_fig1(), "heur-map", XC7, FAST, lint=False)
    fp = flow_fingerprint(build_fig1(), "heur-map", XC7, FAST)
    for _ in range(rounds):
        cache.store(fp, flow, design=tag * 2000, method="heur-map")
    return tag


def test_flow_cache_concurrent_stores_never_tear(tmp_path):
    """Two processes writing the same cache entry must never expose a
    torn file: stores go through mkstemp + os.replace, so every read
    sees exactly one writer's complete JSON (last writer wins)."""
    import multiprocessing

    cache_dir = str(tmp_path)
    fp = flow_fingerprint(build_fig1(), "heur-map", XC7, FAST)
    path = FlowCache(cache_dir).path_for(fp)

    ctx = multiprocessing.get_context()
    procs = [ctx.Process(target=_hammer_store,
                         args=((cache_dir, tag, 40),))
             for tag in ("A", "B")]
    for p in procs:
        p.start()
    reads = 0
    try:
        import os

        while any(p.is_alive() for p in procs):
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    data = json.load(handle)  # a torn write would raise
                assert data["fingerprint"] == fp
                assert data["design"][0] in ("A", "B")
                assert data["design"] == data["design"][0] * 2000
                reads += 1
    finally:
        for p in procs:
            p.join(timeout=60)
    assert all(p.exitcode == 0 for p in procs)
    assert reads > 0, "reader never observed the cache file"
    # And the surviving entry is a loadable flow result.
    survivor = FlowCache(cache_dir).load(fp)
    assert survivor is not None


# ----------------------------------------------------------------------
# Regression: narrowing can make a cone constant (seed 2563)
# ----------------------------------------------------------------------
def test_constant_cone_after_narrowing_replays_and_emits():
    """Seed 2563: narrowing shrinks a SHR operand below the shift amount,
    so the cone's output is a constant and its selected cut has an empty
    boundary. Replay must not demand wire timing for operands the cut
    proved independent of, and the RTL emitter must substitute a constant
    instead of recursing out of the cone."""
    import random as _random

    rng = _random.Random(2563)
    stream = [{f"i{k}": rng.randrange(1 << 8) for k in range(3)}
              for _ in range(12)]
    graph = random_dfg(2563, ops=10, width=8, inputs=3, recurrences=1)
    flow = run_flow(graph, "milp-map", XC7,
                    SchedulerConfig(ii=1, tcp=10.0, time_limit=20,
                                    max_cuts=6, narrow=True))
    assert replay_equivalent(flow.schedule, XC7, stream)
    if flow.schedule.ii == 1:
        assert lint_verilog(emit_verilog(flow.schedule)) == []


# ----------------------------------------------------------------------
# CLI wiring sanity: benchmark registry stays addressable by task workers
# ----------------------------------------------------------------------
def test_benchmark_names_roundtrip_through_tasks():
    for name in BENCHMARKS:
        assert name == name.upper()


# ----------------------------------------------------------------------
# Serialization round-trips, property-tested over *fuzzed* schedules
# (not just benchmark ones): any schedule the flows can produce must
# survive dict -> JSON -> dict byte-exactly.
# ----------------------------------------------------------------------
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.fuzz import generate_case  # noqa: E402
from repro.ir.serialize import cut_from_dict, cut_to_dict  # noqa: E402


def _fuzzed_flow(seed: int):
    case = generate_case(seed)
    return run_flow(case.graph, "heur-map", XC7, FAST, lint=False)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=60))
def test_fuzzed_schedule_roundtrips_exactly(seed):
    sched = _fuzzed_flow(seed).schedule
    wire = json.loads(json.dumps(schedule_to_dict(sched)))
    assert schedule_to_dict(schedule_from_dict(wire)) \
        == schedule_to_dict(sched)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=60))
def test_fuzzed_cuts_roundtrip_exactly(seed):
    sched = _fuzzed_flow(seed).schedule
    assert sched.cover, "heur-map schedules must carry a cover"
    for cut in sched.cover.values():
        wire = json.loads(json.dumps(cut_to_dict(cut)))
        assert cut_from_dict(wire) == cut


def test_paper_sized_result_roundtrips_through_the_cache(tmp_path):
    """A paper-sized flow (1024 nodes) is stored and reloaded whole: the
    warm schedule, cover included, serializes to the same document."""
    cache = FlowCache(str(tmp_path))
    cold = run_flow(FULLSIZE["XORR512"].build(), "heur-map", XC7,
                    cache=cache)
    warm = run_flow(FULLSIZE["XORR512"].build(), "heur-map", XC7,
                    cache=cache)
    assert not cold.cached and warm.cached
    assert schedule_to_dict(warm.schedule) == schedule_to_dict(cold.schedule)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=60))
def test_fuzzed_hardware_report_roundtrips(seed):
    report = _fuzzed_flow(seed).report
    wire = json.loads(json.dumps(report.to_dict()))
    assert HardwareReport.from_dict(wire) == report
