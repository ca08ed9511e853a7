"""Harness side of the benchmark: spawn the program, time it, check it.

:func:`run_workload` runs one workload in fresh program processes
(:mod:`benchmarks.e2e.program`) and returns every metric it measured.
Set-up is timed from spawn to ready, several times per run; the workload
itself is timed around the program's public entry points. Every timing
metric is in reference seconds (:mod:`.speed`), which cancel the host's
changing speed. The outputs
are checked outside the timed region by simulating every distinct
returned schedule against the *original* generated graph.

A trace run records layer spans in the program (:mod:`.spans`) and
reports per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from . import spans, speed
from .program import canonical_schedule
from .speed import now
from .workloads import OPEN_RATE, WORKLOADS, Case, batch_flows, svc_traffic

__all__ = ["ROOT", "WORK_DIR", "BenchError", "Outcome", "run_workload",
           "result_line", "load_catalog", "check_result"]

ROOT = Path(__file__).resolve().parents[2]
#: Scratch space inside the checkout: service caches and trace files.
WORK_DIR = ROOT / ".e2e_bench"
#: Program processes spawned per untraced run to time set-up.
SETUP_SPAWNS = 5
#: Seconds one program process may take before it is killed.
PROGRAM_TIMEOUT = 150.0
#: Open-loop latency limit behind ``service.slo_frac``.
SLO_S = 1.0
#: Per-layer metrics the svc client measures rather than the spans.
SERVICE_METRICS = (
    "service.latency_p50_s", "service.latency_p95_s",
    "service.queue_wait_p50_s", "service.run_p50_s",
    "service.submit_rtt_p50_s", "service.slo_frac", "service.dedup",
    "service.rejected", "loadgen.late_max_s")


class BenchError(Exception):
    """The benchmark could not run (not a failed operation)."""


@dataclass
class Outcome:
    """Everything one run of one workload measured."""

    workload: str
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Raw spans of a traced run, for :func:`spans.chrome_events`.
    spans: list[list] = field(default_factory=list)
    pid: int = 0
    #: Seconds recording one span adds to a call, measured by the program.
    span_cost_s: float = 0.0
    #: Batch: mean wall of a pass; svc: the client's measured window.
    traced_wall_s: float = 0.0


def load_catalog() -> dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- program processes ------------------------------------------------------
@dataclass
class _Program:
    proc: subprocess.Popen
    #: :func:`speed.now` stamps at spawn and at ready.
    setup: tuple[float, float]
    port: int | None

    def finish(self, request: str) -> dict[str, Any] | None:
        """Send the work (none: ``""``), wait for the exit, and return the
        program's report (none when it was given no work)."""
        try:
            out, _ = self.proc.communicate(request, timeout=PROGRAM_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"program ran past {PROGRAM_TIMEOUT:.0f}s") \
                from exc
        if self.proc.returncode != 0:
            raise BenchError(f"program exited with {self.proc.returncode}")
        if not out.strip():
            if request:
                raise BenchError("program reported nothing")
            return None
        return json.loads(out.strip().splitlines()[-1])


@contextlib.contextmanager
def _spawn(mode: str, trace: bool = False,
           extra: tuple[str, ...] = ()) -> Iterator[_Program]:
    command = [sys.executable, "-m", "benchmarks.e2e.program", mode, *extra]
    if trace:
        command.append("--trace")
    path = [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    # A fixed hash seed: the iteration order of sets and dicts of strings
    # steers the program's search, and a random one per process spread
    # paper-heuristic's suite_s by 8% (2.6% with the seed fixed).
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p),
           "PYTHONHASHSEED": "0"}
    t0 = now()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline().split()
        if not line or line[0] != "ready":
            raise BenchError(f"the {mode} program exited before it was ready")
        port = int(line[1]) if mode == "svc" else None
        if port is not None:
            _await_health(port)
        yield _Program(proc, (t0, now()), port)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def _await_health(port: int) -> None:
    from repro.service import ServiceClient

    client = ServiceClient(port=port, timeout=5.0)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        with contextlib.suppress(OSError):
            if client.health()[0] == 200:
                return
        time.sleep(0.005)
    raise BenchError("the service never answered /healthz")


@contextlib.contextmanager
def _monitored() -> Iterator[speed.Monitor]:
    """Pin the run to one CPU and sample that CPU's speed meanwhile."""
    with speed.pinned(), speed.Monitor() as monitor:
        yield monitor
    if not monitor.samples:
        raise BenchError("the speed monitor recorded no sample")


def _setup_probes(mode: str, make_extra=tuple) -> list[tuple[float, float]]:
    """Spawn-to-ready stamps of processes that exit without any work."""
    setups = []
    for _ in range(SETUP_SPAWNS - 1):
        with _spawn(mode, extra=make_extra()) as program:
            program.finish("")
            setups.append(program.setup)
    return setups


# -- correctness ------------------------------------------------------------
def check_result(case: Case, schedule: dict[str, Any]) -> str | None:
    """``None`` when the returned schedule, replayed cycle by cycle,
    computes what the original generated graph computes."""
    from repro.ir.serialize import schedule_from_dict
    from repro.sim.functional import FunctionalSimulator
    from repro.sim.pipeline import PipelineSimulator
    from repro.tech.device import XC7

    try:
        golden = FunctionalSimulator(case.graph, case.make_env()) \
            .run(case.stimulus)
        piped = PipelineSimulator(schedule_from_dict(schedule), XC7,
                                  case.make_env()).run(case.stimulus)
    except Exception as exc:  # noqa: BLE001 - any exception fails the check
        return f"{type(exc).__name__}: {exc}"
    if golden != piped:
        return "pipelined outputs differ from the original graph"
    return None


# -- workloads --------------------------------------------------------------
def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _run_batch(workload: str, seed: int, seconds: float, smoke: bool,
               trace: bool, probes: bool) -> Outcome:
    flows = batch_flows(workload, seed, smoke)
    request = json.dumps({"seconds": seconds,
                          "flows": [flow.request() for flow in flows]})
    with _monitored() as monitor:
        setups = _setup_probes("batch") if probes else []
        with _spawn("batch", trace) as program:
            setups.append(program.setup)
            out = program.finish(request)

    outcome = Outcome(workload, spans=out.get("spans", []), pid=out["pid"],
                      span_cost_s=out.get("span_cost_s", 0.0))
    walls = [[t1 - t0 for t0, t1 in r["stamps"]] for r in out["flows"]]
    refs = [[monitor.scaled(t0, t1) for t0, t1 in r["stamps"]]
            for r in out["flows"]]
    luts = ffs = 0
    for flow, record in zip(flows, out["flows"]):
        outcome.attempted += len(record["stamps"])
        outcome.failed += len(record["errors"])
        outcome.failures += [f"{flow.name}: {e}" for e in record["errors"]]
        for result in record["results"]:
            problem = check_result(flow.case, result["schedule"])
            if problem is None and result["equiv_ok"] is False:
                problem = "equivalence validation failed"
            if problem is not None:
                outcome.failed += result["count"]
                outcome.failures.append(f"{flow.name}: {problem}")
        if record["results"]:
            luts += record["results"][0]["report"]["luts"]
            ffs += record["results"][0]["report"]["ffs"]

    passes = [sum(pass_) for pass_ in zip(*walls)]
    outcome.traced_wall_s = statistics.fmean(passes)
    outcome.metrics = {
        "setup_s": statistics.median(monitor.scaled(*s) for s in setups),
        "peak_rss_mb": out["peak_rss_mb"],
        "suite_s": statistics.median(sum(pass_) for pass_ in zip(*refs)),
        # Each flow's median over the passes drops the passes a
        # collection pause happened to hit.
        "op_geomean_s": statistics.geometric_mean(
            statistics.median(flow) for flow in refs),
        "lut_total": luts,
        "ff_total": ffs,
        "passes": len(passes),
    }
    return outcome


def _run_svc(seed: int, seconds: float, trace: bool,
             probes: bool) -> Outcome:
    from repro.service import ServiceClient

    from .clients import closed_loop, open_loop

    traffic = svc_traffic(seed, seconds)
    caches: list[Path] = []

    def fresh_cache() -> tuple[str, ...]:
        caches.append(WORK_DIR / f"svc-cache-{os.getpid()}-{len(caches)}")
        return ("--cache-dir", str(caches[-1]))

    try:
        with _monitored() as monitor:
            setups = _setup_probes("svc", fresh_cache) if probes else []
            with _spawn("svc", trace, fresh_cache()) as program:
                setups.append(program.setup)
                client = ServiceClient(port=program.port)
                t0 = time.perf_counter()
                opened = open_loop(client, traffic.payloads,
                                   traffic.open_loop, OPEN_RATE)
                closed = closed_loop(client, traffic.payloads,
                                     traffic.closed_loop)
                wall = time.perf_counter() - t0
                out = program.finish("")
    finally:
        for cache in caches:
            shutil.rmtree(cache, ignore_errors=True)

    outcome = Outcome("svc-mixed", spans=out.get("spans", []),
                      pid=out["pid"], span_cost_s=out.get("span_cost_s", 0.0),
                      traced_wall_s=wall)
    subs = opened + closed
    outcome.attempted = len(subs)
    checked: dict[tuple[int, str], str | None] = {}
    areas: dict[int, tuple[int, int]] = {}
    for sub in subs:
        problem = sub.error
        if problem is None:
            result = sub.document["result"]
            key = (sub.payload, canonical_schedule(result["schedule"]))
            if key not in checked:
                checked[key] = check_result(traffic.cases[sub.payload],
                                            result["schedule"])
            problem = checked[key]
            report = result["report"]
            areas.setdefault(sub.payload, (report["luts"], report["ffs"]))
        if problem is not None:
            outcome.failed += 1
            outcome.failures.append(f"payload {sub.payload}: {problem}")

    done = [s.document for s in subs if s.done]
    latencies = [s.document["finished"] - s.due for s in opened if s.done]
    # Closed-loop jobs run one at a time, so they never queue or share the
    # interpreter lock with another job. Open-loop latency also depends on
    # which arrivals overlapped (25-30% spread from run to run), so it is
    # reported per layer.
    closed_s = [monitor.scaled(*s.span) for s in closed]
    closed_latencies = [t for s, t in zip(closed, closed_s) if s.done]
    if not latencies or not closed_latencies:
        raise BenchError("no service job completed")
    outcome.metrics = {
        "setup_s": statistics.median(monitor.scaled(*s) for s in setups),
        "peak_rss_mb": out["peak_rss_mb"],
        "suite_s": sum(closed_s),
        "op_geomean_s": statistics.geometric_mean(closed_latencies),
        "lut_total": sum(luts for luts, _ in areas.values()),
        "ff_total": sum(ffs for _, ffs in areas.values()),
        "service.latency_p50_s": statistics.median(latencies),
        "service.latency_p95_s": _percentile(latencies, 0.95),
        "service.queue_wait_p50_s": statistics.median(
            d["started"] - d["created"] for d in done),
        "service.run_p50_s": statistics.median(
            d["finished"] - d["started"] for d in done),
        "service.submit_rtt_p50_s": statistics.median(
            s.rtt for s in subs if s.job_id is not None),
        "service.slo_frac": sum(lat <= SLO_S for lat in latencies)
        / len(opened),
        "service.dedup": sum(s.deduped for s in subs),
        "service.rejected": sum(s.refused for s in subs),
        "loadgen.late_max_s": max(s.sent - s.due for s in opened),
    }
    return outcome


def _layer_metrics(traced: Outcome) -> dict[str, float]:
    """Per-layer metrics of a traced run; batch values are per pass."""
    agg = spans.aggregate(traced.spans)
    per = traced.metrics.get("passes", 1)

    def value(name: str, key: str = "self_s") -> float:
        return agg.get(name, {}).get(key, 0) / per

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {f"{name}.self_s": value(name) for name in (
        "lint", "narrow", "validate", "cutenum", "cutprune", "milp_build",
        "extract", "presolve", "solve", "heuristic", "hls", "horizon", "map",
        "verify", "evaluate", "equiv", "fingerprint", "flow")}
    metrics.update({f"{name}.calls": value(name, "calls") for name in (
        "lint", "solve", "heuristic", "fingerprint", "flow")})
    hits, misses = value("cache.load", "hits"), value("cache.load", "misses")
    metrics.update({
        "narrow.nodes_removed": value("narrow", "nodes_removed"),
        "cutenum.candidates": value("cutenum", "candidates"),
        "cutenum.kept": value("cutenum", "kept"),
        "cutenum.keep_ratio": ratio(value("cutenum", "kept"),
                                    value("cutenum", "candidates")),
        "cutprune.pruned": value("cutprune", "pruned"),
        "milp_build.rows": value("milp_build", "rows"),
        "milp_build.cols": value("milp_build", "cols"),
        "presolve.rows_dropped": value("presolve", "rows_dropped"),
        "presolve.infeasible": value("presolve", "infeasible"),
        "solve.optimal_frac": ratio(value("solve", "optimal"),
                                    value("solve", "calls")),
        "solve.nodes": value("solve", "nodes"),
        "partition.cut_self_s": value("partition.cut"),
        "partition.extract_self_s": value("partition.extract"),
        "partition.subsolve_self_s": value("partition.subsolve"),
        "partition.subsolve_calls": value("partition.subsolve", "calls"),
        "partition.stitch_self_s": value("partition.stitch"),
        "partition.boundary_bits": value("partition.stitch",
                                         "boundary_bits"),
        "equiv.stages_proved": value("equiv", "stages_proved"),
        "equiv.sat_conflicts": value("equiv", "sat_conflicts"),
        "cache.load_self_s": value("cache.load"),
        "cache.store_self_s": value("cache.store"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": ratio(hits, hits + misses),
        "serialize.self_s": value("serialize.graph_from_dict")
        + value("serialize.schedule_to_dict"),
        "bench.traced_wall_s": traced.traced_wall_s,
        # What recording added: spans times the measured cost of one.
        "bench.trace_overhead_frac": len(traced.spans) / per
        * traced.span_cost_s / traced.traced_wall_s,
    })
    # Client-side service numbers; batch workloads have none.
    metrics.update({name: traced.metrics.get(name, 0.0)
                    for name in SERVICE_METRICS})
    return metrics


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool = False, smoke: bool = False) -> Outcome:
    """One run of ``workload``: its end-to-end metrics, or with ``trace``
    its per-layer metrics from a traced run."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; expected one of "
                         f"{', '.join(WORKLOADS)}")
    WORK_DIR.mkdir(exist_ok=True)
    # Set-up is an end-to-end metric, timed only in untraced runs.
    if WORKLOADS[workload] == "svc":
        outcome = _run_svc(seed, seconds, trace, probes=not trace)
    else:
        outcome = _run_batch(workload, seed, seconds, smoke, trace,
                             probes=not trace)
    if trace:
        outcome.metrics = _layer_metrics(outcome)
    return outcome


def result_line(outcome: Outcome, catalog: dict[str, Any],
                trace: bool) -> dict[str, Any]:
    """The JSON object a run prints last: its metrics with their units."""
    declared = catalog["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in outcome.metrics]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": outcome.metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
