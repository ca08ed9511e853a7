"""The program under test, run by the harness in a process of its own.

    python -m benchmarks.e2e.program batch [--trace]
    python -m benchmarks.e2e.program svc --cache-dir DIR [--trace]

Both modes import the program, make the first HiGHS call, and then print
``ready`` (``ready <port>`` for svc): the harness times set-up from spawn
to that line (svc: to ``/healthz`` answering 200). A process whose stdin
closes before it receives any work exits at once, which is how the
harness repeats set-up without running the workload.

``batch`` reads ``{"seconds": S, "flows": [...]}`` from stdin, runs
:func:`repro.experiments.run_flow` over the flow list pass after pass
until the next pass would overrun ``S`` (always at least one pass), and
prints one JSON line with the start and end stamp of every flow run
(:func:`benchmarks.e2e.speed.now`), the distinct results of every flow,
and peak RSS. ``svc`` serves a
:class:`repro.service.SchedulingService` with two worker shards over HTTP
until stdin closes, then prints peak RSS. ``--trace`` records layer spans
(:mod:`benchmarks.e2e.spans`) and adds them to the output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

from .speed import now


def _warm_highs() -> None:
    """Make the first HiGHS call, whose library loading belongs to set-up."""
    from repro.milp.model import Model

    model = Model("warmup")
    x = model.binary("x")
    model.add(x <= 1)
    model.minimize(x)
    model.solve()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _recorder(trace: bool):
    if not trace:
        return None
    from .spans import Recorder, install

    recorder = Recorder()
    install(recorder)
    return recorder


def _emit(document: dict) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


def canonical_schedule(schedule: dict) -> str:
    """A serialized schedule without its wall-clock field, for dedupe."""
    return json.dumps({k: v for k, v in schedule.items()
                       if k != "solve_seconds"}, sort_keys=True)


def run_batch(trace: bool) -> int:
    _warm_highs()
    recorder = _recorder(trace)
    # Imported after the spans are installed, so these are the wrappers.
    from repro.core.config import SchedulerConfig
    from repro.experiments.flows import run_flow
    from repro.ir.serialize import graph_from_dict, schedule_to_dict

    print("ready", flush=True)
    text = sys.stdin.read()
    if not text.strip():
        return 0
    spec = json.loads(text)
    flows = [(flow["design"], graph_from_dict(flow["graph"]), flow["method"],
              SchedulerConfig(**flow["config"]), flow["validate"] or None)
             for flow in spec["flows"]]

    passes: list[float] = []
    stamps: list[list[tuple[float, float]]] = [[] for _ in flows]
    errors: list[list[str]] = [[] for _ in flows]
    results: list[list] = [[] for _ in flows]
    if recorder is not None:
        recorder.enabled = True
    start = now()
    while True:
        t_pass = now()
        for i, (design, graph, method, config, validate) in enumerate(flows):
            t0 = now()
            try:
                result = run_flow(graph, method, config=config,
                                  design=design, validate=validate)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                errors[i].append(f"{type(exc).__name__}: {exc}")
                result = None
            stamps[i].append((t0, now()))
            results[i].append(result)
        t_end = now()
        passes.append(t_end - t_pass)
        if t_end - start + statistics.median(passes) > spec["seconds"]:
            break
    if recorder is not None:
        recorder.enabled = False

    out_flows = []
    for i in range(len(flows)):
        distinct: dict[str, dict] = {}
        for result in results[i]:
            if result is None:
                continue
            schedule = schedule_to_dict(result.schedule)
            equiv_ok = None if result.equiv is None else result.equiv.ok
            entry = distinct.setdefault(canonical_schedule(schedule), {
                "schedule": schedule, "report": result.report.to_dict(),
                "equiv_ok": equiv_ok, "count": 0})
            entry["count"] += 1
        out_flows.append({"stamps": stamps[i], "errors": errors[i],
                          "results": list(distinct.values())})
    document = {"flows": out_flows, "peak_rss_mb": _peak_rss_mb(),
                "pid": os.getpid()}
    _emit(_with_spans(document, recorder))
    return 0


def _with_spans(document: dict, recorder) -> dict:
    if recorder is not None:
        document["spans"] = recorder.export()
        document["span_cost_s"] = recorder.span_cost()
    return document


def run_svc(cache_dir: str, trace: bool) -> int:
    from repro.service import SchedulingService, ServiceServer

    _warm_highs()
    recorder = _recorder(trace)
    service = SchedulingService(workers=2, cache=cache_dir).start()
    server = ServiceServer(service, port=0).serve_in_thread()
    if recorder is not None:
        recorder.enabled = True
    print(f"ready {server.port}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.stop()
        service.shutdown()
    if recorder is not None:
        recorder.enabled = False
    _emit(_with_spans({"peak_rss_mb": _peak_rss_mb(), "pid": os.getpid()},
                      recorder))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.program")
    parser.add_argument("mode", choices=["batch", "svc"])
    parser.add_argument("--cache-dir")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "batch":
        return run_batch(args.trace)
    return run_svc(args.cache_dir, args.trace)


if __name__ == "__main__":
    sys.exit(main())
