"""Command line of the end-to-end benchmark.

    python -m benchmarks.e2e run [--workload W ...] [--seed N] [--repeat K]
                                 [--seconds S] [--output FILE] [--smoke]
    python -m benchmarks.e2e trace [--workload W ...] [--seed N]
                                   [--seconds S] [--smoke]
    python -m benchmarks.e2e compare A.json B.json

``run`` prints every end-to-end metric as ``workload metric value unit``
and, with ``--output``, records the runs for ``compare``. ``trace``
prints the per-layer metrics the same way and writes each workload's
spans as Chrome trace-event JSON under ``.e2e_bench/``. ``compare`` gives
a verdict per workload and metric (:mod:`benchmarks.e2e.compare`).

:func:`contract_main` is the single-run form behind ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .compare import compare_runs, format_rows
from .harness import (WORK_DIR, BenchError, Outcome, load_catalog,
                      result_line, run_workload)
from .spans import chrome_events
from .workloads import WORKLOADS

RUNS_SCHEMA = "repro-e2e-runs/v1"


def _write_chrome(outcome: Outcome, seed: int) -> str:
    path = WORK_DIR / f"{outcome.workload}-seed{seed}.trace.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_events(outcome.spans, outcome.pid), handle)
    return str(path)


def _run_one(workload: str, seed: int, seconds: float, trace: bool,
             smoke: bool, catalog: dict[str, Any]) -> dict[str, Any]:
    print(f"e2e: {workload} seed={seed} seconds={seconds:g}"
          f"{' trace' if trace else ''}", file=sys.stderr, flush=True)
    outcome = run_workload(workload, seed, seconds, trace=trace, smoke=smoke)
    for failure in outcome.failures[:20]:
        print(f"e2e: FAILED {failure}", file=sys.stderr)
    if trace:
        path = _write_chrome(outcome, seed)
        print(f"e2e: wrote {path}", file=sys.stderr)
    return result_line(outcome, catalog, trace)


def contract_main(argv: list[str] | None = None) -> int:
    """One workload, one seed: the last stdout line is the result JSON.

    Exit 0 when every output checked correct, 1 when some did not, 2
    without a result when the benchmark cannot run at all.
    """
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        line = _run_one(args.workload, args.seed, args.seconds,
                        bool(args.trace), False, load_catalog())
    except (BenchError, OSError, ImportError) as exc:
        print(f"e2e: cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def _print_lines(workload: str, line: dict[str, Any]) -> None:
    for name, metric in line["metrics"].items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{workload} fail_frac {line['failed'] / line['attempted']:.6g} "
          f"ratio")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        p = sub.add_parser(name)
        p.add_argument("--workload", action="append", choices=list(WORKLOADS),
                       help="repeatable; default: every workload")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=float, default=None,
                       help="measured seconds per run (default: "
                            "BENCHMARK.json run_seconds)")
        p.add_argument("--smoke", action="store_true",
                       help="cut every workload to a few seconds")
        if name == "run":
            p.add_argument("--repeat", type=int, default=1,
                           help="runs per workload, on seeds N, N+1, ...")
            p.add_argument("--output", metavar="FILE",
                           help="record the runs as JSON for compare")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)

    catalog = load_catalog()
    if args.command == "compare":
        runs = []
        for path in (args.a, args.b):
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            if data.get("schema") != RUNS_SCHEMA:
                print(f"e2e: {path} is not a {RUNS_SCHEMA} file",
                      file=sys.stderr)
                return 2
            runs.append(data["runs"])
        rows = compare_runs(runs[0], runs[1], catalog)
        print(format_rows(rows))
        return 1 if any(r.verdict in ("worse", "unresolved")
                        for r in rows) else 0

    seconds = args.seconds or catalog["run_seconds"]
    trace = args.command == "trace"
    records = []
    failed = 0
    try:
        for workload in args.workload or list(WORKLOADS):
            for seed in range(args.seed, args.seed + getattr(args, "repeat",
                                                              1)):
                line = _run_one(workload, seed, seconds, trace, args.smoke,
                                catalog)
                _print_lines(workload, line)
                failed += line["failed"]
                records.append({"workload": workload, "seed": seed,
                                "attempted": line["attempted"],
                                "failed": line["failed"],
                                "metrics": {k: v["value"] for k, v in
                                            line["metrics"].items()}})
    except BenchError as exc:
        print(f"e2e: cannot run: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump({"schema": RUNS_SCHEMA, "seconds": seconds,
                       "runs": records}, handle, indent=1)
    return 1 if failed else 0
