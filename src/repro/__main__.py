"""Command-line entry point: regenerate the paper's evaluation artifacts
and lint designs with the static-analysis engine.

Usage::

    python -m repro table1 [DESIGN ...] [--device xc7|--k 4] [--no-narrow]
                           [--jobs N] [--cache-dir DIR]
    python -m repro table2 [DESIGN ...] [--jobs N] [--cache-dir DIR]
    python -m repro figure1
    python -m repro figure2
    python -m repro ablations [--jobs N] [--cache-dir DIR]
    python -m repro trace DESIGN [--method milp-map] [--cache-dir DIR]
                          [--format json]
    python -m repro list
    python -m repro lint [DESIGN|FILE ...] [--format json|sarif]
                         [--fail-on warning] [--baseline FILE]
    python -m repro equiv [DESIGN ...] [--stage narrow|cover|pipeline|rtl]
                          [--method milp-map] [--format json]
    python -m repro fuzz [--seeds N] [--time-budget S] [--oracles a,b]
                         [--jobs N] [--corpus-dir DIR] [--format json]
    python -m repro serve [--host H] [--port P] [--workers N]
                          [--queue-limit N] [--quota N] [--time-budget S]
                          [--cache-dir DIR] [--jobs N]
    python -m repro submit [DESIGN] [--graph FILE] [--method M]
                           [--host H] [--port P] [--no-watch]
                           [--load N [--output FILE]]

``--jobs N`` fans (design, method) tasks over a process pool with an
ordered merge — the output is byte-identical to the serial run.
``--cache-dir DIR`` enables the content-addressed flow cache: a warm
rerun of any experiment performs zero MILP solves. ``trace`` runs (or
replays from the cache) a single flow and dumps its per-phase spans; see
``docs/runtime.md``.

``lint`` accepts benchmark names (case-insensitive) and/or paths to
serialized CDFG JSON files; with no targets it lints all nine benchmarks.
It exits 1 when any report reaches the ``--fail-on`` threshold (default
``error``), making it directly usable as a CI gate; ``--baseline FILE``
subtracts previously recorded findings (written with ``--write-baseline``)
so only *new* diagnostics gate. Select/ignore patterns that match no
registered rule are a configuration error (exit 2). See
``docs/diagnostics.md`` for the code table and the JSON/SARIF schemas.

``--no-narrow`` on the experiment commands disables the dataflow-based
graph narrowing that otherwise runs before scheduling (see
``docs/dataflow.md``).

``equiv`` runs the symbolic translation validator (see
``docs/equivalence.md``): each flow stage — narrowing, cut cover,
pipelined replay, emitted Verilog — is miter-checked against the CDFG
semantics with BMC + k-induction. It exits 1 when any stage is refuted
(a confirmed counterexample) and prints the diverging input stream.

``fuzz`` runs the differential fuzzing campaign (see ``docs/fuzzing.md``):
coverage-directed random CDFGs cross-checked by pluggable oracles, with
divergences shrunk to minimal repros. It exits 1 when any oracle
diverges; ``--corpus-dir`` additionally writes the shrunk repros as
corpus entries the test suite replays.

``serve`` runs the scheduling-as-a-service job server (see
``docs/service.md``): an HTTP/JSON endpoint that dedupes submissions by
content fingerprint, fans them over sharded workers with per-client
quotas and bounded-queue backpressure, and streams per-phase progress.
``submit`` is its client: submit one design (or a serialized CDFG file)
and watch the live event stream, or drive the fuzz-sourced load
generator with ``--load N``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .core.config import SchedulerConfig
from .designs.registry import BENCHMARKS


def _config(args) -> SchedulerConfig:
    # Partition flags only exist on parsers that include the partition
    # parent; getattr keeps the other commands on the defaults.
    return SchedulerConfig(ii=args.ii, tcp=args.tcp, alpha=args.alpha,
                           beta=1.0 - args.alpha, time_limit=args.time_limit,
                           narrow=not args.no_narrow,
                           presolve=not args.no_presolve,
                           warm_start=not args.no_warm_start,
                           partition=getattr(args, "partition", False),
                           partition_size=getattr(args, "partition_size", 48),
                           partition_rounds=getattr(args, "partition_rounds",
                                                    2))


def _device(args):
    """Resolve ``--device``/``--k`` into a :class:`~repro.tech.device.Device`."""
    from .tech.device import TUTORIAL4, XC7

    base = {"xc7": XC7, "tutorial4": TUTORIAL4}[args.device]
    if args.k is not None:
        base = dataclasses.replace(base, k=args.k)
    return base


def _progress(verb: str):
    return lambda s: print(f"  {verb} {s}...", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mapping-aware modulo scheduling (DAC'15) experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sched = argparse.ArgumentParser(add_help=False)
    sched.add_argument("--tcp", type=float, default=10.0,
                       help="target clock period in ns (default 10)")
    sched.add_argument("--ii", type=int, default=1,
                       help="target initiation interval (default 1)")
    sched.add_argument("--alpha", type=float, default=0.5,
                       help="Eq. 15 LUT weight; FF weight is 1-alpha")
    sched.add_argument("--time-limit", type=float, default=120.0,
                       help="MILP solver cap in seconds (default 120)")
    sched.add_argument("--no-narrow", action="store_true",
                       help="disable dataflow-based graph narrowing before "
                            "scheduling (see docs/dataflow.md)")
    sched.add_argument("--no-presolve", action="store_true",
                       help="disable MILP presolve before solving "
                            "(see docs/performance.md)")
    sched.add_argument("--no-warm-start", action="store_true",
                       help="disable heuristic warm starts for the MILP "
                            "solves (see docs/performance.md)")

    partition = argparse.ArgumentParser(add_help=False)
    partition.add_argument("--partition", action="store_true",
                           help="solve by subgraph decomposition with "
                                "feedback-guided re-cuts "
                                "(milp-base/milp-map only; see "
                                "docs/partitioning.md)")
    partition.add_argument("--partition-size", type=int, default=48,
                           metavar="N",
                           help="target nodes per subgraph (default 48)")
    partition.add_argument("--partition-rounds", type=int, default=2,
                           metavar="R",
                           help="feedback re-cut rounds (default 2)")

    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=None, metavar="N",
                      help="fan tasks over N worker processes "
                           "(default: $REPRO_JOBS or 1 = serial)")

    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="content-addressed flow-result cache; warm "
                            "reruns perform zero MILP solves")

    def device_parent(default: str) -> argparse.ArgumentParser:
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument("--device", choices=["xc7", "tutorial4"],
                       default=default,
                       help=f"target device model (default {default})")
        p.add_argument("--k", type=int, default=None,
                       help="override the device's LUT input count K")
        return p

    p = sub.add_parser("table1",
                       parents=[sched, device_parent("xc7"), jobs, cache],
                       help="QoR comparison across the four flows (Table 1)")
    p.add_argument("designs", nargs="*",
                   help="benchmark subset (default: all nine)")

    p = sub.add_parser("table2",
                       parents=[sched, device_parent("xc7"), jobs, cache],
                       help="MILP sizes and solve times (Table 2)")
    p.add_argument("designs", nargs="*",
                   help="benchmark subset (default: all nine)")

    p = sub.add_parser("figure1", parents=[device_parent("tutorial4")],
                       help="the pipelining tutorial example (Figure 1)")
    p.add_argument("--tcp", type=float, default=5.0,
                   help="target clock period in ns (default 5)")

    sub.add_parser("figure2", parents=[device_parent("tutorial4")],
                   help="cut enumeration on the Figure 2 kernel")

    sub.add_parser("ablations",
                   parents=[sched, device_parent("xc7"), jobs, cache],
                   help="sensitivity sweeps (depth, alpha/beta, K, "
                        "heuristic, bit-blast)")

    p = sub.add_parser("trace",
                       parents=[sched, device_parent("xc7"), cache],
                       help="run (or replay from cache) one flow and dump "
                            "its per-phase trace spans")
    p.add_argument("design", help="benchmark name (see `repro list`)")
    p.add_argument("--method",
                   choices=["hls-tool", "milp-base", "milp-map", "heur-map"],
                   default="milp-map",
                   help="flow to trace (default milp-map)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="output format (default text)")

    p = sub.add_parser("schedule",
                       parents=[sched, partition, device_parent("xc7"),
                                jobs, cache],
                       help="schedule one design end-to-end, optionally "
                            "via subgraph decomposition "
                            "(see docs/partitioning.md)")
    p.add_argument("design",
                   help="benchmark or full-size design name "
                        "(see `repro list`)")
    p.add_argument("--method",
                   choices=["hls-tool", "milp-base", "milp-map", "heur-map"],
                   default="milp-map",
                   help="flow to run (default milp-map)")
    p.add_argument("--validate", action="store_true",
                   help="prove every flow stage with the miter/SAT "
                        "equivalence engine (see docs/equivalence.md)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="output format (default text)")

    sub.add_parser("list", help="list the registered benchmark designs")

    p = sub.add_parser("lint", parents=[device_parent("xc7")],
                       help="run the static-analysis rules over designs")
    p.add_argument("targets", nargs="*", metavar="DESIGN|FILE",
                   help="benchmark names and/or serialized CDFG JSON files "
                        "(default: all nine benchmarks)")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text",
                   help="output format (default text)")
    p.add_argument("--fail-on", choices=["error", "warning"],
                   default="error",
                   help="exit 1 when any finding reaches this severity "
                        "(default error)")
    p.add_argument("--select", action="append", default=[], metavar="CODE",
                   help="only run rules matching this code or prefix "
                        "(repeatable; e.g. IR, SCH003)")
    p.add_argument("--ignore", action="append", default=[], metavar="CODE",
                   help="skip rules matching this code or prefix (repeatable)")
    p.add_argument("--baseline", metavar="FILE",
                   help="suppress findings recorded in this baseline file; "
                        "only new diagnostics count toward --fail-on")
    p.add_argument("--write-baseline", metavar="FILE",
                   help="record all current findings to FILE and exit 0")

    p = sub.add_parser("serve", parents=[jobs, cache],
                       help="run the scheduling-as-a-service job server "
                            "(see docs/service.md)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8321,
                   help="TCP port (default 8321; 0 picks a free port)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="worker shard threads (default 2)")
    p.add_argument("--queue-limit", type=int, default=32, metavar="N",
                   help="max queued jobs before 429 (default 32)")
    p.add_argument("--quota", type=int, default=8, metavar="N",
                   help="max active jobs per client before 429 (default 8)")
    p.add_argument("--time-budget", type=float, default=None, metavar="S",
                   help="default per-job time budget in seconds "
                        "(jobs may set their own; default: none)")
    p.add_argument("--max-retries", type=int, default=1, metavar="N",
                   help="re-queue attempts after a worker crash (default 1)")

    p = sub.add_parser("submit",
                       parents=[sched, device_parent("xc7")],
                       help="submit a job to a running `repro serve` "
                            "endpoint and watch it")
    p.add_argument("design", nargs="?", default=None,
                   help="benchmark or full-size design name "
                        "(see `repro list`)")
    p.add_argument("--graph", default=None, metavar="FILE",
                   help="submit this serialized CDFG JSON file instead "
                        "of a registered design")
    p.add_argument("--method",
                   choices=["hls-tool", "milp-base", "milp-map", "heur-map"],
                   default="milp-map",
                   help="flow to run (default milp-map)")
    p.add_argument("--host", default="127.0.0.1",
                   help="server address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8321,
                   help="server port (default 8321)")
    p.add_argument("--client", default="cli", metavar="NAME",
                   help="client name for per-client quotas (default cli)")
    p.add_argument("--time-budget", type=float, default=None, metavar="S",
                   help="fail the job after S seconds of service time")
    p.add_argument("--no-watch", action="store_true",
                   help="print the job id and exit instead of streaming "
                        "events until completion")
    p.add_argument("--load", type=int, default=None, metavar="N",
                   help="load-generator mode: submit N fuzz-seeded jobs "
                        "and report throughput/latency")
    p.add_argument("--duration", type=float, default=None, metavar="S",
                   help="with --load: keep cycling the seeds for S "
                        "seconds (the CI smoke shape)")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="with --load: write the JSON load report here")

    p = sub.add_parser("equiv",
                       parents=[sched, device_parent("xc7"), cache],
                       help="prove every flow stage semantics-preserving "
                            "with the miter/SAT engine "
                            "(see docs/equivalence.md)")
    p.add_argument("designs", nargs="*",
                   help="benchmark subset (default: all nine)")
    p.add_argument("--method",
                   choices=["hls-tool", "milp-base", "milp-map", "heur-map"],
                   default="milp-map",
                   help="flow whose artifacts are validated "
                        "(default milp-map)")
    p.add_argument("--stage", action="append", default=[], metavar="STAGE",
                   choices=["narrow", "cover", "pipeline", "rtl"],
                   help="validate only this stage (repeatable; "
                        "default: all four)")
    p.add_argument("--frames", type=int, default=None, metavar="N",
                   help="BMC unrolling depth per miter (default 6)")
    p.add_argument("--induction-k", type=int, default=None, metavar="K",
                   help="maximum k-induction depth (default 2)")
    p.add_argument("--sat-conflicts", type=int, default=None, metavar="N",
                   help="CDCL conflict budget per goal (default 30000)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="output format (default text)")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="also write the full JSON report to FILE")

    p = sub.add_parser("fuzz",
                       parents=[sched, device_parent("xc7"), jobs],
                       help="differential fuzzing campaign over random "
                            "CDFGs (see docs/fuzzing.md)")
    p.add_argument("--seeds", type=int, default=50, metavar="N",
                   help="number of fuzz seeds to run (default 50)")
    p.add_argument("--seed-start", type=int, default=0, metavar="K",
                   help="first seed value (default 0)")
    p.add_argument("--time-budget", type=float, default=None, metavar="S",
                   help="stop dispatching new seeds after S seconds")
    p.add_argument("--oracles", default=None, metavar="a,b",
                   help="comma-separated oracle subset (default: all; see "
                        "docs/fuzzing.md for the catalog)")
    p.add_argument("--profiles", default=None, metavar="p,q",
                   help="comma-separated generator profile subset "
                        "(default: all, routed by seed)")
    p.add_argument("--mutate-rounds", type=int, default=1, metavar="R",
                   help="mutation rounds applied to odd seeds (default 1; "
                        "0 disables mutation)")
    p.add_argument("--no-shrink", action="store_true",
                   help="report divergences without minimizing them")
    p.add_argument("--corpus-dir", default=None, metavar="DIR",
                   help="write shrunk divergences as corpus entries here")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="summary format on stdout (default text)")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="also write the full JSON summary to FILE")
    return parser


def _cmd_lint(args) -> int:
    from .analysis import Linter

    linter = Linter(select=args.select or None, ignore=args.ignore or None)
    unmatched = linter.unmatched_patterns()
    if unmatched:
        print("repro lint: selector(s) match no registered rule: "
              + ", ".join(repr(p) for p in unmatched)
              + " (prefixes match codes, e.g. IR or DF001)",
              file=sys.stderr)
        return 2
    device = _device(args)
    targets = args.targets or list(BENCHMARKS)

    reports = []
    for target in targets:
        name = target.upper()
        if name in BENCHMARKS:
            graph = BENCHMARKS[name].build()
        elif os.path.exists(target):
            from .errors import ReproError
            from .ir.serialize import load_graph

            # check=False: structurally broken graphs should be *reported*
            # by the linter, not rejected before it runs.
            try:
                graph = load_graph(target, check=False)
            except (ReproError, ValueError, KeyError, OSError) as exc:
                print(f"repro lint: failed to load {target!r}: {exc}",
                      file=sys.stderr)
                return 2
        else:
            print(f"repro lint: unknown design or missing file {target!r}",
                  file=sys.stderr)
            return 2
        reports.append(linter.lint_graph(graph, device=device))

    if args.write_baseline:
        from .analysis.baseline import write_baseline

        count = write_baseline(args.write_baseline, reports)
        print(f"repro lint: recorded {count} fingerprint(s) to "
              f"{args.write_baseline}", file=sys.stderr)
        return 0
    if args.baseline:
        from .analysis.baseline import load_baseline, suppress
        from .errors import AnalysisError

        try:
            known = load_baseline(args.baseline)
        except (AnalysisError, ValueError, OSError) as exc:
            print(f"repro lint: failed to load baseline: {exc}",
                  file=sys.stderr)
            return 2
        reports = suppress(reports, known)

    failed = any(r.fails(args.fail_on) for r in reports)
    if args.format == "json":
        from .analysis import SCHEMA_VERSION

        print(json.dumps({
            "schema": SCHEMA_VERSION,
            "fail_on": args.fail_on,
            "failed": failed,
            "reports": [r.to_dict() for r in reports],
        }, indent=2))
    elif args.format == "sarif":
        from .analysis.sarif import to_sarif

        print(json.dumps(to_sarif(reports), indent=2))
    else:
        for report in reports:
            print(report.render_text())
    return 1 if failed else 0


def _cmd_trace(args) -> int:
    """Run (or replay from the cache) one flow and dump its trace."""
    from .experiments import run_flow
    from .runtime import TRACE_SCHEMA, FlowCache

    name = args.design.upper()
    if name not in BENCHMARKS:
        print(f"repro trace: unknown design {args.design!r}", file=sys.stderr)
        return 2
    cache = FlowCache(args.cache_dir) if args.cache_dir else None
    flow = run_flow(BENCHMARKS[name].build(), args.method,
                    device=_device(args), config=_config(args),
                    design=name, cache=cache)
    if args.format == "json":
        print(json.dumps({
            "schema": TRACE_SCHEMA,
            "design": name,
            "method": args.method,
            "cached": flow.cached,
            "fingerprint": flow.fingerprint,
            "source_graph": flow.source_graph,
            "report": flow.report.to_dict(),
            "spans": [s.to_dict() for s in flow.trace.spans],
        }, indent=2))
    else:
        state = "cache hit" if flow.cached else "computed"
        print(f"trace {name}:{args.method} ({state}, "
              f"graph={flow.source_graph})")
        print(flow.trace.render_text())
    return 0


def _cmd_schedule(args) -> int:
    """Run one flow on one design (Table 1 size or full-size variant)."""
    from .designs.fullsize import FULLSIZE
    from .experiments import run_flow
    from .runtime import FlowCache

    name = args.design.upper()
    spec = BENCHMARKS.get(name) or FULLSIZE.get(name)
    if spec is None:
        print(f"repro schedule: unknown design {args.design!r} "
              f"(see `repro list`)", file=sys.stderr)
        return 2
    if args.partition and args.method not in ("milp-base", "milp-map"):
        print(f"repro schedule: --partition requires milp-base or "
              f"milp-map, not {args.method}", file=sys.stderr)
        return 2
    cache = FlowCache(args.cache_dir) if args.cache_dir else None
    flow = run_flow(spec.build(), args.method, device=_device(args),
                    config=_config(args), design=name, cache=cache,
                    validate=True if args.validate else None,
                    jobs=args.jobs)
    report = flow.report

    partition_spans = [s for s in flow.trace.spans
                       if s.name in ("partition-cut", "stitch", "feedback")]
    equiv_ok = None if flow.equiv is None else flow.equiv.ok
    if args.format == "json":
        document = {
            "design": name,
            "method": args.method,
            "cached": flow.cached,
            "fingerprint": flow.fingerprint,
            "source_graph": flow.source_graph,
            "report": report.to_dict(),
            "partition": {
                "enabled": args.partition,
                "spans": [s.to_dict() for s in partition_spans],
            },
        }
        if flow.equiv is not None:
            document["equiv"] = flow.equiv.to_dict()
        print(json.dumps(document, indent=2))
    else:
        state = "cache hit" if flow.cached else "computed"
        print(f"schedule {name}:{args.method} ({state}, "
              f"graph={flow.source_graph})")
        print(f"  cp {report.cp:.2f} ns  luts {report.luts}  "
              f"ffs {report.ffs}  latency {report.latency}  "
              f"ii {report.ii}  solve {report.solve_seconds:.1f}s"
              + ("  optimal" if report.optimal else ""))
        for span in partition_spans:
            meta = {k: v for k, v in span.meta.items() if k != "cached"}
            print(f"  {span.name}: {meta}")
        if flow.equiv is not None:
            for v in flow.equiv.stages:
                print(f"  equiv {v.stage:8s} {v.status}")
    if equiv_ok is False:
        return 1
    return 0


def _cmd_equiv(args) -> int:
    """Validate flow stages symbolically; exit 1 on any refuted stage."""
    from .analysis.equiv import EQUIV_SCHEMA, EquivBudget, validate_flow
    from .errors import AnalysisError
    from .experiments import run_flow
    from .runtime import FlowCache

    designs = [d.upper() for d in args.designs] or list(BENCHMARKS)
    unknown = [d for d in designs if d not in BENCHMARKS]
    if unknown:
        print("repro equiv: unknown design(s): " + ", ".join(unknown),
              file=sys.stderr)
        return 2

    limits = {"max_frames": args.frames, "induction_k": args.induction_k,
              "sat_conflicts": args.sat_conflicts}
    try:
        budget = EquivBudget(**{name: value for name, value in limits.items()
                                if value is not None})
    except AnalysisError as exc:
        print(f"repro equiv: {exc}", file=sys.stderr)
        return 2
    stages = tuple(args.stage) or None
    cache = FlowCache(args.cache_dir) if args.cache_dir else None

    reports = []
    failed = False
    for name in designs:
        graph = BENCHMARKS[name].build()
        flow = run_flow(graph, args.method, device=_device(args),
                        config=_config(args), design=name, cache=cache)
        report = validate_flow(graph, flow.schedule, stages=stages,
                               budget=budget, tracer=flow.trace,
                               design=name, method=args.method)
        reports.append(report)
        failed = failed or not report.ok
        if args.format != "json":
            for v in report.stages:
                mark = {"proved": "ok  ", "bounded": "WARN",
                        "inequivalent": "FAIL", "unknown": "WARN",
                        "skipped": "skip", "error": "FAIL"}[v.status]
                print(f"  {mark} {name:8s} {v.stage:8s} {v.status:12s} "
                      f"{v.seconds:6.2f}s  {v.detail}")
                for note in v.notes:
                    print(f"       {' ' * 8} note: {note}")
                cex = v.counterexample
                if cex is not None and cex.stream:
                    print(f"       {' ' * 8} counterexample frame 0: "
                          f"{cex.stream[0]}")

    document = {
        "schema": EQUIV_SCHEMA,
        "method": args.method,
        "ok": not failed,
        "reports": [r.to_dict() for r in reports],
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
    elif not failed:
        print(f"repro equiv: all stages hold on "
              f"{', '.join(r.design for r in reports)}")
    return 1 if failed else 0


def _cmd_fuzz(args) -> int:
    from .fuzz import ORACLES, PROFILES, run_campaign

    oracles = tuple(args.oracles.split(",")) if args.oracles else None
    if oracles:
        unknown = [o for o in oracles if o not in ORACLES]
        if unknown:
            print("repro fuzz: unknown oracle(s): " + ", ".join(unknown)
                  + " (known: " + ", ".join(ORACLES) + ")", file=sys.stderr)
            return 2
    profiles = tuple(args.profiles.split(",")) if args.profiles else None
    if profiles:
        unknown = [p for p in profiles if p not in PROFILES]
        if unknown:
            print("repro fuzz: unknown profile(s): " + ", ".join(unknown)
                  + " (known: " + ", ".join(PROFILES) + ")", file=sys.stderr)
            return 2

    config = dataclasses.replace(_config(args), max_cuts=8)
    kwargs = {}
    if oracles:
        kwargs["oracles"] = oracles
    summary = run_campaign(
        seeds=args.seeds, seed_start=args.seed_start,
        profiles=profiles, time_budget=args.time_budget,
        jobs=args.jobs, device=_device(args), config=config,
        mutate_rounds=args.mutate_rounds,
        shrink_divergences=not args.no_shrink,
        corpus_dir=args.corpus_dir,
        progress=lambda t: print(f"  fuzzing seed {t.seed}...",
                                 file=sys.stderr),
        **kwargs)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(summary.to_dict(), fh, indent=2)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(summary.to_dict(), indent=2))
    else:
        counts = summary.counts()
        state = " (stopped early: time budget)" if summary.stopped_early \
            else ""
        print(f"fuzz: {len(summary.results)}/{summary.seeds_requested} "
              f"seeds{state}, oracles: {counts['pass']} pass, "
              f"{counts['skip']} skip, {counts['diverge']} diverge")
        for result in summary.results:
            for div in result["divergences"]:
                shrunk = div.get("shrunk")
                where = (f" [shrunk to {shrunk['nodes']} nodes, "
                         f"{shrunk['stimulus_len']} iterations]"
                         if shrunk else "")
                print(f"  DIVERGE seed {result['seed']} "
                      f"({result['profile']}) {div['oracle']}: "
                      f"{div['message']}{where}")
        for path in summary.corpus_files:
            print(f"  corpus entry written: {path}")
    return 1 if summary.divergences else 0


def _cmd_serve(args) -> int:
    import asyncio

    from .service import SchedulingService, ServiceServer

    service = SchedulingService(workers=args.workers,
                                queue_limit=args.queue_limit,
                                quota=args.quota,
                                cache=args.cache_dir,
                                flow_jobs=args.jobs,
                                max_retries=args.max_retries,
                                default_time_budget=args.time_budget)
    service.start()
    server = ServiceServer(service, host=args.host, port=args.port)

    async def _serve() -> None:
        await server.start()
        print(f"repro serve: listening on "
              f"http://{server.host}:{server.port} "
              f"({service.workers} worker shard(s), queue limit "
              f"{service.queue_limit}, quota {service.quota}/client"
              + (f", cache {args.cache_dir}" if args.cache_dir else "")
              + ")", file=sys.stderr)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        service.shutdown()
    return 0


def _cmd_submit(args) -> int:
    from .service import ServiceClient, job_payload
    from .service.loadgen import format_load, run_load

    client = ServiceClient(host=args.host, port=args.port)
    try:
        client.health()
    except OSError as exc:
        print(f"repro submit: no server at {args.host}:{args.port} "
              f"({exc}); start one with `repro serve`", file=sys.stderr)
        return 2

    if args.load is not None:
        report = run_load(client, seeds=range(args.load),
                          method=args.method, duration=args.duration,
                          progress=None if args.no_watch else
                          _progress("job"))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"repro submit: wrote {args.output}", file=sys.stderr)
        print(format_load(report))
        return 1 if report.failed else 0

    if (args.design is None) == (args.graph is None):
        print("repro submit: supply exactly one of DESIGN or --graph FILE",
              file=sys.stderr)
        return 2
    graph = None
    if args.graph is not None:
        try:
            with open(args.graph, encoding="utf-8") as fh:
                graph = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"repro submit: failed to load {args.graph!r}: {exc}",
                  file=sys.stderr)
            return 2
    payload = job_payload(design=args.design, graph=graph,
                          method=args.method, device=args.device,
                          config=dataclasses.asdict(_config(args)),
                          client=args.client, time_budget=args.time_budget)
    status, doc = client.submit(payload)
    if status not in (200, 202):
        print(f"repro submit: rejected ({status}): "
              f"{doc.get('message', doc)}", file=sys.stderr)
        return 1
    joined = " (joined in-flight job)" if doc.get("deduped") else ""
    print(f"submitted {doc['id']} "
          f"fingerprint {doc['fingerprint'][:12]}...{joined}",
          file=sys.stderr)
    if args.no_watch:
        print(doc["id"])
        return 0
    for event in client.events(doc["id"]):
        kind = event.get("event")
        if kind == "phase":
            suffix = (f" ({event['seconds'] * 1000:.1f} ms)"
                      if "seconds" in event else "")
            print(f"  {event['phase']} {event['status']}{suffix}",
                  file=sys.stderr)
        elif kind == "state":
            print(f"  -> {event['state']}", file=sys.stderr)
    final = client.wait(doc["id"])
    if final["state"] != "done":
        error = final.get("error") or {}
        print(f"repro submit: job {final['state']}: "
              f"{error.get('type', '')} {error.get('message', '')}",
              file=sys.stderr)
        return 1
    report = final["result"]["report"]
    print(f"done {doc['id']}: cp {report['cp']:.2f} ns  "
          f"luts {report['luts']}  ffs {report['ffs']}  "
          f"latency {report['latency']}  ii {report['ii']}"
          + ("  [cache hit]" if final["result"].get("cached") else ""))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        from .designs.fullsize import FULLSIZE

        for name, spec in BENCHMARKS.items():
            print(f"{name:8s} {spec.kind:12s} {spec.domain:22s} "
                  f"{spec.description}")
        for name, spec in FULLSIZE.items():
            print(f"{name:8s} full-size    {spec.domain:22s} "
                  f"{spec.description}")
        return 0

    if args.command == "lint":
        return _cmd_lint(args)

    if args.command == "equiv":
        return _cmd_equiv(args)

    if args.command == "fuzz":
        return _cmd_fuzz(args)

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "submit":
        return _cmd_submit(args)

    if args.command == "table1":
        from .experiments import format_table1, run_table1

        result = run_table1(designs=[d.upper() for d in args.designs] or None,
                            device=_device(args), config=_config(args),
                            progress=_progress("running"),
                            jobs=args.jobs, cache_dir=args.cache_dir)
        print(format_table1(result))
        return 0

    if args.command == "table2":
        from .experiments import format_table2, run_table2

        result = run_table2(designs=[d.upper() for d in args.designs] or None,
                            device=_device(args), config=_config(args),
                            progress=_progress("solving"),
                            jobs=args.jobs, cache_dir=args.cache_dir)
        print(format_table2(result))
        return 0

    if args.command == "trace":
        return _cmd_trace(args)

    if args.command == "schedule":
        return _cmd_schedule(args)

    if args.command == "figure1":
        from .experiments import format_figure1, run_figure1

        print(format_figure1(run_figure1(device=_device(args), tcp=args.tcp)))
        return 0

    if args.command == "figure2":
        from .experiments import format_figure2, run_figure2

        print(format_figure2(run_figure2(k=_device(args).k)))
        return 0

    if args.command == "ablations":
        from .experiments import (
            format_alpha_beta,
            format_bitblast,
            format_heuristic_gap,
            format_k_sweep,
            format_xorr_depth,
            sweep_alpha_beta,
            sweep_bitblast,
            sweep_heuristic_gap,
            sweep_k,
            sweep_xorr_depth,
        )

        device = _device(args)
        print(format_xorr_depth(
            sweep_xorr_depth(device=device, config=_config(args),
                             jobs=args.jobs, cache_dir=args.cache_dir)))
        print()
        print(format_alpha_beta(
            sweep_alpha_beta(device=device, base_config=_config(args),
                             jobs=args.jobs, cache_dir=args.cache_dir),
            "GFMUL"))
        print()
        print(format_k_sweep(
            sweep_k(ks=[args.k] if args.k is not None else None)))
        print()
        print(format_heuristic_gap(
            sweep_heuristic_gap(device=device, config=_config(args),
                                jobs=args.jobs, cache_dir=args.cache_dir)))
        print()
        print(format_bitblast(sweep_bitblast()))
        return 0

    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    try:
        code = main()
    except BrokenPipeError:
        # downstream consumer (head, jq -e ...) closed the pipe early;
        # suppress the shutdown traceback from flushing stdout
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
