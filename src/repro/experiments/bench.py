"""``repro bench`` — tracked solver-performance benchmark harness.

Times the MILP hot path on the Table 2 designs plus a set of synthetic
solver microbenches, and writes ``BENCH_milp.json`` (schema
:data:`BENCH_SCHEMA`). Every design runs in two arms:

* ``optimized`` — whatever the supplied config enables (by default
  presolve + warm starts, the shipped defaults; ``--no-presolve`` /
  ``--no-warm-start`` ablate one feature at a time);
* ``cold`` — both features forced off, the pre-optimization behavior.

A third record kind, ``equiv`` (single arm ``validate``), times the
symbolic translation-validation chain (``repro.analysis.equiv``) over
:data:`EQUIV_DESIGNS`, so the miter/SAT hot path rides the same
baseline regression gate as the solvers.

A fourth kind, ``partition`` (single arm ``partition``), times the
subgraph-decomposition scheduler (:mod:`repro.partition`) — on the
full-size paper-scale variants (:data:`PARTITION_DESIGNS`) in the full
matrix, and on GFMUL with a deliberately small subgraph size in
``--quick`` so CI exercises cut/solve/stitch/feedback without paying
for a paper-sized design.

A fifth kind, ``service`` (single arm ``service``), drives an
in-process scheduling-service instance (:mod:`repro.service`) with the
fuzz-sourced load generator — a cold wave plus a cache-hit wave — and
records throughput (``jobs_per_sec``), latency percentiles and the
deterministic ``cache_hit_rate``, so the job server's hot path is
baseline-gated alongside the solvers.

The summary reports geometric-mean speedups of cold over optimized —
``scipy_solve_speedup`` over the backend solve spans and
``bnb_wall_speedup`` over scheduler wall time — which is how the claims
in ``docs/performance.md`` are measured and re-checked in CI.

Measurements are read from :class:`~repro.runtime.Tracer` spans
(``presolve`` / ``warm-start`` / ``solve``), not ad-hoc timers, so the
bench reports exactly what the schedulers recorded. The JSON output is
deterministic apart from timing fields: :meth:`BenchResult.canonical_json`
strips them, and the regression gate (:func:`compare_to_baseline`)
compares only wall-clock ratios against a committed baseline.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..core.config import SchedulerConfig
from ..core.mapsched import BaseScheduler, MapScheduler
from ..designs.registry import BENCHMARKS
from ..errors import ExperimentError, ReproError
from ..ir.transforms import narrow_graph
from ..milp.model import Model, Solution, SolveStatus
from ..milp.presolve import presolve as run_presolve
from ..runtime.parallel import run_parallel
from ..runtime.trace import Tracer
from ..tech.device import XC7, Device

__all__ = [
    "BENCH_SCHEMA",
    "BenchResult",
    "MICROBENCHES",
    "compare_to_baseline",
    "format_bench",
    "run_bench",
]

BENCH_SCHEMA = "repro-bench/v1"

#: Designs whose MILP-base models the pure-Python branch-and-bound can
#: solve in seconds; the bnb speedup claim is measured on these.
BNB_DESIGNS = ("GSM", "DR", "CLZ")

#: The ``--quick`` subset (CI perf-smoke): the three fastest designs.
QUICK_DESIGNS = ("GSM", "DR", "CLZ")

#: Designs the symbolic-equivalence arm proves end to end (small enough
#: to discharge in seconds); its wall time tracks the miter/SAT hot path
#: the same way the solver arms track the MILP hot path.
EQUIV_DESIGNS = ("CLZ", "XORR", "GFMUL", "DR")

#: Full-size variants (:mod:`repro.designs.fullsize`) the partition arm
#: schedules in the full matrix — paper-scale node counts where a flat
#: MILP would blow any reasonable cap.
PARTITION_DESIGNS = ("GFMUL64", "CORDIC48", "XORR512")

#: The ``--quick`` partition subject: a Table 1 design forced into
#: multiple subgraphs via a small ``partition_size``.
QUICK_PARTITION = ("GFMUL",)

#: Fuzz seeds the ``service`` arm replays through an in-process
#: :class:`~repro.service.SchedulingService` (sub-second profiles only —
#: the seed-routed heavy profiles like ``multi-rec`` would dominate the
#: arm's wall time with one MILP solve).
SERVICE_SEEDS = (1, 2, 3, 5, 6, 7)

#: Re-submitted after the cold wave drains: with the arm's flow cache
#: these are deterministic cache hits, so ``cache_hit_rate`` is exactly
#: ``len(warm) / (len(cold) + len(warm))`` on a healthy service.
SERVICE_WARM_SEEDS = (1, 2, 3)

#: Timing fields stripped from the canonical (byte-stable) JSON form.
_TIMING_KEYS = frozenset({
    "wall_seconds", "solve_seconds", "presolve_seconds",
    "warm_start_seconds", "build_seconds", "elapsed", "jobs",
    "scipy_solve_speedup", "bnb_wall_speedup", "micro_wall_speedup",
    "scipy_solve_reduction_pct", "bnb_wall_reduction_pct",
    "stage_seconds", "equiv_wall_seconds",
    "jobs_per_sec", "latency_p50", "latency_p95", "service_jobs_per_sec",
})


# ----------------------------------------------------------------------
# Synthetic solver microbenches
# ----------------------------------------------------------------------
def _micro_knapsack() -> tuple[Model, dict[int, float]]:
    """0/1 knapsack with a greedy warm start (bound-lift friendly)."""
    n = 24
    model = Model("micro-knapsack")
    weights = [3 + (i * 7) % 11 for i in range(n)]
    values = [2 + (i * 5) % 9 for i in range(n)]
    xs = [model.binary(f"x{i}") for i in range(n)]
    cap = sum(weights) // 3
    model.add(sum(w * x for w, x in zip(weights, xs)) <= cap)
    model.minimize(sum(-v * x for v, x in zip(values, xs)))
    order = sorted(range(n), key=lambda i: values[i] / weights[i],
                   reverse=True)
    warm: dict[int, float] = {x.index: 0.0 for x in xs}
    load = 0
    for i in order:
        if load + weights[i] <= cap:
            warm[xs[i].index] = 1.0
            load += weights[i]
    return model, warm


def _micro_assignment() -> tuple[Model, dict[int, float]]:
    """One-hot slot assignment with precedence — a miniature scheduler.

    Exercises exactly the structure presolve's group-aware pass targets:
    one-hot rows, big-M-free precedence over ``sum t*x``, and a
    continuous length variable chained to the chosen slot.
    """
    groups, slots = 8, 6
    model = Model("micro-assignment")
    xs = [[model.binary(f"s{g}_{t}") for t in range(slots)]
          for g in range(groups)]
    ls = [model.continuous(f"L{g}", lo=0.0, hi=float(slots))
          for g in range(groups)]
    warm: dict[int, float] = {}
    for g in range(groups):
        model.add(sum(xs[g]) == 1)
        slot_expr = sum(t * xs[g][t] for t in range(1, slots))
        model.add(ls[g] >= slot_expr)
        if g:
            prev = sum(t * xs[g - 1][t] for t in range(1, slots))
            model.add(slot_expr >= prev)
        chosen = min(g, slots - 1)
        for t in range(slots):
            warm[xs[g][t].index] = 1.0 if t == chosen else 0.0
        warm[ls[g].index] = float(chosen)
    cost = sum(((g * 3 + t * 5) % 7 + 1) * xs[g][t]
               for g in range(groups) for t in range(slots))
    model.minimize(cost + sum(0.25 * l for l in ls))
    return model, warm


def _micro_bigm_chain() -> tuple[Model, dict[int, float]]:
    """One-hot slots chained through loose big-M rows.

    The shape of the paper's Eq. 5/6 timing-chain constraints: the big-M
    coefficients are far looser than the one-hot structure allows, which
    is exactly what the group-aware Savelsbergh tightening in presolve
    repairs. Cold branch-and-bound pays for the loose LP bound.
    """
    stages, slots, big = 7, 6, 120.0
    model = Model("micro-bigm-chain")
    xs = [[model.binary(f"s{g}_{t}") for t in range(slots)]
          for g in range(stages)]
    ms = [model.binary(f"m{g}") for g in range(stages)]
    ls = [model.continuous(f"L{g}", lo=0.0, hi=float(2 * stages))
          for g in range(stages)]
    warm: dict[int, float] = {}
    for g in range(stages):
        model.add(sum(xs[g]) == 1)
        slot_expr = sum(t * xs[g][t] for t in range(1, slots))
        model.add(ls[g] >= slot_expr)
        if g:
            model.add(ls[g] >= ls[g - 1] + 2 - big * ms[g])
        chosen = min(2 * g, slots - 1)
        for t in range(slots):
            warm[xs[g][t].index] = 1.0 if t == chosen else 0.0
        warm[ms[g].index] = 0.0 if g < 3 else 1.0
        warm[ls[g].index] = float(max(chosen, 2 * g))
    model.add(sum(ms) <= stages - 3)
    cost = sum(((g * 5 + t * 3) % 6 + 1) * xs[g][t]
               for g in range(stages) for t in range(slots))
    model.minimize(cost + sum(ls) + 3.0 * sum(ms))
    return model, warm


MICROBENCHES: dict[str, Callable[[], tuple[Model, dict[int, float]]]] = {
    "knapsack": _micro_knapsack,
    "assignment": _micro_assignment,
    "bigm-chain": _micro_bigm_chain,
}


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _BenchTask:
    kind: str            # "design" | "micro"
    name: str
    method: str          # "milp-map" | "milp-base" | "micro"
    backend: str         # "scipy" | "bnb"
    arm: str             # "optimized" | "cold"
    device: Device
    config: SchedulerConfig


def _span_total(tracer: Tracer, name: str) -> float:
    return tracer.total_seconds(name, fresh_only=True)


def _run_design_task(task: _BenchTask) -> dict[str, Any]:
    graph = BENCHMARKS[task.name].build()
    if task.config.narrow:
        graph, _ = narrow_graph(graph)
    cls = MapScheduler if task.method == "milp-map" else BaseScheduler
    scheduler = cls(graph, task.device, task.config)
    record: dict[str, Any] = {
        "kind": task.kind, "name": task.name, "method": task.method,
        "backend": task.backend, "arm": task.arm,
    }
    t0 = time.perf_counter()
    try:
        schedule = scheduler.schedule()
    except ReproError as exc:
        record.update(ok=False, error=type(exc).__name__,
                      wall_seconds=time.perf_counter() - t0)
        return record
    wall = time.perf_counter() - t0
    tracer = scheduler.tracer
    build = tracer.last("milp-build")
    presolve_span = tracer.last("presolve")
    warm = tracer.last("warm-start")
    solve = tracer.last("solve")
    record.update(
        ok=True,
        ii=schedule.ii,
        optimal=schedule.optimal,
        objective=(round(schedule.objective, 6)
                   if schedule.objective is not None else None),
        wall_seconds=wall,
        build_seconds=_span_total(tracer, "milp-build"),
        presolve_seconds=_span_total(tracer, "presolve"),
        warm_start_seconds=_span_total(tracer, "warm-start"),
        solve_seconds=_span_total(tracer, "solve"),
        constraints=int(build.meta.get("constraints", 0)) if build else 0,
        variables=int(build.meta.get("variables", 0)) if build else 0,
    )
    if presolve_span is not None:
        record["presolve"] = {
            k: presolve_span.meta[k]
            for k in ("vars_after", "cons_after", "vars_fixed",
                      "rows_dropped", "bounds_tightened", "coeffs_tightened",
                      "one_hot_groups")
            if k in presolve_span.meta
        }
    if warm is not None:
        record["warm_start_used"] = bool(warm.meta.get("used", False))
    if solve is not None and "solver_stats" in solve.meta:
        record["solver_stats"] = dict(solve.meta["solver_stats"])
    return record


def _run_micro_task(task: _BenchTask) -> dict[str, Any]:
    model, warm = MICROBENCHES[task.name]()
    record: dict[str, Any] = {
        "kind": task.kind, "name": task.name, "method": task.method,
        "backend": task.backend, "arm": task.arm,
        "constraints": model.num_constraints, "variables": model.num_vars,
    }
    t0 = time.perf_counter()
    if task.arm == "cold":
        sol = model.solve(backend=task.backend, time_limit=60.0)
    else:
        reduced, post = run_presolve(model)
        if post.status is not None:
            sol = Solution(status=post.status, objective=None)
        else:
            restricted = post.restrict(warm)
            sol = reduced.solve(backend=task.backend, time_limit=60.0,
                                warm_start=restricted,
                                branch_hints=restricted)
            sol = post.expand(sol)
        record["presolve"] = post.stats.to_dict()
    record.update(
        ok=sol.ok,
        optimal=sol.status == SolveStatus.OPTIMAL,
        objective=(round(sol.objective, 6)
                   if sol.objective is not None else None),
        wall_seconds=time.perf_counter() - t0,
        solve_seconds=time.perf_counter() - t0,
    )
    if sol.stats:
        record["solver_stats"] = {k: sol.stats[k]
                                  for k in ("nodes", "lps")
                                  if k in sol.stats}
    return record


def _run_equiv_task(task: _BenchTask) -> dict[str, Any]:
    from ..analysis.equiv import validate_flow

    original = BENCHMARKS[task.name].build()
    graph = original
    if task.config.narrow:
        graph, _ = narrow_graph(original)
    scheduler = MapScheduler(graph, task.device, task.config)
    record: dict[str, Any] = {
        "kind": task.kind, "name": task.name, "method": task.method,
        "backend": task.backend, "arm": task.arm,
    }
    try:
        schedule = scheduler.schedule()
    except ReproError as exc:
        record.update(ok=False, error=type(exc).__name__, wall_seconds=0.0)
        return record
    # Only the validation is timed: the schedule itself is the design
    # arms' job, and validate_flow recomputes the narrowing internally
    # so the full narrow -> cover -> pipeline -> rtl chain is proved.
    t0 = time.perf_counter()
    report = validate_flow(original, schedule, design=task.name,
                           method=task.method)
    record.update(
        ok=report.ok,
        optimal=report.ok,
        wall_seconds=time.perf_counter() - t0,
        stages={v.stage: v.status for v in report.stages},
        stage_seconds={v.stage: round(v.seconds, 4)
                       for v in report.stages},
        goals=sum(v.goals for v in report.stages),
        conflicts=sum(v.conflicts for v in report.stages),
    )
    if not report.ok:
        bad = [v.stage for v in report.stages
               if v.status in ("inequivalent", "error")]
        record["error"] = "equiv:" + ",".join(bad)
    return record


def _run_partition_task(task: _BenchTask) -> dict[str, Any]:
    from ..designs.fullsize import FULLSIZE
    from ..partition import PartitionScheduler

    spec = BENCHMARKS.get(task.name) or FULLSIZE[task.name]
    graph = spec.build()
    if task.config.narrow:
        graph, _ = narrow_graph(graph)
    record: dict[str, Any] = {
        "kind": task.kind, "name": task.name, "method": task.method,
        "backend": task.backend, "arm": task.arm,
        "nodes": len(graph.node_ids),
        "partition_size": task.config.partition_size,
        "partition_rounds": task.config.partition_rounds,
    }
    t0 = time.perf_counter()
    try:
        scheduler = PartitionScheduler(graph, task.device, task.config,
                                       method=task.method)
        schedule = scheduler.schedule()
    except ReproError as exc:
        record.update(ok=False, error=type(exc).__name__,
                      wall_seconds=time.perf_counter() - t0)
        return record
    record.update(
        ok=True,
        ii=schedule.ii,
        optimal=schedule.optimal,
        objective=(round(schedule.objective, 6)
                   if schedule.objective is not None else None),
        wall_seconds=time.perf_counter() - t0,
        solve_seconds=schedule.solve_seconds,
        subgraphs=scheduler.subgraph_counts[0],
        rounds=scheduler.rounds_run,
        boundary_bits=(scheduler.info.total_boundary_bits
                       if scheduler.info else 0),
    )
    return record


def _run_service_task(task: _BenchTask) -> dict[str, Any]:
    """Throughput/latency of the job server on a fuzz-sourced load.

    Runs an in-process :class:`~repro.service.SchedulingService` (two
    worker shards, fresh flow cache) through the same load generator the
    service tests and CI smoke use: the :data:`SERVICE_SEEDS` cold wave
    followed by the :data:`SERVICE_WARM_SEEDS` cache-hit wave. The
    record's ``wall_seconds`` rides the standard baseline gate;
    ``jobs_per_sec`` / ``latency_p50`` / ``latency_p95`` are reported as
    timing fields, and ``cache_hit_rate`` is deterministic and canonical.
    """
    import tempfile

    from ..service import InProcessClient, SchedulingService
    from ..service.loadgen import run_load

    record: dict[str, Any] = {
        "kind": task.kind, "name": task.name, "method": task.method,
        "backend": task.backend, "arm": task.arm,
        "cold_jobs": len(SERVICE_SEEDS),
        "warm_jobs": len(SERVICE_WARM_SEEDS),
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as tmp:
        service = SchedulingService(workers=2, cache=tmp)
        service.start()
        try:
            client = InProcessClient(service)
            report = run_load(client, seeds=SERVICE_SEEDS,
                              method=task.method,
                              warm_seeds=SERVICE_WARM_SEEDS)
        except ReproError as exc:
            service.shutdown()
            record.update(ok=False, error=type(exc).__name__,
                          wall_seconds=0.0)
            return record
        service.shutdown()
    data = report.to_dict()
    submitted = data["submitted"]
    record.update(
        ok=data["failed"] == 0 and data["completed"] == submitted,
        optimal=data["failed"] == 0,
        submitted=submitted,
        completed=data["completed"],
        failed=data["failed"],
        cached=data["cached"],
        deduped=data["deduped"],
        cache_hit_rate=(round(data["cached"] / submitted, 4)
                        if submitted else 0.0),
        wall_seconds=data["elapsed"],
        jobs_per_sec=data["jobs_per_sec"],
        latency_p50=data["latency_p50"],
        latency_p95=data["latency_p95"],
    )
    if not record["ok"]:
        record["error"] = "service:failed-jobs"
    return record


_WARMED = False


def _warmup() -> None:
    """Pay scipy/HiGHS import and first-call costs outside the timers.

    The first ``optimize.milp`` call in a process costs ~0.8s of library
    loading — enough to invert any sub-second comparison. Once per
    worker process is enough.
    """
    global _WARMED
    if _WARMED:
        return
    for backend in ("scipy", "bnb"):
        model = Model(f"warmup-{backend}")
        x = model.binary("x")
        model.add(x <= 1)
        model.minimize(x)
        model.solve(backend=backend)
    _WARMED = True


def _run_bench_task(task: _BenchTask) -> dict[str, Any]:
    _warmup()
    if task.kind == "micro":
        return _run_micro_task(task)
    if task.kind == "equiv":
        return _run_equiv_task(task)
    if task.kind == "partition":
        return _run_partition_task(task)
    if task.kind == "service":
        return _run_service_task(task)
    return _run_design_task(task)


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
@dataclass
class BenchResult:
    """All bench records plus the derived speedup summary."""

    config: SchedulerConfig
    device: Device
    quick: bool = False
    records: list[dict[str, Any]] = field(default_factory=list)
    elapsed: float = 0.0
    jobs: int = 1

    # -- derived -------------------------------------------------------
    def _pairs(self, pred) -> list[tuple[dict, dict]]:
        """(optimized, cold) record pairs matching ``pred``, both ok."""
        keyed: dict[tuple, dict[str, dict]] = {}
        for rec in self.records:
            if not rec.get("ok"):
                continue
            key = (rec["kind"], rec["name"], rec["method"], rec["backend"])
            keyed.setdefault(key, {})[rec["arm"]] = rec
        pairs = []
        for key, arms in sorted(keyed.items()):
            if "optimized" in arms and "cold" in arms and pred(arms["cold"]):
                pairs.append((arms["optimized"], arms["cold"]))
        return pairs

    @staticmethod
    def _geomean_speedup(pairs: list[tuple[dict, dict]],
                         field_name: str) -> float | None:
        ratios = []
        for opt, cold in pairs:
            denom = max(opt.get(field_name, 0.0), 1e-6)
            ratios.append(max(cold.get(field_name, 0.0), 1e-6) / denom)
        if not ratios:
            return None
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

    def summary(self) -> dict[str, Any]:
        scipy_pairs = self._pairs(
            lambda r: r["kind"] == "design" and r["backend"] == "scipy")
        bnb_pairs = self._pairs(
            lambda r: r["kind"] == "design" and r["backend"] == "bnb")
        micro_pairs = self._pairs(lambda r: r["kind"] == "micro")
        out: dict[str, Any] = {
            "designs_ok": sorted({r["name"] for r in self.records
                                  if r["kind"] == "design" and r.get("ok")}),
            "failed": sorted({f"{r['name']}:{r['backend']}"
                              for r in self.records if not r.get("ok")}),
        }
        scipy_speed = self._geomean_speedup(scipy_pairs, "solve_seconds")
        bnb_speed = self._geomean_speedup(bnb_pairs, "wall_seconds")
        micro_speed = self._geomean_speedup(micro_pairs, "wall_seconds")
        if scipy_speed is not None:
            out["scipy_solve_speedup"] = round(scipy_speed, 3)
            out["scipy_solve_reduction_pct"] = round(
                100.0 * (1.0 - 1.0 / scipy_speed), 1)
        if bnb_speed is not None:
            out["bnb_wall_speedup"] = round(bnb_speed, 3)
            out["bnb_wall_reduction_pct"] = round(
                100.0 * (1.0 - 1.0 / bnb_speed), 1)
        if micro_speed is not None:
            out["micro_wall_speedup"] = round(micro_speed, 3)
        equiv_recs = [r for r in self.records if r["kind"] == "equiv"]
        if equiv_recs:
            out["equiv_proved"] = sorted(r["name"] for r in equiv_recs
                                         if r.get("ok"))
            out["equiv_wall_seconds"] = round(
                sum(r.get("wall_seconds", 0.0) for r in equiv_recs), 3)
        service_recs = [r for r in self.records if r["kind"] == "service"]
        if service_recs:
            rec = service_recs[0]
            out["service_jobs_per_sec"] = rec.get("jobs_per_sec")
            out["service_cache_hit_rate"] = rec.get("cache_hit_rate")
        return out

    # -- serialization -------------------------------------------------
    def to_dict(self, include_timing: bool = True) -> dict[str, Any]:
        records = self.records
        if not include_timing:
            records = [self._strip_timing(r) for r in records]
        data: dict[str, Any] = {
            "schema": BENCH_SCHEMA,
            "quick": self.quick,
            "config": self.config.fingerprint_fields(),
            "device": self.device.name,
            "records": records,
            "summary": {k: v for k, v in self.summary().items()
                        if include_timing or k not in _TIMING_KEYS},
        }
        if include_timing:
            data["elapsed"] = self.elapsed
            data["jobs"] = self.jobs
        return data

    @staticmethod
    def _strip_timing(record: dict[str, Any]) -> dict[str, Any]:
        return {k: v for k, v in record.items() if k not in _TIMING_KEYS}

    def canonical_json(self) -> str:
        """Byte-stable form: every wall-clock field removed."""
        return json.dumps(self.to_dict(include_timing=False),
                          sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_bench(designs: list[str] | None = None, device: Device = XC7,
              config: SchedulerConfig | None = None, quick: bool = False,
              jobs: int | None = 1,
              progress: Callable[[str], None] | None = None) -> BenchResult:
    """Run the benchmark matrix and return a :class:`BenchResult`.

    ``config`` selects the *optimized* arm's features (so the
    ``--no-presolve`` / ``--no-warm-start`` CLI flags ablate one lever
    at a time); the cold arm always disables both. ``quick`` restricts
    the matrix to :data:`QUICK_DESIGNS` and a shorter time limit — the
    CI perf-smoke shape.
    """
    from ..designs.fullsize import FULLSIZE

    config = config or SchedulerConfig()
    if designs:
        requested = [d.upper() for d in designs]
        unknown = [n for n in requested
                   if n not in BENCHMARKS and n not in FULLSIZE]
        if unknown:
            raise ExperimentError(f"unknown design(s) "
                                  f"{', '.join(map(repr, unknown))}")
        names = [n for n in requested if n in BENCHMARKS]
        partition_names = [n for n in requested if n in FULLSIZE]
        if quick:
            partition_names += [n for n in requested
                                if n in QUICK_PARTITION]
    else:
        names = list(QUICK_DESIGNS) if quick else list(BENCHMARKS)
        partition_names = (list(QUICK_PARTITION) if quick
                           else list(PARTITION_DESIGNS))
    if quick:
        config = replace(config, time_limit=min(config.time_limit or 60.0,
                                                60.0))
    cold = replace(config, presolve=False, warm_start=False)

    tasks: list[_BenchTask] = []
    for name in names:
        for arm, cfg in (("optimized", config), ("cold", cold)):
            tasks.append(_BenchTask("design", name, "milp-map", "scipy",
                                    arm, device, replace(cfg,
                                                         backend="scipy")))
        if name in BNB_DESIGNS:
            for arm, cfg in (("optimized", config), ("cold", cold)):
                tasks.append(_BenchTask("design", name, "milp-base", "bnb",
                                        arm, device,
                                        replace(cfg, backend="bnb",
                                                use_mapping=False)))
    micro_names = list(MICROBENCHES)[:1] if quick else list(MICROBENCHES)
    for name in micro_names:
        for arm in ("optimized", "cold"):
            tasks.append(_BenchTask("micro", name, "micro", "bnb", arm,
                                    device, config))
    equiv_names = [n for n in names if n in EQUIV_DESIGNS]
    if quick:
        equiv_names = equiv_names[:2]
    for name in equiv_names:
        tasks.append(_BenchTask("equiv", name, "milp-map", "miter",
                                "validate", device,
                                replace(config, backend="scipy")))
    for name in partition_names:
        # Table 1 subjects (quick) are forced into multiple subgraphs
        # with a small partition_size; full-size variants use the
        # shipped default. One feedback round keeps the arm's wall time
        # proportional to two stitches, not a full convergence run.
        part_cfg = replace(config, backend="scipy", partition=True,
                           partition_rounds=1,
                           partition_size=12 if name in BENCHMARKS else 48)
        tasks.append(_BenchTask("partition", name, "milp-map", "scipy",
                                "partition", device, part_cfg))
    # The service arm (job server over a fuzz load; docs/service.md) is
    # part of the standard matrix, like the microbenches.
    tasks.append(_BenchTask("service", "fuzz-load", "milp-map", "service",
                            "service", device, config))

    t0 = time.perf_counter()
    records = run_parallel(
        tasks, _run_bench_task, jobs=jobs,
        progress=(lambda t: progress(f"{t.name}:{t.backend}:{t.arm}"))
        if progress else None)
    result = BenchResult(config=config, device=device, quick=quick,
                         records=records,
                         elapsed=time.perf_counter() - t0,
                         jobs=jobs or 1)
    return result


# ----------------------------------------------------------------------
# Baseline comparison + rendering
# ----------------------------------------------------------------------
def compare_to_baseline(current: dict[str, Any], baseline: dict[str, Any],
                        max_ratio: float = 3.0,
                        abs_slack: float = 0.2) -> list[str]:
    """Wall-clock regressions of ``current`` vs a stored bench file.

    Returns human-readable regression lines for every record whose
    ``wall_seconds`` grew by more than ``max_ratio`` over the baseline's
    matching record (same kind/name/method/backend/arm). Records missing
    on either side are skipped — the gate flags slowdowns, not matrix
    changes. Sub-10ms baselines are also skipped: at that scale the
    ratio measures scheduler jitter, not the solver. ``abs_slack``
    additionally requires the absolute growth to exceed a floor — a
    50ms record tripling under pool contention is noise, a genuine
    hot-path regression costs real seconds and clears both bars.
    """
    if baseline.get("schema") != BENCH_SCHEMA:
        raise ExperimentError(
            f"baseline schema {baseline.get('schema')!r} != {BENCH_SCHEMA}")

    def key(rec: dict[str, Any]) -> tuple:
        return (rec.get("kind"), rec.get("name"), rec.get("method"),
                rec.get("backend"), rec.get("arm"))

    base = {key(r): r for r in baseline.get("records", [])}
    regressions = []
    for rec in current.get("records", []):
        ref = base.get(key(rec))
        if ref is None or not rec.get("ok") or not ref.get("ok"):
            continue
        ref_wall = float(ref.get("wall_seconds", 0.0))
        cur_wall = float(rec.get("wall_seconds", 0.0))
        if ref_wall < 0.01:
            continue
        ratio = cur_wall / ref_wall
        if ratio > max_ratio and cur_wall - ref_wall > abs_slack:
            regressions.append(
                f"{rec['name']}:{rec['method']}:{rec['backend']}:{rec['arm']}"
                f" {cur_wall:.3f}s vs baseline {ref_wall:.3f}s "
                f"({ratio:.1f}x > {max_ratio:.1f}x)")
    return regressions


def format_bench(result: BenchResult) -> str:
    """Text rendering: per-record table plus the speedup summary."""
    lines = [f"bench ({'quick' if result.quick else 'full'}, "
             f"{len(result.records)} records, {result.elapsed:.1f}s)"]
    header = (f"{'name':<14s} {'method':<10s} {'backend':<7s} {'arm':<10s} "
              f"{'wall':>8s} {'solve':>8s} {'cons':>6s} {'status':<s}")
    lines.append(header)
    lines.append("-" * len(header))
    for rec in result.records:
        if rec.get("ok"):
            status = "optimal" if rec.get("optimal") else "feasible"
        else:
            status = f"FAILED:{rec.get('error', '?')}"
        lines.append(
            f"{rec['name']:<14s} {rec['method']:<10s} {rec['backend']:<7s} "
            f"{rec['arm']:<10s} {rec.get('wall_seconds', 0.0):>7.2f}s "
            f"{rec.get('solve_seconds', 0.0):>7.2f}s "
            f"{rec.get('constraints', 0):>6d} {status}")
    summary = result.summary()
    lines.append("")
    for key in ("scipy_solve_speedup", "bnb_wall_speedup",
                "micro_wall_speedup"):
        if key in summary:
            lines.append(f"{key}: {summary[key]:.2f}x")
    if "equiv_wall_seconds" in summary:
        lines.append(f"equiv_wall_seconds: {summary['equiv_wall_seconds']:.2f}s"
                     f" ({len(summary.get('equiv_proved', []))} proved)")
    if summary.get("service_jobs_per_sec") is not None:
        lines.append(f"service_jobs_per_sec: "
                     f"{summary['service_jobs_per_sec']:.2f} "
                     f"(cache hit rate "
                     f"{summary.get('service_cache_hit_rate', 0.0):.0%})")
    if summary.get("failed"):
        lines.append("failed: " + ", ".join(summary["failed"]))
    return "\n".join(lines)
