"""Table 1 — resource usage comparison across the three flows.

For every benchmark, runs the commercial-tool proxy, MILP-base and MILP-map
at the paper's operating point (target clock 10 ns, II = 1, alpha = beta =
0.5) and reports achieved CP / LUT / FF with percentages relative to the
HLS-tool row, in the paper's layout.

The 9 x 3 (design, method) grid runs through
:func:`repro.runtime.run_parallel`: ``jobs=1`` (default) is the exact
serial path, ``jobs=N`` fans tasks over a process pool with an ordered
merge, so the rendered table is byte-identical either way. Passing
``cache_dir`` serves every previously computed flow from the on-disk
:class:`~repro.runtime.FlowCache` — a warm rerun performs zero MILP
solves (the per-row traces prove it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import SchedulerConfig
from ..errors import ExperimentError
from ..hw.cost import HardwareReport
from ..runtime.cache import FlowCache
from ..runtime.parallel import run_parallel
from ..runtime.trace import Tracer
from ..sim.pipeline import replay_equivalent
from ..tech.device import XC7, Device
from ..designs.registry import BENCHMARKS, BenchmarkSpec
from .flows import METHODS, run_flow
from .reporting import percent, render_table

__all__ = ["Table1Row", "Table1Result", "run_table1", "format_table1"]


@dataclass
class Table1Row:
    """One (design, method) measurement."""

    design: str
    domain: str
    description: str
    method: str
    report: HardwareReport
    replay_ok: bool | None = None
    #: Per-phase spans of the producing flow (cached spans marked so).
    trace: Tracer | None = None
    #: True when the flow result came from the cache.
    cached: bool = False


@dataclass
class Table1Result:
    """All Table 1 measurements plus the configuration used."""

    config: SchedulerConfig
    device: Device
    rows: list[Table1Row] = field(default_factory=list)

    def rows_for(self, design: str) -> dict[str, Table1Row]:
        return {r.method: r for r in self.rows if r.design == design}


@dataclass(frozen=True)
class _FlowTask:
    """One picklable (design, method) work item."""

    design: str
    method: str
    device: Device
    config: SchedulerConfig
    check_replay: bool
    replay_iterations: int
    cache_dir: str | None


def _run_flow_task(task: _FlowTask) -> Table1Row:
    """Worker: run one flow (possibly in a pool process) and build its row."""
    spec: BenchmarkSpec = BENCHMARKS[task.design]
    cache = FlowCache(task.cache_dir) if task.cache_dir else None
    flow = run_flow(spec.build(), task.method, task.device, task.config,
                    design=task.design, cache=cache)
    replay_ok = None
    if task.check_replay:
        stream = spec.input_stream(seed=7, n=task.replay_iterations)
        replay_ok = replay_equivalent(
            flow.schedule, task.device, stream,
            env_factory=lambda: spec.make_env(1),
        )
    return Table1Row(
        design=task.design, domain=spec.domain,
        description=spec.description, method=task.method,
        report=flow.report, replay_ok=replay_ok,
        trace=flow.trace, cached=flow.cached,
    )


def run_table1(designs: list[str] | None = None,
               device: Device = XC7,
               config: SchedulerConfig | None = None,
               check_replay: bool = True,
               replay_iterations: int = 24,
               progress=None,
               jobs: int | None = 1,
               cache_dir: str | None = None) -> Table1Result:
    """Run the Table 1 experiment.

    ``check_replay`` additionally replays every produced schedule against
    the functional reference on a random input stream — a correctness gate
    the paper delegated to "verify from the synthesis report". The replay
    always runs, even for cached flows: the cache stores results, not
    verdicts.

    ``jobs`` > 1 fans the (design, method) grid over a process pool;
    ``cache_dir`` enables the on-disk flow cache.
    """
    config = config or SchedulerConfig(ii=1, tcp=10.0, alpha=0.5, beta=0.5)
    names = designs or list(BENCHMARKS)
    for name in names:
        if name not in BENCHMARKS:
            raise ExperimentError(f"unknown design {name!r}")
    tasks = [
        _FlowTask(design=name, method=method, device=device, config=config,
                  check_replay=check_replay,
                  replay_iterations=replay_iterations, cache_dir=cache_dir)
        for name in names for method in METHODS
    ]
    rows = run_parallel(
        tasks, _run_flow_task, jobs=jobs,
        progress=(lambda t: progress(f"{t.design}:{t.method}"))
        if progress else None,
    )
    return Table1Result(config=config, device=device, rows=rows)


def format_table1(result: Table1Result) -> str:
    """Render in the paper's Table 1 layout.

    Percentages are relative to the HLS-tool row; when that row is absent
    (a filtered or partially cached result) the percentage cells are left
    blank instead of failing.
    """
    headers = ["Design", "Domain", "Method", "CP(ns)", "LUT", "%", "FF", "%",
               "II", "Depth", "ok"]
    rows = []
    for name in dict.fromkeys(r.design for r in result.rows):
        per_method = result.rows_for(name)
        base = per_method.get("hls-tool")
        first = True
        for method in METHODS:
            row = per_method.get(method)
            if row is None:
                continue
            r = row.report
            lut_pct = "" if method == "hls-tool" or base is None else \
                percent(r.luts, base.report.luts)
            ff_pct = "" if method == "hls-tool" or base is None else \
                percent(r.ffs, base.report.ffs)
            ok = "" if row.replay_ok is None else \
                ("yes" if row.replay_ok else "NO")
            rows.append([
                name if first else "",
                row.domain if first else "",
                {"hls-tool": "HLS Tool", "milp-base": "MILP-base",
                 "milp-map": "MILP-map"}[method],
                f"{r.cp:.2f}", r.luts, lut_pct, r.ffs, ff_pct,
                r.ii, r.latency, ok,
            ])
            first = False
    title = (f"Table 1: Resource usage comparison "
             f"(target clock {result.config.tcp:g} ns, II={result.config.ii}, "
             f"alpha=beta={result.config.alpha:g}, device {result.device.name})")
    return render_table(headers, rows, title=title)
