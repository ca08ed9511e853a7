"""Ablation studies backing the paper's narrative claims.

* :func:`sweep_xorr_depth` — Sec. 4.1's XORR analysis: FF savings come from
  deleting whole pipeline stages of a wide reduction tree, so they grow
  with tree depth.
* :func:`sweep_alpha_beta` — Eq. 15's trade-off: shifting weight between
  LUT and register bits moves the chosen schedule along the area frontier.
* :func:`sweep_k` — Sec. 3.1's claim that cut enumeration is exponential in
  K "but typically very fast as K is small in practice (K <= 6)".
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.config import SchedulerConfig
from ..cuts.enumerate import CutEnumerator
from ..runtime.cache import FlowCache
from ..runtime.parallel import run_parallel
from ..tech.device import XC7, Device
from ..designs.registry import BENCHMARKS
from ..designs.xorr import build_xorr
from .flows import run_flow
from .reporting import render_table

__all__ = [
    "XorrDepthPoint", "sweep_xorr_depth", "format_xorr_depth",
    "AlphaBetaPoint", "sweep_alpha_beta", "format_alpha_beta",
    "KSweepPoint", "sweep_k", "format_k_sweep",
    "HeuristicGapPoint", "sweep_heuristic_gap", "format_heuristic_gap",
    "BitBlastPoint", "sweep_bitblast", "format_bitblast",
]


# ----------------------------------------------------------------------
# Ablation A: XORR reduction-tree depth
# ----------------------------------------------------------------------
@dataclass
class XorrDepthPoint:
    elements: int
    depth: int
    tool_ffs: int
    map_ffs: int
    tool_stages: int
    map_stages: int


def _xorr_depth_point(task) -> XorrDepthPoint:
    n, device, config, cache_dir = task
    cache = FlowCache(cache_dir) if cache_dir else None
    graph_tool = build_xorr(elements=n, width=16)
    tool = run_flow(graph_tool, "hls-tool", device, config, design="xorr",
                    cache=cache)
    graph_map = build_xorr(elements=n, width=16)
    mapped = run_flow(graph_map, "milp-map", device, config, design="xorr",
                      cache=cache)
    return XorrDepthPoint(
        elements=n,
        depth=(n - 1).bit_length(),
        tool_ffs=tool.report.ffs,
        map_ffs=mapped.report.ffs,
        tool_stages=tool.schedule.latency,
        map_stages=mapped.schedule.latency,
    )


def sweep_xorr_depth(element_counts: list[int] | None = None,
                     device: Device = XC7,
                     config: SchedulerConfig | None = None,
                     jobs: int | None = 1,
                     cache_dir: str | None = None) -> list[XorrDepthPoint]:
    """FF usage of hls-tool vs MILP-map as the reduction tree deepens."""
    config = config or SchedulerConfig(ii=1, tcp=10.0, time_limit=60)
    tasks = [(n, device, config, cache_dir)
             for n in element_counts or [16, 32, 64, 128, 256]]
    return run_parallel(tasks, _xorr_depth_point, jobs=jobs)


def format_xorr_depth(points: list[XorrDepthPoint]) -> str:
    rows = [[p.elements, p.depth, p.tool_stages, p.tool_ffs,
             p.map_stages, p.map_ffs] for p in points]
    return render_table(
        ["elements", "tree depth", "tool stages", "tool FF",
         "map stages", "map FF"],
        rows,
        title="Ablation A: XORR pipeline registers vs reduction-tree depth",
    )


# ----------------------------------------------------------------------
# Ablation B: alpha / beta trade-off (Eq. 15)
# ----------------------------------------------------------------------
@dataclass
class AlphaBetaPoint:
    alpha: float
    beta: float
    luts: int
    ffs: int
    latency: int


def _alpha_beta_point(task) -> AlphaBetaPoint:
    design, alpha, device, config, cache_dir = task
    cache = FlowCache(cache_dir) if cache_dir else None
    spec = BENCHMARKS[design]
    flow = run_flow(spec.build(), "milp-map", device, config, design=design,
                    cache=cache)
    return AlphaBetaPoint(
        alpha=alpha, beta=1.0 - alpha,
        luts=flow.report.luts, ffs=flow.report.ffs,
        latency=flow.schedule.latency,
    )


def sweep_alpha_beta(design: str = "GFMUL", weights: list[float] | None = None,
                     device: Device = XC7,
                     base_config: SchedulerConfig | None = None,
                     jobs: int | None = 1,
                     cache_dir: str | None = None) -> list[AlphaBetaPoint]:
    """Re-solve one design with different Eq. 15 weightings."""
    base = base_config or SchedulerConfig(ii=1, tcp=10.0, time_limit=60)
    tasks = []
    for alpha in weights or [0.0, 0.25, 0.5, 0.75, 1.0]:
        config = SchedulerConfig(
            ii=base.ii, tcp=base.tcp, alpha=alpha, beta=1.0 - alpha,
            time_limit=base.time_limit, max_cuts=base.max_cuts,
        )
        tasks.append((design, alpha, device, config, cache_dir))
    return run_parallel(tasks, _alpha_beta_point, jobs=jobs)


def format_alpha_beta(points: list[AlphaBetaPoint], design: str) -> str:
    rows = [[f"{p.alpha:.2f}", f"{p.beta:.2f}", p.luts, p.ffs, p.latency]
            for p in points]
    return render_table(
        ["alpha (LUT)", "beta (FF)", "LUT", "FF", "depth"],
        rows,
        title=f"Ablation B: Eq. 15 weight sweep on {design}",
    )


# ----------------------------------------------------------------------
# Ablation C: cut enumeration vs K
# ----------------------------------------------------------------------
@dataclass
class KSweepPoint:
    design: str
    k: int
    cuts: int
    candidates: int
    seconds: float


def sweep_k(designs: list[str] | None = None,
            ks: list[int] | None = None) -> list[KSweepPoint]:
    """Cut-set sizes and enumeration time for K in 2..6."""
    points = []
    for name in designs or ["GFMUL", "CLZ", "MT"]:
        spec = BENCHMARKS[name]
        for k in ks or [2, 3, 4, 5, 6]:
            graph = spec.build()
            t0 = time.perf_counter()
            enumerator = CutEnumerator(graph, k)
            enumerator.run()
            points.append(KSweepPoint(
                design=name, k=k,
                cuts=enumerator.stats.total_selectable,
                candidates=enumerator.stats.candidates_generated,
                seconds=time.perf_counter() - t0,
            ))
    return points


def format_k_sweep(points: list[KSweepPoint]) -> str:
    rows = [[p.design, p.k, p.cuts, p.candidates, f"{p.seconds * 1000:.1f}"]
            for p in points]
    return render_table(
        ["design", "K", "selectable cuts", "merge candidates", "time (ms)"],
        rows,
        title="Ablation C: cut enumeration vs LUT input count K",
    )


# ----------------------------------------------------------------------
# Ablation D: exact MILP vs scalable heuristic (the future-work system)
# ----------------------------------------------------------------------
@dataclass
class HeuristicGapPoint:
    design: str
    milp_luts: int
    milp_ffs: int
    milp_seconds: float
    heur_luts: int
    heur_ffs: int
    heur_seconds: float


def _heuristic_gap_point(task) -> HeuristicGapPoint:
    name, device, config, cache_dir = task
    cache = FlowCache(cache_dir) if cache_dir else None
    spec = BENCHMARKS[name]
    milp = run_flow(spec.build(), "milp-map", device, config, design=name,
                    cache=cache)
    t0 = time.perf_counter()
    heur = run_flow(spec.build(), "heur-map", device, config, design=name,
                    cache=cache)
    heur_seconds = time.perf_counter() - t0
    if heur.cached:
        # A cache read says nothing about heuristic runtime; report the
        # original run's schedule-phase time instead.
        heur_seconds = heur.trace.total_seconds("schedule")
    return HeuristicGapPoint(
        design=name,
        milp_luts=milp.report.luts, milp_ffs=milp.report.ffs,
        milp_seconds=milp.report.solve_seconds,
        heur_luts=heur.report.luts, heur_ffs=heur.report.ffs,
        heur_seconds=heur_seconds,
    )


def sweep_heuristic_gap(designs: list[str] | None = None,
                        device: Device = XC7,
                        config: SchedulerConfig | None = None,
                        jobs: int | None = 1,
                        cache_dir: str | None = None
                        ) -> list["HeuristicGapPoint"]:
    """Quality/runtime gap between MILP-map and the polynomial heuristic."""
    config = config or SchedulerConfig(ii=1, tcp=10.0, time_limit=120)
    tasks = [(name, device, config, cache_dir)
             for name in designs or ["GFMUL", "MT", "AES", "GSM"]]
    return run_parallel(tasks, _heuristic_gap_point, jobs=jobs)


def format_heuristic_gap(points: list["HeuristicGapPoint"]) -> str:
    rows = [[p.design, p.milp_luts, p.milp_ffs, f"{p.milp_seconds:.1f}",
             p.heur_luts, p.heur_ffs, f"{p.heur_seconds:.2f}"]
            for p in points]
    return render_table(
        ["design", "MILP LUT", "MILP FF", "MILP (s)",
         "heur LUT", "heur FF", "heur (s)"],
        rows,
        title=("Ablation D: exact MILP-map vs the scalable mapping-aware "
               "heuristic (Sec. 5 future work)"),
    )


# ----------------------------------------------------------------------
# Ablation E: word-level vs bit-level cut enumeration (Sec. 3.1 claim)
# ----------------------------------------------------------------------
@dataclass
class BitBlastPoint:
    design: str
    word_ops: int
    bit_ops: int
    word_cuts: int
    bit_cuts: int
    word_seconds: float
    bit_seconds: float


def sweep_bitblast(designs: list[str] | None = None,
                   k: int = 6, max_cuts: int = 8) -> list["BitBlastPoint"]:
    """Measure the cut blowup of bit-level decomposition.

    Sec. 3.1: "bit-level decomposition would generate an enormous number of
    cuts and make an MILP approach intractable". The comparison enumerates
    cuts on the word-level DFG and on its bit-blasted equivalent.
    """
    from ..bitdeps.bitblast import bit_blast

    points = []
    for name in designs or ["GFMUL", "MT", "GSM"]:
        spec = BENCHMARKS[name]
        graph = spec.build()
        t0 = time.perf_counter()
        word_en = CutEnumerator(graph, k, max_cuts=max_cuts)
        word_en.run()
        word_seconds = time.perf_counter() - t0
        blast = bit_blast(spec.build())
        t0 = time.perf_counter()
        bit_en = CutEnumerator(blast.graph, k, max_cuts=max_cuts)
        bit_en.run()
        bit_seconds = time.perf_counter() - t0
        points.append(BitBlastPoint(
            design=name,
            word_ops=graph.num_operations,
            bit_ops=blast.num_bit_ops,
            word_cuts=word_en.stats.total_selectable,
            bit_cuts=bit_en.stats.total_selectable,
            word_seconds=word_seconds,
            bit_seconds=bit_seconds,
        ))
    return points


def format_bitblast(points: list["BitBlastPoint"]) -> str:
    rows = [[p.design, p.word_ops, p.bit_ops, p.word_cuts, p.bit_cuts,
             f"{p.bit_cuts / max(1, p.word_cuts):.1f}x",
             f"{p.word_seconds * 1000:.0f}", f"{p.bit_seconds * 1000:.0f}"]
            for p in points]
    return render_table(
        ["design", "word ops", "bit ops", "word cuts", "bit cuts",
         "blowup", "word (ms)", "bit (ms)"],
        rows,
        title=("Ablation E: word-level vs bit-level cut enumeration "
               "(Sec. 3.1 tractability claim)"),
    )
