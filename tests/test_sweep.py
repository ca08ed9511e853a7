"""II sweep + warm-start behavior of the MILP schedulers.

The load-bearing property: warm starts are a *performance* lever, never a
*quality* lever — a warm-started sweep must land on exactly the same
(II, objective) as a cold one. docs/performance.md states this as the
safety contract; these tests are the evidence.
"""

from dataclasses import replace

import pytest

from repro.core.config import SchedulerConfig
from repro.core.mapsched import BaseScheduler, MapScheduler
from repro.designs.registry import BENCHMARKS
from repro.errors import InfeasibleError
from repro.ir import DFGBuilder
from repro.ir.graph import OpKind
from repro.ir.transforms import narrow_graph
from repro.tech.device import XC7


def _sweep(cls, graph, device, config):
    scheduler = cls(graph, device, config)
    schedule = scheduler.sweep()
    return scheduler, schedule


@pytest.mark.parametrize("design", sorted(BENCHMARKS))
def test_warm_and_cold_base_sweeps_agree(design):
    """All nine benchmarks, MILP-base: warm start changes nothing."""
    graph, _ = narrow_graph(BENCHMARKS[design].build())
    cold_cfg = SchedulerConfig(presolve=False, warm_start=False)
    warm_cfg = replace(cold_cfg, presolve=True, warm_start=True)
    _, cold = _sweep(BaseScheduler, graph, XC7, cold_cfg)
    _, warm = _sweep(BaseScheduler, graph, XC7, warm_cfg)
    assert warm.ii == cold.ii
    assert warm.objective == pytest.approx(cold.objective, abs=1e-4)


@pytest.mark.parametrize("design", ["GSM", "DR"])
def test_warm_and_cold_map_sweeps_agree(design):
    """Mapping-aware subset: same property on the full formulation."""
    graph, _ = narrow_graph(BENCHMARKS[design].build())
    cold_cfg = SchedulerConfig(presolve=False, warm_start=False)
    warm_cfg = replace(cold_cfg, presolve=True, warm_start=True)
    _, cold = _sweep(MapScheduler, graph, XC7, cold_cfg)
    _, warm = _sweep(MapScheduler, graph, XC7, warm_cfg)
    assert warm.ii == cold.ii
    assert warm.objective == pytest.approx(cold.objective, abs=1e-4)


def _port_limited_graph():
    b = DFGBuilder("ports", width=8)
    addr = b.input("addr", 4)
    loads = [b.load(addr + i, name=f"m{i}") for i in range(3)]
    acc = loads[0] ^ loads[1]
    b.output(acc ^ loads[2], "o")
    return b.build()


def test_sweep_walks_past_infeasible_ii():
    """Three loads on a 2-port memory can't start an iteration every
    cycle; the sweep must discover II=2 on its own."""
    graph = _port_limited_graph()
    device = XC7.with_resources(mem_port=2)
    scheduler = MapScheduler(graph, device, SchedulerConfig(ii=1))
    schedule = scheduler.sweep()
    assert schedule.ii == 2
    assert scheduler.config.ii == 2
    # Both probes are visible in the trace, tagged with their II.
    probed = {s.meta.get("ii") for s in scheduler.tracer.spans
              if s.name in ("milp-build", "presolve", "solve")}
    assert {1, 2} <= probed


def test_sweep_respects_ii_max_cap():
    graph = _port_limited_graph()
    device = XC7.with_resources(mem_port=2)
    scheduler = MapScheduler(graph, device, SchedulerConfig(ii=1))
    with pytest.raises(InfeasibleError):
        scheduler.sweep(ii_max=1)
    # config restored after a failed sweep
    assert scheduler.config.ii == 1


def test_warm_start_span_reports_reason_or_use():
    graph, _ = narrow_graph(BENCHMARKS["GSM"].build())
    scheduler = MapScheduler(graph, XC7, SchedulerConfig())
    scheduler.schedule()
    span = scheduler.tracer.last("warm-start")
    assert span is not None
    assert "used" in span.meta
    if span.meta["used"]:
        assert "objective" in span.meta
    else:
        assert "reason" in span.meta


def test_blackbox_kind_exists_for_port_graph():
    """Guard: the fixture really uses resource-classed black boxes."""
    graph = _port_limited_graph()
    loads = graph.nodes_of_kind(OpKind.LOAD)
    assert loads and all(n.rclass == "mem_port" for n in loads)
