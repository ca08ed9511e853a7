"""Unit tests for the commercial-tool proxy and the hardware cost model."""

import pytest

from repro.core import verify_schedule
from repro.errors import SchedulingError
from repro.hls import CommercialHLSProxy
from repro.hw import evaluate
from repro.ir import DFGBuilder
from repro.scheduling.schedule import Schedule
from repro.tech.device import TUTORIAL4, XC7

from .conftest import build_fig1, build_recurrent


class TestHLSProxy:
    def test_end_to_end_valid(self):
        sched = CommercialHLSProxy(build_fig1(), XC7, tcp=10.0).run()
        verify_schedule(sched, XC7)
        assert sched.method == "hls-tool"


class TestHardwareCost:
    def test_requires_cover(self, fig1_graph):
        bare = Schedule(graph=fig1_graph, ii=1, tcp=5.0,
                        cycle={n.nid: 0 for n in fig1_graph})
        with pytest.raises(SchedulingError, match="cover"):
            evaluate(bare, XC7)

    def test_ff_counts_cycle_crossings(self):
        sched = CommercialHLSProxy(build_recurrent(), XC7, tcp=10.0).run()
        report = evaluate(sched, XC7)
        if sched.latency == 1:
            # loop-carried value still needs its register? No: at II=1 and
            # a 1-cycle pipe the feedback register is counted via the
            # distance-1 consumption (born c, read c+1)
            assert report.ffs >= 8
        assert report.luts > 0

    def test_cp_below_target_for_verified_schedules(self):
        sched = CommercialHLSProxy(build_fig1(), XC7, tcp=10.0).run()
        report = evaluate(sched, XC7)
        assert report.cp <= 10.0 + 1e-6

    def test_zero_stage_pipeline_has_no_ffs(self):
        from repro.core import MapScheduler, SchedulerConfig

        sched = MapScheduler(build_fig1(), TUTORIAL4,
                             SchedulerConfig(ii=1, tcp=5.0)).schedule()
        report = evaluate(sched, TUTORIAL4)
        assert sched.latency == 1
        assert report.ffs == 0

    def test_resource_usage_reported(self):
        b = DFGBuilder("m", width=8)
        addr = b.input("addr", 4)
        l1 = b.load(addr, name="m1")
        l2 = b.load(addr + 1, name="m2")
        b.output(l1 ^ l2, "o")
        sched = CommercialHLSProxy(b.build(), XC7, tcp=10.0).run()
        report = evaluate(sched, XC7)
        assert report.resource_usage.get("mem_port") == 2

    def test_row_shape(self):
        sched = CommercialHLSProxy(build_fig1(), XC7, tcp=10.0).run()
        report = evaluate(sched, XC7)
        method, cp, luts, ffs = report.row()
        assert method == "hls-tool"
        assert isinstance(cp, float) and isinstance(luts, int)
