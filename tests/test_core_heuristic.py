"""Tests for the scalable mapping-aware heuristic (the future-work system)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    MapScheduler,
    MappingAwareHeuristicScheduler,
    SchedulerConfig,
    verify_schedule,
)
from repro.designs import BENCHMARKS, random_dfg
from repro.errors import SchedulingError
from repro.hw import evaluate
from repro.sim import replay_equivalent
from repro.tech.device import TUTORIAL4, XC7

from .conftest import build_fig1, build_recurrent

CFG = SchedulerConfig(ii=1, tcp=10.0, time_limit=30)


class TestHeuristicMapper:
    def test_schedule_verifies(self):
        sched = MappingAwareHeuristicScheduler(build_fig1(), XC7, CFG).schedule()
        verify_schedule(sched, XC7)
        assert sched.method == "heur-map"

    def test_interiors_cotimed(self):
        sched = MappingAwareHeuristicScheduler(
            build_recurrent(), XC7, CFG).schedule()
        for nid, cut in sched.cover.items():
            for w in cut.interior:
                assert sched.cycle[w] == sched.cycle[nid]
                assert sched.start[w] == sched.start[nid]

    def test_cover_fanout_free(self):
        g = build_recurrent()
        sched = MappingAwareHeuristicScheduler(g, XC7, CFG).schedule()
        for nid, cut in sched.cover.items():
            inside = cut.interior | {nid}
            for w in cut.interior:
                for use in g.uses(w):
                    assert use.consumer in inside

    def test_matches_milp_on_figure1(self):
        cfg = SchedulerConfig(ii=1, tcp=5.0, time_limit=30)
        heur = MappingAwareHeuristicScheduler(
            build_fig1(), TUTORIAL4, cfg).schedule()
        milp = MapScheduler(build_fig1(), TUTORIAL4, cfg).schedule()
        assert heur.latency == milp.latency == 1

    def test_sees_through_lut_packing(self):
        """On a deep xor tree the additive tool needs 2+ stages; the
        heuristic, like MILP-map, fits one."""
        from repro.designs import build_xorr
        from repro.hls import CommercialHLSProxy

        tool = CommercialHLSProxy(build_xorr(), XC7, tcp=10.0).run()
        heur = MappingAwareHeuristicScheduler(
            build_xorr(), XC7, CFG).schedule()
        assert tool.latency > heur.latency == 1

    @pytest.mark.parametrize("name", ["MT", "GSM", "RS"])
    def test_benchmarks_replay(self, name):
        spec = BENCHMARKS[name]
        sched = MappingAwareHeuristicScheduler(
            spec.build(), XC7, CFG).schedule()
        stream = spec.input_stream(seed=11, n=10)
        assert replay_equivalent(sched, XC7, stream,
                                 env_factory=lambda: spec.make_env(1))

    def test_quality_between_tool_and_milp(self):
        """FF usage: heur-map <= hls-tool (both heuristic; heur sees
        mapping), and >= milp-map (which is exact)."""
        from repro.experiments import run_flow

        name = "MT"
        spec = BENCHMARKS[name]
        tool = run_flow(spec.build(), "hls-tool", XC7, CFG)
        heur = run_flow(spec.build(), "heur-map", XC7, CFG)
        milp = run_flow(spec.build(), "milp-map", XC7, CFG)
        assert milp.report.ffs <= heur.report.ffs <= tool.report.ffs


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_property_heuristic_always_verified(seed):
    g = random_dfg(seed, ops=12, width=8, inputs=3, recurrences=1)
    try:
        sched = MappingAwareHeuristicScheduler(g, XC7, CFG).schedule()
    except SchedulingError:
        return
    verify_schedule(sched, XC7)
    report = evaluate(sched, XC7)
    assert report.cp <= CFG.tcp + 1e-6
