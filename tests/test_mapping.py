"""Unit tests for the baseline per-stage technology mapper and retiming."""

import pytest

from repro.core import verify_schedule
from repro.errors import MappingError
from repro.mapping import StageMapper, map_schedule, recompute_starts
from repro.scheduling import HeuristicModuloScheduler
from repro.tech.device import TUTORIAL4, XC7

from .conftest import build_fig1, build_recurrent


def heuristic(graph, device=XC7, tcp=10.0):
    return HeuristicModuloScheduler(graph, device, tcp).schedule(1)


class TestStageMapper:
    def test_cover_is_complete_and_valid(self):
        sched = map_schedule(heuristic(build_fig1()), XC7)
        verify_schedule(sched, XC7)

    def test_interiors_stay_in_stage(self):
        g = build_recurrent()
        sched = map_schedule(heuristic(g), XC7)
        for nid, cut in sched.cover.items():
            for w in cut.interior:
                assert sched.cycle[w] == sched.cycle[nid]

    def test_fanout_free_interiors(self):
        g = build_fig1()
        sched = map_schedule(heuristic(g), XC7)
        for nid, cut in sched.cover.items():
            inside = cut.interior | {nid}
            for w in cut.interior:
                for use in g.uses(w):
                    assert use.consumer in inside

    def test_no_duplicated_roots(self):
        g = build_fig1()
        sched = map_schedule(heuristic(g), XC7)
        interior_all = set()
        for cut in sched.cover.values():
            interior_all.update(cut.interior)
        assert not (interior_all & set(sched.cover))

    def test_mapping_reduces_or_keeps_luts(self):
        from repro.hw import evaluate
        g1 = build_fig1()
        mapped = map_schedule(heuristic(g1), XC7)
        luts_mapped = evaluate(mapped, XC7).luts
        # unit-only cover of the same schedule
        g2 = build_fig1()
        sched2 = heuristic(g2)
        unit_only = StageMapper(sched2, XC7, max_cuts=0).run()
        luts_unit = evaluate(unit_only, XC7).luts
        assert luts_mapped <= luts_unit

    def test_rejects_covered_schedule(self):
        sched = map_schedule(heuristic(build_fig1()), XC7)
        with pytest.raises(MappingError, match="already has a cover"):
            StageMapper(sched, XC7)

    def test_registered_values_are_roots(self):
        g = build_recurrent()
        sched = map_schedule(heuristic(g), XC7)
        rec = next(n for n in g if n.attrs.get("recurrence"))
        producer = rec.operands[1].source
        assert producer in sched.cover


class TestRetime:
    def test_requires_cover(self):
        sched = heuristic(build_fig1())
        with pytest.raises(MappingError, match="covered"):
            recompute_starts(sched, XC7)

    def test_roots_start_after_entries_finish(self):
        from repro.tech.delay import DelayModel

        g = build_fig1()
        sched = map_schedule(heuristic(g), XC7)
        dm = DelayModel(XC7, g)
        for nid, cut in sched.cover.items():
            for u, dist in cut.entries:
                if g.node(u).kind.value == "const":
                    continue
                if sched.cycle.get(u, 0) != sched.cycle[nid] + dist:
                    continue
                u_cut = sched.cover.get(u)
                d = dm.cut_delay(g.node(u), u_cut) if u_cut else 0.0
                assert sched.start[u] + d <= sched.start[nid] + 1e-6

    def test_interiors_inherit_root_start(self):
        g = build_fig1()
        sched = map_schedule(heuristic(g), XC7)
        for nid, cut in sched.cover.items():
            for w in cut.interior:
                assert sched.start[w] == sched.start[nid]


class TestTimingSafety:
    def test_mapped_stage_never_slower_than_additive(self):
        """The additive-path guard: for every selected merged cone, one LUT
        level is at most the additive chain it replaces."""
        from repro.tech.delay import DelayModel

        for build in (build_fig1, build_recurrent):
            g = build()
            sched = map_schedule(heuristic(g), XC7)
            dm = DelayModel(XC7, g)
            for nid, cut in sched.cover.items():
                node = g.node(nid)
                if not node.is_mappable or cut.is_unit:
                    continue
                mapper = StageMapper.__new__(StageMapper)
                mapper.graph = g
                mapper._delay_model = dm
                additive = StageMapper._additive_path(mapper, nid, cut)
                assert dm.cut_delay(node, cut) <= additive + 1e-9
