"""Unit tests for the independent schedule verifier: every violation class
must be caught."""

import pytest

from repro.core import MapScheduler, SchedulerConfig, verify_schedule
from repro.errors import ScheduleVerificationError
from repro.tech.device import TUTORIAL4

from .conftest import build_fig1, build_recurrent


def violations(schedule, device):
    """``verify_schedule``'s violation list (empty when it passes)."""
    try:
        verify_schedule(schedule, device)
    except ScheduleVerificationError as exc:
        return exc.violations
    return []


@pytest.fixture
def good_schedule():
    return MapScheduler(build_fig1(), TUTORIAL4,
                        SchedulerConfig(ii=1, tcp=5.0)).schedule()


class TestVerifier:
    def test_clean_schedule_passes(self, good_schedule):
        assert verify_schedule(good_schedule, TUTORIAL4) is good_schedule

    def test_unscheduled_node(self, good_schedule):
        nid = next(iter(good_schedule.cover))
        del good_schedule.cycle[nid]
        probs = violations(good_schedule, TUTORIAL4)
        assert any("unscheduled" in p for p in probs)

    def test_missing_cover(self, good_schedule):
        # drop the cover of a mappable root
        target = next(
            nid for nid in good_schedule.cover
            if good_schedule.graph.node(nid).is_mappable
        )
        del good_schedule.cover[target]
        probs = violations(good_schedule, TUTORIAL4)
        assert probs  # coverage or cut-input-root violation

    def test_wrong_cut_root(self, good_schedule):
        nids = list(good_schedule.cover)
        a = next(n for n in nids
                 if good_schedule.graph.node(n).is_mappable)
        b = next(n for n in nids if n != a)
        good_schedule.cover[a] = good_schedule.cover[b]
        probs = violations(good_schedule, TUTORIAL4)
        assert any("cut of node" in p for p in probs)

    def test_budget_violation(self, good_schedule):
        nid = next(n for n in good_schedule.cover
                   if good_schedule.graph.node(n).is_mappable)
        good_schedule.start[nid] = 99.0
        probs = violations(good_schedule, TUTORIAL4)
        assert any("exceeds" in p for p in probs)

    def test_dependence_violation(self, good_schedule):
        out = good_schedule.graph.outputs[0]
        producer = out.operands[0].source
        good_schedule.cycle[producer] = good_schedule.cycle[out.nid] + 3
        probs = violations(good_schedule, TUTORIAL4)
        assert any("dependence" in p or "finishes" in p for p in probs)

    def test_recurrence_distance_respected(self):
        sched = MapScheduler(build_recurrent(), TUTORIAL4,
                             SchedulerConfig(ii=1, tcp=10.0)).schedule()
        rec = next(n for n in sched.graph if n.attrs.get("recurrence"))
        producer = rec.operands[1].source
        # push the producer absurdly late
        sched.cycle[producer] += 5
        probs = violations(sched, TUTORIAL4)
        assert probs

    def test_resource_overuse(self):
        from repro.ir import DFGBuilder
        from repro.tech.device import XC7

        b = DFGBuilder("m", width=8)
        addr = b.input("addr", 4)
        l1 = b.load(addr, name="m1")
        l2 = b.load(addr + 1, name="m2")
        b.output(l1 ^ l2, "o")
        g = b.build()
        dev = XC7.with_resources(mem_port=2)
        sched = MapScheduler(g, dev, SchedulerConfig(ii=1, tcp=10.0)).schedule()
        tight = dev.with_resources(mem_port=1)
        probs = violations(sched, tight)
        assert any("resource" in p for p in probs)

    def test_verify_raises_with_details(self, good_schedule):
        good_schedule.start[next(iter(good_schedule.cover))] = 99.0
        with pytest.raises(ScheduleVerificationError) as err:
            verify_schedule(good_schedule, TUTORIAL4)
        assert err.value.violations
