"""Unit tests for the scheduling substrate (ASAP/ALAP, MII, MRT,
heuristic modulo scheduler)."""

import pytest

from repro.errors import SchedulingError
from repro.ir import DFGBuilder
from repro.scheduling import (
    HeuristicModuloScheduler,
    ModuloReservationTable,
    alap_schedule,
    asap_schedule,
    minimum_ii,
    rec_mii,
    res_mii,
)
from repro.tech.device import TUTORIAL4, XC7, Device


def chain_graph(n=5, width=8):
    b = DFGBuilder("chain", width=width)
    v = b.input("i")
    for _ in range(n):
        v = v ^ 1
    b.output(v, "o")
    return b.build()


class TestAsapAlap:
    def test_asap_packs_by_budget(self):
        g = chain_graph(5)
        # each XOR is 1.4ns on XC7; 5 ops = 7ns fits a 8.75 budget
        times = asap_schedule(g, lambda nid: 1.4 if g.node(nid).kind.value == "xor" else 0.0, 8.75)
        assert times.latency == 1

    def test_asap_splits_when_budget_small(self):
        g = chain_graph(5)
        times = asap_schedule(g, lambda nid: 1.4 if g.node(nid).kind.value == "xor" else 0.0, 3.0)
        assert times.latency == 3  # two xors per 3ns cycle

    def test_alap_no_earlier_than_asap(self):
        g = chain_graph(7)

        def d(nid):
            return 1.4 if g.node(nid).kind.value == "xor" else 0.0

        asap = asap_schedule(g, d, 4.0)
        alap = alap_schedule(g, d, 4.0)
        assert alap.latency == asap.latency
        for nid in g.node_ids:
            assert asap.cycle[nid] <= alap.cycle[nid]

    def test_oversized_delay_raises(self):
        g = chain_graph(1)
        with pytest.raises(SchedulingError, match="delay"):
            asap_schedule(g, lambda nid: 10.0, 5.0)


class TestMII:
    def test_res_mii_counts_ports(self):
        b = DFGBuilder("m", width=8)
        addr = b.input("addr", 4)
        l1 = b.load(addr, name="m1")
        l2 = b.load(addr + 1, name="m2")
        l3 = b.load(addr + 2, name="m3")
        b.output(l1 ^ l2 ^ l3, "o")
        g = b.build()
        assert res_mii(g, XC7) == 1  # unconstrained
        dev = XC7.with_resources(mem_port=2)
        assert res_mii(g, dev) == 2

    def test_rec_mii_from_loop_delay(self, recurrent_graph):
        # loop: acc -> mux -> acc with distance 1
        big = rec_mii(recurrent_graph, lambda nid: 5.0, tcp=8.0)
        assert big >= 2
        small = rec_mii(recurrent_graph, lambda nid: 0.5, tcp=8.0)
        assert small == 1

    def test_minimum_ii_is_max(self, recurrent_graph):
        assert minimum_ii(recurrent_graph, XC7, lambda nid: 0.5, 8.0) == 1


class TestMRT:
    def test_capacity_enforced(self):
        mrt = ModuloReservationTable(2, {"mem": 1})
        mrt.place(1, "mem", 0)
        assert not mrt.fits("mem", 2)  # 2 mod 2 == 0
        assert mrt.fits("mem", 1)
        with pytest.raises(SchedulingError, match="full"):
            mrt.place(2, "mem", 0)

    def test_remove_for_backtracking(self):
        mrt = ModuloReservationTable(1, {"mem": 1})
        mrt.place(1, "mem", 0)
        mrt.remove(1)
        mrt.place(2, "mem", 5)
        assert mrt.usage() == {"mem": 1}

    def test_double_place_rejected(self):
        mrt = ModuloReservationTable(1, {})
        mrt.place(1, "mem", 0)
        with pytest.raises(SchedulingError, match="already placed"):
            mrt.place(1, "mem", 1)

    def test_bad_ii(self):
        with pytest.raises(SchedulingError):
            ModuloReservationTable(0)


class TestHeuristicScheduler:
    def test_achieves_ii1_on_feedforward(self, fig1_graph):
        sched = HeuristicModuloScheduler(fig1_graph, TUTORIAL4, 5.0).schedule(1)
        assert sched.ii == 1
        assert sched.latency >= 1

    def test_bumps_ii_for_slow_recurrence(self, recurrent_graph):
        # the loop xor + mux chain is 11 ns > the 10 ns period -> II 2
        slow = Device(name="slow", lut_delay=5.0, net_delay=0.5,
                      carry_base=4.0, carry_per_bit=0.1,
                      clock_uncertainty=0.0)
        sched = HeuristicModuloScheduler(recurrent_graph, slow, 10.0).schedule(1)
        assert sched.ii >= 2

    def test_resource_constrained_modulo_placement(self):
        b = DFGBuilder("m", width=8)
        addr = b.input("addr", 4)
        loads = [b.load(addr + k, name=f"m{k}") for k in range(4)]
        acc = loads[0]
        for v in loads[1:]:
            acc = acc ^ v
        b.output(acc, "o")
        g = b.build()
        dev = XC7.with_resources(mem_port=2)
        sched = HeuristicModuloScheduler(g, dev, 10.0).schedule(1)
        assert sched.ii == 2  # 4 loads / 2 ports
        # at most 2 loads per modulo slot
        slots = {}
        for node in g:
            if node.is_blackbox:
                s = sched.cycle[node.nid] % sched.ii
                slots[s] = slots.get(s, 0) + 1
        assert all(v <= 2 for v in slots.values())

    def test_recurrence_consumer_delayed_not_ii_bumped(self):
        # a long feedforward chain feeding a short recurrence: the phi
        # should move later instead of blowing up the II
        b = DFGBuilder("t", width=8)
        x = b.input("x")
        v = x
        for _ in range(10):
            v = v ^ 1  # 14 ns of additive logic -> 2 cycles at 8.75
        best = b.recurrence("best", width=8, initial=0)
        upd = b.mux(v.sge(0), v, best)
        upd.feed(best)
        b.output(upd, "o")
        g = b.build()
        sched = HeuristicModuloScheduler(g, XC7, 10.0).schedule(1)
        assert sched.ii == 1
        rec = next(n for n in g if n.attrs.get("recurrence"))
        # the phi moved later in time instead of the II exploding
        assert sched.cycle[rec.nid] * sched.tcp + sched.start[rec.nid] > 0

    def test_schedule_describe_smoke(self, fig1_graph):
        sched = HeuristicModuloScheduler(fig1_graph, TUTORIAL4, 5.0).schedule(1)
        text = sched.describe()
        assert "cycle 0" in text and "hls-tool" in text
