"""Unit tests for the functional and cycle-accurate simulators."""

import pytest

from repro.core import MapScheduler, SchedulerConfig
from repro.errors import SimulationError
from repro.hls import CommercialHLSProxy
from repro.ir import DFGBuilder
from repro.sim import (
    FunctionalSimulator,
    PipelineSimulator,
    SimEnvironment,
    replay_equivalent,
)
from repro.tech.device import TUTORIAL4, XC7

from .conftest import build_fig1, build_recurrent


class TestFunctional:
    def test_missing_input_raises(self, fig1_graph):
        sim = FunctionalSimulator(fig1_graph)
        with pytest.raises(SimulationError, match="missing input"):
            sim.step({"s": 1})

    def test_recurrence_uses_initial_then_history(self):
        b = DFGBuilder("t", width=8)
        i = b.input("i")
        acc = b.recurrence("acc", width=8, initial=10)
        nxt = acc + i
        nxt.feed(acc)
        b.output(nxt, "o")
        g = b.build()
        sim = FunctionalSimulator(g)
        assert sim.step({"i": 1})["o"] == 11
        assert sim.step({"i": 2})["o"] == 13
        sim.reset()
        assert sim.step({"i": 5})["o"] == 15

    def test_memory_binding_by_name(self):
        b = DFGBuilder("t", width=8)
        addr = b.input("addr", 4)
        v = b.load(addr, name="rom")
        b.output(v, "o")
        g = b.build()
        env = SimEnvironment(memories={"rom": [7, 8, 9]})
        sim = FunctionalSimulator(g, env)
        assert sim.step({"addr": 1})["o"] == 8
        assert sim.step({"addr": 4})["o"] == 8  # wraps modulo length

    def test_missing_memory_raises(self):
        b = DFGBuilder("t", width=8)
        addr = b.input("addr", 4)
        b.output(b.load(addr, name="rom"), "o")
        sim = FunctionalSimulator(b.build())
        with pytest.raises(SimulationError, match="no memory"):
            sim.step({"addr": 0})

    def test_store_visible_to_later_load(self):
        b = DFGBuilder("t", width=8)
        addr = b.input("addr", 4)
        data = b.input("data", 8)
        from repro.ir import OpKind
        st = b.blackbox(OpKind.STORE, addr, data, width=8, name="ram")
        b.output(st, "o")
        g = b.build()
        env = SimEnvironment(memories={"ram": [0] * 4})
        sim = FunctionalSimulator(g, env)
        sim.step({"addr": 2, "data": 42})
        assert env.memories["ram"][2] == 42

    def test_values_at_exposes_internals(self, fig1_graph):
        sim = FunctionalSimulator(fig1_graph)
        sim.step({"s": 3, "t": 1})
        values = sim.values_at(0)
        assert len(values) == len(fig1_graph)


class TestPipelineReplay:
    def test_mapped_schedule_replays(self):
        sched = MapScheduler(build_recurrent(), XC7,
                             SchedulerConfig(ii=1, tcp=10.0)).schedule()
        stream = [{"s": k * 7 % 256, "t": k * 13 % 256} for k in range(30)]
        assert replay_equivalent(sched, XC7, stream)

    def test_hls_schedule_replays(self):
        sched = CommercialHLSProxy(build_recurrent(), XC7, tcp=10.0).run()
        stream = [{"s": k * 5 % 256, "t": k * 3 % 256} for k in range(30)]
        assert replay_equivalent(sched, XC7, stream)

    def test_corrupted_schedule_detected(self):
        sched = MapScheduler(build_fig1(), TUTORIAL4,
                             SchedulerConfig(ii=1, tcp=5.0)).schedule()
        # move a producer later than its consumer: replay must notice
        out = sched.graph.outputs[0]
        producer = out.operands[0].source
        sched.cycle[producer] = sched.cycle[out.nid] + 2
        sim = PipelineSimulator(sched, TUTORIAL4)
        with pytest.raises(SimulationError, match="later cycle|before it"):
            sim.run([{"s": 1, "t": 2}])

    def test_combinational_race_detected(self):
        sched = MapScheduler(build_fig1(), TUTORIAL4,
                             SchedulerConfig(ii=1, tcp=5.0)).schedule()
        # force a root to start before its cut inputs finish
        mappable_roots = [
            n for n in sched.cover
            if sched.graph.node(n).is_mappable and sched.cover[n].interior
        ]
        if not mappable_roots:
            pytest.skip("no merged cone in this cover")
        root = mappable_roots[0]
        # push every entry of this root unreasonably late in the same cycle
        for u, d in sched.cover[root].entries:
            if u in sched.start and d == 0:
                sched.start[u] = sched.start[root] + 3.0
        sim = PipelineSimulator(sched, TUTORIAL4)
        with pytest.raises(SimulationError):
            sim.run([{"s": 1, "t": 2}])

    def test_replay_with_memories_fresh_envs(self):
        from repro.designs import build_dr, make_dr_env

        sched = MapScheduler(build_dr(), XC7,
                             SchedulerConfig(ii=1, tcp=10.0)).schedule()
        stream = [{"query": k * 97 % (1 << 32), "idx": k % 64}
                  for k in range(20)]
        assert replay_equivalent(sched, XC7, stream,
                                 env_factory=lambda: make_dr_env())


class TestExhaustiveSmallWidth:
    """Pipeline replay vs. functional simulation over *all* inputs of
    every two-input opcode at widths 1-3 (satellite of the fuzzing PR:
    benchmarks only cover these opcodes incidentally)."""

    OPS = {
        "and": lambda a, b: a & b,
        "or": lambda a, b: a | b,
        "xor": lambda a, b: a ^ b,
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "eq": lambda a, b: a.eq(b),
        "ne": lambda a, b: a.ne(b),
        "lt": lambda a, b: a.lt(b),
        "ge": lambda a, b: a.ge(b),
        "slt": lambda a, b: a.slt(b),
        "sge": lambda a, b: a.sge(b),
    }

    @pytest.mark.parametrize("opname", sorted(OPS))
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_replay_matches_functional_exhaustively(self, opname, width):
        b = DFGBuilder(f"exh_{opname}_{width}", width=width)
        x, y = b.input("x", width), b.input("y", width)
        b.output(self.OPS[opname](x, y), "o")
        graph = b.build()
        sched = MapScheduler(graph, XC7,
                             SchedulerConfig(ii=1, tcp=10.0,
                                             max_cuts=8)).schedule()
        stream = [{"x": a, "y": c}
                  for a in range(1 << width) for c in range(1 << width)]
        assert replay_equivalent(sched, XC7, stream), (opname, width)
