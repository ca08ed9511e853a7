"""Unit tests for the MILP formulation (Eq. 2-15)."""

import dataclasses
import hashlib
import json

import pytest

from repro.core import MappingAwareFormulation, SchedulerConfig
from repro.core.mapsched import BaseScheduler, MapScheduler
from repro.cuts import enumerate_cuts
from repro.designs import BENCHMARKS
from repro.errors import ModelError
from repro.fuzz.generate import generate_case
from repro.ir import DFGBuilder
from repro.ir.transforms import narrow_graph
from repro.milp.model import Model, SolveStatus
from repro.tech.device import TUTORIAL4, XC7

from .conftest import build_fig1, build_recurrent


def make_formulation(graph, device=TUTORIAL4, horizon=4, **cfg):
    config = SchedulerConfig(ii=1, tcp=5.0, time_limit=30, **cfg)
    cuts = enumerate_cuts(graph, device.k)
    f = MappingAwareFormulation(graph, cuts, device, config, horizon)
    f.build()
    return f


class TestModelShape:
    def test_variable_groups(self):
        f = make_formulation(build_fig1())
        assert sum(len(v) for v in f.sched_vars.values()) > 0
        assert sum(len(p) for p in f.cut_vars.values()) > 0
        assert f.model.num_constraints > 0
        assert f.horizon == 4

    def test_map_has_more_cut_vars_than_base(self):
        g = build_fig1()
        full = make_formulation(g)
        base_cuts = enumerate_cuts(g, TUTORIAL4.k, max_cuts=0)
        base = MappingAwareFormulation(
            g, base_cuts, TUTORIAL4, SchedulerConfig(ii=1, tcp=5.0), 4
        )
        base.build()
        assert (sum(len(p) for p in full.cut_vars.values())
                > sum(len(p) for p in base.cut_vars.values()))
        assert full.model.num_constraints > base.model.num_constraints

    def test_bad_horizon(self):
        g = build_fig1()
        cuts = enumerate_cuts(g, 4)
        with pytest.raises(ModelError, match="horizon"):
            MappingAwareFormulation(g, cuts, TUTORIAL4,
                                    SchedulerConfig(ii=1, tcp=5.0), 0)

    def test_budget_is_derated(self):
        f = make_formulation(build_fig1(), device=XC7)
        assert f.budget == pytest.approx(5.0 * 0.875)

    def test_extract_requires_ok_solution(self):
        f = make_formulation(build_fig1())
        from repro.milp.model import Solution

        with pytest.raises(ModelError, match="cannot extract"):
            f.extract(Solution(status=SolveStatus.INFEASIBLE, objective=None),
                      "x")

    def test_solution_respects_model_check(self):
        f = make_formulation(build_fig1())
        sol = f.model.solve("scipy", time_limit=30)
        assert sol.status == SolveStatus.OPTIMAL
        assert f.model.check(sol.values, tol=1e-4) == []

    def test_resource_vars_created_per_class(self):
        b = DFGBuilder("m", width=8)
        addr = b.input("addr", 4)
        l1 = b.load(addr, name="m1")
        l2 = b.load(addr + 1, name="m2")
        b.output(l1 ^ l2, "o")
        g = b.build()
        cuts = enumerate_cuts(g, XC7.k)
        f = MappingAwareFormulation(
            g, cuts, XC7.with_resources(mem_port=1),
            SchedulerConfig(ii=2, tcp=10.0), 4,
        )
        f.build()
        assert "mem_port" in f.resource_vars


#: SHA-256 of the milp-base and milp-map models of the nine narrowed
#: designs at ``SchedulerConfig()``, in two parts: the rows in order
#: (sense, coefficients in insertion order, constant) with the objective,
#: and the variables (name, kind, bounds). Row names are left out. The
#: cycle windows moved only the variables (``s[v,t]`` upper bounds 1 -> 0).
#: A legitimate change of a model must re-record what it moves and say why.
ROWS_DIGEST = (
    "6041c0619b32b20ed0b75676980649f28f33d60f0471325f6716b3751ade5154")
VARS_DIGEST = (
    "f3cdad4261713df8bbee07ea63de1ac67655362551e381903193fe4066f6ee16")


def test_models_match_recorded_digest():
    """Each scheduler's model, built with its own cuts and horizon, keeps
    every row (sense, coefficients in order, constant), the objective and
    every variable."""
    rows, variables = hashlib.sha256(), hashlib.sha256()
    for name in BENCHMARKS:
        graph = narrow_graph(BENCHMARKS[name].build())[0]
        for cls in (BaseScheduler, MapScheduler):
            scheduler = cls(graph, XC7, SchedulerConfig())
            scheduler.enumerate()
            model = MappingAwareFormulation(
                graph, scheduler.cuts, XC7, scheduler.config,
                scheduler._horizon()).build()
            key = [name, cls.method_name]
            rows.update(json.dumps(key + [
                [[c.sense, list(c.expr.coeffs.items()), c.expr.constant]
                 for c in model.constraints],
                [model.sense, list(model.objective.coeffs.items()),
                 model.objective.constant],
            ]).encode())
            variables.update(json.dumps(key + [
                [[v.name, v.kind, v.lo, v.hi] for v in model.variables],
            ]).encode())
    assert rows.hexdigest() == ROWS_DIGEST
    assert variables.hexdigest() == VARS_DIGEST


def _without_windows(model):
    """A copy of ``model`` with every ``s[v,t]`` upper bound reset to 1."""
    copy = Model(model.name)
    copy.variables = [dataclasses.replace(v, hi=1.0)
                      if v.name.startswith("s[") else v
                      for v in model.variables]
    copy.constraints = model.constraints
    copy.objective, copy.sense = model.objective, model.sense
    return copy


def _window_cases():
    for name in BENCHMARKS:
        for cls in (BaseScheduler, MapScheduler):
            # RS milp-map solves for about 17 s; it is left out for time.
            if (name, cls) != ("RS", MapScheduler):
                yield pytest.param(name, cls, id=f"{name}-{cls.method_name}")
    for seed in range(10):
        for cls in (BaseScheduler, MapScheduler):
            yield pytest.param(seed, cls, id=f"fuzz{seed}-{cls.method_name}")


@pytest.mark.parametrize("source, cls", list(_window_cases()))
def test_cycle_windows_keep_every_feasible_schedule(source, cls):
    """A cycle window never cuts off a feasible schedule: the model solved
    without its window bounds puts every node inside its window, and at
    optimality both models reach the same objective. A time-capped
    incumbent is a feasible schedule too."""
    if isinstance(source, str):
        graph = narrow_graph(BENCHMARKS[source].build())[0]
        config, cap = SchedulerConfig(), 60.0
    else:
        graph = narrow_graph(generate_case(source).graph)[0]
        config, cap = SchedulerConfig(max_cuts=8), 2.0
    scheduler = cls(graph, XC7, config)
    scheduler.enumerate()
    f = MappingAwareFormulation(graph, scheduler.cuts, XC7, scheduler.config,
                                scheduler._horizon())
    model = f.build()
    free = _without_windows(model).solve(time_limit=cap)
    assert free.ok
    for nid, svars in f.sched_vars.items():
        cycle = next(t for t, var in enumerate(svars)
                     if free.int_value(var) == 1)
        assert svars[cycle].hi == 1.0, (nid, cycle)
    windowed = model.solve(time_limit=cap)
    if free.status == windowed.status == SolveStatus.OPTIMAL:
        assert windowed.objective == pytest.approx(free.objective,
                                                   rel=1e-4, abs=1e-4)


class TestOptimalSolutions:
    def test_single_xor_schedules_to_cycle0(self):
        b = DFGBuilder("t", width=2)
        a, c = b.input("a"), b.input("c")
        b.output(a ^ c, "o")
        g = b.build()
        sched = MapScheduler(g, TUTORIAL4,
                             SchedulerConfig(ii=1, tcp=5.0)).schedule()
        assert sched.latency == 1
        xor = next(n for n in g if n.kind.value == "xor")
        assert sched.cycle[xor.nid] == 0
        assert xor.nid in sched.cover

    def test_base_objective_counts_units(self):
        # two chained xors at width 2: base pays LUT bits for both,
        # map collapses into one cone
        b = DFGBuilder("t", width=2)
        a, c, d = b.input("a"), b.input("c"), b.input("d")
        b.output((a ^ c) ^ d, "o")
        g1 = b.build()
        base = BaseScheduler(g1, TUTORIAL4, SchedulerConfig(ii=1, tcp=5.0))
        s_base = base.schedule()

        b2 = DFGBuilder("t", width=2)
        a, c, d = b2.input("a"), b2.input("c"), b2.input("d")
        b2.output((a ^ c) ^ d, "o")
        s_map = MapScheduler(b2.build(), TUTORIAL4,
                             SchedulerConfig(ii=1, tcp=5.0)).schedule()
        assert s_map.objective < s_base.objective
        assert len([n for n in s_map.cover
                    if s_map.graph.node(n).kind.value == "xor"
                    and s_map.cover[n].kind != "trivial"]) == 1

    def test_paper_objective_mode(self):
        g = build_fig1()
        sched = MapScheduler(
            g, TUTORIAL4,
            SchedulerConfig(ii=1, tcp=5.0, paper_objective=True),
        ).schedule()
        assert sched.latency == 1  # same structural optimum

    def test_recurrence_forces_producer_root(self):
        g = build_recurrent()
        sched = MapScheduler(g, XC7,
                             SchedulerConfig(ii=1, tcp=10.0)).schedule()
        rec = next(n for n in g if n.attrs.get("recurrence"))
        producer = rec.operands[1].source
        assert producer in sched.cover

    def test_alpha_zero_ignores_luts(self):
        # with alpha=0 the solver may pick any cover as long as registers
        # are minimal; with beta=0 it must minimize LUTs
        g = build_fig1()
        s_lut = MapScheduler(
            g, TUTORIAL4, SchedulerConfig(ii=1, tcp=5.0, alpha=1.0, beta=0.0)
        ).schedule()
        g2 = build_fig1()
        s_ff = MapScheduler(
            g2, TUTORIAL4, SchedulerConfig(ii=1, tcp=5.0, alpha=0.0, beta=1.0)
        ).schedule()
        from repro.hw import evaluate

        r_lut = evaluate(s_lut, TUTORIAL4)
        r_ff = evaluate(s_ff, TUTORIAL4)
        assert r_lut.luts <= r_ff.luts
        assert r_ff.ffs <= r_lut.ffs
