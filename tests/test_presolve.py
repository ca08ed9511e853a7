"""Presolve safety: reductions must never change what the model means.

Three layers of evidence, mirroring docs/performance.md:

* random-model properties — presolve + postsolve agrees with a raw solve
  on status and objective, reports *every* variable (including fixed
  ones), and its expanded assignment satisfies the original constraints;
* structure regressions — the one-hot circularity hazard (a group's
  defining row must not be dropped under its own invariant) and
  group-aware big-M tightening;
* the real formulations — the Table 2 models shrink and still solve to
  the same optimum;
* the solver micro models — presolve keeps the cold branch-and-bound
  optimum.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SchedulerConfig
from repro.core.mapsched import MapScheduler
from repro.designs.registry import BENCHMARKS
from repro.milp.model import LinExpr, Model, SolveStatus
from repro.milp.presolve import Postsolve, PresolveStats, presolve


def _random_model(seed: int, n_vars: int, n_cons: int) -> Model:
    rng = random.Random(seed)
    m = Model(f"rand{seed}")
    xs = []
    for i in range(n_vars):
        kind = rng.random()
        if kind < 0.4:
            xs.append(m.binary(f"b{i}"))
        elif kind < 0.8:
            xs.append(m.integer(f"i{i}", 0, rng.randint(1, 5)))
        else:
            xs.append(m.continuous(f"c{i}", 0.0, rng.uniform(1.0, 6.0)))
    for c in range(n_cons):
        expr = LinExpr()
        for x in xs:
            if rng.random() < 0.7:
                expr = expr + rng.randint(-3, 3) * x
        rhs = rng.randint(0, 8)
        if rng.random() < 0.5:
            m.add(expr <= rhs)
        else:
            m.add(expr >= -rhs)
    obj = LinExpr()
    for x in xs:
        obj = obj + rng.randint(-4, 4) * x
    m.minimize(obj)
    return m


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_vars=st.integers(min_value=1, max_value=6),
    n_cons=st.integers(min_value=1, max_value=7),
)
def test_property_presolve_round_trip(seed, n_vars, n_cons):
    raw = _random_model(seed, n_vars, n_cons).solve("scipy")

    model = _random_model(seed, n_vars, n_cons)
    reduced, post = presolve(model)
    assert isinstance(post, Postsolve)
    assert isinstance(post.stats, PresolveStats)
    assert reduced.num_vars <= model.num_vars
    assert reduced.num_constraints <= model.num_constraints

    if post.status is not None:
        # Presolve proved infeasibility — the raw solve must agree.
        assert post.status == SolveStatus.INFEASIBLE
        assert raw.status == SolveStatus.INFEASIBLE
        return
    sol = post.expand(reduced.solve("scipy"))
    assert (raw.status == SolveStatus.INFEASIBLE) == \
        (sol.status == SolveStatus.INFEASIBLE)
    if raw.status == SolveStatus.OPTIMAL \
            and sol.status == SolveStatus.OPTIMAL:
        assert sol.objective == pytest.approx(raw.objective, abs=1e-5)
        # Every original variable is reported, fixed ones included.
        assert set(sol.values) == {v.index for v in model.variables}
        assert model.check(sol.values) == []


def test_one_hot_defining_row_survives_its_own_invariant():
    """Regression: ``sum(x) == 1`` looked redundant under the invariant
    it defines, got dropped, and the solver then violated assignment."""
    m = Model("one-hot")
    xs = [m.binary(f"s{t}") for t in range(4)]
    m.add(sum(xs) == 1)
    m.minimize(sum((t + 1) * x for t, x in enumerate(xs)))
    reduced, post = presolve(m)
    assert post.status is None
    sol = post.expand(reduced.solve("scipy"))
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0)
    assert sum(sol.values[x.index] for x in xs) == pytest.approx(1.0)


def test_group_aware_bigm_tightening_fires():
    """One-hot structure lets presolve shrink a big-M coefficient that a
    single-row activity bound would consider hopeless."""
    m = Model("bigm")
    xs = [m.binary(f"s{t}") for t in range(4)]
    c = m.binary("c")
    l = m.continuous("L", lo=0.0, hi=8.0)
    m.add(sum(xs) == 1)
    m.add(l - sum(t * x for t, x in enumerate(xs)) + 100.0 * c >= 0.0)
    m.minimize(l + sum(t * x for t, x in enumerate(xs)) + 0.5 * c)
    reduced, post = presolve(m)
    assert post.status is None
    assert post.stats.coeffs_tightened >= 1
    sol = post.expand(reduced.solve("scipy"))
    raw = m.solve("scipy")
    assert sol.objective == pytest.approx(raw.objective, abs=1e-6)


def test_presolve_proves_infeasibility_without_solving():
    m = Model("infeasible")
    x = m.binary("x")
    y = m.binary("y")
    m.add(x + y >= 3)
    m.minimize(x + y)
    reduced, post = presolve(m)
    assert post.status == SolveStatus.INFEASIBLE
    sol = m.solve("scipy", presolve=True)
    assert sol.status == SolveStatus.INFEASIBLE
    assert "presolve" in sol.message


def test_fixed_variables_round_trip_through_expand():
    m = Model("fix")
    x = m.integer("x", 3, 3)          # already fixed by its bounds
    y = m.integer("y", 0, 5)
    m.add(x + y <= 6)
    m.minimize(-1 * y)
    reduced, post = presolve(m)
    sol = post.expand(reduced.solve("scipy"))
    assert sol.values[x.index] == pytest.approx(3.0)
    assert sol.objective == pytest.approx(-3.0)


@pytest.mark.parametrize("design", ["GSM", "DR", "CLZ"])
def test_real_formulation_agrees_and_shrinks(design):
    """The Table 2 MILPs shrink under presolve and keep their optimum."""
    from repro.ir.transforms import narrow_graph

    graph, _ = narrow_graph(BENCHMARKS[design].build())
    config = SchedulerConfig(presolve=False, warm_start=False)
    scheduler = MapScheduler(graph, config=config)
    scheduler.enumerate()
    from repro.core.formulation import MappingAwareFormulation

    formulation = MappingAwareFormulation(
        graph, scheduler.cuts, scheduler.device, config,
        scheduler._horizon())
    model = formulation.build()
    reduced, post = presolve(model)
    assert post.status is None
    stats = post.stats
    assert stats.cons_after < stats.cons_before
    assert stats.one_hot_groups > 0
    raw = model.solve("scipy")
    sol = post.expand(reduced.solve("scipy"))
    assert raw.status == SolveStatus.OPTIMAL
    assert sol.status == SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(raw.objective, abs=1e-5)
    assert model.check(sol.values) == []


# ----------------------------------------------------------------------
# Solver micro models: the small MILPs whose presolved-vs-cold bnb wall
# ratio docs/performance.md records.
# ----------------------------------------------------------------------
def _micro_knapsack() -> tuple[Model, dict[int, float]]:
    """0/1 knapsack with a greedy warm start (bound-lift friendly)."""
    n = 24
    model = Model("micro-knapsack")
    weights = [3 + (i * 7) % 11 for i in range(n)]
    values = [2 + (i * 5) % 9 for i in range(n)]
    xs = [model.binary(f"x{i}") for i in range(n)]
    cap = sum(weights) // 3
    model.add(sum(w * x for w, x in zip(weights, xs)) <= cap)
    model.minimize(sum(-v * x for v, x in zip(values, xs)))
    order = sorted(range(n), key=lambda i: values[i] / weights[i],
                   reverse=True)
    warm: dict[int, float] = {x.index: 0.0 for x in xs}
    load = 0
    for i in order:
        if load + weights[i] <= cap:
            warm[xs[i].index] = 1.0
            load += weights[i]
    return model, warm


def _micro_assignment() -> tuple[Model, dict[int, float]]:
    """One-hot slot assignment with precedence — a miniature scheduler:
    one-hot rows, big-M-free precedence over ``sum t*x``, and a
    continuous length variable chained to the chosen slot."""
    groups, slots = 8, 6
    model = Model("micro-assignment")
    xs = [[model.binary(f"s{g}_{t}") for t in range(slots)]
          for g in range(groups)]
    ls = [model.continuous(f"L{g}", lo=0.0, hi=float(slots))
          for g in range(groups)]
    warm: dict[int, float] = {}
    for g in range(groups):
        model.add(sum(xs[g]) == 1)
        slot_expr = sum(t * xs[g][t] for t in range(1, slots))
        model.add(ls[g] >= slot_expr)
        if g:
            prev = sum(t * xs[g - 1][t] for t in range(1, slots))
            model.add(slot_expr >= prev)
        chosen = min(g, slots - 1)
        for t in range(slots):
            warm[xs[g][t].index] = 1.0 if t == chosen else 0.0
        warm[ls[g].index] = float(chosen)
    cost = sum(((g * 3 + t * 5) % 7 + 1) * xs[g][t]
               for g in range(groups) for t in range(slots))
    model.minimize(cost + sum(0.25 * l for l in ls))
    return model, warm


def _micro_bigm_chain() -> tuple[Model, dict[int, float]]:
    """One-hot slots chained through loose big-M rows — the shape of the
    paper's Eq. 5/6 timing chains, with big-M coefficients far looser
    than the one-hot structure allows (group-aware tightening's target)."""
    stages, slots, big = 7, 6, 120.0
    model = Model("micro-bigm-chain")
    xs = [[model.binary(f"s{g}_{t}") for t in range(slots)]
          for g in range(stages)]
    ms = [model.binary(f"m{g}") for g in range(stages)]
    ls = [model.continuous(f"L{g}", lo=0.0, hi=float(2 * stages))
          for g in range(stages)]
    warm: dict[int, float] = {}
    for g in range(stages):
        model.add(sum(xs[g]) == 1)
        slot_expr = sum(t * xs[g][t] for t in range(1, slots))
        model.add(ls[g] >= slot_expr)
        if g:
            model.add(ls[g] >= ls[g - 1] + 2 - big * ms[g])
        chosen = min(2 * g, slots - 1)
        for t in range(slots):
            warm[xs[g][t].index] = 1.0 if t == chosen else 0.0
        warm[ms[g].index] = 0.0 if g < 3 else 1.0
        warm[ls[g].index] = float(max(chosen, 2 * g))
    model.add(sum(ms) <= stages - 3)
    cost = sum(((g * 5 + t * 3) % 6 + 1) * xs[g][t]
               for g in range(stages) for t in range(slots))
    model.minimize(cost + sum(ls) + 3.0 * sum(ms))
    return model, warm


@pytest.mark.parametrize("build, optimum", [
    pytest.param(_micro_knapsack, -78.0, id="knapsack"),
    pytest.param(_micro_assignment, 22.0, id="assignment"),
    pytest.param(_micro_bigm_chain, 30.0, id="bigm-chain"),
])
def test_presolve_and_warm_start_keep_the_bnb_optimum(build, optimum):
    """Cold bnb and presolve -> bnb -> expand agree on status and
    objective, and neither is worse than the builder's feasible warm
    point."""
    model, warm = build()
    assert model.check(warm) == []
    cold = model.solve("bnb", time_limit=60.0)
    reduced, post = presolve(model)
    assert post.status is None
    sol = post.expand(reduced.solve("bnb", time_limit=60.0))
    assert cold.status == sol.status == SolveStatus.OPTIMAL
    assert cold.objective == pytest.approx(optimum, abs=1e-6)
    assert sol.objective == pytest.approx(cold.objective, abs=1e-6)
    assert cold.objective <= model.objective.value(warm) + 1e-6
