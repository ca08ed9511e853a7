"""Edge-path tests for the branch-and-bound backend and the LP writer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.milp import Model, SolveStatus, write_lp
from repro.milp.bnb import (
    _EPS,
    _most_fractional,
    _pick_branch_var,
    solve_branch_and_bound,
)


class TestBnBEdges:
    def test_node_limit_returns_incumbent_or_error(self):
        m = Model()
        xs = [m.binary(f"x{i}") for i in range(12)]
        expr = xs[0] * 0
        for i, x in enumerate(xs):
            expr = expr + (i % 3 + 1) * x
        m.add(expr <= 10)
        obj = xs[0] * 0
        for i, x in enumerate(xs):
            obj = obj + (7 - i) * x
        m.maximize(obj)
        sol = solve_branch_and_bound(m, max_nodes=2)
        # with a tiny node budget we either get a feasible incumbent or an
        # explicit no-incumbent status; never a silently wrong OPTIMAL claim
        if sol.status == SolveStatus.OPTIMAL:
            full = m.solve("scipy")
            assert sol.objective == pytest.approx(full.objective)
        else:
            assert sol.status in (SolveStatus.FEASIBLE,
                                  SolveStatus.NO_INCUMBENT)

    def test_continuous_only_model(self):
        m = Model()
        x = m.continuous("x", 0, 4)
        y = m.continuous("y", 0, 4)
        m.add(x + y >= 3)
        m.minimize(x + 2 * y)
        sol = solve_branch_and_bound(m)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(3.0)

    def test_unbounded_detected(self):
        m = Model()
        x = m.continuous("x", 0, float("inf"))
        m.add(x >= 1)
        m.maximize(1 * x)
        assert m.solve("bnb").status == SolveStatus.UNBOUNDED

    def test_time_limit_zero_still_safe(self):
        m = Model()
        x = m.binary("x")
        m.add(x >= 0)
        m.minimize(1 * x)
        sol = solve_branch_and_bound(m, time_limit=0.0)
        assert sol.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE,
                              SolveStatus.NO_INCUMBENT)

    def _knapsack(self):
        """Small max-knapsack with a known optimum of 13 at x1=x2=x3=1."""
        m = Model()
        xs = [m.binary(f"x{i}") for i in range(4)]
        m.add(3 * xs[0] + 5 * xs[1] + 4 * xs[2] + 6 * xs[3] <= 12, "cap")
        m.maximize(4 * xs[0] + 5 * xs[1] + 4 * xs[2] + 6 * xs[3])
        return m, xs

    def test_exhausted_prunable_frontier_is_optimal(self):
        # Regression for the status bug: a limit-terminated search whose
        # surviving heap entries are all prunable has in fact proven
        # optimality. With the known optimum as a warm start and an
        # integral objective, the root bound is prunable immediately, so
        # even max_nodes=0 must report OPTIMAL (the old logic said
        # FEASIBLE whenever the limit fired).
        m, xs = self._knapsack()
        warm = {xs[0].index: 1.0, xs[1].index: 1.0, xs[2].index: 1.0,
                xs[3].index: 0.0}
        sol = solve_branch_and_bound(m, max_nodes=0, warm_start=warm)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(13.0)
        assert sol.stats["warm_start"] is True

    def test_infeasible_warm_start_ignored(self):
        m, xs = self._knapsack()
        warm = {x.index: 1.0 for x in xs}  # violates the capacity row
        sol = solve_branch_and_bound(m, warm_start=warm)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(13.0)
        assert sol.stats["warm_start"] is False

    def test_limit_without_incumbent_is_no_incumbent(self):
        m, _ = self._knapsack()
        sol = solve_branch_and_bound(m, max_nodes=0)
        # No warm start, a fractional root, and a zero node budget: the
        # dive heuristic may still find an incumbent (FEASIBLE/OPTIMAL),
        # but a missing incumbent must be NO_INCUMBENT, never ERROR.
        assert sol.status != SolveStatus.ERROR
        if sol.objective is None:
            assert sol.status == SolveStatus.NO_INCUMBENT

    def test_matches_scipy_on_mixed_model(self):
        m = Model()
        x = m.integer("x", 0, 7)
        y = m.binary("y")
        z = m.continuous("z", 0.0, 2.5)
        m.add(x + 3 * y + z <= 8, "cap")
        m.add(x - z >= 1, "link")
        m.maximize(2 * x + 5 * y + z)
        ours = solve_branch_and_bound(m)
        ref = m.solve("scipy")
        assert ours.status == SolveStatus.OPTIMAL
        assert ours.objective == pytest.approx(ref.objective)
        assert "nodes=" in ours.message and "lps=" in ours.message

    def test_branch_hints_are_safe(self):
        # Hints only steer the dive heuristic; a misleading hint must
        # never change the final answer.
        m, xs = self._knapsack()
        hints = {x.index: 0.0 for x in xs}
        sol = solve_branch_and_bound(m, branch_hints=hints)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(13.0)


def scalar_most_fractional(x, int_vars):
    """Pure-Python reference for :func:`_most_fractional`."""
    pick, best = None, 1.0
    for idx in int_vars:
        frac = abs(x[idx] - round(x[idx]))
        if frac > _EPS and abs(frac - 0.5) < best:
            pick, best = idx, abs(frac - 0.5)
    return pick


def scalar_pick_branch_var(x, int_vars, pc_sum, pc_count):
    """Pure-Python reference for :func:`_pick_branch_var`: one strict
    comparison per variable, so the first extremum wins every tie."""
    unlearned, pick, best_score, best_frac = None, None, -1.0, 1.0
    for idx in int_vars:
        frac = abs(x[idx] - round(x[idx]))
        if frac <= _EPS:
            continue
        f = x[idx] - math.floor(x[idx])
        if not (pc_count[0][idx] > 0 and pc_count[1][idx] > 0):
            if abs(frac - 0.5) < best_frac:
                unlearned, best_frac = idx, abs(frac - 0.5)
            continue
        score = (max(_EPS, (pc_sum[0][idx] / pc_count[0][idx]) * f)
                 * max(_EPS, (pc_sum[1][idx] / pc_count[1][idx]) * (1.0 - f)))
        if score > best_score:
            pick, best_score = idx, score
    return unlearned if unlearned is not None else pick


#: LP values mixing integral points, exact halves (ties) and fractions.
_LP_VALUE = st.one_of(st.integers(-3, 3).map(float),
                      st.integers(-3, 3).map(lambda k: k + 0.5),
                      st.floats(-3.0, 3.0, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 24))
def test_branching_matches_scalar_reference(data, n):
    """The array branching picks exactly what the scalar loop picks, for
    any LP point and pseudo-cost history (so the search tree is the same)."""
    x = data.draw(st.lists(_LP_VALUE, min_size=n, max_size=n))
    int_vars = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    row = st.lists(st.integers(1, 3), min_size=n, max_size=n)
    counts = [data.draw(row), data.draw(row)]
    # A few variables lack history on one side; often none do, so the
    # pseudo-cost score path runs as often as the fallback.
    for idx in data.draw(st.sets(st.integers(0, n - 1), max_size=3)):
        counts[data.draw(st.integers(0, 1))][idx] = 0
    sums = data.draw(st.lists(st.lists(st.floats(0.0, 50.0), min_size=n,
                                       max_size=n), min_size=2, max_size=2))
    ivs = np.array(int_vars, dtype=np.intp)
    xa = np.array(x)
    assert _most_fractional(xa, ivs) == scalar_most_fractional(x, int_vars)
    assert (_pick_branch_var(xa, ivs, np.array(sums, dtype=float),
                             np.array(counts, dtype=float))
            == scalar_pick_branch_var(x, int_vars, sums, counts))


class TestLPWriterEdges:
    def test_infinite_bounds_rendered(self):
        m = Model()
        m.continuous("free", 0.0, float("inf"))
        m.minimize(m.variables[0] * 1.0)
        assert "+inf" in write_lp(m)

    def test_names_sanitized(self):
        m = Model()
        v = m.binary("c[3,7]")
        m.add(v <= 1)
        m.minimize(1 * v)
        text = write_lp(m)
        assert "c[3,7]" not in text  # brackets are not legal LP identifiers
        assert "c_3_7_" in text

    def test_unit_coefficients_compact(self):
        m = Model()
        x = m.continuous("x", 0, 1)
        y = m.continuous("y", 0, 1)
        m.add(x - y <= 0, name="ord")
        m.minimize(x + y)
        text = write_lp(m)
        assert "ord: x - y <= 0" in text

    def test_empty_objective(self):
        m = Model()
        m.binary("x")
        text = write_lp(m)
        assert "Minimize" in text and "End" in text
