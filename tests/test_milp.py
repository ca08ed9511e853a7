"""Unit + property tests for the MILP modeling layer and backends."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.milp import Model, SolveStatus
from repro.milp.model import LinExpr


class TestExpressions:
    def test_linear_algebra(self):
        m = Model()
        x, y = m.continuous("x"), m.continuous("y")
        e = 2 * x + 3 * y - 4 + x
        assert e.coeffs[x.index] == 3
        assert e.coeffs[y.index] == 3
        assert e.constant == -4

    def test_rsub(self):
        m = Model()
        x = m.continuous("x")
        e = 10 - x
        assert e.constant == 10 and e.coeffs[x.index] == -1

    def test_negation(self):
        m = Model()
        x = m.continuous("x")
        assert (-x).coeffs[x.index] == -1
        assert (-(x + 1)).constant == -1

    def test_nonlinear_rejected(self):
        m = Model()
        x, y = m.continuous("x"), m.continuous("y")
        with pytest.raises(ModelError, match="linear"):
            (x + 1) * (y + 1)

    def test_value_evaluation(self):
        m = Model()
        x, y = m.continuous("x"), m.continuous("y")
        e = 2 * x - y + 5
        assert e.value({x.index: 3, y.index: 4}) == 7


class TestModel:
    def test_variable_kinds_and_bounds(self):
        m = Model()
        b = m.binary("b")
        i = m.integer("i", 1, 5)
        c = m.continuous("c", -2.0, 2.0)
        assert (b.lo, b.hi) == (0.0, 1.0)
        assert (i.lo, i.hi) == (1, 5)
        assert c.kind == "continuous"
        assert m.num_integer_vars == 2

    def test_empty_domain_rejected(self):
        m = Model()
        with pytest.raises(ModelError, match="empty domain"):
            m.integer("bad", 5, 1)

    def test_add_requires_constraint(self):
        m = Model()
        with pytest.raises(ModelError, match="comparison"):
            m.add(True)  # type: ignore[arg-type]

    def test_check_reports_violations(self):
        m = Model()
        x = m.binary("x")
        m.add(x >= 1, name="must_be_one")
        assert m.check({x.index: 0.0}) == ["must_be_one"]
        assert m.check({x.index: 1.0}) == []
        assert "integrality:x" in m.check({x.index: 0.5})

    def test_constraint_violation_senses(self):
        m = Model()
        x = m.continuous("x")
        le = (x <= 3)
        ge = (x >= 3)
        eq = (x == 3)
        assert le.violation({x.index: 5}) == 2
        assert ge.violation({x.index: 5}) == 0
        assert eq.violation({x.index: 5}) == 2

    def test_unknown_backend(self):
        m = Model()
        m.binary("x")
        with pytest.raises(ModelError, match="unknown backend"):
            m.solve("cplex")
        with pytest.raises(ModelError, match="unknown backend"):
            Model().solve("cplex")


class TestBackends:
    @pytest.mark.parametrize("backend", ["scipy", "bnb"])
    def test_simple_min(self, backend):
        m = Model()
        x = m.integer("x", 0, 10)
        y = m.integer("y", 0, 10)
        m.add(x + y >= 7)
        m.minimize(3 * x + 5 * y)
        sol = m.solve(backend)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.int_value(x) == 7 and sol.int_value(y) == 0

    @pytest.mark.parametrize("backend", ["scipy", "bnb"])
    def test_maximize(self, backend):
        m = Model()
        x = m.binary("x")
        y = m.binary("y")
        m.add(x + y <= 1)
        m.maximize(2 * x + 3 * y)
        sol = m.solve(backend)
        assert sol.objective == pytest.approx(3.0)

    @pytest.mark.parametrize("backend", ["scipy", "bnb"])
    def test_infeasible(self, backend):
        m = Model()
        x = m.binary("x")
        m.add(x >= 1)
        m.add(x <= 0)
        m.minimize(1 * x)
        assert m.solve(backend).status == SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("backend", ["scipy", "bnb"])
    def test_equality_constraints(self, backend):
        m = Model()
        x = m.continuous("x", 0, 100)
        y = m.integer("y", 0, 100)
        m.add(x + y == 7.5)
        m.add(y >= 3)
        m.minimize(1 * x)
        sol = m.solve(backend)
        # y must be integer, so the best x is the fractional residue 0.5
        assert sol[x] == pytest.approx(0.5)
        assert sol.int_value(y) == 7

    def test_empty_model(self):
        m = Model()
        sol = m.solve("scipy")
        assert sol.status == SolveStatus.OPTIMAL and sol.objective == 0.0

    @pytest.mark.parametrize("backend", ["scipy", "bnb"])
    def test_variable_free_violated_row_is_infeasible(self, backend):
        m = Model()
        m.add(LinExpr({}, 1.0) <= 0)
        sol = m.solve(backend)
        assert sol.status == SolveStatus.INFEASIBLE
        assert sol.objective is None

    @pytest.mark.parametrize("backend", ["scipy", "bnb"])
    def test_variable_free_objective_is_its_constant(self, backend):
        m = Model()
        m.add(LinExpr({}, -1.0) <= 0)
        m.minimize(LinExpr({}, 5.0))
        sol = m.solve(backend)
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(5.0)

    def test_solution_getitem_default(self):
        m = Model()
        x = m.binary("x")
        m.minimize(1 * x)
        sol = m.solve("scipy")
        assert sol[x] in (0.0, 1.0)
        assert sol.ok


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_vars=st.integers(min_value=1, max_value=5),
    n_cons=st.integers(min_value=1, max_value=6),
)
def test_property_backends_agree(seed, n_vars, n_cons):
    """HiGHS and the pure-Python branch-and-bound find the same optimum on
    random bounded integer programs."""
    import random

    rng = random.Random(seed)

    def build():
        m = Model()
        xs = [m.integer(f"x{i}", 0, rng_state["hi"][i]) for i in range(n_vars)]
        for c in range(n_cons):
            expr = LinExpr()
            for i, x in enumerate(xs):
                expr = expr + rng_state["a"][c][i] * x
            if rng_state["sense"][c]:
                m.add(expr <= rng_state["rhs"][c])
            else:
                m.add(expr >= -rng_state["rhs"][c])
        obj = LinExpr()
        for i, x in enumerate(xs):
            obj = obj + rng_state["c"][i] * x
        m.minimize(obj)
        return m

    rng_state = {
        "hi": [rng.randint(1, 4) for _ in range(n_vars)],
        "a": [[rng.randint(-3, 3) for _ in range(n_vars)]
              for _ in range(n_cons)],
        "rhs": [rng.randint(0, 8) for _ in range(n_cons)],
        "sense": [rng.random() < 0.5 for _ in range(n_cons)],
        "c": [rng.randint(-5, 5) for _ in range(n_vars)],
    }
    s1 = build().solve("scipy")
    s2 = build().solve("bnb")
    assert (s1.status == SolveStatus.INFEASIBLE) == \
        (s2.status == SolveStatus.INFEASIBLE)
    if s1.status == SolveStatus.OPTIMAL and s2.status == SolveStatus.OPTIMAL:
        assert s1.objective == pytest.approx(s2.objective, abs=1e-5)
