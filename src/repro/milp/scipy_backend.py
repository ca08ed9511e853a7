"""HiGHS backend via :func:`scipy.optimize.milp`.

This is the production solver (the CPLEX stand-in). Models are lowered to
the sparse constraint-matrix form scipy expects; the paper's 60-minute cap
maps to the ``time_limit`` option, and like the paper we accept the best
incumbent when the limit fires (Sec. 4: "return the best solution found").
"""

from __future__ import annotations

import numpy as np
from scipy import optimize, sparse

from ..errors import SolverError
from .model import Model, Solution, SolveStatus

__all__ = ["solve_scipy"]

_KIND_TO_INTEGRALITY = {"continuous": 0, "integer": 1, "binary": 1}


def _lower(model: Model):
    """Lower a Model to (c, A, lb_con, ub_con, bounds, integrality)."""
    n = model.num_vars
    c = np.zeros(n)
    for idx, coeff in model.objective.coeffs.items():
        c[idx] = coeff
    if model.sense == "max":
        c = -c

    rows, cols, data = [], [], []
    lb_con, ub_con = [], []
    for row, con in enumerate(model.constraints):
        for idx, coeff in con.expr.coeffs.items():
            if coeff != 0.0:
                rows.append(row)
                cols.append(idx)
                data.append(coeff)
        rhs = -con.expr.constant
        if con.sense == "<=":
            lb_con.append(-np.inf)
            ub_con.append(rhs)
        elif con.sense == ">=":
            lb_con.append(rhs)
            ub_con.append(np.inf)
        else:
            lb_con.append(rhs)
            ub_con.append(rhs)
    a = sparse.csr_matrix(
        (data, (rows, cols)), shape=(len(model.constraints), n)
    )

    lo = np.array([v.lo for v in model.variables])
    hi = np.array([v.hi for v in model.variables])
    integrality = np.array(
        [_KIND_TO_INTEGRALITY[v.kind] for v in model.variables]
    )
    return c, a, np.array(lb_con), np.array(ub_con), lo, hi, integrality


def solve_scipy(model: Model, time_limit: float | None = None,
                disp: bool = False) -> Solution:
    """Solve ``model`` with HiGHS; returns a :class:`Solution`.

    Variable-free models are decided by :meth:`Model.solve` before any
    backend runs.
    """
    c, a, lb_con, ub_con, lo, hi, integrality = _lower(model)

    options: dict = {"disp": disp}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)

    constraints = (
        optimize.LinearConstraint(a, lb_con, ub_con)
        if model.num_constraints
        else ()
    )
    try:
        result = optimize.milp(
            c=c,
            constraints=constraints,
            bounds=optimize.Bounds(lo, hi),
            integrality=integrality,
            options=options,
        )
    except Exception as exc:  # pragma: no cover - scipy-internal failures
        raise SolverError(f"scipy.optimize.milp failed: {exc}") from exc

    # HiGHS statuses: 0 optimal, 1 iteration/time limit, 2 infeasible,
    # 3 unbounded, 4 other.
    if result.status == 0:
        status = SolveStatus.OPTIMAL
    elif result.status == 1 and result.x is not None:
        status = SolveStatus.FEASIBLE
    elif result.status == 1:
        # The cap fired before branch-and-bound found any incumbent. The
        # model is not known to be broken *or* infeasible — only under-
        # budgeted — so report that precisely instead of ERROR.
        status = SolveStatus.NO_INCUMBENT
    elif result.status == 2:
        status = SolveStatus.INFEASIBLE
    elif result.status == 3:
        status = SolveStatus.UNBOUNDED
    else:
        status = SolveStatus.ERROR

    values: dict[int, float] = {}
    objective = None
    message = str(getattr(result, "message", ""))
    if result.x is not None:
        # Snap integer variables; HiGHS returns values within tolerance.
        x = np.asarray(result.x, dtype=float)
        snapped = np.where(integrality > 0, np.round(x), x)
        # The snap moved the point; confirm it is still feasible before
        # recomputing the objective on it. A violation here means HiGHS's
        # integrality tolerance let a genuinely fractional point through —
        # surfacing it beats silently reporting a wrong objective. The
        # check reuses the already-assembled matrices (one spmv) instead
        # of re-walking every constraint expression in Python.
        tol = 1e-4
        violated = []
        if model.num_constraints:
            ax = a @ snapped
            for i in np.flatnonzero((ax < lb_con - tol) | (ax > ub_con + tol)):
                violated.append(model.constraints[i].name or f"c{i}")
        for j in np.flatnonzero((snapped < lo - tol) | (snapped > hi + tol)):
            violated.append(f"bounds:{model.variables[j].name}")
        if violated:
            preview = ", ".join(violated[:5])
            more = f" (+{len(violated) - 5} more)" if len(violated) > 5 else ""
            status = SolveStatus.ERROR
            message = (f"rounded solution violates {len(violated)} "
                       f"constraint(s): {preview}{more}")
        else:
            values = {i: float(v) for i, v in enumerate(snapped)}
            objective = model.objective.value(values)

    # HiGHS search effort, for the ``solve`` trace span.
    stats: dict = {}
    node_count = getattr(result, "mip_node_count", None)
    gap = getattr(result, "mip_gap", None)
    dual_bound = getattr(result, "mip_dual_bound", None)
    if node_count is not None:
        stats["nodes"] = int(node_count)
    if dual_bound is not None and np.isfinite(dual_bound):
        stats["dual_bound"] = float(dual_bound)
    if node_count is not None or gap is not None:
        detail = f"nodes={int(node_count) if node_count is not None else '?'}"
        if gap is not None:
            detail += f" gap={float(gap):.3g}"
        message = f"{message} [{detail}]" if message else detail
    return Solution(
        status=status,
        objective=objective,
        values=values,
        gap=float(gap) if gap is not None else None,
        message=message,
        stats=stats,
    )
