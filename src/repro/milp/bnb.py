"""A pure-Python branch-and-bound MILP solver.

Educational/backup backend: LP relaxations are solved with HiGHS's *LP*
solver (``scipy.optimize.linprog``), and integrality is enforced by
branching. It is orders of magnitude slower than
:mod:`repro.milp.scipy_backend` on large models but exercises the same
:class:`~repro.milp.model.Model` contract and is handy for verifying the
production backend on small instances (the test suite cross-checks the
two).

The search is best-bound with several of the devices a real MIP solver
leans on (see ``docs/performance.md`` for measurements):

* **warm starts** — a caller-supplied feasible assignment becomes the
  initial incumbent after re-validation with :meth:`Model.check`, so
  pruning starts at the root instead of after the first dive;
* **bound lifting** — when the objective restricted to the model is
  provably integral (all-integer support, integral coefficients), every
  LP bound is rounded up to the next integer, which closes unit-sized
  gaps without branching;
* **pseudo-cost branching** — per-variable averages of the LP
  degradation observed when branching down/up rank candidate variables
  (product score); variables with no history yet fall back to
  most-fractional selection so early branches still learn;
* **a dive heuristic** — bounded LP re-solves (``_DIVE_LPS``) that round
  the relaxation toward ``branch_hints`` to manufacture an incumbent
  early when the caller could not supply one;
* **lazy pruning** — nodes are pruned against the incumbent both at push
  and at pop time (the heap is never rebuilt), and an exhausted search
  whose surviving heap entries are all prunable reports ``OPTIMAL``, not
  ``FEASIBLE``.

Hitting a node/time limit with no incumbent reports ``NO_INCUMBENT``
(the model may well be feasible — the cap was simply too tight), in line
with the scipy backend's contract.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Mapping

import numpy as np
from scipy import optimize, sparse

from .model import Model, Solution, SolveStatus

__all__ = ["solve_branch_and_bound"]

_EPS = 1e-6
#: LP budget for the rounding/dive primal heuristic.
_DIVE_LPS = 30


def _relaxation_matrices(model: Model):
    n = model.num_vars
    c = np.zeros(n)
    for idx, coeff in model.objective.coeffs.items():
        c[idx] = coeff
    if model.sense == "max":
        c = -c

    ub_rows, ub_cols, ub_data, b_ub = [], [], [], []
    eq_rows, eq_cols, eq_data, b_eq = [], [], [], []
    for con in model.constraints:
        rhs = -con.expr.constant
        if con.sense == "==":
            row = len(b_eq)
            for idx, coeff in con.expr.coeffs.items():
                eq_rows.append(row)
                eq_cols.append(idx)
                eq_data.append(coeff)
            b_eq.append(rhs)
        else:
            sign = 1.0 if con.sense == "<=" else -1.0
            row = len(b_ub)
            for idx, coeff in con.expr.coeffs.items():
                ub_rows.append(row)
                ub_cols.append(idx)
                ub_data.append(sign * coeff)
            b_ub.append(sign * rhs)

    a_ub = sparse.csr_matrix((ub_data, (ub_rows, ub_cols)),
                             shape=(len(b_ub), n)) if b_ub else None
    a_eq = sparse.csr_matrix((eq_data, (eq_rows, eq_cols)),
                             shape=(len(b_eq), n)) if b_eq else None
    return c, a_ub, np.array(b_ub), a_eq, np.array(b_eq)


def _most_fractional(x: np.ndarray, ivs: np.ndarray) -> int | None:
    """The integer variable (of ``ivs``) whose value is closest to ``.5``.

    Ties go to the first in ``ivs`` order (``np.argmin`` returns the first
    minimizer), so the search tree is deterministic.
    """
    xi = x[ivs]
    frac = np.abs(xi - np.round(xi))
    cand = frac > _EPS
    if not cand.any():
        return None
    dist = np.where(cand, np.abs(frac - 0.5), np.inf)
    return int(ivs[np.argmin(dist)])


def _pick_branch_var(x: np.ndarray, ivs: np.ndarray, pc_sum: np.ndarray,
                     pc_count: np.ndarray) -> int | None:
    """Branching variable by pseudo-cost product score.

    ``pc_sum``/``pc_count`` are ``(2, num_vars)``: row 0 accumulates the
    LP degradation per unit of fractionality observed branching down,
    row 1 branching up. A fractional variable without history on both
    sides is picked most-fractional first (every branch on one feeds
    the pseudo-costs). Ties go to the first in ``ivs`` order.
    """
    xi = x[ivs]
    frac = np.abs(xi - np.round(xi))
    cand = frac > _EPS
    if not cand.any():
        return None
    learned = (pc_count[0, ivs] > 0) & (pc_count[1, ivs] > 0)
    unl = cand & ~learned
    if unl.any():
        dist = np.where(unl, np.abs(frac - 0.5), np.inf)
        return int(ivs[np.argmin(dist)])
    sel = np.flatnonzero(cand)
    idxs = ivs[sel]
    f = xi[sel] - np.floor(xi[sel])
    score = (np.maximum(_EPS, (pc_sum[0, idxs] / pc_count[0, idxs]) * f)
             * np.maximum(_EPS, (pc_sum[1, idxs] / pc_count[1, idxs])
                          * (1.0 - f)))
    return int(idxs[np.argmax(score)])


def solve_branch_and_bound(model: Model, time_limit: float | None = None,
                           max_nodes: int = 200000,
                           mip_abs_gap: float = 1e-6,
                           mip_rel_gap: float | None = None,
                           warm_start: Mapping[int, float] | None = None,
                           branch_hints: Mapping[int, float] | None = None,
                           ) -> Solution:
    """Solve ``model`` by branch and bound over LP relaxations.

    ``warm_start`` is a feasible original-space assignment (variable
    index -> value); it is re-validated with :meth:`Model.check` and
    silently ignored when stale, so callers may pass best-effort hints.
    ``branch_hints`` biases the dive heuristic's rounding direction
    (typically the schedule found at a previous II).
    """
    if model.num_vars == 0:
        return Solution(status=SolveStatus.OPTIMAL,
                        objective=model.objective.value({}), values={})

    c, a_ub, b_ub, a_eq, b_eq = _relaxation_matrices(model)
    int_vars = [v.index for v in model.variables if v.kind != "continuous"]
    base_lo = np.array([v.lo for v in model.variables], dtype=float)
    base_hi = np.array([v.hi for v in model.variables], dtype=float)
    hints = dict(branch_hints or {})
    ivs = np.array(int_vars, dtype=np.intp)

    # Bound lifting is sound when c.x is integral at every integer point:
    # the objective must not touch continuous variables and all integer
    # coefficients must be integers. (The scheduling objective carries a
    # 1e-4 regularizer, so the lift mostly fires on test/microbench
    # models — cheap to detect, free when inapplicable.)
    int_set = set(int_vars)
    integral_obj = all(
        idx in int_set and abs(coeff - round(coeff)) < 1e-9
        for idx, coeff in enumerate(c) if coeff != 0.0
    )

    def lift(bound: float) -> float:
        return math.ceil(bound - _EPS) if integral_obj else bound

    start = time.monotonic()
    deadline = start + time_limit if time_limit is not None else None
    lps = 0

    def solve_lp(lo: np.ndarray, hi: np.ndarray):
        nonlocal lps
        lps += 1
        return optimize.linprog(
            c, A_ub=a_ub, b_ub=b_ub if a_ub is not None else None,
            A_eq=a_eq, b_eq=b_eq if a_eq is not None else None,
            bounds=np.column_stack([lo, hi]), method="highs",
        )

    incumbent: np.ndarray | None = None
    incumbent_obj = np.inf
    warm_used = False

    def prune_eps() -> float:
        if mip_rel_gap is not None and np.isfinite(incumbent_obj):
            return max(mip_abs_gap, mip_rel_gap * abs(incumbent_obj))
        return mip_abs_gap

    def offer_incumbent(x: np.ndarray, obj: float) -> None:
        nonlocal incumbent, incumbent_obj
        if obj < incumbent_obj - _EPS:
            incumbent = x.copy()
            incumbent_obj = obj

    if warm_start and not model.check(warm_start):
        xw = np.array([float(warm_start.get(v.index, 0.0))
                       for v in model.variables])
        offer_incumbent(xw, float(c @ xw))
        warm_used = incumbent is not None

    root = solve_lp(base_lo, base_hi)
    if root.status == 2:
        return Solution(status=SolveStatus.INFEASIBLE, objective=None)
    if root.status == 3:
        return Solution(status=SolveStatus.UNBOUNDED, objective=None)
    if root.status != 0:
        return Solution(status=SolveStatus.ERROR, objective=None,
                        message=str(root.message))

    def dive(x0: np.ndarray, lo0: np.ndarray, hi0: np.ndarray) -> None:
        """Round-and-refix primal heuristic: hint-directed rounding."""
        lo, hi = lo0.copy(), hi0.copy()
        x = x0
        for _ in range(_DIVE_LPS):
            if deadline is not None and time.monotonic() > deadline:
                return
            j = _most_fractional(x, ivs)
            if j is None:
                offer_incumbent(x, float(c @ x))
                return
            target = hints.get(j)
            val = round(target) if target is not None else round(x[j])
            val = min(max(val, lo[j]), hi[j])
            lo[j] = hi[j] = float(val)
            res = solve_lp(lo, hi)
            if res.status != 0:
                return
            x = res.x

    if _most_fractional(root.x, ivs) is None:
        offer_incumbent(root.x, float(root.fun))
    elif incumbent is None:
        dive(root.x, base_lo, base_hi)

    counter = itertools.count()
    heap: list[tuple[float, int, np.ndarray, np.ndarray, np.ndarray]] = []
    root_bound = lift(float(root.fun))
    if root_bound < incumbent_obj - prune_eps():
        heapq.heappush(heap, (root_bound, next(counter), root.x,
                              base_lo, base_hi))

    # Pseudo-costs (see _pick_branch_var), learned as branches resolve.
    pc_sum = np.zeros((2, model.num_vars))
    pc_count = np.zeros((2, model.num_vars))

    nodes = 0
    hit_limit = False

    while heap:
        if nodes >= max_nodes or (deadline is not None
                                  and time.monotonic() > deadline):
            hit_limit = True
            break
        bound, _, x, lo, hi = heapq.heappop(heap)
        if bound >= incumbent_obj - prune_eps():
            continue  # stale entry: pruned lazily, heap never rebuilt
        nodes += 1

        frac_var = _pick_branch_var(x, ivs, pc_sum, pc_count)
        if frac_var is None:
            offer_incumbent(x, float(c @ x))
            continue

        floor_val = math.floor(x[frac_var])
        f = x[frac_var] - floor_val
        for branch in ("down", "up"):
            new_lo = lo.copy()
            new_hi = hi.copy()
            if branch == "down":
                new_hi[frac_var] = floor_val
            else:
                new_lo[frac_var] = floor_val + 1.0
            if new_lo[frac_var] > new_hi[frac_var] + _EPS:
                continue
            res = solve_lp(new_lo, new_hi)
            if res.status != 0:
                continue
            degrade = max(0.0, float(res.fun) - float(bound))
            side, share = (0, f) if branch == "down" else (1, 1.0 - f)
            pc_sum[side, frac_var] += degrade / max(share, _EPS)
            pc_count[side, frac_var] += 1.0
            child_bound = lift(float(res.fun))
            if child_bound >= incumbent_obj - prune_eps():
                continue
            if _most_fractional(res.x, ivs) is None:
                # Integral child: incumbent immediately, nothing to push.
                offer_incumbent(res.x, child_bound)
            else:
                heapq.heappush(heap, (child_bound, next(counter), res.x,
                                      new_lo, new_hi))

    if incumbent is None:
        if hit_limit:
            return Solution(status=SolveStatus.NO_INCUMBENT, objective=None,
                            message=f"node/time limit before any incumbent "
                                    f"(nodes={nodes} lps={lps})",
                            stats={"nodes": nodes, "lps": lps})
        return Solution(status=SolveStatus.INFEASIBLE, objective=None,
                        stats={"nodes": nodes, "lps": lps})

    values: dict[int, float] = {}
    for var in model.variables:
        v = float(incumbent[var.index])
        if var.kind != "continuous":
            v = float(round(v))
        values[var.index] = v
    objective = model.objective.value(values)

    # Drain check: surviving heap entries that cannot beat the incumbent
    # do not make the solution non-optimal — a limit-terminated search
    # whose frontier is fully prunable has in fact been exhausted.
    eps = prune_eps()
    open_bounds = [b for b, *_ in heap if b < incumbent_obj - eps]
    if open_bounds:
        status = SolveStatus.FEASIBLE
        gap = (incumbent_obj - min(open_bounds)) / max(1.0, abs(incumbent_obj))
    else:
        status = SolveStatus.OPTIMAL
        gap = 0.0
    return Solution(status=status, objective=objective, values=values,
                    gap=gap, message=f"nodes={nodes} lps={lps}",
                    stats={"nodes": nodes, "lps": lps,
                           "warm_start": warm_used})
