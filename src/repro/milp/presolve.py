"""Backend-independent MILP presolve (model reduction before the solve).

CPLEX spends a large fraction of its time in presolve for a reason: the
scheduling MILPs built by :mod:`repro.core.formulation` are full of
structure a reduction pass can exploit before *any* LP is solved —
forced-root constraints fix cut-selection binaries outright, one-hot
assignment rows collapse once a member is fixed, big-M chain rows carry
coefficients far larger than their row can ever need, and singleton rows
are really just variable bounds in disguise.

:func:`presolve` applies a fixpoint of safe, optimum-preserving
reductions to a :class:`~repro.milp.model.Model`:

* **one-hot groups** — equality rows ``sum(x) == 1`` over binaries are
  detected once and every later activity bound treats the group as
  "exactly one member is 1" instead of "all members may be 1". This is
  what makes the remaining reductions bite on scheduling models, where
  ``S_v = sum_t t*s_{v,t}`` terms would otherwise make every activity
  bound hopelessly loose;
* **bound propagation** — (group-aware) activity bounds of each row
  tighten variable bounds, fix binaries whose selection would violate a
  row (schedule-window reduction), and round integer bounds; a variable
  whose bounds meet is *fixed* and substituted out of every row;
* **singleton elimination** — a row touching one variable becomes a
  bound on that variable and is dropped;
* **redundancy elimination** — a row whose worst-case activity already
  satisfies it is dropped; a row whose best-case activity violates it
  proves the model ``INFEASIBLE`` without solving anything;
* **coefficient tightening** — Savelsbergh-style reduction of binary
  coefficients in one-sided rows (equivalent on integer points, strictly
  tighter in the LP relaxation — this is what shrinks the big-M chain
  and interior-equality constraints);
* **dead-variable fixing** — a variable appearing in no remaining row is
  pinned to its objective-preferred bound.

The cut-selection fixing promised by the scheduler needs no special
case: ``cover[v] : sum c >= 1`` over a single selectable cut *is* a
singleton row, and one-hot rows collapse through ordinary propagation
once any member is fixed.

Every reduction preserves the set of optimal solutions up to the values
of substituted variables, which the returned :class:`Postsolve` restores
— :meth:`Postsolve.expand` lifts a reduced-space :class:`Solution` back
to the original variable space (objective recomputed against the
original model).
Correctness is cross-checked dynamically by the ``presolve`` fuzz oracle
(see ``docs/fuzzing.md``) and statically by ``tests/test_presolve.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import Constraint, LinExpr, Model, Solution, SolveStatus

__all__ = ["presolve", "Postsolve", "PresolveStats"]

_INF = float("inf")
#: Feasibility tolerance for declaring rows violated/redundant. Matches
#: Model.check's default so presolve never calls infeasible a model the
#: verifier would accept.
_FEAS_TOL = 1e-6
#: Minimum bound improvement worth recording (avoids 1e-15 churn loops).
_MIN_IMPROVE = 1e-7
#: Slack added to propagated *continuous* bounds so floating-point
#: round-off in the implied bound can never cut off an optimal vertex.
_SAFETY = 1e-9


@dataclass
class PresolveStats:
    """What the reduction pass accomplished (``presolve`` span meta)."""

    vars_before: int = 0
    vars_after: int = 0
    cons_before: int = 0
    cons_after: int = 0
    vars_fixed: int = 0
    rows_dropped: int = 0
    bounds_tightened: int = 0
    coeffs_tightened: int = 0
    one_hot_groups: int = 0
    rounds: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "vars_before": self.vars_before,
            "vars_after": self.vars_after,
            "cons_before": self.cons_before,
            "cons_after": self.cons_after,
            "vars_fixed": self.vars_fixed,
            "rows_dropped": self.rows_dropped,
            "bounds_tightened": self.bounds_tightened,
            "coeffs_tightened": self.coeffs_tightened,
            "one_hot_groups": self.one_hot_groups,
            "rounds": self.rounds,
        }


@dataclass
class Postsolve:
    """Inverse mapping from the reduced model back to the original.

    Attributes
    ----------
    original:
        The model :func:`presolve` was called on (never mutated).
    fixed:
        Original variable index -> value pinned during presolve.
    index_map:
        Reduced variable index -> original variable index.
    status:
        ``SolveStatus.INFEASIBLE`` when presolve proved infeasibility
        (the reduced model is then empty and must not be solved);
        ``None`` otherwise.
    stats:
        Reduction bookkeeping.
    """

    original: Model
    fixed: dict[int, float] = field(default_factory=dict)
    index_map: dict[int, int] = field(default_factory=dict)
    status: str | None = None
    stats: PresolveStats = field(default_factory=PresolveStats)

    def expand(self, solution: Solution) -> Solution:
        """Lift a reduced-space solution into original variable space."""
        if not solution.values and not solution.ok:
            # Status-only outcomes (infeasible, no-incumbent, error) carry
            # no assignment; nothing to translate.
            return Solution(
                status=solution.status, objective=solution.objective,
                values={}, solve_seconds=solution.solve_seconds,
                gap=solution.gap, message=solution.message,
                stats=dict(solution.stats),
            )
        values = dict(self.fixed)
        for reduced_idx, orig_idx in self.index_map.items():
            values[orig_idx] = solution.values.get(reduced_idx, 0.0)
        # Variables untouched by rows, objective and fixing default to an
        # in-bounds value (lo may be nonzero).
        for var in self.original.variables:
            if var.index not in values:
                values[var.index] = var.lo if math.isfinite(var.lo) else 0.0
        objective = (self.original.objective.value(values)
                     if solution.objective is not None else None)
        return Solution(
            status=solution.status, objective=objective, values=values,
            solve_seconds=solution.solve_seconds, gap=solution.gap,
            message=solution.message, stats=dict(solution.stats),
        )


class _Row:
    """One constraint in range form: ``lo <= sum(a_j x_j) <= hi``."""

    __slots__ = ("coeffs", "lo", "hi", "name", "alive")

    def __init__(self, coeffs: dict[int, float], lo: float, hi: float,
                 name: str) -> None:
        self.coeffs = coeffs
        self.lo = lo
        self.hi = hi
        self.name = name
        self.alive = True


def _row_from_constraint(con: Constraint) -> _Row:
    rhs = -con.expr.constant
    coeffs = {i: c for i, c in con.expr.coeffs.items() if c != 0.0}
    if con.sense == "<=":
        return _Row(coeffs, -_INF, rhs, con.name)
    if con.sense == ">=":
        return _Row(coeffs, rhs, _INF, con.name)
    return _Row(coeffs, rhs, rhs, con.name)


class _Activity:
    """Group-aware activity bounds of one row.

    ``min_act``/``max_act`` are valid bounds on the row's value under the
    current variable bounds *and* the one-hot invariants: a group whose
    unfixed members all appear in the row contributes exactly one of its
    coefficients; a partially present group may also contribute 0 (the
    selected member can sit outside the row).
    """

    __slots__ = ("min_act", "max_act", "group_min", "group_max")

    def __init__(self) -> None:
        self.min_act = 0.0
        self.max_act = 0.0
        self.group_min: dict[int, float] = {}
        self.group_max: dict[int, float] = {}


def presolve(model: Model) -> tuple[Model, Postsolve]:
    """Reduce ``model``; returns ``(reduced_model, postsolve)``.

    The input model is never mutated. When presolve proves the model
    infeasible, ``postsolve.status`` is ``SolveStatus.INFEASIBLE`` and
    the returned reduced model is empty — callers must check the status
    before solving (``Model.solve(presolve=True)`` does).
    """
    post = Postsolve(original=model)
    stats = post.stats
    stats.vars_before = model.num_vars
    stats.cons_before = model.num_constraints

    n = model.num_vars
    lo = [float(v.lo) for v in model.variables]
    hi = [float(v.hi) for v in model.variables]
    is_int = [v.kind != "continuous" for v in model.variables]
    fixed: dict[int, float] = {}

    rows = [_row_from_constraint(con) for con in model.constraints]
    # Column adjacency: variable index -> rows that touch it. Kept in
    # sync as substitution removes entries.
    columns: dict[int, set[int]] = {j: set() for j in range(n)}
    for r, row in enumerate(rows):
        for j in row.coeffs:
            columns.setdefault(j, set()).add(r)

    # One-hot groups: sum(x) == 1 over binaries. Members already pinned
    # to 0 (a schedule variable outside its cycle window) add nothing and
    # stay out of the group. group_of maps a member to its group id;
    # group_left counts unfixed members; group_done marks a group whose 1
    # has been chosen (remaining members collapse to 0 through ordinary
    # propagation of the defining row).
    group_of: dict[int, int] = {}
    group_left: list[int] = []
    group_done: list[bool] = []
    group_def_row: list[int] = []
    for r, row in enumerate(rows):
        if not (row.lo == 1.0 and row.hi == 1.0):
            continue
        members = [j for j in row.coeffs if not lo[j] == hi[j] == 0.0]
        if len(members) < 2 or any(
                row.coeffs[j] != 1.0 or not is_int[j]
                or lo[j] != 0.0 or hi[j] != 1.0 or j in group_of
                for j in members):
            continue
        gid = len(group_left)
        group_left.append(len(members))
        group_done.append(False)
        group_def_row.append(r)
        for j in members:
            group_of[j] = gid
    stats.one_hot_groups = len(group_left)

    def infeasible() -> tuple[Model, Postsolve]:
        post.status = SolveStatus.INFEASIBLE
        stats.vars_after = 0
        stats.cons_after = 0
        return Model(f"{model.name}[presolved:infeasible]"), post

    def snap_int(j: int) -> bool:
        """Round integer bounds inward; False when the domain empties."""
        if is_int[j]:
            if math.isfinite(lo[j]):
                lo[j] = math.ceil(lo[j] - _FEAS_TOL)
            if math.isfinite(hi[j]):
                hi[j] = math.floor(hi[j] + _FEAS_TOL)
        return hi[j] >= lo[j] - _FEAS_TOL

    def fix_var(j: int, value: float) -> None:
        """Pin ``j`` and substitute it out of every row it appears in."""
        # Plain float: the value lands in Postsolve.fixed and from there
        # in Solution.values, which must stay JSON-serializable.
        value = float(round(value)) if is_int[j] else float(value)
        fixed[j] = value
        lo[j] = hi[j] = value
        stats.vars_fixed += 1
        gid = group_of.pop(j, None)
        if gid is not None:
            group_left[gid] -= 1
            if value >= 0.5:
                group_done[gid] = True
        for r in list(columns.get(j, ())):
            row = rows[r]
            coeff = row.coeffs.pop(j, 0.0)
            if coeff:
                if math.isfinite(row.lo):
                    row.lo -= coeff * value
                if math.isfinite(row.hi):
                    row.hi -= coeff * value
            columns[j].discard(r)
            dirty.add(r)
        columns[j] = set()

    def tighten(j: int, new_lo: float | None, new_hi: float | None) -> bool:
        """Apply implied bounds; False signals an empty domain."""
        if j in fixed:
            return True
        changed = False
        if new_lo is not None and new_lo > lo[j] + _MIN_IMPROVE:
            lo[j] = new_lo if is_int[j] else new_lo - _SAFETY
            changed = True
        if new_hi is not None and new_hi < hi[j] - _MIN_IMPROVE:
            hi[j] = new_hi if is_int[j] else new_hi + _SAFETY
            changed = True
        if not changed:
            return True
        stats.bounds_tightened += 1
        if not snap_int(j):
            return False
        if hi[j] - lo[j] <= _FEAS_TOL:
            fix_var(j, (lo[j] + hi[j]) / 2.0)
        else:
            for r in columns.get(j, ()):
                dirty.add(r)
        return True

    def activity(row: _Row, ridx: int) -> _Activity:
        act = _Activity()
        grouped: dict[int, list[float]] = {}
        for j, a in row.coeffs.items():
            gid = group_of.get(j)
            # A group's invariant must never be used on its own defining
            # row: "sum(x) == 1 holds, therefore sum(x) == 1 is
            # redundant" would drop the row that carries the invariant.
            if (gid is not None and not group_done[gid]
                    and group_def_row[gid] != ridx):
                grouped.setdefault(gid, []).append(a)
            elif a > 0:
                act.min_act += a * lo[j]
                act.max_act += a * hi[j]
            else:
                act.min_act += a * hi[j]
                act.max_act += a * lo[j]
        for gid, cs in grouped.items():
            if len(cs) == group_left[gid]:
                gmin, gmax = min(cs), max(cs)
            else:
                # The selected member may sit outside this row.
                gmin, gmax = min(0.0, min(cs)), max(0.0, max(cs))
            act.group_min[gid] = gmin
            act.group_max[gid] = gmax
            act.min_act += gmin
            act.max_act += gmax
        return act

    for j in range(n):
        if not snap_int(j):
            return infeasible()

    dirty: set[int] = set(range(len(rows)))
    max_rounds = 50
    while dirty and stats.rounds < max_rounds:
        stats.rounds += 1
        work, dirty = sorted(dirty), set()
        for r in work:
            row = rows[r]
            if not row.alive:
                continue

            # Constant row (everything substituted): feasibility check.
            if not row.coeffs:
                if row.lo > _FEAS_TOL or row.hi < -_FEAS_TOL:
                    return infeasible()
                row.alive = False
                stats.rows_dropped += 1
                continue

            # Singleton row -> variable bound.
            if len(row.coeffs) == 1:
                (j, a), = row.coeffs.items()
                if a > 0:
                    new_lo = row.lo / a if math.isfinite(row.lo) else None
                    new_hi = row.hi / a if math.isfinite(row.hi) else None
                else:
                    new_lo = row.hi / a if math.isfinite(row.hi) else None
                    new_hi = row.lo / a if math.isfinite(row.lo) else None
                row.alive = False
                stats.rows_dropped += 1
                columns[j].discard(r)
                if not tighten(j, new_lo, new_hi):
                    return infeasible()
                continue

            act = activity(row, r)

            # Best case already violates -> the whole model is infeasible.
            if (act.min_act > row.hi + _FEAS_TOL * (1 + abs(row.hi))
                    or act.max_act < row.lo - _FEAS_TOL * (1 + abs(row.lo))):
                return infeasible()
            # Worst case already satisfies -> the row teaches us nothing.
            if (act.min_act >= row.lo - _FEAS_TOL
                    and act.max_act <= row.hi + _FEAS_TOL):
                row.alive = False
                stats.rows_dropped += 1
                for j in row.coeffs:
                    columns[j].discard(r)
                continue

            # Bound propagation: residual activity bounds imply bounds
            # on each variable in the row.
            shape = (len(row.coeffs), row.lo, row.hi)
            for j, a in list(row.coeffs.items()):
                if j in fixed:
                    continue
                gid = group_of.get(j)
                if gid is not None and gid in act.group_min:
                    # Selecting j zeroes its group siblings: the rest of
                    # the row is bounded by the activity minus the whole
                    # group term. If a alone cannot fit, j must be 0.
                    rest_min = act.min_act - act.group_min[gid]
                    rest_max = act.max_act - act.group_max[gid]
                    cannot_be_one = (
                        (math.isfinite(row.hi) and math.isfinite(rest_min)
                         and a > row.hi - rest_min + _FEAS_TOL)
                        or (math.isfinite(row.lo) and math.isfinite(rest_max)
                            and a < row.lo - rest_max - _FEAS_TOL)
                    )
                    if cannot_be_one:
                        if not tighten(j, None, 0.0):
                            return infeasible()
                    continue
                contrib_min = a * lo[j] if a > 0 else a * hi[j]
                contrib_max = a * hi[j] if a > 0 else a * lo[j]
                rest_min = act.min_act - contrib_min
                rest_max = act.max_act - contrib_max
                new_lo = new_hi = None
                if math.isfinite(row.hi) and math.isfinite(rest_min):
                    implied = (row.hi - rest_min) / a
                    if a > 0:
                        new_hi = implied
                    else:
                        new_lo = implied
                if math.isfinite(row.lo) and math.isfinite(rest_max):
                    implied = (row.lo - rest_max) / a
                    if a > 0:
                        new_lo = implied
                    else:
                        new_hi = implied
                if not tighten(j, new_lo, new_hi):
                    return infeasible()

            # Coefficient tightening on one-sided rows (binaries only).
            # Reuses the activity computed above when the row kept its
            # shape: bound tightening since then only makes it an
            # over-estimate of the row max — a looser-but-valid U. A
            # substitution (fix_var) rewrites coefficients and rhs, so
            # the activity must be recomputed to stay consistent.
            if row.alive and row.coeffs:
                if (len(row.coeffs), row.lo, row.hi) != shape:
                    act = activity(row, r)
                _tighten_coefficients(row, act, lo, hi, is_int,
                                      fixed, group_of, stats)

    # Dead columns: variables in no surviving row get their
    # objective-preferred bound (sense-aware); objective-free ones just
    # collapse to a bound so the reduced model shrinks.
    obj = model.objective.coeffs
    for j in range(n):
        if j in fixed or columns.get(j):
            continue
        coeff = obj.get(j, 0.0)
        if model.sense == "max":
            coeff = -coeff
        if coeff > 0:
            target = lo[j]
        elif coeff < 0:
            target = hi[j]
        else:
            target = lo[j] if math.isfinite(lo[j]) else hi[j]
        if math.isfinite(target):
            fix_var(j, target)
        # An unbounded preferred direction is left to the solver: it can
        # prove UNBOUNDED (or the objective simply ignores the variable).

    # ------------------------------------------------------------------
    # Emit the reduced model.
    # ------------------------------------------------------------------
    reduced = Model(f"{model.name}[presolved]")
    new_index: dict[int, int] = {}
    for var in model.variables:
        j = var.index
        if j in fixed:
            continue
        if var.kind == "binary" and lo[j] <= 0.0 and hi[j] >= 1.0:
            nv = reduced.binary(var.name)
        elif var.kind == "continuous":
            nv = reduced.continuous(var.name, lo=float(lo[j]),
                                    hi=float(hi[j]))
        else:
            nv = reduced.integer(var.name, lo=float(lo[j]), hi=float(hi[j]))
        new_index[j] = nv.index
        post.index_map[nv.index] = j

    for row in rows:
        if not row.alive:
            continue
        live = {new_index[j]: a for j, a in row.coeffs.items()
                if j not in fixed and a != 0.0}
        if not live:
            if row.lo > _FEAS_TOL or row.hi < -_FEAS_TOL:
                return infeasible()
            stats.rows_dropped += 1
            continue
        if math.isfinite(row.lo) and row.lo == row.hi:
            reduced.add(Constraint(LinExpr(live, -row.lo), "=="), row.name)
            continue
        if math.isfinite(row.hi):
            reduced.add(Constraint(LinExpr(dict(live), -row.hi), "<="),
                        row.name)
        if math.isfinite(row.lo):
            reduced.add(Constraint(LinExpr(dict(live), -row.lo), ">="),
                        row.name)

    obj_expr = LinExpr()
    obj_expr.constant = model.objective.constant + sum(
        c * fixed[j] for j, c in obj.items() if j in fixed
    )
    obj_expr.coeffs = {new_index[j]: c for j, c in obj.items()
                       if j not in fixed and c != 0.0}
    if model.sense == "max":
        reduced.maximize(obj_expr)
    else:
        reduced.minimize(obj_expr)

    post.fixed = fixed
    stats.vars_after = reduced.num_vars
    stats.cons_after = reduced.num_constraints
    return reduced, post


def _tighten_coefficients(row: _Row, act: _Activity, lo, hi, is_int,
                          fixed: dict[int, float], group_of: dict[int, int],
                          stats: PresolveStats) -> None:
    """Savelsbergh coefficient reduction for binaries in one-sided rows.

    For ``a_j x_j + s <= b`` with ``x_j`` binary, ``a_j > 0`` and
    ``U = max(s)``: when ``U < b < U + a_j`` the pair ``(a_j, b)`` can be
    replaced by ``(a_j + U - b, U)`` — identical on x_j in {0, 1},
    strictly tighter for fractional x_j. This is what shrinks the big-M
    coefficients of the chain/interior rows, whose U is small once the
    one-hot schedule groups are accounted for. ``>=`` rows are handled
    by negation; range and equality rows are skipped, as are group
    members (their activity share is not a simple ``a_j`` term).
    """
    one_sided_le = math.isinf(row.lo) and math.isfinite(row.hi)
    one_sided_ge = math.isinf(row.hi) and math.isfinite(row.lo)
    if not (one_sided_le or one_sided_ge):
        return
    sign = 1.0 if one_sided_le else -1.0
    b = sign * (row.hi if one_sided_le else row.lo)

    max_act = act.max_act if one_sided_le else -act.min_act
    if not math.isfinite(max_act):
        return

    items = [(j, a) for j, a in row.coeffs.items()
             if not (j in fixed or not is_int[j] or lo[j] != 0.0
                     or hi[j] != 1.0 or j in group_of)]

    changed = False
    for j, a in items:
        sa = sign * a
        if sa > 0:
            u_others = max_act - sa          # row max with x_j forced to 0
            if (u_others < b - _MIN_IMPROVE
                    and u_others + sa > b + _MIN_IMPROVE):
                new_sa = sa + u_others - b
                max_act = u_others + new_sa
                b = u_others
                row.coeffs[j] = float(sign * new_sa)
                changed = True
                stats.coeffs_tightened += 1
        else:
            # sa < 0: x_j = 1 only relaxes the row. When even the relaxed
            # form is slack (max_act <= b - sa), pull a_j in so the
            # x_j = 1 bound becomes exactly the attainable max_act.
            u_others = max_act               # attained at x_j = 0
            if (u_others > b + _MIN_IMPROVE
                    and u_others < b - sa - _MIN_IMPROVE):
                new_sa = b - u_others        # negative, > sa
                row.coeffs[j] = float(sign * new_sa)
                changed = True
                stats.coeffs_tightened += 1
    if changed:
        # No re-dirty: only coefficients and the rhs moved, both in the
        # direction that keeps every bound-propagation residual valid;
        # the fixpoint on *bounds* is untouched.
        if one_sided_le:
            row.hi = float(sign * b)
        else:
            row.lo = float(sign * b)
