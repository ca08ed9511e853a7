"""The mapping-aware modulo scheduling MILP (paper Sec. 3.2).

Builds a :class:`repro.milp.Model` implementing Eq. 2–15 with the
concretizations listed in DESIGN.md Sec. 4:

* per-cut delays ``D_v = sum_i d_{v,i} c_{v,i}`` instead of static ``d_v``
  (note 3);
* big-M linearization of the cycle-time ordering constraint Eq. 9 and of the
  interior-node time equality (note 4);
* loop-carried boundary entries shift both the dependence and the liveness
  bookkeeping by ``II * distance`` (note 5);
* explicit coverage constraints (every operation is a root or inside a
  selected cone);
* black boxes and OUTPUT sinks have one cover choice, their unit cut
  pinned to 1, so Eq. 4, Eq. 9 and Eq. 12 treat them like any selected
  cut;
* refined per-cut LUT costs by default, the paper's exact ``Bits(v)`` cost
  with ``paper_objective=True``.

The class exposes every variable group so tests can interrogate the model,
and :meth:`MappingAwareFormulation.extract` turns a solver assignment into a
:class:`~repro.scheduling.Schedule`.
"""

from __future__ import annotations

import math

from ..cuts.cut import Cut, CutSet
from ..errors import ModelError
from ..ir.graph import CDFG
from ..ir.types import OpKind
from ..milp.model import LinExpr, Model, Solution, Var
from ..scheduling.schedule import Schedule
from ..tech.area import AreaModel
from ..tech.delay import DelayModel
from ..tech.device import Device
from .config import SchedulerConfig

__all__ = ["MappingAwareFormulation"]

#: Slack of every cycle-window comparison; it only ever widens a window.
_TOL = 1e-6


class MappingAwareFormulation:
    """Builds and decodes the MILP for one CDFG.

    Parameters
    ----------
    graph:
        Validated CDFG.
    cuts:
        Cut sets from :func:`repro.cuts.enumerate_cuts` (MILP-map) or unit
        cuts only (MILP-base — see
        :meth:`repro.core.mapsched.BaseScheduler`).
    device / config:
        Target characterization and scheduler knobs.
    horizon:
        Pipeline-latency bound M (cycles).
    """

    def __init__(self, graph: CDFG, cuts: dict[int, CutSet], device: Device,
                 config: SchedulerConfig, horizon: int) -> None:
        self.graph = graph
        self.cuts = cuts
        self.device = device
        self.config = config
        self.horizon = int(horizon)
        if self.horizon < 1:
            raise ModelError(f"horizon must be >= 1, got {horizon}")
        self.delay_model = DelayModel(device, graph)
        self.area_model = AreaModel(device, graph)
        # Schedulers fill only the uncertainty-derated budget (like real
        # tools); the target period stays in config.tcp for reporting.
        self.budget = device.usable_period(config.tcp)
        self.model = Model(f"mapsched[{graph.name}]")

        # Variable groups (filled by build()).
        self.cut_vars: dict[int, list[tuple[Cut, Var]]] = {}
        #: Every schedulable node's cover choices ``(cut, c)``: the
        #: ``cut_vars`` binaries, then each black box's and OUTPUT sink's
        #: unit cut with ``c`` pinned to ``1.0``.
        self.choices: dict[int, list[tuple[Cut, Var | float]]] = {}
        self.sched_vars: dict[int, list[Var]] = {}
        self.live_vars: dict[int, list[Var]] = {}
        self.resource_vars: dict[str, Var] = {}
        self._built = False

    # ------------------------------------------------------------------
    # Node classification helpers
    # ------------------------------------------------------------------
    def _is_const(self, nid: int) -> bool:
        return self.graph.node(nid).kind is OpKind.CONST

    def _is_input(self, nid: int) -> bool:
        return self.graph.node(nid).kind is OpKind.INPUT

    def _schedulable_ids(self) -> list[int]:
        """Nodes that get s_{v,t} variables (everything but PIs/constants)."""
        return [
            n.nid for n in self.graph
            if n.kind not in (OpKind.INPUT, OpKind.CONST)
        ]

    def _forced_root(self, nid: int) -> bool:
        """Black boxes and OUTPUT sinks always select their unit cut."""
        node = self.graph.node(nid)
        return node.is_blackbox or node.kind is OpKind.OUTPUT

    # ------------------------------------------------------------------
    # Expression helpers
    # ------------------------------------------------------------------
    def s_expr(self, nid: int) -> LinExpr:
        """``S_v`` as a linear expression (Eq. 6); constants/PIs are 0."""
        if nid not in self.sched_vars:
            return LinExpr({}, 0.0)
        # Direct dict construction: building this with repeated `expr + t *
        # var` allocates O(horizon^2) intermediate dicts. Keeps the exact
        # reference coefficients (including the 0.0 entry at t = 0).
        return LinExpr(
            {var.index: float(t)
             for t, var in enumerate(self.sched_vars[nid])},
            0.0,
        )

    def l_var(self, nid: int) -> LinExpr:
        """``L_v`` as an expression; constants/PIs are 0."""
        var = self._l.get(nid)
        return var._expr() if var is not None else LinExpr({}, 0.0)

    def root_expr(self, nid: int) -> LinExpr:
        """``root_v`` (Eq. 2); 1 for PIs and forced roots, 0 for constants."""
        if self._is_const(nid):
            return LinExpr({}, 0.0)
        if self._is_input(nid) or self._forced_root(nid):
            return LinExpr({}, 1.0)
        return LinExpr(
            {var.index: 1.0 for _, var in self.cut_vars.get(nid, ())}, 0.0)

    def delay_expr(self, nid: int) -> LinExpr:
        """``D_v = sum_i d_{v,i} c_{v,i}`` (DESIGN.md note 3)."""
        node = self.graph.node(nid)
        if nid not in self.cut_vars:
            if self._forced_root(nid):
                if node.kind is OpKind.OUTPUT:
                    return LinExpr({}, 0.0)
                return LinExpr({}, self.delay_model.operator_delay(node))
            return LinExpr({}, 0.0)  # PI / const
        return LinExpr(
            {var.index: 1.0 * self.delay_model.cut_delay(node, cut)
             for cut, var in self.cut_vars[nid]},
            0.0,
        )

    def def_expr(self, nid: int, t: int) -> LinExpr:
        """``def_{v,t}`` (Eq. 10): available on or before cycle t."""
        if nid not in self.sched_vars:
            # PIs are available from cycle 0; constants never need registers.
            return LinExpr({}, 1.0 if self._is_input(nid) else 0.0)
        return LinExpr(
            {var.index: 1.0
             for z, var in enumerate(self.sched_vars[nid]) if z <= t},
            0.0,
        )

    def kill_expr(self, nid: int, t: int, shift: int) -> LinExpr:
        """``kill_{v,t}`` shifted by ``II*distance`` cycles (Eq. 11 + note 5)."""
        if nid not in self.sched_vars:
            return LinExpr({}, 1.0)
        return LinExpr(
            {var.index: 1.0
             for z, var in enumerate(self.sched_vars[nid]) if z + shift <= t},
            0.0,
        )

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self) -> Model:
        """Create all variables and constraints; returns the model."""
        if self._built:
            return self.model
        self._built = True
        self._l: dict[int, Var] = {}
        self._make_variables()
        self._cover_constraints()
        self._assignment_constraints()
        self._dependence_constraints()
        self._cycle_time_constraints()
        first = self.model.num_constraints
        self._liveness_constraints()
        self._resource_constraints()
        #: The Eq. 12 and Eq. 14 rows: each reads ``rest - x <= 0`` for one
        #: ``live[u,t]`` or ``X[r]``, and no other row names those.
        self._bound_rows = range(first, self.model.num_constraints)
        self._objective()
        return self.model

    def _make_variables(self) -> None:
        m = self.model
        windows = self._cycle_windows()
        pinned: dict[int, list[tuple[Cut, float]]] = {}
        for nid in self._schedulable_ids():
            lo, hi = windows[nid]
            self.sched_vars[nid] = [
                m.binary(f"s[{nid},{t}]", hi=1.0 if lo <= t <= hi else 0.0)
                for t in range(self.horizon)
            ]
            self._l[nid] = m.continuous(f"L[{nid}]", 0.0, self.budget)
            if self._forced_root(nid):
                unit = self.cuts[nid].unit
                if unit is not None:
                    pinned[nid] = [(unit, 1.0)]
                continue
            pairs = [
                (cut, m.binary(f"c[{nid},{i}]"))
                for i, cut in enumerate(self.cuts[nid].selectable)
            ]
            if not pairs:
                raise ModelError(f"node {nid} has no selectable cuts")
            self.cut_vars[nid] = pairs
        # Pinned choices come last, so each row family lists forced roots
        # after every cut binary.
        self.choices = {**self.cut_vars, **pinned}

    def _cycle_windows(self) -> dict[int, tuple[int, int]]:
        """Each schedulable node's cycle window ``[lo, hi]``.

        Every rule is one the rows enforce on every feasible solution, so
        no feasible schedule leaves its windows (docs/formulation.md
        "Cycle windows"). Times are absolute, ``Tcp * S_v + L_v``:

        * a root starts no earlier than each entry of its selected choice
          finishes, less ``Tcp * II * distance`` (Eq. 9), and slips to the
          next cycle when its delay would straddle a boundary (Eq. 8);
        * an entry of a selected cut is a root (Eq. 4), so it finishes no
          earlier than the least finish over its own choices;
        * a swallowed node runs at its root's cycle and time (the interior
          rows); the swallowing cut counts with delay 0, because ``L =
          Tcp`` aliases the start of the next cycle;
        * ``S_u <= S_v + II * d`` on every graph edge (Eq. 7), both ways;
        * latest starts flow back only through consumers with one choice
          that no cut swallows, whose chain rows always bind.

        Passes repeat until no bound moves (loop-carried entries feed
        back). A recurrence that cannot close at this II raises its lower
        bounds and lowers its upper bounds on every pass, so passes also
        stop once a window empties, and after ``2 * horizon + 2`` at
        most. Every intermediate state is a valid window, and every
        comparison leans ``_TOL`` towards the wider one.
        """
        tcp, ii = self.budget, self.config.ii
        ids = self._schedulable_ids()
        sched = set(ids)
        order = [nid for nid in self.graph.topological_order()
                 if nid in sched]

        def entries(cut: Cut | None) -> list[tuple[int, float]]:
            return [(u, tcp * ii * dist) for u, dist in
                    (cut.entries if cut is not None else ()) if u in sched]

        # Each node's own choices as (entries, delay), and the cuts that
        # swallow it as (root, entries).
        own: dict[int, list[tuple[list[tuple[int, float]], float]]] = {}
        swallowers: dict[int, list[tuple[int, list[tuple[int, float]]]]] = {}
        for nid in ids:
            if self._forced_root(nid):
                own[nid] = [(entries(self.cuts[nid].unit),
                             self.delay_expr(nid).constant)]
                continue
            node = self.graph.node(nid)
            own[nid] = []
            for cut in self.cuts[nid].selectable:
                ents = entries(cut)
                own[nid].append((ents, self.delay_model.cut_delay(node, cut)))
                for w in cut.interior:
                    if w in sched:
                        swallowers.setdefault(w, []).append((nid, ents))
        least = {nid: min((d for _, d in opts), default=0.0)
                 for nid, opts in own.items()}
        # A node no cut swallows is always a root (the cover rows).
        root_delay = {nid: 0.0 if nid in swallowers else least[nid]
                      for nid in ids}
        single = {nid: opts[0][0] for nid, opts in own.items()
                  if len(opts) == 1 and nid not in swallowers}
        preds = {nid: [(op.source, ii * op.distance)
                       for op in self.graph.node(nid).operands
                       if op.source in sched]
                 for nid in ids}

        lo = dict.fromkeys(ids, 0)
        hi = dict.fromkeys(ids, self.horizon - 1)
        finish = dict.fromkeys(ids, 0.0)   # earliest finish as a root
        latest = dict.fromkeys(ids, tcp * self.horizon)   # latest start

        def earliest(start: float, ents, delay: float) -> tuple[int, float]:
            """Least cycle and finish of one choice starting after ``start``."""
            for u, shift in ents:
                start = max(start, finish[u] - shift)
            cycle = math.ceil((start + delay) / tcp - 1 - _TOL)
            return cycle, max(start, tcp * cycle) + delay

        for _ in range(2 * self.horizon + 2):
            moved = False
            for v in order:
                low = lo[v]
                for u, shift in preds[v]:
                    low = max(low, lo[u] - shift)
                cycles, finishes = [], []
                for ents, delay in own[v]:
                    cycle, end = earliest(tcp * low, ents, delay)
                    cycles.append(cycle)
                    finishes.append(end)
                for r, ents in swallowers.get(v, ()):
                    first = max(low, lo[r])
                    cycles.append(max(first,
                                      earliest(tcp * first, ents, 0.0)[0]))
                low = max(low, min(cycles, default=low))
                end = min(finishes, default=0.0)
                if low > lo[v] or end > finish[v] + _TOL:
                    moved = True
                    lo[v] = low
                    finish[v] = max(finish[v], end)
            for v in reversed(order):
                top = min(hi[v], math.floor(latest[v] / tcp + _TOL))
                late = min(latest[v], tcp * (top + 1) - root_delay[v])
                if top < hi[v] or late < latest[v] - _TOL:
                    moved = True
                    hi[v], latest[v] = top, late
                for u, shift in preds[v]:
                    if hi[v] + shift < hi[u]:
                        moved = True
                        hi[u] = hi[v] + shift
                for u, shift in single.get(v, ()):
                    bound = latest[v] + shift - least[u]
                    if bound < latest[u] - _TOL:
                        moved = True
                        latest[u] = bound
            if not moved or any(lo[v] > hi[v] for v in ids):
                break
        return {nid: (lo[nid], hi[nid]) for nid in ids}

    # -- Eq. 2/3/4 + coverage -------------------------------------------
    def _cover_constraints(self) -> None:
        m = self.model

        # root_v = sum_i c_{v,i} <= 1 (Eq. 2: root is binary).
        for nid, pairs in self.cut_vars.items():
            expr = LinExpr()
            for _, var in pairs:
                expr = expr + var
            m.add(expr <= 1, name=f"root_binary[{nid}]")

        # Eq. 3: primary outputs are roots (an OUTPUT sink's pinned unit
        # cut makes the producing op a root via Eq. 4).

        # Eq. 4: boundary nodes of a selected cut must be roots. A pinned
        # choice's row reads ``root_u >= 1``.
        for nid, choices in self.choices.items():
            for cut, c in choices:
                for u in sorted(cut.boundary):
                    if self._is_const(u) or self._is_input(u):
                        continue
                    m.add(c <= self.root_expr(u),
                          name=f"cut_input_root[{nid},{u}]")

        # Coverage: every mappable op is a root or interior to a selected
        # cone (implicit in the paper; explicit here for robustness).
        interior_of: dict[int, list[Var]] = {}
        for nid, pairs in self.cut_vars.items():
            for cut, var in pairs:
                for w in cut.interior:
                    interior_of.setdefault(w, []).append(var)
        for nid in self.cut_vars:
            expr = self.root_expr(nid)
            for var in interior_of.get(nid, ()):
                expr = expr + var
            m.add(expr >= 1, name=f"cover[{nid}]")

    # -- Eq. 5 ----------------------------------------------------------
    def _assignment_constraints(self) -> None:
        for nid, svars in self.sched_vars.items():
            expr = LinExpr()
            for var in svars:
                expr = expr + var
            self.model.add(expr == 1, name=f"assign[{nid}]")

    # -- Eq. 7 ----------------------------------------------------------
    def _dependence_constraints(self) -> None:
        ii = self.config.ii
        for node in self.graph:
            if self._is_const(node.nid):
                continue
            sv = self.s_expr(node.nid)
            for op in node.operands:
                if self._is_const(op.source):
                    continue
                su = self.s_expr(op.source)
                self.model.add(
                    su - sv - ii * op.distance <= 0,
                    name=f"dep[{op.source}->{node.nid}]",
                )

    # -- Eq. 8 / Eq. 9 / interior equality ---------------------------------
    def _cycle_time_constraints(self) -> None:
        m = self.model
        tcp = self.budget
        ii = self.config.ii
        big = tcp * (self.horizon + ii * self._max_entry_distance() + 2)

        # Eq. 8: a root's cone must fit in its cycle.
        for nid in self._schedulable_ids():
            m.add(self.l_var(nid) + self.delay_expr(nid) <= tcp,
                  name=f"cycletime[{nid}]")

        def abs_time(nid: int) -> LinExpr:
            return tcp * self.s_expr(nid) + self.l_var(nid)

        # Eq. 9 (big-M, per-cut delays): for each cut i of v and each
        # boundary entry (u, dist): if c_{v,i}=1 then u's value (produced
        # dist iterations earlier) is finished before v starts. A pinned
        # choice's big-M term is 0.
        for nid, choices in self.choices.items():
            for cut, c in choices:
                for u, dist in cut.entries:
                    if self._is_const(u):
                        continue
                    lhs = (abs_time(u) + self.delay_expr(u)
                           - abs_time(nid) - tcp * ii * dist)
                    m.add(lhs <= big * (1 - c),
                          name=f"chain[{nid},{u}@{dist}]")

        # Interior equality (DESIGN.md note 4): nodes swallowed by a cone
        # execute "at" the root's time. Cycle equality is pinned separately
        # from absolute-time equality because (cycle, L=budget) and
        # (cycle+1, L=0) alias in absolute time.
        horizon = self.horizon
        for nid, pairs in self.cut_vars.items():
            for cut, cvar in pairs:
                for w in sorted(cut.interior):
                    if w not in self.sched_vars:
                        continue
                    diff = abs_time(w) - abs_time(nid)
                    m.add(diff <= big * (1 - cvar),
                          name=f"interior_le[{nid},{w}]")
                    m.add((-1 * diff) <= big * (1 - cvar),
                          name=f"interior_ge[{nid},{w}]")
                    sdiff = self.s_expr(w) - self.s_expr(nid)
                    m.add(sdiff <= horizon * (1 - cvar),
                          name=f"interior_cycle_le[{nid},{w}]")
                    m.add((-1 * sdiff) <= horizon * (1 - cvar),
                          name=f"interior_cycle_ge[{nid},{w}]")

    def _max_entry_distance(self) -> int:
        best = 0
        for cs in self.cuts.values():
            for cut in cs.selectable:
                for _, dist in cut.entries:
                    best = max(best, dist)
        return best

    # -- Eq. 10-13 ----------------------------------------------------------
    def _liveness_constraints(self) -> None:
        m = self.model
        ii = self.config.ii
        live_horizon = self.horizon + ii * self._max_entry_distance()

        # consumed[(u, dist, v)] = sum of v's choices whose entries contain
        # (u, dist); the constant 1 for a pinned unit cut.
        consumers: dict[tuple[int, int, int], LinExpr] = {}
        for v, choices in self.choices.items():
            for cut, c in choices:
                for u, dist in cut.entries:
                    if self._is_const(u):
                        continue
                    key = (u, dist, v)
                    consumers[key] = consumers.get(key, LinExpr()) + c

        # live variables for every producer that appears as an entry.
        producers = sorted({u for (u, _, _) in consumers})
        for u in producers:
            node = self.graph.node(u)
            if node.kind is OpKind.OUTPUT:
                continue
            self.live_vars[u] = [
                m.binary(f"live[{u},{t}]") for t in range(live_horizon)
            ]

        # Eq. 12 with the consumed-aggregation and distance shift.
        for (u, dist, v), consumed in consumers.items():
            if u not in self.live_vars:
                continue
            for t in range(live_horizon):
                lhs = (self.def_expr(u, t)
                       - self.kill_expr(v, t, ii * dist)
                       - (1 - consumed))
                m.add(lhs <= self.live_vars[u][t],
                      name=f"live[{u},{v},{dist},{t}]")

    # -- Eq. 14 ----------------------------------------------------------
    def _resource_constraints(self) -> None:
        m = self.model
        ii = self.config.ii
        by_class: dict[str, list[int]] = {}
        for node in self.graph:
            if node.is_blackbox and node.rclass:
                by_class.setdefault(node.rclass, []).append(node.nid)
        for rclass, members in sorted(by_class.items()):
            cap = self.device.blackbox_counts.get(rclass)
            hi = cap if cap is not None else len(members)
            xr = m.integer(f"X[{rclass}]", 0, hi)
            self.resource_vars[rclass] = xr
            for slot in range(ii):
                expr = LinExpr()
                for v in members:
                    for t, var in enumerate(self.sched_vars[v]):
                        if t % ii == slot:
                            expr = expr + var
                m.add(expr - xr <= 0, name=f"res[{rclass},{slot}]")

    # -- Eq. 15 ----------------------------------------------------------
    def _objective(self) -> None:
        alpha = self.config.alpha
        beta = self.config.beta
        obj = LinExpr()
        for nid, pairs in self.cut_vars.items():
            node = self.graph.node(nid)
            for cut, var in pairs:
                if self.config.paper_objective:
                    cost = self.area_model.paper_lut_cost(node)
                else:
                    cost = self.area_model.cut_lut_cost(node, cut)
                if cost:
                    obj = obj + alpha * cost * var
        for u, lvars in self.live_vars.items():
            bits = self.area_model.register_bits(self.graph.node(u))
            for var in lvars:
                obj = obj + beta * bits * var
        # Tiny latency regularizer: among equal-cost schedules prefer the
        # shorter one (coefficient far below any real cost delta).
        for nid in self.sched_vars:
            obj = obj + 1e-4 * self.s_expr(nid)
        self.model.minimize(obj)

    # ------------------------------------------------------------------
    # Encode (warm starts)
    # ------------------------------------------------------------------
    def assignment_from_schedule(self, schedule: Schedule
                                 ) -> dict[int, float] | None:
        """Translate a feasible :class:`Schedule` into a model assignment.

        The inverse of :meth:`extract`, used to seed the solver with the
        heuristic schedule (see ``docs/performance.md``). Returns ``None``
        when the schedule does not fit this formulation (cycle beyond the
        horizon, cover cut not among the enumerated ones at a node that
        needs one) — callers always re-validate the result with
        :meth:`Model.check` before trusting it, so this only needs to be
        best-effort.
        """
        if not self._built:
            raise ModelError("build() the formulation before encoding into it")
        values: dict[int, float] = {}

        # Schedule + cycle-offset variables.
        for nid, svars in self.sched_vars.items():
            t = schedule.cycle.get(nid)
            if t is None or not (0 <= t < self.horizon):
                return None
            for z, var in enumerate(svars):
                values[var.index] = 1.0 if z == t else 0.0
            start = float(schedule.start.get(nid, 0.0))
            values[self._l[nid].index] = min(max(start, 0.0), self.budget)

        # Cut-selection binaries: exact cut match (coverage of interior
        # nodes then follows from the selected roots' cones).
        for nid, pairs in self.cut_vars.items():
            chosen = schedule.cover.get(nid)
            for cut, var in pairs:
                values[var.index] = 1.0 if cut == chosen else 0.0

        # live[u,t] and X[r] take the least value their own rows allow:
        # each row reads ``rest - x <= 0``, and ``rest`` is its value
        # before x is set.
        free = {var.index: var
                for lvars in self.live_vars.values() for var in lvars}
        free.update((xr.index, xr) for xr in self.resource_vars.values())
        least = {index: var.lo for index, var in free.items()}
        rows = self.model.constraints
        for i in self._bound_rows:
            expr = rows[i].expr
            x = next(index for index in expr.coeffs if index in free)
            least[x] = max(least[x], expr.value(values))
        for index, need in least.items():
            values[index] = float(min(math.ceil(need), free[index].hi))
        return values

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def extract(self, solution: Solution, method: str) -> Schedule:
        """Turn a solver assignment into a verified-shape Schedule."""
        if not solution.ok:
            raise ModelError(
                f"cannot extract schedule from status {solution.status!r}"
            )
        cycle: dict[int, int] = {}
        start: dict[int, float] = {}
        cover: dict[int, Cut] = {}
        for nid, svars in self.sched_vars.items():
            chosen = [t for t, var in enumerate(svars)
                      if solution.int_value(var) == 1]
            if len(chosen) != 1:
                raise ModelError(f"node {nid}: {len(chosen)} cycles selected")
            cycle[nid] = chosen[0]
            start[nid] = max(0.0, solution[self._l[nid]])
        for node in self.graph:
            if node.kind in (OpKind.INPUT, OpKind.CONST):
                cycle[node.nid] = 0
                start[node.nid] = 0.0
        for nid, choices in self.choices.items():
            # A pinned choice is always selected.
            selected = [cut for cut, c in choices
                        if not isinstance(c, Var) or solution.int_value(c) == 1]
            if len(selected) > 1:
                raise ModelError(f"node {nid}: multiple cuts selected")
            if selected:
                cover[nid] = selected[0]
        for node in self.graph.inputs:
            cover[node.nid] = self.cuts[node.nid].trivial

        return Schedule(
            graph=self.graph,
            ii=self.config.ii,
            tcp=self.budget,
            cycle=cycle,
            start=start,
            cover=cover,
            method=method,
            objective=solution.objective,
            solve_seconds=solution.solve_seconds,
            optimal=solution.status == "optimal",
        )
