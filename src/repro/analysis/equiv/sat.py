"""A small CDCL SAT solver and the AIG-to-CNF (Tseitin) bridge.

The solver implements the classic conflict-driven core in pure Python:

* two-literal watching for unit propagation;
* first-UIP conflict analysis with a cheap self-subsumption minimization;
* VSIDS-style exponential variable activities with phase saving;
* Luby-sequence restarts;
* a conflict budget so callers can bound worst-case miters and report
  *unknown* instead of hanging.

Literals reuse the AIGER convention of :mod:`.aig` (variable ``v`` →
literals ``2v`` / ``2v+1``; variable 0 is the constant, pinned false at
level 0), so AIG cones translate without a renaming layer:
:func:`tseitin` walks the cone of the requested root literals and emits
the three clauses per AND gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .aig import AIG, FALSE, TRUE, lit_not

__all__ = ["SatSolver", "SatResult", "tseitin", "solve_lit"]


@dataclass
class SatResult:
    """Outcome of one SAT call.

    ``status`` is ``"sat"``, ``"unsat"`` or ``"unknown"`` (budget hit).
    ``model`` maps AIG input variables to booleans for SAT outcomes.
    """

    status: str
    model: dict[int, bool] | None = None
    conflicts: int = 0
    decisions: int = 0
    stats: dict = field(default_factory=dict)


def _luby(i: int) -> int:
    """The ``i``-th element (1-based) of the Luby restart sequence."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class SatSolver:
    """CDCL over clauses of AIGER-style literals.

    Variable 0 is reserved for the AIG constant and is pre-assigned false,
    which makes literal 0 behave as FALSE and literal 1 as TRUE in added
    clauses — exactly matching :mod:`.aig`.
    """

    def __init__(self, num_vars: int) -> None:
        self.num_vars = max(num_vars, 1)
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * self.num_vars)]
        self.assigns = [-1] * self.num_vars  # -1 unassigned, else 0/1
        self.level = [0] * self.num_vars
        self.reason: list[int | None] = [None] * self.num_vars
        self.activity = [0.0] * self.num_vars
        self.phase = [0] * self.num_vars
        self.var_inc = 1.0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.ok = True
        self.assigns[0] = 0  # the constant variable is always false

    # -- clause management ----------------------------------------------
    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a clause at level 0; simplifies against current level-0 facts."""
        if not self.ok:
            return
        assert not self.trail_lim, "clauses must be added before solving"
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if lit in seen:
                continue
            if lit_not(lit) in seen:
                return  # tautology
            val = self._value(lit)
            if val == 1:
                return  # satisfied at level 0 (covers literal TRUE)
            if val == 0:
                continue  # false at level 0 (covers literal FALSE)
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self.ok = False
            return
        idx = len(self.clauses)
        self.clauses.append(out)
        self.watches[out[0] ^ 1].append(idx)
        self.watches[out[1] ^ 1].append(idx)

    # -- assignment -----------------------------------------------------
    def _value(self, lit: int) -> int:
        """1 true, 0 false, -1 unassigned."""
        v = self.assigns[lit >> 1]
        if v < 0:
            return -1
        return v ^ (lit & 1)

    def _enqueue(self, lit: int, reason: int | None) -> bool:
        val = self._value(lit)
        if val == 0:
            return False
        if val == 1:
            return True
        var = lit >> 1
        self.assigns[var] = 1 - (lit & 1)
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> int | None:
        """Unit propagation; returns a conflicting clause index or None."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            falselit = lit_not(lit)
            watchers = self.watches[lit]
            i = 0
            while i < len(watchers):
                ci = watchers[i]
                clause = self.clauses[ci]
                if clause[0] == falselit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    i += 1
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != 0:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches[lit_not(clause[1])].append(ci)
                        watchers[i] = watchers[-1]
                        watchers.pop()
                        moved = True
                        break
                if moved:
                    continue
                if not self._enqueue(first, ci):
                    return ci
                i += 1
        return None

    # -- VSIDS ----------------------------------------------------------
    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            inv = 1e-100
            self.activity = [a * inv for a in self.activity]
            self.var_inc *= inv

    def _decay(self) -> None:
        self.var_inc /= 0.95

    def _pick_branch(self) -> int | None:
        best = -1
        best_act = -1.0
        for var, assign in enumerate(self.assigns):
            if assign < 0 and self.activity[var] > best_act:
                best = var
                best_act = self.activity[var]
        if best < 0:
            return None
        return 2 * best + (0 if self.phase[best] else 1)

    # -- conflict analysis ----------------------------------------------
    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP learned clause and backjump level."""
        learnt: list[int] = [0]  # slot for the asserting literal
        seen = [False] * self.num_vars
        counter = 0
        index = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        reason_lits: list[int] = list(self.clauses[confl])
        lit = 0
        while True:
            for q in reason_lits:
                var = q >> 1
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[index] >> 1]:
                index -= 1
            lit = self.trail[index]
            index -= 1
            seen[lit >> 1] = False
            counter -= 1
            if counter == 0:
                break
            r = self.reason[lit >> 1]
            assert r is not None
            reason_lits = [q for q in self.clauses[r] if q != lit]
        learnt[0] = lit_not(lit)
        # Self-subsumption-lite: drop a literal whose whole reason clause
        # is already inside the learnt set (or at level 0).
        marked = {q >> 1 for q in learnt}
        out = [learnt[0]]
        for q in learnt[1:]:
            r = self.reason[q >> 1]
            if r is not None and all(
                    (p >> 1) in marked or self.level[p >> 1] == 0
                    for p in self.clauses[r] if p != lit_not(q)):
                continue
            out.append(q)
        if len(out) == 1:
            return out, 0
        back = max(self.level[q >> 1] for q in out[1:])
        for k in range(1, len(out)):
            if self.level[out[k] >> 1] == back:
                out[1], out[k] = out[k], out[1]
                break
        return out, back

    def _cancel_until(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        bound = self.trail_lim[target]
        for lit in reversed(self.trail[bound:]):
            var = lit >> 1
            self.phase[var] = self.assigns[var]
            self.assigns[var] = -1
            self.reason[var] = None
        del self.trail[bound:]
        del self.trail_lim[target:]
        self.qhead = len(self.trail)

    # -- main loop ------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = (),
              max_conflicts: int | None = None) -> SatResult:
        """Solve under ``assumptions``; returns a :class:`SatResult`."""
        if not self.ok:
            return SatResult("unsat")
        conflicts = decisions = 0
        restart_num = 1
        restart_budget = 32 * _luby(restart_num)
        conflicts_at_restart = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                conflicts += 1
                conflicts_at_restart += 1
                if len(self.trail_lim) == 0:
                    return SatResult("unsat", conflicts=conflicts,
                                     decisions=decisions)
                learnt, back = self._analyze(confl)
                self._cancel_until(back)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        return SatResult("unsat", conflicts=conflicts,
                                         decisions=decisions)
                else:
                    idx = len(self.clauses)
                    self.clauses.append(learnt)
                    self.watches[lit_not(learnt[0])].append(idx)
                    self.watches[lit_not(learnt[1])].append(idx)
                    self._enqueue(learnt[0], idx)
                self._decay()
                if max_conflicts is not None and conflicts >= max_conflicts:
                    self._cancel_until(0)
                    return SatResult("unknown", conflicts=conflicts,
                                     decisions=decisions)
                if conflicts_at_restart >= restart_budget:
                    restart_num += 1
                    restart_budget = 32 * _luby(restart_num)
                    conflicts_at_restart = 0
                    self._cancel_until(0)
                continue
            # Assert pending assumptions (one decision level each), then
            # branch. A false assumption here is implied by level-0 facts
            # plus earlier assumptions — genuinely UNSAT under assumptions.
            next_lit = None
            failed = False
            for alit in assumptions:
                val = self._value(alit)
                if val == 0:
                    failed = True
                    break
                if val == -1:
                    next_lit = alit
                    break
            if failed:
                self._cancel_until(0)
                return SatResult("unsat", conflicts=conflicts,
                                 decisions=decisions,
                                 stats={"assumption_failed": True})
            if next_lit is None:
                next_lit = self._pick_branch()
            if next_lit is None:
                model = {var: bool(assign)
                         for var, assign in enumerate(self.assigns)
                         if assign >= 0}
                self._cancel_until(0)
                return SatResult("sat", model=model, conflicts=conflicts,
                                 decisions=decisions)
            decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(next_lit, None)


def tseitin(aig: AIG, roots: Sequence[int]) -> SatSolver:
    """A solver primed with the Tseitin encoding of the cone of ``roots``.

    AIG variables map one-to-one onto solver variables, so SAT models can
    be read back against :attr:`AIG.inputs` directly.
    """
    solver = SatSolver(len(aig.fanins))
    for var in aig.cone_vars(roots):
        pair = aig.fanins[var]
        if pair is None:
            continue
        a, b = pair
        t = 2 * var
        solver.add_clause([lit_not(t), a])
        solver.add_clause([lit_not(t), b])
        solver.add_clause([t, lit_not(a), lit_not(b)])
    return solver


def solve_lit(aig: AIG, lit: int, *, assumptions: Sequence[int] = (),
              max_conflicts: int | None = None) -> SatResult:
    """Is ``lit`` (under ``assumptions``) satisfiable?

    Builds the Tseitin CNF of the combined cone, asserts ``lit`` as a unit
    and solves. The returned model (for SAT) covers the cone's input
    variables only.
    """
    if lit == FALSE and not assumptions:
        return SatResult("unsat")
    if lit == TRUE and not assumptions:
        return SatResult("sat", model={})
    solver = tseitin(aig, [lit, *assumptions])
    solver.add_clause([lit])
    result = solver.solve(assumptions=list(assumptions),
                          max_conflicts=max_conflicts)
    if result.status == "sat" and result.model is not None:
        inputs = set(aig.inputs)
        result.model = {v: val for v, val in result.model.items()
                        if v in inputs}
    return result
