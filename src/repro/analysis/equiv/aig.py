"""And-inverter graphs with structural hashing and light rewriting.

The AIG is the bit-level substrate of the equivalence engine: every
word-level CDFG operation is lowered to 2-input AND gates plus edge
inverters (:mod:`~repro.analysis.equiv.encode`), both sides of a miter are
built into *one* graph with shared input variables, and structural hashing
collapses everything the two sides have in common — which is the single
biggest lever for making the downstream SAT queries tractable.

Literals follow the AIGER convention: variable ``v`` has positive literal
``2*v`` and negative literal ``2*v + 1``; variable 0 is the constant, so
literal 0 is FALSE and literal 1 is TRUE.

:meth:`AIG.and_` applies, in order:

* constant propagation (``x & 0 = 0``, ``x & 1 = x``, ``x & x = x``,
  ``x & ~x = 0``);
* one- and two-level rewriting over the fanins of AND arguments
  (contradiction, subsumption, idempotence and resolution — e.g.
  ``(a & b) & ~a = 0``, ``(a & b) & a = a & b``, ``~(a & b) & a = a & ~b``,
  ``~(a & b) & ~(a & ~b) = ~a``);
* structural hashing on the normalized ``(min, max)`` fanin pair.

The class also evaluates itself concretely (:meth:`eval_many`) on 64
stimulus patterns at a time — used both for cheap counterexample hunting
before SAT and for confirming decoded SAT models.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["AIG", "FALSE", "TRUE", "lit_not", "lit_sign"]

FALSE = 0
TRUE = 1


def lit_not(lit: int) -> int:
    """The complement literal."""
    return lit ^ 1


def lit_sign(lit: int) -> bool:
    """True when the literal is complemented."""
    return bool(lit & 1)


class AIG:
    """A structurally hashed and-inverter graph.

    Attributes
    ----------
    fanins:
        ``fanins[v]`` is ``None`` for the constant and for inputs, and the
        normalized ``(lit_a, lit_b)`` pair for AND variables.
    inputs:
        Input variable indices in creation order.
    input_name:
        Optional debugging name per input variable.
    """

    def __init__(self) -> None:
        self.fanins: list[tuple[int, int] | None] = [None]  # var 0 = const
        self.inputs: list[int] = []
        self.input_name: dict[int, str] = {}
        self._strash: dict[tuple[int, int], int] = {}

    # -- construction ---------------------------------------------------
    def new_input(self, name: str | None = None) -> int:
        """Allocate a fresh input variable; returns its positive literal."""
        var = len(self.fanins)
        self.fanins.append(None)
        self.inputs.append(var)
        if name is not None:
            self.input_name[var] = name
        return 2 * var

    def const(self, value: bool) -> int:
        return TRUE if value else FALSE

    def and_(self, a: int, b: int) -> int:
        """AND of two literals with rewriting and structural hashing."""
        # Level-0: constants, idempotence, complement.
        if a == FALSE or b == FALSE or a == lit_not(b):
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE or a == b:
            return a
        rewritten = self._rewrite(a, b)
        if rewritten is not None:
            return rewritten
        if a > b:
            a, b = b, a
        key = (a, b)
        found = self._strash.get(key)
        if found is not None:
            return 2 * found
        var = len(self.fanins)
        self.fanins.append(key)
        self._strash[key] = var
        return 2 * var

    def _rewrite(self, a: int, b: int) -> int | None:
        """One- and two-level AND rewriting; ``None`` when no rule fires."""
        fa = self.fanins[a >> 1]
        fb = self.fanins[b >> 1]
        # One-level rules: one argument is (the complement of) an AND.
        for x, fx, y in ((a, fa, b), (b, fb, a)):
            if fx is None:
                continue
            x0, x1 = fx
            if not lit_sign(x):
                # x = x0 & x1
                if y == lit_not(x0) or y == lit_not(x1):
                    return FALSE            # contradiction
                if y == x0 or y == x1:
                    return x                # absorption: (x0&x1) & x0
            else:
                # x = ~(x0 & x1)
                if y == x0:
                    return self.and_(y, lit_not(x1))  # substitution
                if y == x1:
                    return self.and_(y, lit_not(x0))
                if y == lit_not(x0) or y == lit_not(x1):
                    return y                # subsumption: ~(x0&x1) & ~x0
        # Two-level rules between two AND fanins.
        if fa is not None and fb is not None:
            a0, a1 = fa
            b0, b1 = fb
            sa, sb = lit_sign(a), lit_sign(b)
            if not sa and not sb:
                # (a0&a1) & (b0&b1) with a shared complemented child.
                if a0 == lit_not(b0) or a0 == lit_not(b1) \
                        or a1 == lit_not(b0) or a1 == lit_not(b1):
                    return FALSE
            elif sa != sb:
                pos, neg = (a, b) if not sa else (b, a)
                p = self.fanins[pos >> 1]
                n = self.fanins[neg >> 1]
                assert p is not None and n is not None
                # (p0&p1) & ~(n0&n1): subsumed when {n0,n1} ⊆ {p0,p1}
                # complemented-wise the AND already covers it; the useful
                # rule is when the negative side shares one child and the
                # other child is complemented: (p0&p1) & ~(p0&~p1) = p0&p1.
                if (n[0] in p and lit_not(n[1]) in p) or \
                        (n[1] in p and lit_not(n[0]) in p):
                    return pos
            else:
                # ~(a0&a1) & ~(a0&~a1) = ~a0 (resolution).
                if a0 == b0 and a1 == lit_not(b1):
                    return lit_not(a0)
                if a1 == b1 and a0 == lit_not(b0):
                    return lit_not(a1)
                if a0 == b1 and a1 == lit_not(b0):
                    return lit_not(a0)
                if a1 == b0 and a0 == lit_not(b1):
                    return lit_not(a1)
        return None

    # -- derived gates --------------------------------------------------
    def or_(self, a: int, b: int) -> int:
        return lit_not(self.and_(lit_not(a), lit_not(b)))

    def xor_(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, lit_not(b)), self.and_(lit_not(a), b))

    def xnor_(self, a: int, b: int) -> int:
        return lit_not(self.xor_(a, b))

    def mux(self, sel: int, if_true: int, if_false: int) -> int:
        """``sel ? if_true : if_false``."""
        return self.or_(self.and_(sel, if_true),
                        self.and_(lit_not(sel), if_false))

    def and_many(self, lits: Iterable[int]) -> int:
        """Balanced conjunction of arbitrarily many literals."""
        work = [lit for lit in lits]
        if not work:
            return TRUE
        while len(work) > 1:
            nxt = [self.and_(work[i], work[i + 1])
                   for i in range(0, len(work) - 1, 2)]
            if len(work) % 2:
                nxt.append(work[-1])
            work = nxt
        return work[0]

    def or_many(self, lits: Iterable[int]) -> int:
        return lit_not(self.and_many(lit_not(lit) for lit in lits))

    # -- analysis -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.fanins)

    def cone_vars(self, roots: Sequence[int]) -> list[int]:
        """Variables in the transitive fanin of ``roots`` (topological,
        constant and inputs included), iteratively to survive deep cones."""
        seen: set[int] = set()
        order: list[int] = []
        stack: list[tuple[int, bool]] = [(lit >> 1, False) for lit in roots]
        while stack:
            var, expanded = stack.pop()
            if expanded:
                order.append(var)
                continue
            if var in seen:
                continue
            seen.add(var)
            stack.append((var, True))
            pair = self.fanins[var]
            if pair is not None:
                stack.append((pair[0] >> 1, False))
                stack.append((pair[1] >> 1, False))
        return order

    def support(self, roots: Sequence[int]) -> list[int]:
        """Input variables the ``roots`` depend on."""
        return [v for v in self.cone_vars(roots)
                if self.fanins[v] is None and v != 0]

    # -- concrete evaluation --------------------------------------------
    def eval_many(self, assignment: dict[int, int],
                  roots: Sequence[int]) -> list[int]:
        """Evaluate ``roots`` under 64 parallel patterns.

        ``assignment`` maps input *variables* to 64-bit pattern words;
        unassigned inputs evaluate as all-zero. Returns one pattern word
        per root literal.
        """
        mask64 = (1 << 64) - 1
        values: dict[int, int] = {0: 0}
        for var in self.cone_vars(roots):
            if var in values:
                continue
            pair = self.fanins[var]
            if pair is None:
                values[var] = assignment.get(var, 0) & mask64
            else:
                a, b = pair
                va = values[a >> 1] ^ (mask64 if a & 1 else 0)
                vb = values[b >> 1] ^ (mask64 if b & 1 else 0)
                values[var] = va & vb
        out = []
        for lit in roots:
            word = values[lit >> 1]
            out.append((word ^ (mask64 if lit & 1 else 0)) & mask64)
        return out

    def eval_lit(self, assignment: dict[int, bool], lit: int) -> bool:
        """Single-pattern evaluation (inputs default to False)."""
        packed = {var: (1 if val else 0)
                  for var, val in assignment.items()}
        return bool(self.eval_many(packed, [lit])[0] & 1)
