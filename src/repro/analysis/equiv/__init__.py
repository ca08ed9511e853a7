"""Symbolic translation validation for the flow's lowering stages.

Every stage of the flow — dataflow narrowing, cut covering, pipelined
replay, Verilog emission — is re-modeled as a *machine* (an iteration-
indexed transition system over an and-inverter graph) and checked
against the reference CDFG semantics with a miter: shared symbolic
inputs, XOR-ed outputs, and a proof that the difference is unsatisfiable
(structural hashing, random simulation, then CDCL SAT under a conflict
budget). Loop-carried state is handled by bounded model checking from the
declared initial values plus k-induction over a free history window.

:func:`validate_flow` is the one entry point: it proves (or refutes)
every stage of one flow run, under an :class:`EquivBudget` of BMC
frames, induction depth and SAT conflicts. ``run_flow(validate=...)``,
``repro equiv``, ``repro schedule --validate`` and the fuzz ``equiv``
oracle all call it.

See ``docs/equivalence.md`` for the design and its soundness caveats.
"""

from .aig import AIG
from .miter import EquivBudget, Goal, Invariant, PairInstance, decode_stream
from .sat import SatSolver, solve_lit, tseitin
from .validate import (
    EQUIV_SCHEMA,
    STAGES,
    Counterexample,
    EquivReport,
    StageVerdict,
    validate_flow,
)

__all__ = [
    "AIG",
    "Counterexample",
    "EQUIV_SCHEMA",
    "EquivBudget",
    "EquivReport",
    "Goal",
    "Invariant",
    "PairInstance",
    "STAGES",
    "SatSolver",
    "StageVerdict",
    "decode_stream",
    "solve_lit",
    "tseitin",
    "validate_flow",
]
