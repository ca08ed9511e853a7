"""Structural validation for CDFGs.

:func:`validate` runs the structural rules ``IR001``–``IR008`` of the
analysis engine (:mod:`repro.analysis.ir_rules`) and raises on any finding.
:func:`repro.analysis.lint_graph` runs them together with the semantic
rules (width inference, dead MUX arms, constant folding, DEP soundness).
"""

from __future__ import annotations

from ..errors import ValidationError
from .graph import CDFG

__all__ = ["validate"]

#: Dangling operands, constant overflow, MUX select width, OUTPUT sinks,
#: SLICE range, combinational cycles, missing outputs and dead operations.
STRUCTURAL_RULES = tuple(f"IR00{i}" for i in range(1, 9))


def validate(graph: CDFG) -> None:
    """Raise :class:`ValidationError` if the graph is malformed.

    The message joins the first eight errors of ``IR001``–``IR008`` in the
    linter's order. Dead code is an error: it would silently distort area
    numbers.
    """
    from ..analysis import Linter

    errors = Linter(select=STRUCTURAL_RULES).lint_graph(graph).errors
    if errors:
        raise ValidationError("; ".join(d.message for d in errors[:8]))
