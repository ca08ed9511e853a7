"""Pass-based static analysis with stable diagnostic codes.

The analysis engine turns the library's correctness knowledge into
machine-readable, per-rule-controllable diagnostics:

* :class:`Diagnostic` / :class:`DiagnosticReport` — findings with stable
  codes (``IR006``, ``SCH003``, ``DF001``...), severities, locations and
  fix hints; reports filter, sort and render as text or schema-stable JSON.
* :mod:`~repro.analysis.registry` — the rule protocol: every rule is a
  registered pass with a code, default severity, target artifact and gate.
* :class:`Linter` — the one driver: select/ignore codes, override
  severities, run over the two artifacts of a flow, a
  :class:`~repro.ir.graph.CDFG` or a
  :class:`~repro.scheduling.schedule.Schedule` + cover.

``docs/diagnostics.md`` tables every code. :func:`repro.ir.validate.validate`
and :func:`repro.core.verify.verify_schedule` raise from a Linter's errors.
"""

from .diagnostic import SCHEMA_VERSION, Diagnostic, DiagnosticReport, Severity
from .registry import (
    AnalysisContext,
    Rule,
    all_rules,
    register,
    rule_for,
    rules_for_target,
)

# Importing the rule modules registers their rules (import order defines
# nothing: execution order is by code).
from . import dep_rules as _dep_rules  # noqa: F401,E402
from . import ir_rules as _ir_rules  # noqa: F401,E402
from . import schedule_rules as _schedule_rules  # noqa: F401,E402
from .dataflow import rules as _dataflow_rules  # noqa: F401,E402

from .linter import Linter, lint_graph, lint_schedule  # noqa: E402

__all__ = [
    "AnalysisContext",
    "Diagnostic",
    "DiagnosticReport",
    "Linter",
    "Rule",
    "SCHEMA_VERSION",
    "Severity",
    "all_rules",
    "lint_graph",
    "lint_schedule",
    "register",
    "rule_for",
    "rules_for_target",
]
