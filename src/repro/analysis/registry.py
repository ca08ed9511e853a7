"""Rule protocol and registry.

A rule is a function from an :class:`AnalysisContext` to an iterable of
:class:`~repro.analysis.diagnostic.Diagnostic`, registered under a stable
code with :func:`register`. The registry is the single source of truth for
codes, default severities, targets (what kind of artifact the rule reads)
and gates (which prerequisite findings make the rule meaningless to run —
e.g. schedule-timing rules cannot run while nodes are unscheduled).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Protocol

from ..errors import AnalysisError
from .diagnostic import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover
    from ..ir.graph import CDFG
    from ..scheduling.schedule import Schedule
    from ..tech.device import Device

__all__ = ["AnalysisContext", "Rule", "RuleCheck", "register", "rule_for",
           "all_rules", "rules_for_target", "TARGETS", "GATE_WELLFORMED",
           "GATE_ACYCLIC", "GATE_SCHEDULED"]

#: Artifact kinds a rule can analyze: the CDFG going into a flow and the
#: schedule with its cover coming out (the two artifacts of Sec. 3).
TARGETS = ("cdfg", "schedule")

#: Gate names: a rule with a gate is skipped when the named precondition
#: was violated by an earlier rule of the same run.
GATE_WELLFORMED = "wellformed"  # every operand source exists (IR001 clean)
GATE_ACYCLIC = "acyclic"        # distance-0 edges form a DAG (IR006 clean)
GATE_SCHEDULED = "scheduled"    # every node has a cycle (SCH001 clean)


@dataclass
class AnalysisContext:
    """Everything a rule may look at. Fields are populated per target:
    ``cdfg`` rules get ``graph`` (and ``device`` when the caller has one);
    ``schedule`` rules get ``schedule`` (and ``graph`` for convenience) plus
    ``device``. ``options`` carries linter tuning knobs (sampling budgets)."""

    graph: "CDFG | None" = None
    schedule: "Schedule | None" = None
    device: "Device | None" = None
    options: dict[str, Any] = field(default_factory=dict)


class RuleCheck(Protocol):
    """The callable shape of a rule body."""

    def __call__(self, ctx: AnalysisContext) -> Iterable[Diagnostic]:
        ...  # pragma: no cover


@dataclass(frozen=True)
class Rule:
    """A registered rule: metadata plus the check callable."""

    code: str
    name: str
    target: str
    severity: Severity
    description: str
    check: RuleCheck
    gate: str | None = None
    #: Gate this rule *establishes* when it reports nothing (see linter).
    establishes: str | None = None

    def run(self, ctx: AnalysisContext,
            severity: Severity | None = None) -> list[Diagnostic]:
        """Execute the check, stamping code/rule/severity onto findings."""
        eff = severity or self.severity
        out = []
        for diag in self.check(ctx):
            out.append(Diagnostic(
                code=self.code, severity=eff, message=diag.message,
                rule=self.name, node=diag.node, nodes=diag.nodes,
                edge=diag.edge, constraint=diag.constraint, hint=diag.hint,
            ))
        return out


_REGISTRY: dict[str, Rule] = {}


def register(code: str, name: str, target: str, severity: Severity,
             description: str, gate: str | None = None,
             establishes: str | None = None) -> Callable[[RuleCheck], RuleCheck]:
    """Decorator registering a rule body under a stable ``code``."""
    if target not in TARGETS:
        raise AnalysisError(f"rule {code}: unknown target {target!r}")

    def deco(fn: RuleCheck) -> RuleCheck:
        if code in _REGISTRY:
            raise AnalysisError(f"duplicate rule code {code}")
        _REGISTRY[code] = Rule(code=code, name=name, target=target,
                               severity=severity, description=description,
                               check=fn, gate=gate, establishes=establishes)
        return fn

    return deco


def finding(message: str, node: int | None = None,
            nodes: Iterable[int] = (), edge: tuple[int, int] | None = None,
            constraint: str | None = None,
            hint: str | None = None) -> Diagnostic:
    """Build a partially-filled diagnostic inside a rule body.

    Code, rule name and severity are stamped by :meth:`Rule.run`, so rule
    bodies only state *what* they found and *where*.
    """
    return Diagnostic(code="", severity=Severity.INFO, message=message,
                      node=node, nodes=tuple(nodes), edge=edge,
                      constraint=constraint, hint=hint)


def rule_for(code: str) -> Rule:
    """Look up a rule by code (raises :class:`AnalysisError` if unknown)."""
    try:
        return _REGISTRY[code]
    except KeyError:
        raise AnalysisError(
            f"unknown diagnostic code {code!r}; known: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by code."""
    return [_REGISTRY[c] for c in sorted(_REGISTRY)]


def rules_for_target(target: str) -> list[Rule]:
    """Registered rules for one artifact kind, ordered by code."""
    return [r for r in all_rules() if r.target == target]
