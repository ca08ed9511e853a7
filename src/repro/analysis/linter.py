"""The pass driver: configure rules, run them over an artifact, get a report.

A :class:`Linter` holds per-run configuration — selected/ignored codes,
severity overrides, sampling budgets — and exposes one entry point per
artifact kind: :meth:`lint_graph` for the CDFG going into a flow and
:meth:`lint_schedule` for the schedule and cover coming out. Rules that
establish a gate run first, the rest in code order; a rule whose gate was
broken by an earlier rule (e.g. timing rules after an unscheduled node was
found) is skipped rather than allowed to crash on malformed input.

Module-level :func:`lint_graph` / :func:`lint_schedule` run a
default-configured linter for the common case.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping

from .diagnostic import DiagnosticReport, Severity
from .registry import AnalysisContext, Rule, rules_for_target

if TYPE_CHECKING:  # pragma: no cover
    from ..ir.graph import CDFG
    from ..scheduling.schedule import Schedule
    from ..tech.device import Device

__all__ = ["Linter", "lint_graph", "lint_schedule"]


def _matches(code: str, patterns: Iterable[str]) -> bool:
    """True when ``code`` equals or starts with any pattern (``IR`` selects
    every IR rule, ``IR006`` exactly one)."""
    return code.startswith(tuple(patterns))


def _execution_order(rules: list[Rule]) -> list[Rule]:
    """Gate-establishing rules run before the rules they may gate off.

    The gate graph is a two-level chain (well-formedness, then acyclicity /
    scheduled-ness, then everything else), so a phase sort suffices; within
    a phase, code order keeps output deterministic.
    """

    def phase(rule: Rule) -> int:
        if rule.establishes is None:
            return 2
        return 0 if rule.gate is None else 1

    return sorted(rules, key=lambda r: (phase(r), r.code))


class Linter:
    """A configured analysis run.

    Parameters
    ----------
    select:
        If given, only rules whose code matches one of these codes/prefixes
        run (``["IR", "SCH003"]``).
    ignore:
        Rules whose code matches are skipped (applied after ``select``).
    severity_overrides:
        ``{"IR012": "error"}``-style per-code severity replacement.
    options:
        Tuning knobs passed to rules via the context (sampling budgets:
        ``dep_nodes``, ``dep_bit_samples``, ``dep_trials``,
        ``dep_sat_conflicts``, ``recurrence_cycle_cap``).
    """

    def __init__(self, select: Iterable[str] | None = None,
                 ignore: Iterable[str] | None = None,
                 severity_overrides: Mapping[str, "Severity | str"] | None = None,
                 options: Mapping[str, Any] | None = None) -> None:
        self.select = list(select) if select is not None else None
        self.ignore = list(ignore or ())
        self.severity_overrides = {
            code: Severity.parse(sev)
            for code, sev in (severity_overrides or {}).items()
        }
        self.options = dict(options or {})

    # ------------------------------------------------------------------
    def unmatched_patterns(self) -> list[str]:
        """Selector/ignore patterns that match no CDFG rule.

        ``--select IR1`` silently running nothing (prefixes match codes,
        not families) is a foot-gun, and so is ``--select SCH003``:
        ``repro lint`` runs only the CDFG rules. Callers should treat a
        non-empty result as a configuration error (the CLI exits 2).
        """
        codes = [rule.code for rule in rules_for_target("cdfg")]
        return [p for p in (self.select or []) + self.ignore
                if not any(code.startswith(p) for code in codes)]

    def rules_for(self, target: str) -> list[Rule]:
        """The enabled rules for one artifact kind, in code order."""
        rules = rules_for_target(target)
        if self.select is not None:
            rules = [r for r in rules if _matches(r.code, self.select)]
        if self.ignore:
            rules = [r for r in rules if not _matches(r.code, self.ignore)]
        return rules

    def _run(self, target: str, ctx: AnalysisContext,
             subject: str) -> DiagnosticReport:
        report = DiagnosticReport(subject)
        broken_gates: set[str] = set()
        for rule in _execution_order(self.rules_for(target)):
            if rule.gate is not None and rule.gate in broken_gates:
                continue
            override = self.severity_overrides.get(rule.code)
            found = rule.run(ctx, severity=override)
            if found and rule.establishes:
                broken_gates.add(rule.establishes)
            for diag in found:
                report.add(_with_subject(diag, subject))
        return report

    # ------------------------------------------------------------------
    def lint_graph(self, graph: "CDFG",
                   device: "Device | None" = None) -> DiagnosticReport:
        """Run all CDFG rules over ``graph``."""
        ctx = AnalysisContext(graph=graph, device=device, options=self.options)
        return self._run("cdfg", ctx, subject=graph.name)

    def lint_schedule(self, schedule: "Schedule",
                      device: "Device") -> DiagnosticReport:
        """Run all schedule rules over ``schedule`` + its cover."""
        ctx = AnalysisContext(graph=schedule.graph, schedule=schedule,
                              device=device, options=self.options)
        return self._run("schedule", ctx,
                         subject=f"{schedule.graph.name}@{schedule.method}")


def _with_subject(diag, subject):
    """Stamp the analyzed subject onto a finding (kept out of rule bodies)."""
    if diag.subject == subject:
        return diag
    from dataclasses import replace

    return replace(diag, subject=subject)


# ----------------------------------------------------------------------
# Default-configured conveniences.
# ----------------------------------------------------------------------

def lint_graph(graph: "CDFG", device: "Device | None" = None,
               **linter_kwargs: Any) -> DiagnosticReport:
    """Lint a CDFG with a default :class:`Linter` (kwargs forwarded)."""
    return Linter(**linter_kwargs).lint_graph(graph, device=device)


def lint_schedule(schedule: "Schedule", device: "Device",
                  **linter_kwargs: Any) -> DiagnosticReport:
    """Lint a schedule + cover with a default :class:`Linter`."""
    return Linter(**linter_kwargs).lint_schedule(schedule, device)
