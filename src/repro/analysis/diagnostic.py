"""Diagnostic value objects for the static-analysis engine.

A :class:`Diagnostic` is one machine-readable finding: a stable code
(``IR006``, ``SCH003``, ``DF001``...), a severity, an optional location
(node id, edge, or constraint name), a human message and an optional fix
hint. A :class:`DiagnosticReport` is an ordered collection with filtering,
sorting and rendering (text and schema-stable JSON, see
``docs/diagnostics.md``).

Severities form a total order (``info < warning < error``) so thresholds
like ``--fail-on warning`` are a single comparison.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

__all__ = ["Severity", "Diagnostic", "DiagnosticReport", "SCHEMA_VERSION"]

#: Version tag embedded in every JSON report; bump on breaking changes.
SCHEMA_VERSION = "repro-diagnostics/v1"


class Severity(enum.Enum):
    """How bad a finding is. Ordered: ``INFO < WARNING < ERROR``."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return _RANK[self]

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank

    def __le__(self, other: "Severity") -> bool:
        return self.rank <= other.rank

    def __gt__(self, other: "Severity") -> bool:
        return self.rank > other.rank

    def __ge__(self, other: "Severity") -> bool:
        return self.rank >= other.rank

    @classmethod
    def parse(cls, text: "str | Severity") -> "Severity":
        """Accept a :class:`Severity` or its string value (case-insensitive)."""
        if isinstance(text, Severity):
            return text
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                f"{', '.join(s.value for s in cls)}"
            ) from None


_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule.

    Attributes
    ----------
    code:
        Stable rule code (``IR001``...). Codes are never reused; retired
        rules keep their number reserved.
    severity:
        Effective severity (rule default unless overridden by the linter).
    message:
        One-line human-readable description.
    rule:
        The kebab-case rule name (``combinational-cycle``).
    node:
        Primary CDFG node id the finding is anchored to, if any.
    nodes:
        Additional involved node ids (e.g. all members of a cycle).
    edge:
        ``(source, consumer)`` node-id pair for edge-anchored findings.
    constraint:
        Name of the constraint a finding is anchored to (the resource
        class of an oversubscribed modulo slot).
    hint:
        Optional actionable fix suggestion.
    subject:
        What was analyzed (design or schedule name); stamped by the
        linter driver.
    """

    code: str
    severity: Severity
    message: str
    rule: str = ""
    node: int | None = None
    nodes: tuple[int, ...] = ()
    edge: tuple[int, int] | None = None
    constraint: str | None = None
    hint: str | None = None
    subject: str | None = None

    def sort_key(self) -> tuple:
        """Most severe first, then by code and location for stable output."""
        return (-self.severity.rank, self.code,
                self.node if self.node is not None else -1, self.message)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form used by the JSON report (stable key set)."""
        out: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity.value,
            "rule": self.rule,
            "message": self.message,
        }
        if self.node is not None:
            out["node"] = self.node
        if self.nodes:
            out["nodes"] = list(self.nodes)
        if self.edge is not None:
            out["edge"] = {"source": self.edge[0], "consumer": self.edge[1]}
        if self.constraint is not None:
            out["constraint"] = self.constraint
        if self.hint is not None:
            out["hint"] = self.hint
        if self.subject is not None:
            out["subject"] = self.subject
        return out

    def render(self) -> str:
        """One text line: ``CODE severity [@node N] message (hint)``."""
        loc = ""
        if self.node is not None:
            loc = f" @node {self.node}"
        elif self.edge is not None:
            loc = f" @edge {self.edge[0]}->{self.edge[1]}"
        elif self.constraint is not None:
            loc = f" @{self.constraint}"
        hint = f"  [hint: {self.hint}]" if self.hint else ""
        return f"{self.code} {self.severity.value:7s}{loc}: {self.message}{hint}"


class DiagnosticReport:
    """An ordered, filterable collection of diagnostics for one subject."""

    def __init__(self, subject: str = "",
                 diagnostics: Iterable[Diagnostic] = ()) -> None:
        self.subject = subject
        self.diagnostics: list[Diagnostic] = list(diagnostics)

    # -- collection protocol -------------------------------------------
    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    # -- queries --------------------------------------------------------
    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def worst(self) -> Severity | None:
        """Highest severity present, or ``None`` when the report is clean."""
        if not self.diagnostics:
            return None
        return max((d.severity for d in self.diagnostics),
                   key=lambda s: s.rank)

    def counts(self) -> dict[str, int]:
        """``{"error": n, "warning": n, "info": n}`` (always all three keys)."""
        out = {s.value: 0 for s in (Severity.ERROR, Severity.WARNING,
                                    Severity.INFO)}
        for d in self.diagnostics:
            out[d.severity.value] += 1
        return out

    def codes(self) -> set[str]:
        """The distinct codes present."""
        return {d.code for d in self.diagnostics}

    def by_code(self, code: str) -> list[Diagnostic]:
        """All diagnostics with exactly ``code``."""
        return [d for d in self.diagnostics if d.code == code]

    def filter(self, min_severity: "Severity | str | None" = None,
               codes: Iterable[str] | None = None) -> "DiagnosticReport":
        """A new report keeping diagnostics at/above ``min_severity`` whose
        code matches ``codes`` (exact codes or prefixes like ``"IR"``)."""
        kept = self.diagnostics
        if min_severity is not None:
            floor = Severity.parse(min_severity)
            kept = [d for d in kept if d.severity >= floor]
        if codes is not None:
            wanted = list(codes)
            kept = [d for d in kept
                    if any(d.code == c or d.code.startswith(c) for c in wanted)]
        return DiagnosticReport(self.subject, kept)

    def sorted(self) -> "DiagnosticReport":
        """A new report ordered most-severe-first (stable within severity)."""
        return DiagnosticReport(
            self.subject, sorted(self.diagnostics, key=Diagnostic.sort_key)
        )

    def fails(self, threshold: "Severity | str" = Severity.ERROR) -> bool:
        """True when any diagnostic is at or above ``threshold``."""
        floor = Severity.parse(threshold)
        return any(d.severity >= floor for d in self.diagnostics)

    def raise_if(self, threshold: "Severity | str" = Severity.ERROR) -> None:
        """Raise :class:`~repro.errors.AnalysisError` when :meth:`fails`."""
        if self.fails(threshold):
            from ..errors import AnalysisError

            raise AnalysisError(self.summary_line(), report=self)

    # -- rendering ------------------------------------------------------
    def summary_line(self) -> str:
        counts = self.counts()
        subject = f"{self.subject}: " if self.subject else ""
        return (f"{subject}{counts['error']} error(s), "
                f"{counts['warning']} warning(s), {counts['info']} info(s)")

    def render_text(self) -> str:
        """Multi-line human-readable report (sorted, summary last)."""
        lines = [d.render() for d in self.sorted()]
        lines.append(self.summary_line())
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """Schema-stable dict (see ``docs/diagnostics.md``)."""
        return {
            "schema": SCHEMA_VERSION,
            "subject": self.subject,
            "summary": self.counts(),
            "diagnostics": [d.to_dict() for d in self.sorted()],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def messages(self) -> list[str]:
        """Bare message strings, in insertion order."""
        return [d.message for d in self.diagnostics]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiagnosticReport({self.subject!r}, {self.counts()})"
