"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single handler while still letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Malformed CDFG: bad operands, widths, unknown nodes, or bad edges."""


class ValidationError(IRError):
    """A CDFG failed structural validation."""


class AnalysisError(ReproError):
    """Static analysis found blocking diagnostics.

    Attributes
    ----------
    report:
        The :class:`~repro.analysis.DiagnosticReport` that tripped the
        failure threshold, when available (``None`` for configuration
        errors inside the analysis engine itself).
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class FrontendError(ReproError):
    """The mini-language frontend rejected a program."""


class CutError(ReproError):
    """Cut enumeration failed or was queried inconsistently."""


class ModelError(ReproError):
    """An MILP model was built or queried incorrectly."""


class SolverError(ReproError):
    """An MILP/LP backend failed to produce a usable answer."""


class InfeasibleError(SolverError):
    """The optimization problem admits no feasible solution."""

    def __init__(self, message: str = "problem is infeasible") -> None:
        super().__init__(message)


class SchedulingError(ReproError):
    """A scheduler could not produce a legal schedule."""


class ScheduleVerificationError(SchedulingError):
    """An independently-checked schedule violates a constraint.

    Attributes
    ----------
    violations:
        Human-readable descriptions of every violated constraint.
    report:
        Optional :class:`~repro.analysis.DiagnosticReport` with the full
        machine-readable findings (codes, severities, locations).
    """

    #: How many violations :meth:`__str__` renders before truncating —
    #: a schedule can violate thousands of constraints at once, and a
    #: traceback is not the place for all of them.
    MAX_RENDERED = 5

    def __init__(self, violations: list[str], report=None) -> None:
        self.violations = list(violations)
        self.report = report
        super().__init__(self._render())

    def _render(self) -> str:
        shown = self.violations[:self.MAX_RENDERED]
        hidden = len(self.violations) - len(shown)
        preview = "; ".join(shown)
        more = f" (+{hidden} more)" if hidden > 0 else ""
        return f"schedule verification failed: {preview}{more}"

    def __str__(self) -> str:
        return self._render()


class MappingError(ReproError):
    """Technology mapping failed (e.g., no feasible cover for a stage)."""


class SimulationError(ReproError):
    """Functional or cycle-accurate simulation failed or diverged."""


class RTLError(ReproError):
    """Verilog emission failed."""


class ExperimentError(ReproError):
    """An experiment harness was configured or run incorrectly."""


class FlowCancelled(ReproError):
    """A flow observed its cancellation signal as a phase span opened.

    Raised by :meth:`repro.runtime.Tracer.span` when the tracer's
    ``cancel`` predicate is true as a phase is about to start (the flow's
    tracer, see :func:`repro.experiments.run_flow`). Deliberately *not* a
    subclass of :class:`SolverError`/:class:`SchedulingError`/
    :class:`AnalysisError`, so the narrowed-graph fallback never swallows
    a cancellation into a retry on the original graph.

    Attributes
    ----------
    phase:
        The phase the flow was about to enter when it stopped.
    """

    def __init__(self, message: str, phase: str | None = None) -> None:
        super().__init__(message)
        self.phase = phase


class ServiceError(ReproError):
    """Base class for job-server errors (:mod:`repro.service`)."""


class ProtocolError(ServiceError):
    """A service request payload is malformed (HTTP 400)."""


class QuotaExceeded(ServiceError):
    """A client exceeded its per-client active-job quota (HTTP 429)."""


class ServiceBusy(ServiceError):
    """The bounded job queue is full; submission rejected (HTTP 429)."""
