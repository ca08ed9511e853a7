"""Independent schedule verification.

Re-checks a :class:`~repro.scheduling.Schedule` + cover against the problem
statement of Sec. 3 without reusing any MILP machinery: coverage, cut
feasibility, root/boundary consistency, cycle-time budgets, dependence and
recurrence timing, and black-box resource limits. Every scheduler in the
library funnels its result through :func:`verify_schedule`, so a formulation
bug cannot silently ship a bogus QoR number.

The constraint checks themselves live in
:mod:`repro.analysis.schedule_rules` as registered rules (codes
``SCH001``–``SCH010``); :func:`verify_schedule` raises with every violation
on the exception's ``violations`` and the full
:class:`~repro.analysis.DiagnosticReport` attached.
"""

from __future__ import annotations

from ..errors import ScheduleVerificationError
from ..scheduling.schedule import Schedule
from ..tech.device import Device

__all__ = ["verify_schedule"]


def verify_schedule(schedule: Schedule, device: Device) -> Schedule:
    """Raise :class:`ScheduleVerificationError` on any violation.

    The full diagnostic report (including sub-error findings such as
    recurrence-slack warnings) rides along on the exception's ``report``
    attribute for machine consumption.
    """
    from ..analysis import lint_schedule

    report = lint_schedule(schedule, device)
    errors = report.filter(min_severity="error")
    if errors:
        raise ScheduleVerificationError(errors.messages(), report=report)
    return schedule
