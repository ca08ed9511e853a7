"""Structured per-phase tracing for experiment flows.

A :class:`Tracer` records :class:`Span` objects — named, timed phases such
as ``lint``, ``narrow``, ``cut-enum``, ``milp-build``, ``solve``, ``verify``
and ``evaluate`` — while a flow executes. Spans carry free-form ``meta``
(model sizes, solver status, which graph was scheduled, ...) so downstream
consumers (Table 2, the cache tests, ``repro trace``) read measurements
from one place instead of re-instrumenting each harness.

Spans restored from the on-disk flow cache are marked ``cached=True``;
counting only *fresh* spans is how the test suite proves a warm-cache rerun
performed zero MILP solves.

Opening a span is also the flow's cancellation point: a tracer built with
``cancel=`` refuses to enter a phase once the predicate turns true.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..errors import FlowCancelled

__all__ = ["Span", "Tracer", "SPAN_NAMES", "TRACE_SCHEMA"]

TRACE_SCHEMA = "repro-trace/v1"

#: The canonical phase names recorded by :func:`repro.experiments.run_flow`
#: and the schedulers; each is also a possible ``FlowCancelled.phase``.
#: Consumers should match on these, not re-derive them.
SPAN_NAMES = (
    "lint", "narrow", "narrow-fallback", "cut-enum", "milp-build",
    "presolve", "warm-start", "solve", "schedule", "map", "partition-cut",
    "subgraph-solve", "stitch", "feedback", "verify", "evaluate",
    "cache-load", "cache-store", "miter", "equiv",
)


@dataclass
class Span:
    """One timed phase.

    Attributes
    ----------
    name:
        Phase name (see :data:`SPAN_NAMES`).
    start:
        Seconds since the owning tracer's epoch when the phase began.
    seconds:
        Wall-clock duration. Filled when the span closes.
    meta:
        Free-form measurements attached by the phase (e.g. ``constraints``,
        ``status``, ``graph``).
    cached:
        True when the span was replayed from a cache entry rather than
        measured in this process.
    """

    name: str
    start: float = 0.0
    seconds: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)
    cached: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            "meta": dict(self.meta),
            "cached": self.cached,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any], cached: bool | None = None) -> "Span":
        return cls(
            name=data["name"],
            start=float(data.get("start", 0.0)),
            seconds=float(data.get("seconds", 0.0)),
            meta=dict(data.get("meta", {})),
            cached=bool(data.get("cached", False)) if cached is None else cached,
        )


class Tracer:
    """Collects spans for one flow (cheap enough to be always-on).

    ``listener`` — an optional callable ``(event, span)`` with ``event``
    one of ``"start"`` / ``"end"`` — fires synchronously when any span
    opens or closes. This is how the job server streams live per-phase
    progress (:mod:`repro.service`) without the flows threading a
    callback through every scheduler: everything that records a span
    through this tracer is observable. Listener exceptions propagate
    into the traced phase, so listeners must not raise (the service's
    fault-injection stalls *wait* inside the listener deliberately).
    Spans replayed via :meth:`absorb`/:meth:`from_dict` do not fire it —
    they describe work done elsewhere, possibly long ago.

    ``cancel`` — an optional predicate checked as each span opens, before
    the listener hears of it. When it returns true the span is not
    entered: :class:`~repro.errors.FlowCancelled` is raised with the span's
    name as ``phase``. A phase already running is never interrupted, so
    every worker pool a phase spawns is joined before the exception
    surfaces.
    """

    def __init__(self, listener: "Any | None" = None,
                 cancel: "Callable[[], bool] | None" = None) -> None:
        self.spans: list[Span] = []
        self.listener = listener
        self.cancel = cancel
        self._epoch = time.perf_counter()
        self._context: dict[str, Any] = {}

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[Span]:
        """Time a phase; the yielded span accepts late ``meta`` updates.

        The span is appended even when the body raises, so failed attempts
        (e.g. the narrowed-graph solve that triggers the original-graph
        retry) stay visible in the trace.
        """
        if self.cancel is not None and self.cancel():
            raise FlowCancelled(f"flow cancelled before {name}", phase=name)
        t0 = time.perf_counter()
        entry = Span(name=name, start=t0 - self._epoch,
                     meta={**self._context, **meta})
        if self.listener is not None:
            self.listener("start", entry)
        try:
            yield entry
        finally:
            entry.seconds = time.perf_counter() - t0
            self.spans.append(entry)
            if self.listener is not None:
                self.listener("end", entry)

    @contextmanager
    def context(self, **meta: Any) -> Iterator[None]:
        """Attach ``meta`` to every span opened inside the block."""
        old = self._context
        self._context = {**old, **meta}
        try:
            yield
        finally:
            self._context = old

    def absorb(self, spans: list[Span], cached: bool = False) -> None:
        """Append externally produced spans (e.g. loaded from the cache)."""
        for span in spans:
            if cached:
                span = Span(name=span.name, start=span.start,
                            seconds=span.seconds, meta=dict(span.meta),
                            cached=True)
            self.spans.append(span)

    # -- queries -------------------------------------------------------
    def find(self, name: str, fresh_only: bool = False) -> list[Span]:
        """All spans named ``name`` (optionally only non-cached ones)."""
        return [s for s in self.spans
                if s.name == name and (not fresh_only or not s.cached)]

    def count(self, name: str, fresh_only: bool = False) -> int:
        return len(self.find(name, fresh_only=fresh_only))

    def total_seconds(self, name: str, fresh_only: bool = False) -> float:
        return sum(s.seconds for s in self.find(name, fresh_only=fresh_only))

    def last(self, name: str) -> Span | None:
        spans = self.find(name)
        return spans[-1] if spans else None

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {"schema": TRACE_SCHEMA,
                "spans": [s.to_dict() for s in self.spans]}

    @classmethod
    def from_dict(cls, data: dict[str, Any],
                  cached: bool = False) -> "Tracer":
        tracer = cls()
        tracer.spans = [Span.from_dict(s, cached=True if cached else None)
                        for s in data.get("spans", [])]
        return tracer

    def render_text(self) -> str:
        """Human-readable span listing (``repro trace`` default output)."""
        lines = []
        for span in self.spans:
            meta = " ".join(f"{k}={v}" for k, v in sorted(span.meta.items()))
            tag = " [cached]" if span.cached else ""
            lines.append(f"{span.name:<12s} {span.seconds * 1000:9.2f} ms"
                         f"{tag}" + (f"  {meta}" if meta else ""))
        return "\n".join(lines)
