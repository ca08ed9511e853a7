"""Experiment runtime: parallel dispatch, result caching, phase tracing.

The three pieces compose but do not require each other:

* :class:`~repro.runtime.trace.Tracer` / :class:`~repro.runtime.trace.Span`
  — structured per-phase timing that rides on every
  :class:`~repro.experiments.flows.FlowResult`;
* :func:`~repro.runtime.fingerprint.flow_fingerprint` +
  :class:`~repro.runtime.cache.FlowCache` — content-addressed on-disk
  reuse of flow results (``--cache-dir``);
* :func:`~repro.runtime.parallel.run_parallel` — ordered process-pool
  fan-out of (design, method) tasks (``--jobs N``).

See ``docs/runtime.md`` for the cache layout, fingerprint fields and the
trace span schema.
"""

from .cache import CACHE_FILE_SCHEMA, FlowCache
from .fingerprint import CACHE_SCHEMA_VERSION, flow_fingerprint
from .parallel import resolve_jobs, run_parallel
from .trace import SPAN_NAMES, TRACE_SCHEMA, Span, Tracer

__all__ = [
    "CACHE_FILE_SCHEMA",
    "CACHE_SCHEMA_VERSION",
    "FlowCache",
    "SPAN_NAMES",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "flow_fingerprint",
    "resolve_jobs",
    "run_parallel",
]
