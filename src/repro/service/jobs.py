"""Job manager for the scheduling service.

:class:`SchedulingService` is the transport-free core of ``repro serve``:
it owns the job table, the sharded worker pool, and every admission /
lifecycle policy. The HTTP layer (:mod:`repro.service.server`) is a thin
codec over it, which is what makes the whole state machine testable
in-process (tests drive the service directly, or through the in-process
client, with zero sockets).

Design notes
------------
* **Dedupe.** Jobs are content-fingerprinted with the exact
  :func:`~repro.runtime.fingerprint.flow_fingerprint` the flow cache
  uses. A submission whose fingerprint matches a *queued or running* job
  joins that job (same id, one solve) instead of creating a new one;
  a submission matching a *finished* job becomes a new job whose flow
  is served by the :class:`~repro.runtime.FlowCache` (zero solves on a
  warm cache). In-flight dedupe and the cache therefore compose: at most
  one solve ever runs per fingerprint, no matter how many clients ask.

* **Shards.** The pool is ``workers`` threads, each with its own deque;
  jobs land on ``int(fp[:8], 16) % workers`` so repeated traffic for one
  kernel has a home shard, and idle shards steal from the longest queue
  so a hot shard never strands work. Dedupe guarantees two jobs with the
  same fingerprint are never in flight together, which is what makes
  stealing safe. Heavy per-subgraph MILP fan-out *inside* a flow still
  goes through :func:`~repro.runtime.run_parallel` process pools via
  ``run_flow(jobs=flow_jobs)`` — shards parallelize across jobs, the
  pool parallelizes within one.

* **Backpressure.** Admission is bounded by ``queue_limit`` *queued*
  jobs (running jobs have left the queue) and by a per-client quota of
  active (queued + running) jobs. Both rejections are HTTP 429; neither
  touches jobs already accepted.

* **Cancellation.** Cancelling a queued job removes it immediately; a
  running job's flow observes its cancel event (or its spent time
  budget) when its next span opens (:class:`~repro.runtime.Tracer`
  ``cancel=``) and raises :class:`~repro.errors.FlowCancelled` — the
  worker thread then frees its slot. A solver mid-call always finishes
  its phase first, so no worker pool is ever abandoned.

* **Retries.** :class:`~repro.service.faults.WorkerCrashFault` (the
  injected stand-in for transient infrastructure failure) re-queues the
  job at the front of its home shard up to ``max_retries`` extra
  attempts; every :class:`~repro.errors.ReproError` is a property of the
  job and fails it immediately.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import Any

from ..errors import (
    FlowCancelled,
    QuotaExceeded,
    ReproError,
    ServiceBusy,
    ServiceError,
)
from ..runtime.cache import FlowCache
from ..runtime.fingerprint import flow_fingerprint
from ..runtime.trace import Tracer
from .faults import FaultPlan, WorkerCrashFault
from .protocol import SERVICE_SCHEMA, TERMINAL_STATES, JobRequest, parse_request

__all__ = ["Job", "SchedulingService"]

logger = logging.getLogger(__name__)


class Job:
    """One accepted submission: state machine, events, and (later) result.

    Events are an append-only, sequence-numbered NDJSON-able log —
    ``state`` transitions, ``phase`` start/end pairs sourced from Tracer
    spans, ``dedup`` joins and ``retry`` re-queues — that the event
    stream endpoint replays and tails.
    """

    def __init__(self, job_id: str, seq: int, request: JobRequest,
                 fingerprint: str) -> None:
        self.id = job_id
        self.seq = seq
        self.request = request
        self.fingerprint = fingerprint
        self.state = "queued"
        self.error: dict[str, str] | None = None
        self.result: dict[str, Any] | None = None
        self.attempts = 0
        self.submissions = 1
        self.shard: int | None = None
        self.created = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.cancel_event = threading.Event()
        self.done = threading.Event()
        self.events: list[dict[str, Any]] = []
        self._cond = threading.Condition()

    # -- events --------------------------------------------------------
    def add_event(self, event: str, **fields: Any) -> None:
        with self._cond:
            entry = {"seq": len(self.events), "event": event,
                     "t": round(time.time() - self.created, 6), **fields}
            self.events.append(entry)
            self._cond.notify_all()

    def wait_events(self, start: int, timeout: float = 0.5) -> list[dict]:
        """Events with ``seq >= start``, blocking up to ``timeout`` for new
        ones; an empty list means the wait timed out (poll again)."""
        with self._cond:
            if len(self.events) <= start:
                self._cond.wait(timeout)
            return [dict(e) for e in self.events[start:]]

    # -- documents -----------------------------------------------------
    def document(self, include_result: bool = True) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "schema": SERVICE_SCHEMA,
            "id": self.id,
            "state": self.state,
            "client": self.request.client,
            "method": self.request.method,
            "design": self.request.design,
            "fingerprint": self.fingerprint,
            "submissions": self.submissions,
            "attempts": self.attempts,
            "shard": self.shard,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "events": len(self.events),
        }
        if include_result:
            doc["result"] = self.result
        return doc


class SchedulingService:
    """The job table + sharded worker pool behind ``repro serve``."""

    def __init__(self, workers: int = 2, queue_limit: int = 32,
                 quota: int = 8, cache: "FlowCache | str | None" = None,
                 flow_jobs: int | None = 1, max_retries: int = 1,
                 default_time_budget: float | None = None,
                 faults: FaultPlan | None = None) -> None:
        self.workers = max(1, int(workers))
        self.queue_limit = max(1, int(queue_limit))
        self.quota = max(1, int(quota))
        self.cache = FlowCache(cache) if isinstance(cache, str) else cache
        self.flow_jobs = flow_jobs
        self.max_retries = max(0, int(max_retries))
        self.default_time_budget = default_time_budget
        self.faults = faults or FaultPlan()

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queues: list[deque[Job]] = [deque()
                                          for _ in range(self.workers)]
        self._jobs: dict[str, Job] = {}
        self._active_fp: dict[str, Job] = {}
        self._threads: list[threading.Thread] = []
        self._stop = False
        self._seq = 0
        self._started_at: float | None = None
        self._latencies: list[float] = []
        self.counters = {
            "submitted": 0, "accepted": 0, "deduped": 0, "completed": 0,
            "failed": 0, "cancelled": 0, "retried": 0,
            "rejected_quota": 0, "rejected_queue": 0, "cache_hits": 0,
        }

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "SchedulingService":
        if self._threads:
            raise ServiceError("service already started")
        self._started_at = time.time()
        for shard in range(self.workers):
            thread = threading.Thread(target=self._worker, args=(shard,),
                                      name=f"repro-shard-{shard}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self, cancel_active: bool = True,
                 timeout: float = 30.0) -> None:
        """Stop the shards. With ``cancel_active`` every non-terminal job
        gets its cancel event set, so running flows stop at their next
        checkpoint instead of draining to completion."""
        with self._cond:
            self._stop = True
            if cancel_active:
                for job in self._jobs.values():
                    if job.state not in TERMINAL_STATES:
                        job.cancel_event.set()
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    def __enter__(self) -> "SchedulingService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- admission -----------------------------------------------------
    def submit(self, payload: "dict[str, Any] | JobRequest"
               ) -> tuple[Job, bool]:
        """Admit one submission; returns ``(job, created)``.

        ``created=False`` means the submission joined an in-flight job
        with the same fingerprint. Raises
        :class:`~repro.errors.ProtocolError` on malformed payloads,
        :class:`~repro.errors.QuotaExceeded` /
        :class:`~repro.errors.ServiceBusy` on admission-control
        rejections (both HTTP 429; neither affects accepted jobs).
        """
        request = payload if isinstance(payload, JobRequest) \
            else parse_request(payload)
        fingerprint = flow_fingerprint(request.graph, request.method,
                                       request.device, request.config)
        with self._cond:
            if self._stop:
                raise ServiceError("service is shutting down")
            self.counters["submitted"] += 1
            active = self._active_fp.get(fingerprint)
            if active is not None and active.state not in TERMINAL_STATES \
                    and not active.cancel_event.is_set():
                active.submissions += 1
                self.counters["deduped"] += 1
                active.add_event("dedup", client=request.client)
                return active, False
            owned = sum(1 for job in self._jobs.values()
                        if job.state not in TERMINAL_STATES
                        and job.request.client == request.client)
            if owned >= self.quota:
                self.counters["rejected_quota"] += 1
                raise QuotaExceeded(
                    f"client {request.client!r} has {owned} active job(s); "
                    f"quota is {self.quota}")
            queued = sum(len(q) for q in self._queues)
            if queued >= self.queue_limit:
                self.counters["rejected_queue"] += 1
                raise ServiceBusy(
                    f"job queue is full ({queued}/{self.queue_limit}); "
                    f"retry later")
            self._seq += 1
            job = Job(f"j-{self._seq:06d}", self._seq - 1, request,
                      fingerprint)
            shard = int(fingerprint[:8], 16) % self.workers
            self._jobs[job.id] = job
            self._active_fp[fingerprint] = job
            self._queues[shard].append(job)
            self.counters["accepted"] += 1
            job.add_event("state", state="queued", shard=shard)
            self._cond.notify_all()
            return job, True

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> Job | None:
        """Cancel a job; terminal jobs are returned unchanged."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.state in TERMINAL_STATES:
                return job
            job.cancel_event.set()
            for queue in self._queues:
                if job in queue:
                    queue.remove(job)
                    self._finish(job, "cancelled", reason="queued")
                    return job
            # Running: the flow observes the event at its next phase
            # checkpoint and the worker marks the job cancelled.
            job.add_event("cancel-requested")
            return job

    # -- workers -------------------------------------------------------
    def _take(self, shard: int) -> Job | None:
        """Pop from the shard's own queue, else steal from the longest."""
        if self._queues[shard]:
            return self._queues[shard].popleft()
        victim = max(range(self.workers), key=lambda s: len(self._queues[s]))
        if self._queues[victim]:
            return self._queues[victim].popleft()
        return None

    def _worker(self, shard: int) -> None:
        while True:
            with self._cond:
                job = self._take(shard)
                while job is None and not self._stop:
                    self._cond.wait(0.2)
                    job = self._take(shard)
                if job is None:
                    return
            if job.cancel_event.is_set():
                with self._cond:
                    if job.state not in TERMINAL_STATES:
                        self._finish(job, "cancelled", reason="queued")
                continue
            self._run_job(job, shard)
            if self._stop and job.state not in TERMINAL_STATES:
                # Shutdown raced a retry re-queue; don't spin on it.
                with self._cond:
                    if job.state not in TERMINAL_STATES:
                        self._finish(job, "cancelled", reason="shutdown")

    def _run_job(self, job: Job, shard: int) -> None:
        from ..experiments.flows import run_flow

        job.attempts += 1
        job.shard = shard
        if job.started is None:
            job.started = time.time()
        job.state = "running"
        job.add_event("state", state="running", shard=shard,
                      attempt=job.attempts)
        budget = job.request.time_budget
        if budget is None:
            budget = self.default_time_budget
        deadline = (time.time() + budget) if budget is not None else None

        def cancelled() -> bool:
            return job.cancel_event.is_set() \
                or (deadline is not None and time.time() > deadline)

        def on_phase(event: str, span: Any) -> None:
            if event == "start":
                job.add_event("phase", phase=span.name, status="start")
                self.faults.on_phase_start(span.name)
            else:
                job.add_event("phase", phase=span.name, status="end",
                              seconds=round(span.seconds, 6))

        request = job.request
        try:
            self.faults.before_start()
            self.faults.before_attempt(job.seq, job.attempts)
            flow = run_flow(request.graph, request.method,
                            device=request.device, config=request.config,
                            design=request.design, lint=request.lint,
                            cache=self.cache, jobs=self.flow_jobs,
                            tracer=Tracer(listener=on_phase,
                                          cancel=cancelled))
            self.faults.after_store(self.cache, flow.fingerprint)
            job.result = self._result_document(job, flow)
            with self._cond:
                if flow.cached:
                    self.counters["cache_hits"] += 1
                self._finish(job, "done", cached=flow.cached)
        except FlowCancelled as exc:
            with self._cond:
                if deadline is not None and time.time() > deadline \
                        and not job.cancel_event.is_set():
                    job.error = {"type": "TimeBudgetExceeded",
                                 "message": f"time budget {budget:.3f}s "
                                            f"exceeded ({exc})"}
                    self._finish(job, "failed", phase=exc.phase)
                else:
                    self._finish(job, "cancelled", phase=exc.phase)
        except WorkerCrashFault as exc:
            with self._cond:
                if job.attempts <= self.max_retries \
                        and not job.cancel_event.is_set() and not self._stop:
                    self.counters["retried"] += 1
                    job.state = "queued"
                    job.add_event("retry", attempt=job.attempts + 1,
                                  error=str(exc))
                    home = int(job.fingerprint[:8], 16) % self.workers
                    self._queues[home].appendleft(job)
                    self._cond.notify_all()
                else:
                    job.error = {"type": "WorkerCrashFault",
                                 "message": str(exc)}
                    self._finish(job, "failed")
        except ReproError as exc:
            with self._cond:
                job.error = {"type": type(exc).__name__, "message": str(exc)}
                self._finish(job, "failed")
        except Exception as exc:  # noqa: BLE001 - a worker must never die
            logger.exception("unexpected worker failure on %s", job.id)
            with self._cond:
                job.error = {"type": type(exc).__name__, "message": str(exc)}
                self._finish(job, "failed")

    def _finish(self, job: Job, state: str, **fields: Any) -> None:
        """Terminal transition; caller holds the lock (or is pre-start)."""
        job.state = state
        job.finished = time.time()
        if self._active_fp.get(job.fingerprint) is job:
            del self._active_fp[job.fingerprint]
        self.counters[{"done": "completed", "failed": "failed",
                       "cancelled": "cancelled"}[state]] += 1
        if state == "done":
            self._latencies.append(job.finished - job.created)
        job.add_event("state", state=state, **fields)
        job.done.set()

    @staticmethod
    def _result_document(job: Job, flow: Any) -> dict[str, Any]:
        from ..ir.serialize import schedule_to_dict

        return {
            "schedule": schedule_to_dict(flow.schedule),
            "report": flow.report.to_dict(),
            "cached": flow.cached,
            "source_graph": flow.source_graph,
            "fingerprint": flow.fingerprint or job.fingerprint,
            "spans": [s.to_dict() for s in flow.trace.spans],
        }

    # -- introspection -------------------------------------------------
    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def stats(self) -> dict[str, Any]:
        with self._lock:
            latencies = sorted(self._latencies)
            active = sum(1 for j in self._jobs.values()
                         if j.state not in TERMINAL_STATES)
            queued = sum(len(q) for q in self._queues)
            uptime = (time.time() - self._started_at
                      if self._started_at else 0.0)
            completed = self.counters["completed"]

            def pct(p: float) -> float | None:
                if not latencies:
                    return None
                k = min(len(latencies) - 1, int(p * len(latencies)))
                return round(latencies[k], 6)

            return {
                "schema": SERVICE_SCHEMA,
                "workers": self.workers,
                "queue_limit": self.queue_limit,
                "quota": self.quota,
                "active": active,
                "queued": queued,
                "uptime_seconds": round(uptime, 3),
                "jobs_per_sec": (round(completed / uptime, 4)
                                 if uptime > 0 else 0.0),
                "latency_p50": pct(0.50),
                "latency_p95": pct(0.95),
                "cache": (None if self.cache is None else {
                    "hits": self.cache.hits, "misses": self.cache.misses,
                    "stores": self.cache.stores,
                }),
                **self.counters,
            }
