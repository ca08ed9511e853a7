"""Open- and closed-loop HTTP clients for the ``svc-mixed`` workload.

Every client waits for a job on its NDJSON event stream (never by
polling), then fetches the final job document, whose ``created`` /
``started`` / ``finished`` stamps come from the server's clock. The
open loop uses two threads (one submits on schedule, one waits); the
closed loop is one client that sends its next job only after the
previous one finished. Neither retries a 429: a refused job is a failure.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any

from .speed import now

__all__ = ["Submission", "open_loop", "closed_loop"]


@dataclass
class Submission:
    """One job sent to the server and what came back."""

    payload: int
    #: Open loop only: the wall-clock time the job was due to be sent.
    due: float | None = None
    sent: float = 0.0
    rtt: float = 0.0
    #: Closed loop only: :func:`.speed.now` stamps at the send and at the
    #: final document.
    span: tuple[float, float] = (0.0, 0.0)
    job_id: str | None = None
    deduped: bool = False
    refused: bool = False
    document: dict[str, Any] | None = None
    error: str | None = None

    @property
    def done(self) -> bool:
        return self.document is not None and self.document["state"] == "done"


def _submit(client, payloads: list[dict], sub: Submission) -> None:
    sub.sent = time.time()
    t0 = time.perf_counter()
    try:
        status, document = client.submit(payloads[sub.payload])
    except OSError as exc:
        sub.error = f"submit: {exc}"
        return
    sub.rtt = time.perf_counter() - t0
    if status in (200, 202):
        sub.job_id = document["id"]
        sub.deduped = bool(document.get("deduped"))
    else:
        sub.refused = status == 429
        sub.error = f"HTTP {status}: {document.get('error')}"


def _complete(client, sub: Submission) -> None:
    from repro.errors import ServiceError

    try:
        for _event in client.events(sub.job_id):
            pass
        status, document = client.job(sub.job_id)
    except (OSError, ServiceError, ValueError) as exc:
        sub.error = f"wait: {exc}"
        return
    if status != 200:
        sub.error = f"HTTP {status} fetching {sub.job_id}"
        return
    sub.document = document
    if document["state"] != "done":
        sub.error = f"job {document['state']}: {document.get('error')}"


def open_loop(client, payloads: list[dict], order: list[int],
              rate: float) -> list[Submission]:
    """Send ``order`` at ``rate`` jobs/s whatever the server's progress."""
    waiting: "queue.Queue[Submission | None]" = queue.Queue()

    def waiter() -> None:
        while (sub := waiting.get()) is not None:
            _complete(client, sub)

    thread = threading.Thread(target=waiter, name="open-loop-waiter")
    thread.start()
    subs = []
    t0 = time.time()
    try:
        for i, payload in enumerate(order):
            sub = Submission(payload, due=t0 + i / rate)
            delay = sub.due - time.time()
            if delay > 0:
                time.sleep(delay)
            _submit(client, payloads, sub)
            subs.append(sub)
            if sub.job_id is not None:
                waiting.put(sub)
    finally:
        waiting.put(None)
        thread.join()
    return subs


def closed_loop(client, payloads: list[dict],
                order: list[int]) -> list[Submission]:
    """Send ``order`` one job at a time, each after the last finished.

    Each job is timed from its send to its final document, into ``span``.
    """
    subs = [Submission(payload) for payload in order]
    for sub in subs:
        t0 = now()
        _submit(client, payloads, sub)
        if sub.job_id is not None:
            _complete(client, sub)
        sub.span = (t0, now())
    return subs
