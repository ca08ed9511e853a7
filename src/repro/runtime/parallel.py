"""Process-pool fan-out for experiment tasks.

:func:`run_parallel` dispatches picklable tasks to a
``concurrent.futures.ProcessPoolExecutor`` and merges results back **in
task order**, so a parallel run is byte-identical to the serial one for
any deterministic worker. ``jobs=1`` (the default) does not touch
multiprocessing at all — it is literally a list comprehension over the
same worker, which keeps the serial path exactly as it was before this
module existed.

Workers must be module-level functions (the pool pickles them). No
library path reads Python's global RNG (every sampler builds its own
seeded ``random.Random``), so a task's result cannot depend on which
process — or in which order — it ran.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Sequence, TypeVar

__all__ = ["run_parallel", "resolve_jobs"]

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when an experiment is called with
#: ``jobs=None`` — lets CI run the whole suite under ``--jobs 2`` without
#: threading a flag through every harness.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: int | None) -> int:
    """Resolve an explicit/env/default jobs count (always >= 1)."""
    if jobs is None:
        try:
            jobs = int(os.environ.get(JOBS_ENV, "1"))
        except ValueError:
            jobs = 1
    return max(1, jobs)


def run_parallel(tasks: Sequence[T], worker: Callable[[T], R],
                 jobs: int | None = 1,
                 progress: Callable[[T], None] | None = None) -> list[R]:
    """Map ``worker`` over ``tasks``; results keep task order.

    With ``jobs <= 1`` the work runs serially in-process and ``progress``
    fires immediately before each task executes. With more, tasks fan out
    over a process pool sized ``min(jobs, len(tasks))`` and ``progress``
    fires as each task *completes* (completion order), so progress output
    reflects work actually done rather than bursting at submission. The
    first worker exception shuts the pool down with ``cancel_futures=True``
    — queued tasks never start — and re-raises in the caller; among tasks
    that already ran, the earliest by task order decides which exception
    surfaces.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        results = []
        for task in tasks:
            if progress:
                progress(task)
            results.append(worker(task))
        return results

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = {pool.submit(worker, task): index
                   for index, task in enumerate(tasks)}
        results: list[R | None] = [None] * len(tasks)
        errors: dict[int, BaseException] = {}
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = futures[future]
                if future.cancelled():
                    continue
                exc = future.exception()
                if exc is None:
                    results[index] = future.result()
                    if progress:
                        progress(tasks[index])
                    continue
                if not errors:
                    # Drop every queued task: a failing solve must not
                    # wait on unrelated work that has not started yet.
                    # Tasks already executing still drain through this
                    # loop.
                    pool.shutdown(wait=False, cancel_futures=True)
                errors[index] = exc
            if errors:
                # shutdown(cancel_futures=True) discards queued work
                # items without ever resolving their futures, so wait()
                # would block on them forever — drop them by hand. What
                # remains is genuinely running and will complete.
                pending = {f for f in pending if not f.cancelled()}
        if errors:
            raise errors[min(errors)]
        return results  # type: ignore[return-value]
