"""Host speed, sampled while a workload runs, and times scaled by it.

    python -m benchmarks.e2e.speed

The benchmark is meant to run on shared virtual machines whose speed
follows the neighbours' load. On a 2-vCPU Xeon VM each vCPU flips, within
a second and independently of the other, between full speed and about
0.6 of it, and the share of slow time drifts over minutes: the same pass
over a workload took from 2.4 s to 3.8 s. A wall time alone says more
about the host than about the program.

So a run confines itself and every process it starts to one CPU
(:func:`pinned`), and a :class:`Monitor` runs the command above on that
CPU: every :data:`PERIOD_S` it times :func:`_kernel`, a fixed pure-Python
loop that uses no code of the program. It prints ``sampling`` after the
first sample, samples until its stdin closes, and then prints its samples
as one JSON list of ``[time, seconds]``.

An operation's *reference time* (:meth:`Monitor.scaled`) is its wall
time times the mean of ``REF_PROBE_S / sample`` over the samples taken
while it ran: the seconds it would have taken on a host where the kernel
always takes :data:`REF_PROBE_S`. A change to the program moves it; a
change of host speed moves wall time and samples alike, and cancels.

The kernel exercises the interpreter, which slows down like the
heuristic flows do. Solver-heavy flows slow down somewhat less, so a run
on a slow host reads up to about 10% low on ``paper-milp``.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator

__all__ = ["REF_PROBE_S", "PERIOD_S", "now", "pinned", "Monitor"]

ROOT = Path(__file__).resolve().parents[2]
#: Seconds the kernel takes on the reference host: about its best case on
#: the VM above, so reference times read close to that host's wall times.
REF_PROBE_S = 0.00025
#: Seconds between two samples. A sample takes the program's CPU for
#: about two kernels, so a short kernel disturbs short flows least.
PERIOD_S = 0.05


def now() -> float:
    """Monotonic seconds on a clock every process of the host shares."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _kernel() -> int:
    """Dict, shift and sort work in the interpreter, about 0.25 ms."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(1500):
        key = i % 251
        counts[key] = counts.get(key, 0) + (i * i) % 7
        acc ^= key << (i & 15)
    ordered = sorted(counts.values(), reverse=True)
    return acc + sum(ordered[::3])


def _probe() -> float:
    """CPU seconds the kernel takes now, best of two. CPU time, so that
    the program taking the CPU back mid-kernel does not read as a slow
    host; a slow host stretches CPU time and wall time alike."""
    best = float("inf")
    for _ in range(2):
        t0 = time.thread_time()
        _kernel()
        best = min(best, time.thread_time() - t0)
    return best


@contextlib.contextmanager
def pinned() -> Iterator[None]:
    """Confine this thread, and every process it starts meanwhile, to one
    CPU, so that a :class:`Monitor` samples the CPU the program runs on."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Monitor:
    """The sampling process of one run, as a context manager.

    Start it inside :func:`pinned`; after the ``with`` block, :meth:`scaled`
    converts :func:`now` stamps taken meanwhile into reference seconds.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._times: list[float] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "Monitor":
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.speed"], cwd=ROOT,
            text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        # Wait for the first sample, so that the first operation has one.
        self._proc.stdout.readline()
        return self

    def __exit__(self, *exc_info) -> None:
        proc = self._proc
        try:
            out, _ = proc.communicate("", timeout=10.0)
        except subprocess.TimeoutExpired:
            out = ""
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode == 0 and out.strip():
            self.samples = [(t, s) for t, s in json.loads(out)]
            self._times = [t for t, _ in self.samples]

    def scaled(self, t0: float, t1: float) -> float:
        """The wall time from ``t0`` to ``t1`` in reference seconds."""
        if not self.samples:
            raise RuntimeError("the speed monitor recorded no sample")
        lo = bisect.bisect_left(self._times, t0 - PERIOD_S)
        hi = bisect.bisect_right(self._times, t1 + PERIOD_S)
        window = self.samples[lo:hi] or [
            min(self.samples, key=lambda sample: abs(sample[0] - t0))]
        return (t1 - t0) * statistics.fmean(REF_PROBE_S / seconds
                                            for _, seconds in window)


def main() -> int:
    samples = []
    while True:
        t0 = now()
        seconds = _probe()
        samples.append([(t0 + now()) / 2, seconds])
        if len(samples) == 1:
            print("sampling", flush=True)
        # Any input, or the end of it, stops the sampler.
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
