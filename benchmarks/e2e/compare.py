"""Compare two sets of runs metric by metric, with ``BENCHMARK.json`` bounds.

For every workload and end-to-end metric, each side's median and
quartiles give a change (the share by which B is worse than A) and a
spread (the wider side's quartile distance over its median). The verdict:

* ``unresolved`` — the spread is wider than the metric's bound, unless
  every run of B reads better than every run of A (then ``better``);
* ``worse`` / ``better`` — the change exceeds the bound either way;
* ``same`` — otherwise.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any

__all__ = ["Row", "compare_runs", "format_rows"]


@dataclass
class Row:
    workload: str
    metric: str
    a: tuple[float, float, float]  # q1, median, q3
    b: tuple[float, float, float]
    ratio: float
    verdict: str


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _spread(q: tuple[float, float, float]) -> float:
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def _verdict(a: list[float], b: list[float], better: str,
             bound: float) -> tuple[float, str]:
    qa, qb = _quartiles(a), _quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    if qa[1]:
        change = sign * (qb[1] - qa[1]) / abs(qa[1])
    else:
        change = 0.0 if qb[1] == qa[1] else sign * float("inf")
    ratio = qb[1] / qa[1] if qa[1] else (1.0 if qb[1] == qa[1] else
                                         float("inf"))
    if max(_spread(qa), _spread(qb)) > bound:
        b_wins = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return ratio, "better" if b_wins else "unresolved"
    if change > bound:
        return ratio, "worse"
    if change < -bound:
        return ratio, "better"
    return ratio, "same"


def compare_runs(a_runs: list[dict[str, Any]], b_runs: list[dict[str, Any]],
                 catalog: dict[str, Any]) -> list[Row]:
    """One row per workload x end-to-end metric, plus ``fail_frac``.

    ``fail_frac`` (failed over attempted) has no tolerance: any rise is
    ``worse``.
    """
    rows = []
    workloads = [w["name"] for w in catalog["workloads"]]
    metrics = [*catalog["end_to_end"],
               {"name": "fail_frac", "better": "lower", "bound": 0.0}]
    for workload in workloads:
        runs_a = [r for r in a_runs if r["workload"] == workload]
        runs_b = [r for r in b_runs if r["workload"] == workload]
        if not runs_a or not runs_b:
            continue
        for metric in metrics:
            name = metric["name"]

            def values(runs: list[dict[str, Any]]) -> list[float]:
                if name == "fail_frac":
                    return [r["failed"] / r["attempted"] for r in runs]
                return [r["metrics"][name] for r in runs]

            a, b = values(runs_a), values(runs_b)
            ratio, verdict = _verdict(a, b, metric["better"],
                                      metric["bound"])
            rows.append(Row(workload, name, _quartiles(a), _quartiles(b),
                            ratio, verdict))
    return rows


def format_rows(rows: list[Row]) -> str:
    def side(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    lines = [f"{'workload':<20} {'metric':<14} {'A median [q1, q3]':<34} "
             f"{'B median [q1, q3]':<34} {'B/A':>7}  verdict"]
    for row in rows:
        lines.append(f"{row.workload:<20} {row.metric:<14} {side(row.a):<34} "
                     f"{side(row.b):<34} {row.ratio:7.4f}  {row.verdict}")
    return "\n".join(lines)
