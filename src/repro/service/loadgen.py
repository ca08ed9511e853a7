"""Fuzz-sourced load generator for the scheduling service.

Traffic comes from :mod:`repro.fuzz.generate`: seed ``k`` deterministically
produces one validate-clean CDFG (profile routed by seed, exactly as the
fuzz campaign routes it), so a load run is *replayable* — the oracle test
regenerates each graph from its seed and byte-compares the service's
result against a serial :func:`~repro.experiments.run_flow`.

The generator drives any client exposing the
:class:`~repro.service.client.ServiceClient` API (HTTP or in-process),
politely retrying 429 backpressure rejections, and returns a
:class:`LoadReport` (schema ``repro-service-load/v1``) with throughput,
latency percentiles, cache-hit counts, and one record per submission
carrying the canonical result JSON for oracle comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..errors import ServiceError
from .protocol import SERVICE_SCHEMA, canonical_result_json

__all__ = ["LOAD_SCHEMA", "LoadReport", "run_load", "load_payload",
           "DEFAULT_LOAD_CONFIG"]

LOAD_SCHEMA = "repro-service-load/v1"

#: Keeps fuzz-sized MILPs small and fast — the same shape the fuzz CLI
#: forces (``max_cuts=8``) plus a solver cap no tiny model ever hits.
DEFAULT_LOAD_CONFIG: dict[str, Any] = {"max_cuts": 8, "time_limit": 30.0}


def load_payload(seed: int, method: str = "milp-map",
                 config: dict[str, Any] | None = None,
                 client: str = "loadgen") -> dict[str, Any]:
    """The job payload for fuzz seed ``seed`` (deterministic)."""
    from ..fuzz.generate import generate_graph, profile_for_seed
    from ..ir.serialize import graph_to_dict

    profile = profile_for_seed(seed)
    graph = generate_graph(seed, profile)
    return {
        "schema": SERVICE_SCHEMA,
        "client": client,
        "method": method,
        "graph": graph_to_dict(graph),
        "config": dict(config if config is not None
                       else DEFAULT_LOAD_CONFIG),
    }


@dataclass
class LoadReport:
    """Outcome of one load run."""

    jobs: list[dict[str, Any]] = field(default_factory=list)
    elapsed: float = 0.0
    retries_429: int = 0
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(1 for j in self.jobs if j["state"] == "done")

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if j["state"] == "failed")

    def to_dict(self, include_results: bool = False) -> dict[str, Any]:
        latencies = sorted(j["latency"] for j in self.jobs
                           if j.get("latency") is not None)

        def pct(p: float) -> float | None:
            if not latencies:
                return None
            k = min(len(latencies) - 1, int(p * len(latencies)))
            return round(latencies[k], 6)

        jobs = self.jobs if include_results else [
            {k: v for k, v in j.items() if k != "canonical"}
            for j in self.jobs
        ]
        return {
            "schema": LOAD_SCHEMA,
            "jobs": jobs,
            "submitted": len(self.jobs),
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": sum(1 for j in self.jobs
                             if j["state"] == "cancelled"),
            "cached": sum(1 for j in self.jobs if j.get("cached")),
            "deduped": sum(1 for j in self.jobs if j.get("deduped")),
            "retries_429": self.retries_429,
            "elapsed": round(self.elapsed, 3),
            "jobs_per_sec": (round(self.completed / self.elapsed, 4)
                             if self.elapsed > 0 else 0.0),
            "latency_p50": pct(0.50),
            "latency_p95": pct(0.95),
            "service_stats": self.stats,
        }


def run_load(client: Any, seeds: Iterable[int] = range(50),
             method: str = "milp-map",
             config: dict[str, Any] | None = None,
             duration: float | None = None,
             submit_timeout: float = 60.0,
             wait_timeout: float = 300.0,
             progress: "Callable[[str], None] | None" = None) -> LoadReport:
    """Drive ``client`` with fuzz-generated jobs and wait them all out.

    ``seeds`` submits one job per seed as fast as admission control
    allows (429 rejections back off and retry — backpressure must never
    lose traffic, only delay it). ``duration`` (seconds) keeps cycling
    through ``seeds`` with distinct client names until the clock runs
    out — the CI smoke shape; dedupe/caching then absorbs the repeats.
    """
    report = LoadReport()
    t0 = time.perf_counter()

    def submit_one(seed: int, wave: str, client_name: str) -> str | None:
        payload = load_payload(seed, method=method, config=config,
                               client=client_name)
        deadline = time.time() + submit_timeout
        while True:
            status, document = client.submit(payload)
            if status in (200, 202):
                report.jobs.append({
                    "seed": seed, "wave": wave, "id": document["id"],
                    "fingerprint": document.get("fingerprint"),
                    "deduped": bool(document.get("deduped")),
                    "state": "submitted",
                })
                return document["id"]
            if status == 429:
                report.retries_429 += 1
                if time.time() > deadline:
                    raise ServiceError(
                        f"seed {seed}: still rejected (429) after "
                        f"{submit_timeout:.0f}s: {document.get('message')}")
                time.sleep(0.05)
                continue
            raise ServiceError(f"seed {seed}: submit failed "
                               f"({status}): {document.get('message')}")

    def drain() -> None:
        for record in report.jobs:
            if record["state"] != "submitted":
                continue
            document = client.wait(record["id"], timeout=wait_timeout)
            record["state"] = document["state"]
            record["fingerprint"] = document.get("fingerprint")
            if document.get("started") and document.get("finished"):
                record["latency"] = round(
                    document["finished"] - document["created"], 6)
            result = document.get("result")
            if result is not None:
                record["cached"] = bool(result.get("cached"))
                record["canonical"] = canonical_result_json(result)
            error = document.get("error")
            if error is not None:
                record["error"] = dict(error)
            if progress is not None:
                progress(f"{record['id']} seed {record['seed']} "
                         f"-> {record['state']}")

    seeds = list(seeds)
    for seed in seeds:
        submit_one(seed, "cold", "loadgen")
    if duration is not None:
        lap = 0
        while time.perf_counter() - t0 < duration:
            lap += 1
            for seed in seeds:
                if time.perf_counter() - t0 >= duration:
                    break
                submit_one(seed, f"lap-{lap}", f"loadgen-{lap}")
            drain()
    drain()
    report.elapsed = time.perf_counter() - t0
    status, stats = client.stats()
    if status == 200:
        report.stats = stats
    return report


def format_load(report: LoadReport) -> str:
    """One-paragraph human rendering of a load run."""
    data = report.to_dict()
    lines = [
        f"load: {data['submitted']} submissions in {data['elapsed']:.1f}s "
        f"({data['jobs_per_sec']:.2f} jobs/s)",
        f"  done {data['completed']}  failed {data['failed']}  "
        f"cancelled {data['cancelled']}  cached {data['cached']}  "
        f"deduped {data['deduped']}  429-retries {data['retries_429']}",
    ]
    if data["latency_p50"] is not None:
        lines.append(f"  latency p50 {data['latency_p50'] * 1000:.0f} ms  "
                     f"p95 {data['latency_p95'] * 1000:.0f} ms")
    failed = [j for j in data["jobs"] if j["state"] == "failed"]
    for job in failed[:5]:
        error = job.get("error") or {}
        lines.append(f"  FAILED seed {job['seed']}: "
                     f"{error.get('type')}: {error.get('message')}")
    return "\n".join(lines)
