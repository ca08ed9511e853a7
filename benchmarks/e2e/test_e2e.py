"""Smoke tests of the end-to-end benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every workload runs in ``--smoke`` form (about a second of work each),
once untraced through ``run`` and once through ``trace``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import pytest

from benchmarks.e2e import cli, harness, speed
from benchmarks.e2e.compare import compare_runs
from benchmarks.e2e.spans import ENTRY_POINTS
from benchmarks.e2e.workloads import WORKLOADS

SECONDS = "2"

#: Entry points each workload must reach; together they cover every one.
FIRES_ON = {
    "paper-milp": {"flow", "lint", "narrow", "validate", "cutenum",
                   "cutprune", "milp_build", "extract", "presolve", "solve",
                   "heuristic", "horizon", "map", "verify", "evaluate"},
    "paper-heuristic": {"flow", "lint", "narrow", "cutenum", "heuristic",
                        "hls", "map", "verify", "evaluate"},
    "fullsize-partition": {"flow", "partition.cut", "partition.extract",
                           "partition.subsolve", "partition.stitch",
                           "equiv", "solve", "serialize.graph_from_dict",
                           "serialize.schedule_to_dict"},
    "svc-mixed": {"flow", "fingerprint", "cache.load", "cache.store",
                  "serialize.graph_from_dict", "serialize.schedule_to_dict",
                  "hls", "solve"},
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _lines(text: str) -> dict[tuple[str, str], tuple[float, str]]:
    rows = {}
    for line in text.splitlines():
        workload, metric, value, unit = line.split()
        rows[workload, metric] = (float(value), unit)
    return rows


@pytest.fixture(scope="module")
def catalog():
    return harness.load_catalog()


@pytest.fixture(scope="module")
def run_output(tmp_path_factory):
    record = tmp_path_factory.mktemp("e2e") / "runs.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["run", "--smoke", "--seconds", SECONDS,
                         "--output", str(record)])
    return code, _lines(out.getvalue()), json.loads(record.read_text())


@pytest.fixture(scope="module")
def trace_output():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["trace", "--smoke", "--seconds", SECONDS])
    chrome = {}
    for workload in WORKLOADS:
        path = harness.WORK_DIR / f"{workload}-seed0.trace.json"
        chrome[workload] = json.loads(path.read_text())
    return code, _lines(out.getvalue()), chrome


def test_catalog_names_and_units(catalog):
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in catalog[key]] + [w["name"] for w in catalog["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in catalog["workloads"]] == list(WORKLOADS)
    setup = next(m for m in catalog["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in catalog["end_to_end"])


def test_run_prints_every_metric_with_its_unit(run_output, catalog):
    code, rows, _record = run_output
    assert code == 0
    for workload in WORKLOADS:
        for metric in catalog["end_to_end"]:
            value, unit = rows[workload, metric["name"]]
            assert unit == metric["unit"]
            assert value > 0, (workload, metric["name"])
        assert rows[workload, "fail_frac"] == (0.0, "ratio")


def test_compare_reads_a_recorded_run(run_output, catalog):
    _code, _rows, record = run_output
    assert {run["workload"] for run in record["runs"]} == set(WORKLOADS)
    rows = compare_runs(record["runs"], record["runs"], catalog)
    assert len(rows) == len(WORKLOADS) * (len(catalog["end_to_end"]) + 1)
    assert {row.verdict for row in rows} == {"same"}


def test_trace_prints_every_layer_metric(trace_output, catalog):
    code, rows, _chrome = trace_output
    assert code == 0
    for workload in WORKLOADS:
        for metric in catalog["per_layer"]:
            assert rows[workload, metric["name"]][1] == metric["unit"]


def test_every_entry_point_fires_on_its_workload(trace_output):
    _code, _rows, chrome = trace_output
    assert set().union(*FIRES_ON.values()) == {e.name for e in ENTRY_POINTS}
    for workload, expected in FIRES_ON.items():
        fired = {event["name"] for event in chrome[workload]["traceEvents"]}
        assert expected <= fired, (workload, expected - fired)


def test_self_times_sum_to_the_traced_wall(trace_output):
    _code, rows, _chrome = trace_output
    for workload, kind in WORKLOADS.items():
        if kind != "batch":
            continue  # worker threads overlap, so their sum exceeds wall
        self_sum = sum(value for (w, name), (value, _unit) in rows.items()
                       if w == workload and name.endswith("self_s"))
        wall = rows[workload, "bench.traced_wall_s"][0]
        assert self_sum == pytest.approx(wall, rel=0.05), workload


def test_chrome_trace_events(trace_output):
    _code, _rows, chrome = trace_output
    for document in chrome.values():
        events = document["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X" and event["dur"] >= 0
            assert {"name", "ts", "pid", "tid", "args"} <= set(event)
            assert event["args"]["self_us"] <= event["dur"] + 1e-3


def test_corrupted_schedule_raises_fail_frac(monkeypatch, catalog):
    finish = harness._Program.finish

    def corrupting(self, request):
        out = finish(self, request)
        for flow in (out or {}).get("flows", []):
            for result in flow["results"]:
                # Run the pipeline back to front: consumers now start
                # before the values they read exist.
                cycles = result["schedule"]["cycle"]
                last = max(cycles.values())
                for nid in cycles:
                    cycles[nid] = last - cycles[nid]
                starts = result["schedule"]["start"]
                top = max(starts.values())
                for nid in starts:
                    starts[nid] = top - starts[nid]
        return out

    monkeypatch.setattr(harness._Program, "finish", corrupting)
    outcome = harness.run_workload("paper-milp", 0, 1.0, smoke=True)
    assert outcome.attempted > 0 and outcome.failed > 0
    assert not harness.result_line(outcome, catalog, False)["correct"]


def test_reference_time_cancels_host_speed():
    # The kernel's own reference time is REF_PROBE_S a call, however fast
    # the host runs it.
    calls = 2000
    with speed.pinned(), speed.Monitor() as monitor:
        t0 = speed.now()
        for _ in range(calls):
            speed._kernel()
        t1 = speed.now()
    assert len(monitor.samples) >= 2
    assert monitor.scaled(t0, t1) == pytest.approx(
        calls * speed.REF_PROBE_S, rel=0.25)


def test_compare_verdicts(catalog):
    def runs(suite: list[float]) -> list[dict]:
        return [{"workload": "paper-milp", "attempted": 10, "failed": 0,
                 "metrics": {m["name"]: s for m in catalog["end_to_end"]}}
                for s in suite]

    base = runs([1.0, 1.01, 0.99, 1.0, 1.02])
    verdicts = {suite: {r.verdict for r in compare_runs(base, runs(values),
                                                        catalog)
                        if r.metric == "suite_s"}
                for suite, values in {
                    "same": [1.0, 1.01, 1.0, 0.99, 1.01],
                    "worse": [1.6, 1.61, 1.59, 1.6, 1.62],
                    "better": [0.5, 0.51, 0.49, 0.5, 0.52],
                    "unresolved": [0.5, 1.5, 0.7, 1.3, 1.0]}.items()}
    assert verdicts == {v: {v} for v in verdicts}
