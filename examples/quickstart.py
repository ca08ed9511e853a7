#!/usr/bin/env python3
"""Quickstart: build a kernel, schedule it three ways, inspect the QoR.

This walks the library's core loop in ~40 lines:

1. describe a small pipelined kernel with the builder DSL;
2. run the commercial-tool proxy (additive delays + per-stage mapping);
3. run the paper's mapping-aware MILP (MILP-map);
4. compare LUT / FF / pipeline depth, verify both schedules independently,
   and replay them cycle-accurately against the functional model.
"""

from repro.core import MapScheduler, SchedulerConfig, verify_schedule
from repro.experiments import run_flow
from repro.hw import evaluate
from repro.ir import DFGBuilder
from repro.sim import replay_equivalent
from repro.tech import XC7


def build_kernel():
    """A toy checksum: several shift/xor mixing rounds, a sign test, and a
    running state. Deep enough that the additive delay model needs two
    pipeline stages while the mapped logic fits in one."""
    b = DFGBuilder("checksum", width=16)
    data = b.input("data", 16)
    state = b.recurrence("state", width=16, initial=0xBEEF)
    mixed = data
    for round_shift in (3, 7, 11, 5, 2):
        mixed = (mixed ^ (mixed >> round_shift)) | (mixed << 1)
    mixed = mixed ^ (state >> 3)
    negative = mixed.sge(0)
    nxt = b.mux(negative, state ^ mixed, state + 1)
    nxt.feed(state)
    b.output(nxt, "digest")
    return b.build()


def main() -> None:
    config = SchedulerConfig(ii=1, tcp=10.0, alpha=0.5, beta=0.5,
                             time_limit=60)
    stream = [{"data": (0x1234 * (k + 1)) & 0xFFFF} for k in range(24)]

    print("== commercial-tool proxy (additive delays) ==")
    tool = run_flow(build_kernel(), "hls-tool", XC7, config)
    print(tool.schedule.describe())
    print(f"-> {tool.report.luts} LUTs, {tool.report.ffs} FFs, "
          f"CP {tool.report.cp:.2f} ns\n")

    print("== mapping-aware MILP (the paper's method) ==")
    scheduler = MapScheduler(build_kernel(), XC7, config)
    schedule = scheduler.schedule()
    verify_schedule(schedule, XC7)  # independent static check
    report = evaluate(schedule, XC7)
    print(schedule.describe())
    print(f"-> {report.luts} LUTs, {report.ffs} FFs, "
          f"CP {report.cp:.2f} ns")
    print(f"-> MILP: {scheduler.formulation.model.num_constraints} "
          f"constraints, solved in {schedule.solve_seconds:.2f}s\n")

    ok_tool = replay_equivalent(tool.schedule, XC7, stream)
    ok_map = replay_equivalent(schedule, XC7, stream)
    print(f"cycle-accurate replay matches functional model: "
          f"tool={ok_tool}, map={ok_map}")
    print(f"pipeline depth: {tool.schedule.latency} -> {schedule.latency} "
          f"cycles; FFs: {tool.report.ffs} -> {report.ffs}")


if __name__ == "__main__":
    main()
