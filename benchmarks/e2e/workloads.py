"""The four workloads, and the inputs each one generates from its seed.

The harness builds every input here and hands the program only the
serialized CDFG (batch) or the job payload (service). The seed fixes the
order of operations, the service's resubmissions, and the simulation
stimulus of the correctness checks; the *set* of designs and fuzz graphs a
workload runs is fixed, so the area totals (``lut_total``/``ff_total``) are
the same number on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["WORKLOADS", "Case", "Flow", "batch_flows", "svc_traffic",
           "OPEN_RATE"]

#: The paper's operating point (Table 1): 10 ns clock, II=1, alpha=beta=0.5.
PAPER_CONFIG = {"ii": 1, "tcp": 10.0, "alpha": 0.5, "beta": 0.5}
#: Fuzz-sized service jobs, in the shape ``repro submit --load`` uses.
SERVICE_CONFIG = {"max_cuts": 8, "time_limit": 30.0}
#: Iterations simulated per correctness check.
STIMULUS_LEN = 16
#: Open-loop arrival rate of the service workload, jobs per second, and
#: the share of ``--seconds`` the open loop lasts.
OPEN_RATE = 8.0
OPEN_SHARE = 0.4
#: Closed-loop jobs per second of ``--seconds`` (about half the window at
#: the closed loop's throughput).
CLOSED_PER_SECOND = 10
#: Share of service submissions that resend an earlier payload.
RESUBMIT_SHARE = 0.3
#: First fuzz seed of each service phase, so the phases share no graph.
OPEN_FUZZ_BASE = 0
CLOSED_FUZZ_BASE = 1000


#: Workload name -> kind ("batch" runs ``run_flow``, "svc" the job server).
#: Why each was chosen is recorded in ``BENCHMARK.json`` and the README.
WORKLOADS: dict[str, str] = {
    "paper-milp": "batch",
    "paper-heuristic": "batch",
    "fullsize-partition": "batch",
    "svc-mixed": "svc",
}

#: Designs kept by ``--smoke`` (the smallest, so a smoke run takes seconds).
_SMOKE_DESIGNS = ("GSM", "AES")


@dataclass
class Case:
    """One distinct input: the original graph plus how to check results."""

    graph: Any
    stimulus: list[dict[str, int]]
    make_env: Callable[[], Any]


@dataclass
class Flow:
    """One batch operation: a design through one method."""

    design: str
    method: str
    config: dict[str, Any]
    validate: bool
    case: Case

    @property
    def name(self) -> str:
        return f"{self.design}:{self.method}"

    def request(self) -> dict[str, Any]:
        from repro.ir.serialize import graph_to_dict

        return {"design": self.design, "method": self.method,
                "config": self.config, "validate": self.validate,
                "graph": graph_to_dict(self.case.graph)}


def _design_case(spec, seed: int) -> Case:
    return Case(graph=spec.build(),
                stimulus=spec.input_stream(seed, STIMULUS_LEN),
                make_env=lambda: spec.make_env(seed))


def batch_flows(workload: str, seed: int, smoke: bool = False) -> list[Flow]:
    """The flow list of one pass over a batch workload, in seeded order."""
    from repro.designs.fullsize import FULLSIZE
    from repro.designs.registry import BENCHMARKS

    if workload == "fullsize-partition":
        config = {**PAPER_CONFIG, "partition": True}
        # The smoke variant partitions the Table 1 XORR (256 nodes, three
        # subgraphs), which reaches the same partition and equivalence
        # layers in seconds; CLZ adds the registers XORR does not need.
        plan = ([("XORR", "milp-map", True), ("CLZ", "milp-map", False)]
                if smoke else
                [("XORR512", "milp-map", True),
                 ("XORR1251", "milp-map", False)])
    else:
        config = PAPER_CONFIG
        methods = {"paper-milp": ("milp-base", "milp-map"),
                   "paper-heuristic": ("hls-tool", "heur-map")}[workload]
        designs = _SMOKE_DESIGNS if smoke else tuple(BENCHMARKS)
        # RS through milp-map alone solves for ~17 s, longer than a whole
        # measured window; it stays out so one pass fits in a run.
        plan = [(design, method, False) for design in designs
                for method in methods if (design, method) != ("RS", "milp-map")]
    flows = [Flow(design=design, method=method, config=config,
                  validate=validate,
                  case=_design_case(BENCHMARKS.get(design)
                                    or FULLSIZE[design], seed))
             for design, method, validate in plan]
    random.Random(seed).shuffle(flows)
    return flows


@dataclass
class Traffic:
    """Service inputs: distinct payloads and the two submission orders."""

    payloads: list[dict[str, Any]] = field(default_factory=list)
    cases: list[Case] = field(default_factory=list)
    #: Payload indices in submission order; repeats are resubmissions.
    open_loop: list[int] = field(default_factory=list)
    closed_loop: list[int] = field(default_factory=list)


def _service_method(k: int) -> str:
    # Half the new graphs go to milp-base, half to the two heuristics.
    return ("milp-base", "hls-tool", "milp-base", "heur-map")[k % 4]


def _service_profile(fuzz_seed: int, method: str):
    from repro.fuzz.generate import PROFILES, profile_for_seed

    if method != "milp-base":
        return profile_for_seed(fuzz_seed)
    # Wide-fanout graphs take milp-base 0.3-1.9 s (the other profiles
    # 0.03-0.14 s on average); one of them would stall the queue for dozens
    # of arrivals and hand the solver this workload, which is meant to
    # measure the service layers.
    return profile_for_seed(fuzz_seed,
                            tuple(p for p in PROFILES if p != "wide-fanout"))


def svc_traffic(seed: int, seconds: float) -> Traffic:
    """Seeded job mix for the service workload (see ``WORKLOADS``)."""
    from repro.fuzz.generate import (fuzz_env_factory, generate_graph,
                                     make_stimulus)
    from repro.ir.serialize import graph_to_dict
    from repro.service import SERVICE_SCHEMA

    rng = random.Random(seed)
    traffic = Traffic()

    def phase(jobs: int, fuzz_base: int) -> list[int]:
        resubmits = round(RESUBMIT_SHARE * jobs)
        order = []
        for k in range(jobs - resubmits):
            fuzz_seed = fuzz_base + k
            method = _service_method(k)
            graph = generate_graph(fuzz_seed,
                                   _service_profile(fuzz_seed, method))
            order.append(len(traffic.payloads))
            traffic.payloads.append({
                "schema": SERVICE_SCHEMA, "client": f"user{fuzz_seed}",
                "method": method, "graph": graph_to_dict(graph),
                "config": SERVICE_CONFIG})
            traffic.cases.append(Case(
                graph=graph,
                stimulus=make_stimulus(graph, seed * 7919 + fuzz_seed,
                                       STIMULUS_LEN),
                make_env=fuzz_env_factory(graph, seed * 7919 + fuzz_seed)))
        rng.shuffle(order)
        for _ in range(resubmits):
            position = rng.randint(1, len(order))
            order.insert(position, rng.choice(order[:position]))
        return order

    traffic.open_loop = phase(max(4, round(OPEN_RATE * OPEN_SHARE * seconds)),
                              OPEN_FUZZ_BASE)
    traffic.closed_loop = phase(max(4, round(CLOSED_PER_SECOND * seconds)),
                                CLOSED_FUZZ_BASE)
    return traffic
