"""Wire schema for the scheduling service (``repro-service/v1``).

A *job request* is a JSON document describing one flow to run:

.. code-block:: json

    {
      "schema": "repro-service/v1",
      "client": "alice",
      "method": "milp-map",
      "design": "GFMUL",            // or "graph": {<serialized CDFG>}
      "device": "xc7",
      "config": {"ii": 1, "tcp": 10.0},
      "lint": true,
      "time_budget": 30.0
    }

``design`` names a registered benchmark (Table 1 or FULLSIZE); ``graph``
carries an inline CDFG in the :mod:`repro.ir.serialize` format. Exactly
one of the two must be present. ``config`` holds any subset of
:class:`~repro.core.config.SchedulerConfig` fields; omitted fields take
the shipped defaults, and the *fingerprint* of the fully-resolved
(graph, method, device, config) tuple — the same
:func:`~repro.runtime.fingerprint.flow_fingerprint` the flow cache uses —
is what the server dedupes on.

A *job document* (every ``GET /jobs/<id>`` response) carries the job's
state machine position, its fingerprint, and — once ``state`` is
``done`` — the result: the schedule and hardware report serialized with
the exact same functions the flow cache uses, so a service result is
byte-comparable to a local :func:`~repro.experiments.run_flow` of the
same inputs (see :func:`canonical_result_json`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from ..core.config import SchedulerConfig
from ..errors import ProtocolError
from ..ir.graph import CDFG
from ..tech.device import TUTORIAL4, XC7, Device

__all__ = [
    "SERVICE_SCHEMA",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobRequest",
    "parse_request",
    "canonical_result_json",
]

SERVICE_SCHEMA = "repro-service/v1"

#: Job lifecycle: queued -> running -> {done, failed, cancelled}; a
#: retried job transitions running -> queued again (event "retry").
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

_DEVICES = {XC7.name: XC7, TUTORIAL4.name: TUTORIAL4}

#: SchedulerConfig fields a request may set. Anything else is a typo the
#: client should hear about, not a silently-ignored knob.
_CONFIG_FIELDS = frozenset(SchedulerConfig.__dataclass_fields__)


@dataclass
class JobRequest:
    """One parsed, validated job submission."""

    client: str
    method: str
    graph: CDFG
    design: str | None
    device: Device
    config: SchedulerConfig
    lint: bool = True
    time_budget: float | None = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def parse_request(payload: Any) -> JobRequest:
    """Validate a decoded JSON payload into a :class:`JobRequest`.

    Raises :class:`~repro.errors.ProtocolError` (HTTP 400) on any
    malformed field — unknown design, bad config knob, missing graph.
    """
    from ..designs.fullsize import FULLSIZE
    from ..designs.registry import BENCHMARKS
    from ..experiments.flows import ALL_METHODS

    _require(isinstance(payload, dict), "request body must be a JSON object")
    schema = payload.get("schema", SERVICE_SCHEMA)
    _require(schema == SERVICE_SCHEMA,
             f"unsupported schema {schema!r} (expected {SERVICE_SCHEMA!r})")

    client = payload.get("client", "anonymous")
    _require(isinstance(client, str) and client != "",
             "client must be a non-empty string")

    method = payload.get("method", "milp-map")
    _require(method in ALL_METHODS,
             f"unknown method {method!r}; expected one of {ALL_METHODS}")

    design = payload.get("design")
    graph_data = payload.get("graph")
    _require((design is None) != (graph_data is None),
             "exactly one of 'design' or 'graph' must be supplied")
    if design is not None:
        _require(isinstance(design, str), "design must be a string")
        name = design.upper()
        spec = BENCHMARKS.get(name) or FULLSIZE.get(name)
        _require(spec is not None, f"unknown design {design!r}")
        graph = spec.build()
        design = name
    else:
        from ..errors import ReproError
        from ..ir.serialize import graph_from_dict

        try:
            graph = graph_from_dict(graph_data)
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"invalid graph payload: {exc}") from exc

    device_name = payload.get("device", XC7.name)
    _require(device_name in _DEVICES,
             f"unknown device {device_name!r}; expected one of "
             f"{sorted(_DEVICES)}")

    config_data = payload.get("config")
    if config_data is None:
        config_data = {}
    _require(isinstance(config_data, dict), "config must be a JSON object")
    unknown = sorted(set(config_data) - _CONFIG_FIELDS)
    _require(not unknown,
             f"unknown config field(s): {', '.join(unknown)}")
    from ..errors import SchedulingError

    try:
        config = SchedulerConfig(**config_data)
    except (SchedulingError, TypeError) as exc:
        raise ProtocolError(f"invalid config: {exc}") from exc

    lint = payload.get("lint", True)
    _require(isinstance(lint, bool), "lint must be a boolean")
    time_budget = payload.get("time_budget")
    _require(time_budget is None
             or (isinstance(time_budget, (int, float))
                 and not isinstance(time_budget, bool) and time_budget > 0),
             "time_budget must be a positive number of seconds")

    return JobRequest(client=client, method=method, graph=graph,
                      design=design, device=_DEVICES[device_name],
                      config=config, lint=lint,
                      time_budget=(float(time_budget)
                                   if time_budget is not None else None))


def canonical_result_json(result: dict[str, Any]) -> str:
    """Byte-stable form of a job result (schedule + report only).

    Traces carry wall-clock timings and therefore never two identical
    runs; the *artifacts* — schedule and hardware report — must be
    byte-identical between a service solve and a serial
    :func:`~repro.experiments.run_flow` of the same inputs. This is the
    same canonicalization idea as the fuzz cache oracle: serialize with
    the flow-cache serializers, strip the wall-clock ``solve_seconds``
    both carry, dump with sorted keys.
    """
    schedule = {k: v for k, v in result["schedule"].items()
                if k != "solve_seconds"}
    report = {k: v for k, v in result["report"].items()
              if k != "solve_seconds"}
    return json.dumps({"schedule": schedule, "report": report},
                      sort_keys=True, separators=(",", ":"))
