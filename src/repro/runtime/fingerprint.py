"""Content-addressed fingerprints for flow results.

A fingerprint is the SHA-256 of a canonical JSON payload covering every
input that can change a :class:`~repro.experiments.flows.FlowResult`:

* the serialized CDFG (:func:`repro.ir.serialize.graph_to_dict` — node
  kinds, widths, operands, attrs, names),
* the flow method (``hls-tool`` / ``milp-base`` / ``milp-map`` / ...),
* the full device characterization (K, delays, resource counts, ...),
* the :class:`~repro.core.config.SchedulerConfig` fingerprint fields, and
* :data:`CACHE_SCHEMA_VERSION`, so a cache written by an older layout can
  never be misread as current.

Anything *not* hashed here must not influence the result (jobs count,
progress callbacks, cache directory).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from ..core.config import SchedulerConfig
from ..ir.graph import CDFG
from ..tech.device import Device

__all__ = ["CACHE_SCHEMA_VERSION", "flow_fingerprint", "fingerprint_payload"]

#: Bump whenever the cached FlowResult layout or the semantics of any
#: hashed field changes; every existing cache entry then misses cleanly.
#: v2: SchedulerConfig grew the partition / partition_size /
#: partition_rounds fields (they are hashed via fingerprint_fields, and
#: partitioned schedules may carry composed covers older readers never saw).
#: v3: cut masks are stored as set-bit index lists, and stitched covers
#: number them in the full graph's bit space.
#: v4: a cut stores its per-bit support sizes instead of masks.
#: v5: DEP reads every bit of x in ``0 < x`` and ``0 >= x`` (signed), so
#: a v4 result may hold an undersized cut through such a node.
CACHE_SCHEMA_VERSION = 5


def _device_fields(device: Device) -> dict[str, Any]:
    fields = dataclasses.asdict(device)
    # dict ordering is insertion order; sort the maps for canonical JSON.
    fields["blackbox_delays"] = dict(sorted(fields["blackbox_delays"].items()))
    fields["blackbox_counts"] = dict(sorted(fields["blackbox_counts"].items()))
    return fields


def fingerprint_payload(graph: CDFG, method: str, device: Device,
                        config: SchedulerConfig) -> dict[str, Any]:
    """The exact dict that gets hashed (exposed for tests and debugging)."""
    from ..ir.serialize import graph_to_dict

    return {
        "schema": CACHE_SCHEMA_VERSION,
        "graph": graph_to_dict(graph),
        "method": method,
        "device": _device_fields(device),
        "config": config.fingerprint_fields(),
    }


def flow_fingerprint(graph: CDFG, method: str, device: Device,
                     config: SchedulerConfig) -> str:
    """Hex digest identifying one (graph, method, device, config) flow."""
    payload = fingerprint_payload(graph, method, device, config)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
