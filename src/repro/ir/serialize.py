"""JSON (de)serialization for CDFGs.

Lets users save generated kernels, ship reproducers, and diff designs.
The format is versioned and intentionally explicit — one object per node
with every semantic field; ``attrs`` round-trips as-is (values must be
JSON-serializable, which all library-set attrs are).
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import IRError
from .graph import CDFG
from .node import Operand
from .types import OpKind
from .validate import validate

__all__ = ["graph_to_dict", "graph_from_dict", "dumps", "loads",
           "save_graph", "load_graph", "cut_to_dict", "cut_from_dict",
           "cover_to_list", "cover_from_list", "schedule_to_dict",
           "schedule_from_dict"]

FORMAT_VERSION = 1

#: v3: a cut stores its per-bit support sizes, not support masks.
SCHEDULE_FORMAT_VERSION = 3


def graph_to_dict(graph: CDFG) -> dict[str, Any]:
    """Serialize to a plain dict (stable key order for clean diffs)."""
    nodes = []
    for nid in graph.node_ids:
        node = graph.node(nid)
        entry: dict[str, Any] = {
            "id": node.nid,
            "kind": node.kind.value,
            "width": node.width,
            "operands": [[op.source, op.distance] for op in node.operands],
        }
        if node.name is not None:
            entry["name"] = node.name
        if node.value is not None:
            entry["value"] = node.value
        if node.amount is not None:
            entry["amount"] = node.amount
        if node.rclass is not None:
            entry["rclass"] = node.rclass
        if node.delay_override is not None:
            entry["delay_override"] = node.delay_override
        if node.signed:
            entry["signed"] = True
        if node.attrs:
            entry["attrs"] = dict(node.attrs)
        nodes.append(entry)
    return {"format": FORMAT_VERSION, "name": graph.name, "nodes": nodes}


def _check_entry(entry: Any) -> None:
    """Raise :class:`IRError` unless ``entry`` has the shape of a node."""
    if not isinstance(entry, dict):
        raise IRError("a node entry must be a JSON object, not "
                      f"{type(entry).__name__}")
    for key in ("id", "width"):
        if type(entry.get(key)) is not int:
            raise IRError(f"node {entry.get('id')!r}: {key} must be an int")
    operands = entry.get("operands")
    if not isinstance(operands, list) or not all(
            isinstance(op, (list, tuple)) and len(op) == 2
            and all(type(x) is int for x in op) for op in operands):
        raise IRError(f"node {entry['id']}: operands must be a list of "
                      "[source, distance] pairs of ints")
    if not isinstance(entry.get("attrs", {}), dict):
        raise IRError(f"node {entry['id']}: attrs must be a JSON object")
    for key in ("amount", "value"):
        if entry.get(key) is not None and type(entry[key]) is not int:
            raise IRError(f"node {entry['id']}: {key} must be an int")


def graph_from_dict(data: dict[str, Any], check: bool = True) -> CDFG:
    """Deserialize; validates structure unless ``check=False``."""
    if not isinstance(data, dict):
        raise IRError("a CDFG document must be a JSON object, not "
                      f"{type(data).__name__}")
    if data.get("format") != FORMAT_VERSION:
        raise IRError(f"unsupported CDFG format {data.get('format')!r}")
    graph = CDFG(data.get("name", "cdfg"))
    entries = data.get("nodes", [])
    if not isinstance(entries, list):
        raise IRError("nodes must be a list")
    for entry in entries:
        _check_entry(entry)
    # First pass: create nodes in id order with placeholder operands so
    # arbitrary forward references deserialize cleanly.
    by_id = sorted(entries, key=lambda e: e["id"])
    expected = 0
    for entry in by_id:
        if entry["id"] != expected:
            raise IRError(
                f"node ids must be dense starting at 0; missing {expected}"
            )
        expected += 1
        operands = entry["operands"]
        node = graph.add_node(
            OpKind(entry["kind"]),
            entry["width"],
            operands=[Operand(op[0], op[1]) for op in operands]
            if all(op[1] > 0 or op[0] < entry["id"]
                   for op in operands) else [],
            name=entry.get("name"),
            value=entry.get("value"),
            amount=entry.get("amount"),
            rclass=entry.get("rclass"),
            delay_override=entry.get("delay_override"),
            signed=entry.get("signed", False),
            attrs=dict(entry.get("attrs", {})),
        )
        if not node.operands and operands:
            # second chance below once every node exists
            node.attrs["_pending_operands"] = operands
    for node in graph:
        pending = node.attrs.pop("_pending_operands", None)
        if pending is not None:
            node.operands.extend(Operand(op[0], op[1]) for op in pending)
    graph._invalidate()
    if check:
        validate(graph)
    return graph


# ----------------------------------------------------------------------
# Cover and schedule round-trip (flow-cache support)
# ----------------------------------------------------------------------
def cut_to_dict(cut) -> dict[str, Any]:
    """Serialize one :class:`~repro.cuts.cut.Cut` (fully explicit)."""
    return {
        "root": cut.root,
        "boundary": sorted(cut.boundary),
        "support": list(cut.support),
        "kind": cut.kind,
        "interior": sorted(cut.interior),
        "entries": [[nid, dist] for nid, dist in cut.entries],
    }


def cut_from_dict(data: dict[str, Any]):
    """Rebuild a :class:`~repro.cuts.cut.Cut` from :func:`cut_to_dict`."""
    from ..cuts.cut import Cut

    return Cut(
        root=int(data["root"]),
        boundary=frozenset(int(n) for n in data["boundary"]),
        support=tuple(int(size) for size in data["support"]),
        kind=data.get("kind", "merged"),
        interior=frozenset(int(n) for n in data.get("interior", [])),
        entries=tuple((int(nid), int(dist))
                      for nid, dist in data.get("entries", [])),
    )


def cover_to_list(cover: dict[int, Any]) -> list[dict[str, Any]]:
    """Serialize a root-to-cut cover in stable (root id) order."""
    return [cut_to_dict(cover[root]) for root in sorted(cover)]


def cover_from_list(entries: list[dict[str, Any]]) -> dict[int, Any]:
    cover = {}
    for entry in entries:
        cut = cut_from_dict(entry)
        cover[cut.root] = cut
    return cover


def schedule_to_dict(schedule) -> dict[str, Any]:
    """Serialize a :class:`~repro.scheduling.schedule.Schedule` + cover.

    The embedded graph uses :func:`graph_to_dict`, so a schedule file is
    self-contained: it round-trips through JSON without access to the
    original builder.
    """
    return {
        "format": SCHEDULE_FORMAT_VERSION,
        "graph": graph_to_dict(schedule.graph),
        "ii": schedule.ii,
        "tcp": schedule.tcp,
        "cycle": {str(nid): c for nid, c in sorted(schedule.cycle.items())},
        "start": {str(nid): s for nid, s in sorted(schedule.start.items())},
        "cover": cover_to_list(schedule.cover),
        "method": schedule.method,
        "objective": schedule.objective,
        "solve_seconds": schedule.solve_seconds,
        "optimal": schedule.optimal,
    }


def schedule_from_dict(data: dict[str, Any], check: bool = True):
    """Rebuild a schedule (and its graph) from :func:`schedule_to_dict`."""
    from ..scheduling.schedule import Schedule

    if data.get("format") != SCHEDULE_FORMAT_VERSION:
        raise IRError(
            f"unsupported schedule format {data.get('format')!r}"
        )
    graph = graph_from_dict(data["graph"], check=check)
    objective = data.get("objective")
    return Schedule(
        graph=graph,
        ii=int(data["ii"]),
        tcp=float(data["tcp"]),
        cycle={int(nid): int(c) for nid, c in data.get("cycle", {}).items()},
        start={int(nid): float(s) for nid, s in data.get("start", {}).items()},
        cover=cover_from_list(data.get("cover", [])),
        method=data.get("method", "unknown"),
        objective=float(objective) if objective is not None else None,
        solve_seconds=float(data.get("solve_seconds", 0.0)),
        optimal=bool(data.get("optimal", True)),
    )


def dumps(graph: CDFG, indent: int | None = 2) -> str:
    """Serialize to a JSON string."""
    return json.dumps(graph_to_dict(graph), indent=indent)


def loads(text: str, check: bool = True) -> CDFG:
    """Deserialize from a JSON string."""
    return graph_from_dict(json.loads(text), check=check)


def save_graph(graph: CDFG, path: str) -> None:
    """Write a graph to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(graph))


def load_graph(path: str, check: bool = True) -> CDFG:
    """Read a graph from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read(), check=check)
