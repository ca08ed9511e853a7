"""Content-addressed on-disk cache for flow results.

Layout (under the user-chosen ``--cache-dir``)::

    <root>/<fp[:2]>/<fp>.json

where ``fp`` is the :func:`~repro.runtime.fingerprint.flow_fingerprint`
of the (graph, method, device, config) that produced the entry. Each file
is a versioned JSON document carrying the full
:class:`~repro.experiments.flows.FlowResult`: the schedule (including its
graph and cut cover, via :mod:`repro.ir.serialize`), the hardware report,
and the trace spans recorded when the result was first computed. A warm
rerun of Table 1 / Table 2 / the ablations therefore performs **zero**
MILP solves — the replayed spans are marked ``cached=True`` so tests can
prove exactly that.

Corrupt, unreadable or schema-mismatched entries are treated as misses,
never as errors: a cache must not be able to break an experiment.
"""

from __future__ import annotations

import glob
import json
import logging
import os
import tempfile
from typing import TYPE_CHECKING, Any, Callable

from .fingerprint import CACHE_SCHEMA_VERSION
from .trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.flows import FlowResult

__all__ = ["FlowCache", "CACHE_FILE_SCHEMA", "flow_result_to_dict",
           "flow_result_from_dict"]

CACHE_FILE_SCHEMA = f"repro-flow-cache/v{CACHE_SCHEMA_VERSION}"

logger = logging.getLogger(__name__)


def flow_result_to_dict(result: "FlowResult") -> dict[str, Any]:
    """Serialize a FlowResult (schedule + report + trace) to JSON-safe form."""
    from ..ir.serialize import schedule_to_dict

    return {
        "schedule": schedule_to_dict(result.schedule),
        "report": result.report.to_dict(),
        "trace": result.trace.to_dict() if result.trace is not None else None,
        "source_graph": result.source_graph,
        "fingerprint": result.fingerprint,
    }


def flow_result_from_dict(data: dict[str, Any]) -> "FlowResult":
    """Rebuild a FlowResult; its trace spans are marked ``cached=True``."""
    from ..experiments.flows import FlowResult
    from ..hw.cost import HardwareReport
    from ..ir.serialize import schedule_from_dict

    trace_data = data.get("trace")
    tracer = (Tracer.from_dict(trace_data, cached=True)
              if trace_data is not None else Tracer())
    return FlowResult(
        schedule=schedule_from_dict(data["schedule"]),
        report=HardwareReport.from_dict(data["report"]),
        trace=tracer,
        cached=True,
        fingerprint=data.get("fingerprint"),
        source_graph=data.get("source_graph", "original"),
    )


class FlowCache:
    """Store/load :class:`FlowResult` objects keyed by fingerprint."""

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------
    def path_for(self, fingerprint: str) -> str:
        return os.path.join(self.root, fingerprint[:2],
                            f"{fingerprint}.json")

    def load(self, fingerprint: str) -> "FlowResult | None":
        """Return the cached result or ``None`` (miss/corrupt/stale)."""
        def parse(data: dict[str, Any]) -> "FlowResult | None":
            if data.get("schema") != CACHE_FILE_SCHEMA:
                return None
            return flow_result_from_dict(data["result"])

        result = self._read(self.path_for(fingerprint), fingerprint, parse)
        if result is None:
            self.misses += 1
            return None
        result.fingerprint = fingerprint
        self.hits += 1
        return result

    def store(self, fingerprint: str, result: "FlowResult",
              design: str | None = None, method: str | None = None) -> str:
        """Atomically persist ``result`` under ``fingerprint``."""
        path = self._write(self.path_for(fingerprint), {
            "schema": CACHE_FILE_SCHEMA,
            "fingerprint": fingerprint,
            "design": design or result.report.design,
            "method": method or result.report.method,
            "result": flow_result_to_dict(result),
        })
        self.stores += 1
        return path

    # ------------------------------------------------------------------
    # Equivalence verdicts (see repro.analysis.equiv). Keyed by the same
    # flow fingerprint as the result they validate: a verdict is a fact
    # about (graph, method, device, config), so the key that makes the
    # schedule reusable makes the proof reusable too.
    def equiv_path_for(self, fingerprint: str) -> str:
        return os.path.join(self.root, "equiv", f"{fingerprint}.json")

    def load_equiv(self, fingerprint: str,
                   stages: tuple[str, ...]) -> "Any | None":
        """Return the cached :class:`EquivReport` or ``None``.

        A hit requires the stored verdicts to cover exactly the requested
        ``stages`` — a report proving fewer stages must not satisfy a
        request for more, and extra stages would mislabel the run.
        """
        from ..analysis.equiv.validate import EquivReport

        def parse(data: dict[str, Any]) -> "Any | None":
            report = EquivReport.from_dict(data["report"])
            if tuple(v.stage for v in report.stages) != tuple(stages):
                return None
            return report

        return self._read(self.equiv_path_for(fingerprint), fingerprint,
                          parse)

    def store_equiv(self, fingerprint: str, report: "Any") -> str:
        """Atomically persist an :class:`EquivReport` under ``fingerprint``."""
        return self._write(self.equiv_path_for(fingerprint), {
            "fingerprint": fingerprint,
            "report": report.to_dict(),
        })

    # ------------------------------------------------------------------
    @staticmethod
    def _read(path: str, fingerprint: str,
              parse: "Callable[[dict[str, Any]], Any]") -> Any:
        """``parse`` of the document at ``path``, or ``None``.

        Missing, torn and other-fingerprint files are misses, and so is a
        document ``parse`` rejects or fails on.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        try:
            if data.get("fingerprint") != fingerprint:
                return None
            return parse(data)
        except Exception as exc:
            # A corrupt entry (hand-edited file, version skew inside the
            # payload) must degrade to a miss — but not an invisible one,
            # or payload bugs would never surface.
            logger.debug("flow cache entry %s is corrupt, treating as a "
                         "miss: %s", path, exc)
            return None

    @staticmethod
    def _write(path: str, document: dict[str, Any]) -> str:
        """Write ``document`` to ``path`` atomically and return ``path``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # Write-to-temp + rename so a crashed run never leaves a torn
        # entry that a later run would have to detect.
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        """Number of stored flow results (equiv verdicts not counted)."""
        return len(glob.glob(os.path.join(glob.escape(self.root), "??",
                                          "*.json")))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlowCache({self.root!r}, hits={self.hits}, "
                f"misses={self.misses}, stores={self.stores})")
