"""Modulo reservation table (MRT).

Tracks, for every resource class and modulo slot ``t mod II``, which
operations occupy an instance (Eq. 14). Unconstrained classes are tracked
too so reports can state achieved utilization ``X_r``.
"""

from __future__ import annotations

from ..errors import SchedulingError

__all__ = ["ModuloReservationTable"]


class ModuloReservationTable:
    """Slot bookkeeping for black-box resource classes."""

    def __init__(self, ii: int, capacity: dict[str, int] | None = None) -> None:
        if ii < 1:
            raise SchedulingError(f"II must be >= 1, got {ii}")
        self.ii = ii
        self.capacity = dict(capacity or {})
        self._slots: dict[tuple[str, int], list[int]] = {}
        self._placed: dict[int, tuple[str, int]] = {}

    def fits(self, rclass: str, slot: int) -> bool:
        """True if another op of ``rclass`` can be placed at ``slot``."""
        cap = self.capacity.get(rclass)
        if cap is None:
            return True
        return len(self._slots.get((rclass, slot % self.ii), ())) < cap

    def place(self, nid: int, rclass: str, slot: int) -> None:
        """Reserve an instance; raises if full or already placed."""
        if nid in self._placed:
            raise SchedulingError(f"node {nid} already placed in MRT")
        if not self.fits(rclass, slot):
            raise SchedulingError(
                f"resource {rclass} full at modulo slot {slot % self.ii}"
            )
        key = (rclass, slot % self.ii)
        self._slots.setdefault(key, []).append(nid)
        self._placed[nid] = key

    def remove(self, nid: int) -> None:
        """Release a previously placed operation (for backtracking)."""
        key = self._placed.pop(nid, None)
        if key is not None:
            self._slots[key].remove(nid)

    def usage(self) -> dict[str, int]:
        """Peak instances used per class (the paper's ``X_r``)."""
        peak: dict[str, int] = {}
        for (rclass, _), members in self._slots.items():
            peak[rclass] = max(peak.get(rclass, 0), len(members))
        return peak
