"""Cut and cut-set value objects."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Cut", "CutSet"]


@dataclass(frozen=True)
class Cut:
    """A word-level cut of node ``root``.

    Attributes
    ----------
    root:
        The node this cut belongs to (the prospective LUT root, Eq. 2).
    boundary:
        The cut nodes — non-constant nodes whose values enter the cone from
        outside. The **trivial** cut of v has boundary ``{v}`` and is only a
        merge ingredient, never selectable for v itself (DESIGN.md note 1).
    support:
        Per output bit of ``root``: its support size, the number of
        boundary bits it depends on (0 for a constant bit; see
        :class:`~repro.bitdeps.SupportCalculator`). At most K bits fit
        one K-LUT (DESIGN.md note 2).
    kind:
        ``"trivial"``, ``"unit"`` (the standalone-operator cut over direct
        DEP inputs) or ``"merged"`` (grown by Eq. 1).
    interior:
        Node ids strictly inside the cone (excluding root and boundary,
        excluding constants). Empty for trivial and unit cuts.
    entries:
        Sorted ``(boundary_node, distance)`` pairs: every iteration distance
        at which each boundary value enters the cone. Distance 0 =
        combinational entry; >= 1 = the value crosses that many
        pipeline-register stages first (loop-carried, DESIGN.md note 5).
        A node may appear at several distances (x combined with x from the
        previous iteration).
    """

    root: int
    boundary: frozenset[int]
    support: tuple[int, ...]
    kind: str = "merged"
    interior: frozenset[int] = field(default_factory=frozenset)
    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.entries and self.boundary:
            object.__setattr__(
                self, "entries", tuple((nid, 0) for nid in sorted(self.boundary))
            )

    @property
    def entry_distance(self) -> dict[int, int]:
        """Minimum entry distance per boundary node."""
        result: dict[int, int] = {}
        for nid, dist in self.entries:
            result[nid] = min(result.get(nid, dist), dist)
        return result

    @property
    def max_support(self) -> int:
        """Largest per-output-bit support size (decides K-feasibility)."""
        return max(self.support, default=0)

    @property
    def is_trivial(self) -> bool:
        """True for the base cut ``{root}``."""
        return self.kind == "trivial"

    @property
    def is_unit(self) -> bool:
        """True for the standalone-operator cut."""
        return self.kind == "unit"

    def feasible(self, k: int) -> bool:
        """True iff every output bit fits in a ``k``-input LUT."""
        return self.max_support <= k

    def covers(self, nid: int) -> bool:
        """True if ``nid`` is computed inside this cone (root or interior)."""
        return nid == self.root or nid in self.interior

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        b = ",".join(map(str, sorted(self.boundary)))
        return f"Cut(root={self.root}, kind={self.kind}, boundary={{{b}}}, supp={self.max_support})"


class CutSet:
    """All cuts enumerated for one node."""

    def __init__(self, root: int, trivial: Cut, selectable: list[Cut]) -> None:
        self.root = root
        self.trivial = trivial
        self.selectable = list(selectable)

    @property
    def unit(self) -> Cut | None:
        """The standalone-operator cut, if the node has one."""
        for cut in self.selectable:
            if cut.is_unit:
                return cut
        return None

    @property
    def merged(self) -> list[Cut]:
        """All non-unit selectable cuts."""
        return [c for c in self.selectable if not c.is_unit]

    def __len__(self) -> int:
        return len(self.selectable)

    def __iter__(self):
        return iter(self.selectable)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CutSet(root={self.root}, {len(self.selectable)} selectable)"
