"""Configuration for the mapping-aware modulo scheduling MILP."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchedulingError

__all__ = ["SchedulerConfig"]

#: MILP backends :meth:`repro.milp.model.Model.solve` accepts.
_BACKENDS = ("scipy", "bnb")


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the MILP formulation (Sec. 3.2 / Sec. 4).

    Attributes
    ----------
    ii:
        Target initiation interval (the paper pipelines everything to II=1).
    tcp:
        Target clock period, ns.
    alpha / beta:
        Eq. 15 trade-off weights for LUT vs register bits (paper: 0.5/0.5).
    latency_bound:
        Horizon ``M`` on pipeline cycles. ``None`` derives it from the
        additive-delay heuristic schedule (always sufficient: mapping can
        only shorten a schedule) plus ``latency_margin``.
    latency_margin:
        Extra cycles added to the derived horizon (resource conflicts can
        push black boxes past the additive ASAP).
    time_limit:
        Solver wall-clock cap in seconds (the paper used 3600); best
        incumbent is accepted, mirroring Sec. 4.
    backend:
        MILP backend: ``"scipy"`` (HiGHS) or ``"bnb"``.
    max_cuts:
        Merged-cut cap per node passed to the enumerator.
    use_mapping:
        True = MILP-map (full cut sets); False = MILP-base (unit cuts only,
        i.e. "skipping the cut enumeration step", Sec. 4).
    paper_objective:
        True = cost every selected root ``Bits(v)`` LUTs exactly as Eq. 15;
        False (default) = refined per-cut LUT costs (free wiring, operator
        area; DESIGN.md note on Eq. 15).
    mip_rel_gap:
        Optional relative MIP gap passed to the solver.
    narrow:
        Run :func:`repro.ir.transforms.narrow_graph` before cut
        enumeration and MILP construction (dataflow-proven width
        shrinking and constant folding). ``--no-narrow`` on the CLI and
        ``narrow=False`` here are the escape hatch.
    presolve:
        Run :func:`repro.milp.presolve.presolve` on every scheduling
        model before handing it to the backend (``--no-presolve`` to
        ablate; see docs/performance.md).
    warm_start:
        Seed each solve with the list-scheduling heuristic's feasible
        schedule at the same II: a cutoff constraint for the scipy
        backend, an incumbent + branching hints for bnb
        (``--no-warm-start`` to ablate).
    partition:
        Solve via subgraph decomposition (:mod:`repro.partition`): cut the
        CDFG into cone- and recurrence-respecting subgraphs, solve each
        with the per-method MILP, stitch under boundary constraints, and
        iterate on the stitched cost model. This is the scaling path for
        paper-sized designs where the monolithic MILP explodes
        (docs/partitioning.md).
    partition_size:
        Target node count per subgraph before a new one is started. Atomic
        clusters (recurrence SCCs, merged cut cones) are never split, so a
        subgraph can exceed this.
    partition_rounds:
        Feedback re-cut budget: after the initial stitch, up to this many
        merge-the-worst-boundary rounds run, keeping the best verified
        result seen.

    Out-of-range values raise :class:`~repro.errors.SchedulingError` at
    construction, so a bad knob fails where it is set (the service turns
    it into a 400) instead of inside a solve.
    """

    ii: int = 1
    tcp: float = 10.0
    alpha: float = 0.5
    beta: float = 0.5
    latency_bound: int | None = None
    latency_margin: int = 2
    time_limit: float | None = 120.0
    backend: str = "scipy"
    max_cuts: int = 12
    use_mapping: bool = True
    paper_objective: bool = False
    mip_rel_gap: float | None = None
    narrow: bool = True
    presolve: bool = True
    warm_start: bool = True
    partition: bool = False
    partition_size: int = 48
    partition_rounds: int = 2

    def __post_init__(self) -> None:
        for name in ("use_mapping", "paper_objective", "narrow", "presolve",
                     "warm_start", "partition"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise SchedulingError(
                    f"{name} must be true or false, got {value!r}")
        if self.ii < 1:
            raise SchedulingError(f"II must be >= 1, got {self.ii}")
        if self.tcp <= 0:
            raise SchedulingError(f"Tcp must be positive, got {self.tcp}")
        if self.alpha < 0 or self.beta < 0:
            raise SchedulingError("alpha and beta must be non-negative")
        if self.latency_bound is not None and self.latency_bound < 1:
            raise SchedulingError(
                f"latency_bound must be >= 1, got {self.latency_bound}")
        if self.latency_margin < 0:
            raise SchedulingError(
                f"latency_margin must be >= 0, got {self.latency_margin}")
        if self.time_limit is not None and self.time_limit <= 0:
            raise SchedulingError(
                f"time_limit must be positive, got {self.time_limit}")
        if self.backend not in _BACKENDS:
            raise SchedulingError(
                f"backend must be one of {', '.join(_BACKENDS)}, "
                f"got {self.backend!r}")
        if self.max_cuts < 0:
            raise SchedulingError(
                f"max_cuts must be >= 0, got {self.max_cuts}")
        if self.mip_rel_gap is not None and self.mip_rel_gap < 0:
            raise SchedulingError(
                f"mip_rel_gap must be >= 0, got {self.mip_rel_gap}")
        if self.partition_size < 1:
            raise SchedulingError(
                f"partition_size must be >= 1, got {self.partition_size}")
        if self.partition_rounds < 0:
            raise SchedulingError(
                f"partition_rounds must be >= 0, got {self.partition_rounds}")

    def fingerprint_fields(self) -> dict:
        """The fields hashed into a flow-cache fingerprint.

        Every result-affecting field is included: all of them can change
        the produced schedule (``time_limit`` and ``backend`` change
        which incumbent is accepted; ``narrow`` changes the scheduled
        graph). Runtime-only knobs such as the jobs count or the cache
        directory deliberately live *outside* this config so they never
        perturb fingerprints.
        """
        import dataclasses

        return dict(sorted(dataclasses.asdict(self).items()))
