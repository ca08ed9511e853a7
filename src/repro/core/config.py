"""Configuration for the mapping-aware modulo scheduling MILP."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchedulingError

__all__ = ["SchedulerConfig"]

#: Knobs that must be ``int`` (never ``bool``), and knobs that take any
#: non-bool number and are stored as ``float`` (``time_limit`` also
#: takes ``None``).
_INT_FIELDS = ("ii", "max_cuts", "partition_size", "partition_rounds")
_FLOAT_FIELDS = ("tcp", "alpha", "beta", "time_limit")


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
    time_limit:
        Solver wall-clock cap in seconds (the paper used 3600); best
        incumbent is accepted, mirroring Sec. 4.
    max_cuts:
        Merged-cut cap per node passed to the enumerator.
    paper_objective:
        True = cost every selected root ``Bits(v)`` LUTs exactly as Eq. 15;
        False (default) = refined per-cut LUT costs (free wiring, operator
        area; DESIGN.md note on Eq. 15).
    narrow:
        Run :func:`repro.ir.transforms.narrow_graph` before cut
        enumeration and MILP construction (dataflow-proven width
        shrinking and constant folding). ``--no-narrow`` on the CLI and
        ``narrow=False`` here are the escape hatch; it is the flows' one
        narrowing switch, so it is part of every fingerprint.
    presolve:
        Run :func:`repro.milp.presolve.presolve` on every scheduling
        model before handing it to HiGHS (``--no-presolve`` to
        ablate; see docs/performance.md).
    warm_start:
        Seed each solve with the list-scheduling heuristic's feasible
        schedule at the same II, as a cutoff constraint on the objective
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

    Out-of-range or mistyped values raise
    :class:`~repro.errors.SchedulingError` at construction, so a bad knob
    fails where it is set (the service turns it into a 400) instead of
    inside a solve.
    """

    ii: int = 1
    tcp: float = 10.0
    alpha: float = 0.5
    beta: float = 0.5
    time_limit: float | None = 120.0
    max_cuts: int = 12
    paper_objective: bool = False
    narrow: bool = True
    presolve: bool = True
    warm_start: bool = True
    partition: bool = False
    partition_size: int = 48
    partition_rounds: int = 2

    def __post_init__(self) -> None:
        for name in ("paper_objective", "narrow", "presolve", "warm_start",
                     "partition"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise SchedulingError(
                    f"{name} must be true or false, got {value!r}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchedulingError(
                    f"{name} must be an integer, got {value!r}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if value is None and name == "time_limit":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchedulingError(
                    f"{name} must be a number, got {value!r}")
            # 10 and 10.0 are one knob setting: store one type so both
            # hash to the same flow fingerprint.
            object.__setattr__(self, name, float(value))
        if self.ii < 1:
            raise SchedulingError(f"II must be >= 1, got {self.ii}")
        if self.tcp <= 0:
            raise SchedulingError(f"Tcp must be positive, got {self.tcp}")
        if self.alpha < 0 or self.beta < 0:
            raise SchedulingError("alpha and beta must be non-negative")
        if self.time_limit is not None and self.time_limit <= 0:
            raise SchedulingError(
                f"time_limit must be positive, got {self.time_limit}")
        if self.max_cuts < 0:
            raise SchedulingError(
                f"max_cuts must be >= 0, got {self.max_cuts}")
        if self.partition_size < 1:
            raise SchedulingError(
                f"partition_size must be >= 1, got {self.partition_size}")
        if self.partition_rounds < 0:
            raise SchedulingError(
                f"partition_rounds must be >= 0, got {self.partition_rounds}")

    def fingerprint_fields(self) -> dict:
        """The fields hashed into a flow-cache fingerprint.

        Every result-affecting field is included: all of them can change
        the produced schedule (``time_limit`` changes which incumbent is
        accepted; ``narrow`` changes the scheduled graph). Runtime-only
        knobs such as the jobs count or the cache directory deliberately
        live *outside* this config so they never perturb fingerprints.
        """
        import dataclasses

        return dict(sorted(dataclasses.asdict(self).items()))
