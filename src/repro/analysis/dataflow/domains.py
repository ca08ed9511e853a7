"""Abstract domains for the CDFG dataflow engine.

Two composable domains over unsigned ``width``-bit words:

* :class:`KnownBits` — per-bit three-valued abstraction (known 0, known 1,
  unknown), the classic bit-level domain of LLVM's ``computeKnownBits``.
  A value is represented by two masks, ``ones`` (bits proven 1) and
  ``unknown`` (bits that may be either); every bit in neither mask is
  proven 0. Bits at or above ``width`` are always proven 0, mirroring the
  IR invariant that node values live in ``[0, 2**width)``.
* :class:`Interval` — an unsigned range ``[lo, hi]`` (both inclusive)
  within ``[0, 2**width)``. Signed queries derive a two's-complement range
  from the unsigned one (:meth:`Interval.signed_bounds`).

Both abstractions *over-approximate*: the concrete value set of a node is
always a subset of its abstract value's concretization. ``join`` computes
the least upper bound (set union, abstracted); ``widen`` jumps unstable
interval bounds to the extremes so loop-carried fixpoints terminate in a
bounded number of sweeps.

The reduced product of the two domains lives in :func:`reduce_facts`:
known bits tighten interval bounds and the common high prefix of an
interval's bounds yields known bits, so each domain sharpens the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import AnalysisError

__all__ = ["KnownBits", "Interval", "Facts", "reduce_facts"]


def _mask(width: int) -> int:
    return (1 << width) - 1


@dataclass(frozen=True)
class KnownBits:
    """Per-bit 0/1/unknown facts for an unsigned ``width``-bit value.

    Invariants: ``ones & unknown == 0`` and both masks fit in ``width``
    bits. ``zeros`` (proven-0 bits) is the derived complement.
    """

    width: int
    ones: int
    unknown: int

    def __post_init__(self) -> None:
        if self.ones & self.unknown:
            raise AnalysisError(
                f"KnownBits invariant violated: ones={self.ones:#x} "
                f"overlaps unknown={self.unknown:#x}"
            )
        if (self.ones | self.unknown) >> self.width:
            raise AnalysisError(
                f"KnownBits masks exceed width {self.width}"
            )

    # -- constructors ---------------------------------------------------
    @classmethod
    def top(cls, width: int) -> "KnownBits":
        """Nothing known (beyond the width bound)."""
        return cls(width, 0, _mask(width))

    @classmethod
    def const(cls, value: int, width: int) -> "KnownBits":
        """All bits known: the abstraction of a single value."""
        return cls(width, value & _mask(width), 0)

    # -- derived masks --------------------------------------------------
    @property
    def zeros(self) -> int:
        """Bits proven 0 (within ``width``)."""
        return _mask(self.width) & ~(self.ones | self.unknown)

    @property
    def min_value(self) -> int:
        """Smallest concretizable value (all unknowns 0)."""
        return self.ones

    @property
    def max_value(self) -> int:
        """Largest concretizable value (all unknowns 1)."""
        return self.ones | self.unknown

    @property
    def is_constant(self) -> bool:
        return self.unknown == 0

    @property
    def value(self) -> int:
        """The single concrete value (only valid when :attr:`is_constant`)."""
        if not self.is_constant:
            raise AnalysisError("KnownBits.value on a non-constant")
        return self.ones

    def dead_high_bits(self) -> int:
        """Length of the run of proven-0 bits at the top of the word."""
        live = self.ones | self.unknown
        return self.width - live.bit_length()

    def bit(self, index: int) -> int | None:
        """0/1 when bit ``index`` is known, else None. Out-of-range bits
        are known 0 (values fit the width)."""
        if index >= self.width:
            return 0
        if (self.unknown >> index) & 1:
            return None
        return (self.ones >> index) & 1

    # -- lattice --------------------------------------------------------
    def join(self, other: "KnownBits") -> "KnownBits":
        """Least upper bound: keep only bits known identical in both."""
        if self.width != other.width:
            raise AnalysisError("KnownBits.join with mismatched widths")
        agreed_ones = self.ones & other.ones
        agreed_zeros = self.zeros & other.zeros
        unknown = _mask(self.width) & ~(agreed_ones | agreed_zeros)
        return KnownBits(self.width, agreed_ones, unknown)

    def resize(self, width: int) -> "KnownBits":
        """Reinterpret at another width (zero-extension semantics): growing
        adds proven-0 high bits, shrinking truncates the masks."""
        if width == self.width:
            return self
        m = _mask(width)
        return KnownBits(width, self.ones & m, self.unknown & m)

    def contains(self, value: int) -> bool:
        """True when ``value`` is in this abstraction's concretization."""
        if value < 0 or value >> self.width:
            return False
        return (value & self.ones) == self.ones and \
            (value & ~(self.ones | self.unknown)) == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = "".join(
            "?" if (self.unknown >> b) & 1 else str((self.ones >> b) & 1)
            for b in reversed(range(self.width))
        )
        return f"KnownBits({bits})"


@dataclass(frozen=True)
class Interval:
    """An unsigned range ``[lo, hi]`` of ``width``-bit values."""

    width: int
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi <= _mask(self.width):
            raise AnalysisError(
                f"Interval invariant violated: [{self.lo}, {self.hi}] "
                f"at width {self.width}"
            )

    # -- constructors ---------------------------------------------------
    @classmethod
    def top(cls, width: int) -> "Interval":
        return cls(width, 0, _mask(width))

    @classmethod
    def const(cls, value: int, width: int) -> "Interval":
        v = value & _mask(width)
        return cls(width, v, v)

    # -- queries --------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def signed_bounds(self) -> tuple[int, int]:
        """The two's-complement range covered by this unsigned interval.

        A range entirely below the sign boundary stays as-is; entirely at
        or above it shifts down by ``2**width``; straddling the boundary
        covers both extremes and widens to the full signed range reachable
        from the two segments.
        """
        half = 1 << (self.width - 1)
        full = 1 << self.width
        if self.hi < half:
            return self.lo, self.hi
        if self.lo >= half:
            return self.lo - full, self.hi - full
        # Straddles: negative segment [half, hi], positive segment
        # [lo, half - 1].
        return half - full, half - 1

    # -- lattice --------------------------------------------------------
    def join(self, other: "Interval") -> "Interval":
        if self.width != other.width:
            raise AnalysisError("Interval.join with mismatched widths")
        return Interval(self.width, min(self.lo, other.lo),
                        max(self.hi, other.hi))

    def widen(self, previous: "Interval") -> "Interval":
        """Jump any bound still moving since ``previous`` to its extreme."""
        lo = self.lo if self.lo >= previous.lo else 0
        hi = self.hi if self.hi <= previous.hi else _mask(self.width)
        return Interval(self.width, lo, hi)

    def resize(self, width: int) -> "Interval":
        """Reinterpret at another width (zero-extension semantics)."""
        if width == self.width:
            return self
        if width > self.width:
            return Interval(width, self.lo, self.hi)
        m = _mask(width)
        if self.hi <= m:
            return Interval(width, self.lo, self.hi)
        # Truncation may wrap distinct high parts onto the low bits.
        if self.hi - self.lo >= m + 1:
            return Interval.top(width)
        lo_t, hi_t = self.lo & m, self.hi & m
        if lo_t <= hi_t and (self.lo >> width) == (self.hi >> width):
            return Interval(width, lo_t, hi_t)
        return Interval.top(width)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Interval[{self.lo}, {self.hi}]/u{self.width}"


@dataclass(frozen=True)
class Facts:
    """The reduced-product abstract value of one node: both domains."""

    bits: KnownBits
    range: Interval

    @property
    def width(self) -> int:
        return self.bits.width

    @classmethod
    def top(cls, width: int) -> "Facts":
        return cls(KnownBits.top(width), Interval.top(width))

    @classmethod
    def const(cls, value: int, width: int) -> "Facts":
        return cls(KnownBits.const(value, width),
                   Interval.const(value, width))

    @property
    def constant_value(self) -> int | None:
        """The proven constant, from either domain, else None."""
        if self.bits.is_constant:
            return self.bits.value
        if self.range.is_constant:
            return self.range.lo
        return None

    def join(self, other: "Facts") -> "Facts":
        return reduce_facts(self.bits.join(other.bits),
                            self.range.join(other.range))

    def resize(self, width: int) -> "Facts":
        return Facts(self.bits.resize(width), self.range.resize(width))

    def contains(self, value: int) -> bool:
        return self.bits.contains(value) and self.range.contains(value)


def _bits_from_interval(interval: Interval) -> KnownBits:
    """Known bits implied by an interval: the common high prefix of the two
    bounds is fixed across the whole range."""
    width = interval.width
    diff = interval.lo ^ interval.hi
    fixed_above = diff.bit_length()  # bits >= this index agree
    prefix_mask = _mask(width) & ~_mask(fixed_above)
    ones = interval.lo & prefix_mask
    unknown = _mask(width) & ~prefix_mask
    return KnownBits(width, ones, unknown)


def reduce_facts(bits: KnownBits, interval: Interval) -> Facts:
    """Mutually refine the two domains (one reduction round).

    Each domain over-approximates the same non-empty concrete value set,
    so their intersection still contains it: the interval is clipped to
    the known-bits min/max, and the interval's fixed high prefix adds
    known bits.
    """
    if bits.width != interval.width:
        raise AnalysisError("reduce_facts width mismatch")
    lo = max(interval.lo, bits.min_value)
    hi = min(interval.hi, bits.max_value)
    if lo > hi:
        # Only reachable through an unsound transfer; fail loudly rather
        # than silently producing an empty "fact".
        raise AnalysisError(
            f"reduced product is empty: bits={bits!r} range={interval!r}"
        )
    interval = Interval(interval.width, lo, hi)
    from_range = _bits_from_interval(interval)
    agreed_ones = bits.ones | from_range.ones
    agreed_zeros = bits.zeros | from_range.zeros
    if agreed_ones & agreed_zeros:
        raise AnalysisError(
            f"reduced product is contradictory: bits={bits!r} "
            f"range={interval!r}"
        )
    unknown = _mask(bits.width) & ~(agreed_ones | agreed_zeros)
    return Facts(KnownBits(bits.width, agreed_ones, unknown), interval)
