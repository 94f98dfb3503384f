"""Log-bucketed latency histograms with percentile queries.

Bouncer "adopts the natural approach of maintaining approximations for these
distributions in histograms, one per query type" (paper §3).  This module
provides that histogram: values are assigned to exponentially-growing
buckets (constant *relative* error, like HdrHistogram), which suits latency
data spanning microseconds to seconds.

Two classes are exposed:

* :class:`LatencyHistogram` — a mutable recorder.
* :class:`HistogramSnapshot` — an immutable view with ``mean()`` and
  ``percentile()`` used on the policy's read path.  Snapshots are what the
  dual-buffer publisher (:mod:`repro.core.dual_buffer`) hands to Bouncer.
"""

from __future__ import annotations

import math
import struct
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Iterable, List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError

#: Fixed-size header of the binary snapshot wire form: the three layout
#: parameters (bucket edges are derived, not shipped), the publish epoch,
#: the observation count, the value sum, and the bucket-array length.
#: Little-endian so readers and writers agree across processes regardless
#: of platform defaults; the dense int64 count array follows immediately.
SNAPSHOT_WIRE_HEADER = struct.Struct("<dddqqdi")

#: Default smallest distinguishable latency: 1 microsecond.
DEFAULT_MIN_VALUE = 1e-6
#: Default largest representable latency: 100 seconds.  Larger values clamp.
DEFAULT_MAX_VALUE = 100.0
#: Default per-bucket growth factor; relative quantization error ~= 4%.
DEFAULT_GROWTH = 1.04


class BucketLayout:
    """Shared bucket geometry for a histogram family.

    Buckets are ``[min_value * growth**i, min_value * growth**(i+1))``.
    Values below ``min_value`` land in bucket 0; values at or above
    ``max_value`` land in the last bucket.  ``max_value`` is a clamp, not
    a bucket edge: the last bucket's lower edge is the first
    ``min_value * growth**i`` at or past it (about 101.3 for the default
    100.0), and values in between are clamped up into the last bucket
    rather than left in the one before.  Layouts are immutable and two
    histograms can be merged only if they share a layout.
    """

    __slots__ = ("min_value", "max_value", "growth", "num_buckets",
                 "_bounds")

    def __init__(self, min_value: float = DEFAULT_MIN_VALUE,
                 max_value: float = DEFAULT_MAX_VALUE,
                 growth: float = DEFAULT_GROWTH) -> None:
        if min_value <= 0:
            raise ConfigurationError(f"min_value must be > 0, got {min_value}")
        if max_value <= min_value:
            raise ConfigurationError(
                f"max_value ({max_value}) must exceed min_value ({min_value})")
        if growth <= 1.0:
            raise ConfigurationError(f"growth must be > 1, got {growth}")
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.growth = float(growth)
        self.num_buckets = int(
            math.ceil((math.log(max_value) - math.log(min_value))
                      / math.log(growth))) + 1
        # Precomputed lower bounds; bucket i spans [_bounds[i], _bounds[i+1]).
        self._bounds = [min_value * growth ** i
                        for i in range(self.num_buckets + 1)]

    def index_for(self, value: float) -> int:
        """Return the bucket index a value falls in (clamped to the range).

        One binary search over the precomputed edges.  The ``max_value``
        test comes first because ``max_value`` is a clamp, not an edge: it
        lies below the last bucket's lower edge, where the search alone
        would answer one bucket too low.  Written as ``not <`` it also
        catches NaN, which no bucket holds.
        """
        if not value < self.max_value:
            if value != value:
                raise ValueError("cannot bucket NaN")
            return self.num_buckets - 1
        idx = bisect_right(self._bounds, value) - 1
        return idx if idx > 0 else 0

    def lower_bound(self, index: int) -> float:
        """Inclusive lower edge of bucket ``index``."""
        return self._bounds[index]

    def upper_bound(self, index: int) -> float:
        """Exclusive upper edge of bucket ``index``."""
        return self._bounds[index + 1]

    def compatible_with(self, other: "BucketLayout") -> bool:
        return (self.min_value == other.min_value
                and self.max_value == other.max_value
                and self.growth == other.growth)

    def to_dict(self) -> dict:
        """JSON-serializable description (histogram snapshot export)."""
        return {"min_value": self.min_value, "max_value": self.max_value,
                "growth": self.growth}

    @classmethod
    def from_dict(cls, data: dict) -> "BucketLayout":
        return cls(min_value=data["min_value"],
                   max_value=data["max_value"], growth=data["growth"])


#: A default layout shared by histograms constructed without an explicit one.
DEFAULT_LAYOUT = BucketLayout()


class HistogramSnapshot:
    """Immutable histogram contents; the read side of the dual buffer.

    ``percentile(p)`` interpolates linearly inside the bucket containing the
    requested rank, so the answer is within one bucket's relative error of
    the true order statistic of the recorded values.

    ``epoch`` is a publisher-assigned identity: the dual-buffer and
    sliding-window publishers increment it every time a *new* view is
    published (swap, bootstrap, preload, window rebuild).  Two snapshots
    from the same publisher with the same epoch are the same object, so
    consumers (:class:`repro.core.bouncer.BouncerPolicy`) can memoize
    derived statistics keyed on the epoch instead of re-walking buckets.
    Snapshots created outside a publisher default to epoch 0.
    """

    __slots__ = ("_layout", "_counts", "count", "_sum", "epoch",
                 "_cumulative")

    def __init__(self, layout: BucketLayout, counts: Sequence[int],
                 total: int, value_sum: float, epoch: int = 0) -> None:
        self._layout = layout
        self._counts = list(counts)
        self.count = int(total)
        self._sum = float(value_sum)
        self.epoch = int(epoch)
        self._cumulative: Optional[List[int]] = None

    def _cum(self) -> List[int]:
        """Cumulative bucket counts, built lazily on first percentile query.

        Snapshots are immutable, so the array is computed at most once and
        every subsequent percentile lookup is a binary search instead of a
        linear bucket walk.
        """
        cum = self._cumulative
        if cum is None:
            cum = list(accumulate(self._counts))
            self._cumulative = cum
        return cum

    @property
    def is_empty(self) -> bool:
        """True when no observations back this snapshot."""
        return self.count == 0

    def with_epoch(self, epoch: int) -> "HistogramSnapshot":
        """Copy of this snapshot carrying a different publish epoch.

        Publishers use this to re-stamp an externally supplied snapshot
        (e.g. a preloaded one) so cached derived stats keyed on the old
        epoch cannot be mistaken for the new view's.
        """
        return HistogramSnapshot(self._layout, self._counts, self.count,
                                 self._sum, epoch=epoch)

    def mean(self) -> float:
        """Exact mean of the recorded values (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self._sum / self.count

    def percentile(self, p: float) -> float:
        """Approximate ``p``-th percentile of the recorded values.

        ``p`` is in ``(0, 100]``.  Returns 0.0 for an empty snapshot so that
        cold policies err on the side of accepting (paper Appendix A).
        """
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if self.count == 0:
            return 0.0
        return self._rank_value(p / 100.0 * self.count, self._cum())

    def _rank_value(self, target: float, cum: List[int]) -> float:
        """Value at cumulative rank ``target`` via binary search.

        ``bisect_left`` finds the first bucket whose cumulative count
        reaches the target — exactly the bucket the previous linear walk
        stopped at — and the in-bucket interpolation reuses the same
        arithmetic, so results are bit-identical to the scan they replace.
        """
        return self._value_at(bisect_left(cum, target), target)

    def _value_at(self, idx: int, target: float) -> float:
        """Interpolated value for rank ``target`` landing in bucket ``idx``
        (shared by :meth:`percentile` and :meth:`percentiles`)."""
        cum = self._cum()
        if idx >= len(cum):
            # Rounding pushed the target past the total; return the top edge.
            return self._layout.upper_bound(len(self._counts) - 1)
        bucket_count = self._counts[idx]
        previous = cum[idx] - bucket_count
        lower = self._layout.lower_bound(idx)
        upper = self._layout.upper_bound(idx)
        fraction = (target - previous) / bucket_count
        return lower + (upper - lower) * fraction

    def percentiles(self, ps: Iterable[float]) -> List[float]:
        """:meth:`percentile` for each distinct target, ascending: one
        ``bisect_left`` per target on the cached cumulative list."""
        wanted = sorted(set(float(p) for p in ps))
        for p in wanted:
            if not 0 < p <= 100:
                raise ValueError(f"percentile must be in (0, 100], got {p}")
        if self.count == 0:
            return [0.0 for _ in wanted]
        targets = [p / 100.0 * self.count for p in wanted]
        cum = self._cum()
        return [self._value_at(bisect_left(cum, target), target)
                for target in targets]

    def to_dict(self) -> dict:
        """JSON-serializable form (sparse bucket counts).

        Together with :meth:`from_dict`, this supports the paper's
        Appendix A alternative of deploying a system "along with
        pre-populated histograms containing query processing times from
        previous installations".
        """
        return {
            "layout": self._layout.to_dict(),
            "count": self.count,
            "sum": self._sum,
            "epoch": self.epoch,
            "buckets": {str(idx): cnt
                        for idx, cnt in enumerate(self._counts) if cnt},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HistogramSnapshot":
        layout = BucketLayout.from_dict(data["layout"])
        counts = [0] * layout.num_buckets
        for idx, cnt in data["buckets"].items():
            index = int(idx)
            if not 0 <= index < layout.num_buckets:
                raise ConfigurationError(
                    f"bucket index {index} outside the layout "
                    f"(0..{layout.num_buckets - 1})")
            counts[index] = int(cnt)
        total = int(data["count"])
        if total != sum(counts):
            raise ConfigurationError(
                f"snapshot count {total} does not match bucket sum "
                f"{sum(counts)}")
        # ``epoch`` rides along when present (the gateway's cross-process
        # snapshot handoff); pre-gateway exports default to 0.
        return cls(layout, counts, total, float(data["sum"]),
                   epoch=int(data.get("epoch", 0)))

    def to_bytes(self) -> bytes:
        """Dense binary form for cross-process publication.

        The gateway's shared-memory snapshot board ships snapshots as the
        existing bucket arrays: a :data:`SNAPSHOT_WIRE_HEADER` (layout
        parameters, epoch, count, sum, bucket-array length) followed by
        the dense little-endian int64 count array.  Bucket *edges* are a
        pure function of the layout parameters, so only the three floats
        that define them travel.
        """
        layout = self._layout
        header = SNAPSHOT_WIRE_HEADER.pack(
            layout.min_value, layout.max_value, layout.growth,
            self.epoch, self.count, self._sum, len(self._counts))
        counts = array("q", self._counts)
        if counts.itemsize != 8:  # pragma: no cover - exotic platforms
            raise RuntimeError("int64 array unavailable on this platform")
        return header + counts.tobytes()

    @classmethod
    def from_bytes(cls, buf: bytes, offset: int = 0,
                   layout: Optional[BucketLayout] = None
                   ) -> "Tuple[HistogramSnapshot, int]":
        """Decode one :meth:`to_bytes` record from ``buf`` at ``offset``.

        Returns the snapshot and the offset just past it (records can be
        packed back to back in one shared-memory slot).  Passing the
        expected ``layout`` skips re-deriving the bucket geometry and
        guarantees the decoded snapshot shares the reader's layout object
        (merge/preload compatibility checks then compare identical
        floats).
        """
        (min_value, max_value, growth, epoch, total, value_sum,
         num_buckets) = SNAPSHOT_WIRE_HEADER.unpack_from(buf, offset)
        if layout is None or (layout.min_value != min_value
                              or layout.max_value != max_value
                              or layout.growth != growth):
            layout = BucketLayout(min_value=min_value, max_value=max_value,
                                  growth=growth)
        if num_buckets != layout.num_buckets:
            raise ConfigurationError(
                f"snapshot carries {num_buckets} buckets but its layout "
                f"defines {layout.num_buckets}")
        start = offset + SNAPSHOT_WIRE_HEADER.size
        end = start + num_buckets * 8
        counts = array("q")
        counts.frombytes(bytes(buf[start:end]))
        return (cls(layout, counts, int(total), float(value_sum),
                    epoch=int(epoch)), end)

    def merged_with(self, other: "HistogramSnapshot",
                    epoch: int = 0) -> "HistogramSnapshot":
        """Return a new snapshot combining both sets of observations."""
        if not self._layout.compatible_with(other._layout):
            raise ConfigurationError("cannot merge snapshots with different "
                                     "bucket layouts")
        counts = [a + b for a, b in zip(self._counts, other._counts)]
        return HistogramSnapshot(self._layout, counts,
                                 self.count + other.count,
                                 self._sum + other._sum, epoch=epoch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_empty:
            return "HistogramSnapshot(empty)"
        return (f"HistogramSnapshot(count={self.count}, "
                f"mean={self.mean():.6f}, p50={self.percentile(50):.6f})")


def empty_snapshot(layout: Optional[BucketLayout] = None) -> HistogramSnapshot:
    """An empty snapshot (used before any interval has been published)."""
    layout = layout or DEFAULT_LAYOUT
    return HistogramSnapshot(layout, [0] * layout.num_buckets, 0, 0.0)


class LatencyHistogram:
    """Mutable recorder of latency observations.

    Not synchronized, like everything in :mod:`repro.core`: the host that
    owns the policy serializes access (see :mod:`repro.core.policy`).
    """

    __slots__ = ("_layout", "_counts", "_count", "_sum")

    def __init__(self, layout: Optional[BucketLayout] = None) -> None:
        self._layout = layout or DEFAULT_LAYOUT
        self._counts = [0] * self._layout.num_buckets
        self._count = 0
        self._sum = 0.0

    @classmethod
    def from_values(cls, values: Iterable[float],
                    layout: Optional[BucketLayout] = None
                    ) -> "LatencyHistogram":
        hist = cls(layout)
        for value in values:
            hist.record(value)
        return hist

    @property
    def layout(self) -> BucketLayout:
        return self._layout

    @property
    def count(self) -> int:
        return self._count

    def record(self, value: float) -> None:
        """Record one latency observation (negative values are invalid)."""
        if value < 0:
            raise ValueError(f"latency cannot be negative: {value}")
        self._counts[self._layout.index_for(value)] += 1
        self._count += 1
        self._sum += value

    def record_at(self, index: int, value: float) -> None:
        """:meth:`record` for a caller that already holds the bucket index.

        ``index`` must be ``layout.index_for(value)``; a host feeding one
        value to several histograms of one layout computes it once.
        """
        if value < 0:
            raise ValueError(f"latency cannot be negative: {value}")
        self._counts[index] += 1
        self._count += 1
        self._sum += value

    def record_many(self, values: Iterable[float]) -> None:
        """Record a batch of observations in one call.

        Equal to calling :meth:`record` per value, including when a value
        raises: buckets are incremented in order, the running sum is
        accumulated with the same left-to-right float additions (an
        explicit ``+=`` loop — not ``sum()``, whose compensated summation
        would round differently), and what was recorded before the bad
        value stays counted.
        """
        counts = self._counts
        index_for = self._layout.index_for
        total = self._sum
        recorded = 0
        try:
            for value in values:
                if value < 0:
                    raise ValueError(f"latency cannot be negative: {value}")
                counts[index_for(value)] += 1
                total += value
                recorded += 1
        finally:
            self._sum = total
            self._count += recorded

    def mean(self) -> float:
        if self._count == 0:
            return 0.0
        return self._sum / self._count

    def percentile(self, p: float) -> float:
        """Approximate percentile of everything recorded so far."""
        return self.snapshot().percentile(p)

    def snapshot(self, epoch: int = 0) -> HistogramSnapshot:
        """Freeze the current contents into an immutable snapshot.

        ``epoch`` stamps the snapshot's publish epoch; publishers pass their
        monotonically increasing counter, ad-hoc callers leave the default.
        """
        return HistogramSnapshot(self._layout, self._counts, self._count,
                                 self._sum, epoch=epoch)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's observations into this one."""
        if not self._layout.compatible_with(other._layout):
            raise ConfigurationError("cannot merge histograms with different "
                                     "bucket layouts")
        for idx, cnt in enumerate(other._counts):
            self._counts[idx] += cnt
        self._count += other._count
        self._sum += other._sum

    def reset(self) -> None:
        """Clear all recorded observations (dual-buffer recycle)."""
        for idx in range(len(self._counts)):
            self._counts[idx] = 0
        self._count = 0
        self._sum = 0.0

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatencyHistogram(count={self._count})"
