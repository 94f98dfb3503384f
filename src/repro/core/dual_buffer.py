"""Dual-buffer histogram publishing (paper §3, footnote 4, and Appendix A).

Bouncer "periodically updates the histograms at run time using a dual-buffer
technique: while one histogram is only read, a second histogram is being
populated.  At the end of a time interval the new and old histograms are
swapped atomically, and the old histogram is reset before being populated
again."

:class:`DualBufferHistogram` implements exactly that, plus the Appendix A
refinement for traffic lulls: when the interval that just ended collected
fewer than ``min_samples`` observations, the previously published snapshot
is *retained* ("we prefer stale data to no data") instead of being replaced
by a near-empty one.
"""

from __future__ import annotations

from typing import Optional

from ..exceptions import ConfigurationError
from .clock import Clock
from .histogram import (BucketLayout, HistogramSnapshot, LatencyHistogram,
                        empty_snapshot)

#: Default publishing interval, mirroring the 1-second cadence LIquid uses.
DEFAULT_INTERVAL = 1.0
#: Default minimum sample count for a new interval to replace the published
#: snapshot (Appendix A stale-retention threshold).
DEFAULT_MIN_SAMPLES = 10


class DualBufferHistogram:
    """A write histogram and an atomically swapped read snapshot.

    The swap is *lazy*: rather than requiring a background timer thread, the
    buffer checks the clock on every :meth:`record` and :meth:`snapshot`
    call and performs any due swap first.  In the discrete-event simulator
    this makes swaps happen at exact simulated instants; in the threaded
    runtime it bounds staleness by the inter-arrival gap, which under the
    loads where admission control matters is microseconds.  The check is
    inline in :meth:`record_at` and :meth:`snapshot`: strictly inside an
    interval with a view published -- nearly every call -- there is
    nothing to swap and no bootstrap to fire (that needs an empty read
    side), so ``_maybe_swap`` is not entered.

    Not synchronized: the host that owns the policy serializes every call
    (see :mod:`repro.core.policy`).  A published snapshot is immutable, so
    whoever holds one -- a scrape, a snapshot board -- may read it for as
    long as it likes while the write side moves on.

    Every *published* view (swap, bootstrap publish, preload — but not a
    retained stale snapshot, whose object is unchanged) increments a
    monotonically increasing epoch stamped onto the snapshot, so consumers
    can cache derived statistics per epoch (see
    :class:`repro.core.histogram.HistogramSnapshot`).
    """

    def __init__(self, clock: Clock, interval: float = DEFAULT_INTERVAL,
                 min_samples: int = DEFAULT_MIN_SAMPLES,
                 bootstrap_samples: int = 0,
                 layout: Optional[BucketLayout] = None) -> None:
        if interval <= 0:
            raise ConfigurationError(f"interval must be > 0, got {interval}")
        if min_samples < 0:
            raise ConfigurationError(
                f"min_samples must be >= 0, got {min_samples}")
        if bootstrap_samples < 0:
            raise ConfigurationError(
                f"bootstrap_samples must be >= 0, got {bootstrap_samples}")
        self._clock = clock
        self._interval = float(interval)
        self._min_samples = int(min_samples)
        self._bootstrap_samples = int(bootstrap_samples)
        self._layout = layout
        self._active = LatencyHistogram(layout)
        self._published: HistogramSnapshot = empty_snapshot(
            self._active.layout)
        self._next_swap = clock.now() + interval
        self._swaps = 0
        self._retained = 0
        self._epoch = 0

    @property
    def interval(self) -> float:
        return self._interval

    @property
    def published_epoch(self) -> int:
        """Epoch of the most recently published view (0 = nothing yet)."""
        return self._epoch

    @property
    def bootstrap_pending(self) -> bool:
        """True when the next touch would trigger a bootstrap publish.

        Apart from a preload, only a record can make it true.  Bouncer
        checks it after each record and, when it is, drops what it read
        from this buffer.
        """
        return bool(self._bootstrap_samples
                    and self._published.is_empty
                    and self._active.count >= self._bootstrap_samples)

    def next_publish_due(self) -> float:
        """Instant of the next time-driven publish boundary.

        Bootstrap publishes are sample-driven, not time-driven; they are
        advertised via :attr:`bootstrap_pending` instead.
        """
        return self._next_swap

    @property
    def swap_count(self) -> int:
        """Number of interval boundaries processed (observability)."""
        return self._swaps

    @property
    def retained_count(self) -> int:
        """How many swaps kept the stale snapshot due to scarce samples."""
        return self._retained

    def record(self, value: float) -> None:
        """Record a latency into the write buffer (swapping first if due)."""
        self.record_at(self._active.layout.index_for(value), value)

    def record_at(self, index: int, value: float) -> None:
        """:meth:`record` with the bucket index already computed.

        See :meth:`LatencyHistogram.record_at`: Bouncer feeds every
        completion to a type histogram and the general one, which share a
        layout, and computes the index once for both.
        """
        now = self._clock.now()
        if now >= self._next_swap or not self._published.count:
            self._maybe_swap(now)
        self._active.record_at(index, value)

    def snapshot(self) -> HistogramSnapshot:
        """Return the currently published (read-side) snapshot."""
        now = self._clock.now()
        if now >= self._next_swap or not self._published.count:
            self._maybe_swap(now)
        return self._published

    def preload(self, snapshot: HistogramSnapshot,
                adopt_epoch: bool = False) -> None:
        """Install a pre-populated snapshot as the published view.

        Appendix A's alternative cold-start remedy: deploy with histograms
        captured from a previous installation.  The preloaded snapshot
        serves reads until the first regular swap replaces it with live
        data (or retains it over a sparse interval).

        ``adopt_epoch`` performs the cross-process epoch handoff used by
        the gateway's shared-memory snapshot protocol: the publisher's
        epoch (already stamped on ``snapshot``) is carried into this
        buffer, so every consumer applying the same publication sequence
        observes identical epochs — the epoch *is* the invalidation token.
        The local counter still only moves forward (``max`` below), so a
        subsequent local publish cannot reuse a consumed epoch.
        """
        if not self._active.layout.compatible_with(snapshot._layout):
            raise ConfigurationError(
                "preloaded snapshot has an incompatible bucket layout")
        if adopt_epoch:
            self._epoch = max(self._epoch + 1, snapshot.epoch)
        else:
            self._epoch += 1
        self._published = (snapshot if snapshot.epoch == self._epoch
                           else snapshot.with_epoch(self._epoch))
        self._next_swap = self._clock.now() + self._interval

    def force_swap(self) -> HistogramSnapshot:
        """Publish the write buffer immediately (tests and warm-up)."""
        self._publish()
        self._next_swap = self._clock.now() + self._interval
        return self._published

    def _maybe_swap(self, now: float) -> None:
        if now < self._next_swap:
            # Cold-start bootstrap: publish the very first snapshot as soon
            # as enough samples exist, rather than blindly admitting (or
            # rejecting) for a whole interval with a blank read side.  This
            # shortens the cold-start window Appendix A discusses from one
            # interval to ``bootstrap_samples`` arrivals.
            if (self._bootstrap_samples
                    and self._published.is_empty
                    and self._active.count >= self._bootstrap_samples):
                self._publish()
                self._next_swap = now + self._interval
            return
        self._publish()
        # Skip whole intervals that elapsed with no activity so the next
        # boundary is in the future relative to ``now``.  The float sum can
        # round the boundary back onto ``now``, which would publish again
        # at the next touch of this same instant.
        intervals_behind = int((now - self._next_swap) / self._interval) + 1
        self._next_swap += intervals_behind * self._interval
        if self._next_swap <= now:
            self._next_swap += self._interval

    def _publish(self) -> None:
        self._swaps += 1
        if (self._active.count >= self._min_samples
                or self._published.is_empty):
            self._epoch += 1
            self._published = self._active.snapshot(epoch=self._epoch)
        else:
            # Appendix A: retain the stale snapshot over a starved interval.
            # The published object (and its epoch) is unchanged, so caches
            # keyed on it stay valid.
            self._retained += 1
        self._active.reset()

