"""Unit tests for repro.core.dual_buffer."""

import pytest

from repro.core.clock import ManualClock
from repro.core.dual_buffer import DualBufferHistogram
from repro.core.histogram import LatencyHistogram
from repro.exceptions import ConfigurationError


class TestDualBufferHistogram:
    def test_rejects_bad_config(self):
        clock = ManualClock()
        with pytest.raises(ConfigurationError):
            DualBufferHistogram(clock, interval=0)
        with pytest.raises(ConfigurationError):
            DualBufferHistogram(clock, min_samples=-1)
        with pytest.raises(ConfigurationError):
            DualBufferHistogram(clock, bootstrap_samples=-1)

    def test_nothing_published_within_first_interval(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0)
        buf.record(0.010)
        assert buf.snapshot().is_empty

    def test_swap_publishes_at_interval_boundary(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=1)
        buf.record(0.010)
        clock.advance(1.0)
        snap = buf.snapshot()
        assert snap.count == 1
        assert snap.mean() == pytest.approx(0.010)

    def test_published_snapshot_excludes_current_interval(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=1)
        buf.record(0.010)
        clock.advance(1.0)
        buf.record(0.100)  # lands in the new write buffer
        assert buf.snapshot().count == 1
        assert buf.snapshot().mean() == pytest.approx(0.010)

    def test_sparse_interval_retains_stale_snapshot(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=5)
        for _ in range(10):
            buf.record(0.010)
        clock.advance(1.0)
        assert buf.snapshot().count == 10
        # Next interval sees only 2 samples (< min_samples): keep stale.
        buf.record(0.500)
        buf.record(0.500)
        clock.advance(1.0)
        snap = buf.snapshot()
        assert snap.count == 10
        assert snap.mean() == pytest.approx(0.010)
        assert buf.retained_count >= 1

    def test_first_publication_happens_even_when_sparse(self):
        # min_samples only protects an existing snapshot; with nothing
        # published yet, any data beats no data.
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=100)
        buf.record(0.020)
        clock.advance(1.0)
        assert buf.snapshot().count == 1

    def test_multiple_idle_intervals_skip_cleanly(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=1)
        buf.record(0.010)
        clock.advance(5.5)
        buf.record(0.020)
        # The 0.020 sample belongs to the current interval, unpublished.
        assert buf.snapshot().count == 1
        clock.advance(1.0)
        assert buf.snapshot().mean() == pytest.approx(0.020)

    def test_catch_up_lands_strictly_after_now(self):
        # The boundary due at 31.500000000000004 is two intervals behind
        # 33.5, and 31.500000000000004 + 2.0 rounds to 33.5 itself: without
        # a further step a second read at 33.5 would publish again.
        clock = ManualClock(30.500000000000004)
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=0)
        buf.record(0.010)
        clock.set(33.5)
        first = buf.snapshot()
        assert first.count == 1
        assert buf.next_publish_due() > 33.5
        assert buf.snapshot() is first
        assert buf.swap_count == 1

    def test_bootstrap_publishes_before_first_boundary(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=10.0, bootstrap_samples=3)
        buf.record(0.010)
        buf.record(0.010)
        assert buf.snapshot().is_empty
        buf.record(0.010)
        snap = buf.snapshot()
        assert snap.count == 3

    def test_bootstrap_only_fires_once(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=10.0, bootstrap_samples=2,
                                  min_samples=1)
        buf.record(0.010)
        buf.record(0.010)
        first = buf.snapshot()
        for _ in range(5):
            buf.record(0.100)
        # Still inside the interval: published snapshot unchanged.
        assert buf.snapshot().count == first.count == 2

    def test_force_swap(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=100.0, min_samples=1)
        buf.record(0.042)
        snap = buf.force_swap()
        assert snap.count == 1
        assert buf.swap_count == 1

    def test_swap_count_increments(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=1)
        for _ in range(3):
            buf.record(0.01)
            clock.advance(1.0)
            buf.snapshot()
        assert buf.swap_count == 3



class TestPublishedView:
    """The read side changes only at a publish: a boundary, a bootstrap or
    a preload.  Bouncer's decision entries are reused on that promise."""

    def test_view_is_one_object_between_boundaries(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=1)
        buf.record(0.010)
        clock.advance(1.0)
        view = buf.snapshot()
        for _ in range(9):
            clock.advance(0.1)
            buf.record(0.500)
            assert buf.snapshot() is view
        clock.advance(0.1)
        assert buf.snapshot() is not view

    def test_preload_restarts_the_interval(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=1)
        clock.advance(0.7)
        preloaded = LatencyHistogram.from_values([0.020] * 5).snapshot()
        buf.preload(preloaded)
        assert buf.next_publish_due() == pytest.approx(1.7)
        buf.record(0.001)
        clock.set(1.69)
        assert buf.snapshot().mean() == pytest.approx(0.020)
        clock.set(1.7)
        assert buf.snapshot().mean() == pytest.approx(0.001)

    def test_adopted_epochs_only_move_forward(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=1)
        snap = LatencyHistogram.from_values([0.010]).snapshot()
        buf.preload(snap.with_epoch(7), adopt_epoch=True)
        assert buf.published_epoch == buf.snapshot().epoch == 7
        # An older publisher epoch cannot move the buffer backwards.
        buf.preload(snap.with_epoch(3), adopt_epoch=True)
        assert buf.published_epoch == 8
        buf.preload(snap.with_epoch(20))  # not adopted: local count
        assert buf.published_epoch == 9
        buf.record(0.010)
        clock.advance(1.0)
        assert buf.snapshot().epoch == 10

    def test_no_bootstrap_without_bootstrap_samples(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=10.0, bootstrap_samples=0)
        for _ in range(50):
            buf.record(0.010)
            assert not buf.bootstrap_pending
        assert buf.snapshot().is_empty
        clock.advance(10.0)
        assert buf.snapshot().count == 50
