"""Tests for the admission fast path: epoch-cached snapshot statistics,
the incrementally maintained Eq. 2 state, the Eq. 2 scalar memo, and the
micro-optimizations that ride along (``__slots__``, lazy heap compaction).

The load-bearing invariant throughout: with ``fast_path`` on or off,
Bouncer produces *bit-identical* decisions and estimates.  The property
test drives both variants through random interleavings of records,
enqueues, dequeues, clock advances and decisions — with ``debug_check``
making the fast policy self-verify Eq. 2 on every decision.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (BouncerConfig, BouncerPolicy, HostContext,
                        LatencySLO, ManualClock, QueueView, SLORegistry)
from repro.core.bouncer import HISTOGRAMS_SLIDING_WINDOW
from repro.core.dual_buffer import DualBufferHistogram, SlidingWindowHistogram
from repro.core.histogram import LatencyHistogram
from repro.core.types import AdmissionResult, Query
from repro.sim.simulator import Simulator

SLO = LatencySLO.from_ms(p50=18, p90=50)
TYPES = ("fast", "slow", "bulk")


def make_policy(parallelism=4, clock=None, queue=None, **config):
    clock = clock or ManualClock()
    queue = queue or QueueView()
    ctx = HostContext(clock=clock, queue=queue, parallelism=parallelism)
    registry = SLORegistry.uniform(SLO, TYPES)
    defaults = dict(min_samples=1, retain_min_samples=1, bootstrap_samples=0)
    defaults.update(config)
    policy = BouncerPolicy(ctx, BouncerConfig(slos=registry, **defaults))
    return policy, clock, queue


def feed(policy, clock, qtype, values):
    for value in values:
        policy.on_completed(Query(qtype=qtype), 0.0, value)
    clock.advance(policy.config.histogram_interval)
    policy.processing_snapshot(qtype)  # touch -> swap


class TestPublishEpochs:
    def test_publish_increments_epoch(self):
        clock = ManualClock()
        hist = DualBufferHistogram(clock, interval=1.0, min_samples=0)
        assert hist.published_epoch == 0
        hist.record(0.01)
        clock.advance(1.0)
        snap = hist.snapshot()
        assert snap.epoch == hist.published_epoch == 1
        hist.record(0.02)
        clock.advance(1.0)
        assert hist.snapshot().epoch == 2

    def test_retention_keeps_object_and_epoch(self):
        clock = ManualClock()
        hist = DualBufferHistogram(clock, interval=1.0, min_samples=5)
        for _ in range(5):
            hist.record(0.01)
        clock.advance(1.0)
        published = hist.snapshot()
        # A lull interval (too few samples): the SAME snapshot object is
        # retained, so epoch-keyed caches stay valid.
        hist.record(0.02)
        clock.advance(1.0)
        retained = hist.snapshot()
        assert retained is published
        assert retained.epoch == published.epoch

    def test_preload_bumps_epoch(self):
        clock = ManualClock()
        hist = DualBufferHistogram(clock, interval=1.0)
        plain = LatencyHistogram.from_values([0.01, 0.02])
        before = hist.published_epoch
        hist.preload(plain.snapshot())
        assert hist.published_epoch == before + 1

    def test_bootstrap_publish_bumps_epoch(self):
        clock = ManualClock()
        hist = DualBufferHistogram(clock, interval=10.0, min_samples=0,
                                   bootstrap_samples=3)
        for _ in range(3):
            hist.record(0.01)
        snap = hist.snapshot()  # sample-driven publish, mid-interval
        assert snap.count == 3
        assert snap.epoch == 1

    def test_sliding_snapshot_cached_between_changes(self):
        clock = ManualClock()
        hist = SlidingWindowHistogram(clock, window=4.0, step=1.0)
        hist.record(0.01)
        first = hist.snapshot()
        # No rotation and no record: the merged snapshot is reused.
        assert hist.snapshot() is first
        hist.record(0.02)
        second = hist.snapshot()
        assert second is not first
        assert second.epoch > first.epoch
        clock.advance(1.0)
        third = hist.snapshot()  # rotation rebuilds
        assert third.epoch > second.epoch


class TestColdStartThreshold:
    def test_min_samples_zero_never_trusts_empty(self):
        # Unified threshold: even with min_samples=0 an EMPTY snapshot is
        # not trusted — both Eq. 2 and the percentile path fall back.
        policy, clock, queue = make_policy(min_samples=0)
        feed(policy, clock, "slow", [0.020] * 4)
        queue.on_enqueue("fast")  # never measured
        # Eq. 2 must price the queued unmeasured type via the general
        # histogram (mean 20ms), not as a trusted 0-sample mean of 0.
        assert policy.estimate_wait_mean() == pytest.approx(0.020 / 4)
        est = policy.estimate("fast")
        assert est.cold_start

    def test_min_samples_zero_trusts_single_sample(self):
        policy, clock, queue = make_policy(min_samples=0)
        feed(policy, clock, "fast", [0.004])
        queue.on_enqueue("fast")
        assert policy.estimate_wait_mean() == pytest.approx(0.004 / 4)
        assert not policy.estimate("fast").cold_start

    def test_both_paths_agree_on_threshold(self):
        for fast in (True, False):
            policy, clock, queue = make_policy(min_samples=0, fast_path=fast)
            feed(policy, clock, "slow", [0.020] * 4)
            queue.on_enqueue("fast")
            assert policy.estimate_wait_mean() == pytest.approx(0.020 / 4)


class ScriptRunner:
    """Drive a fast(+debug) and a naive policy through one op script."""

    def __init__(self, **config):
        self.policies = []
        for overrides in (dict(fast_path=True, debug_check=True),
                          dict(fast_path=False)):
            merged = dict(config)
            merged.update(overrides)
            self.policies.append(make_policy(**merged))
        self.queued = []  # mirror, so dequeues target live entries

    def run(self, ops):
        outcomes = []
        for op in ops:
            kind, arg = op
            for policy, clock, queue in self.policies:
                if kind == "record":
                    qtype, value = arg
                    policy.on_completed(Query(qtype=qtype), 0.0, value)
                elif kind == "enqueue":
                    queue.on_enqueue(arg)
                    policy.on_enqueued(Query(qtype=arg))
                elif kind == "dequeue":
                    if self.queued:
                        qtype = self.queued[arg % len(self.queued)]
                        queue.on_dequeue(qtype)
                        policy.on_dequeued(Query(qtype=qtype), 0.0)
                elif kind == "advance":
                    clock.advance(arg)
                elif kind == "decide":
                    outcomes.append(policy.decide(Query(qtype=arg)))
            # Maintain the shared queue mirror once per op.
            if kind == "enqueue":
                self.queued.append(arg)
            elif kind == "dequeue" and self.queued:
                self.queued.pop(arg % len(self.queued))
        return outcomes

    def assert_identical(self, outcomes):
        fast, naive = outcomes[0::2], outcomes[1::2]
        assert len(fast) == len(naive)
        for f, n in zip(fast, naive):
            assert f.decision is n.decision
            assert f.reason is n.reason
            assert f.estimates == n.estimates  # exact float equality


def op_strategy():
    qtypes = st.sampled_from(TYPES)
    values = st.floats(min_value=1e-4, max_value=0.2, allow_nan=False,
                       allow_infinity=False)
    return st.lists(
        st.one_of(
            st.tuples(st.just("record"), st.tuples(qtypes, values)),
            st.tuples(st.just("enqueue"), qtypes),
            st.tuples(st.just("dequeue"), st.integers(0, 7)),
            st.tuples(st.just("advance"),
                      st.sampled_from([0.1, 0.4, 1.0, 2.5])),
            st.tuples(st.just("decide"), qtypes),
        ),
        min_size=1, max_size=60)


#: Found by hypothesis.  The fast path's queue subscription used to create
#: a never-decided type's histogram at enqueue time, the naive walk at the
#: next record or decision; the creation instant sets the sliding window's
#: slice phase (and the dual buffer's swap phase), so the two modes
#: published different windows: ACCEPT with {50: 0.0, 90: 0.0} against
#: REJECT with {50: 0.1576, 90: 0.1596}.
ENQUEUE_BEFORE_FIRST_DECISION = [
    ("enqueue", "fast"), ("advance", 2.5),
    ("record", ("fast", 0.125)), ("record", ("fast", 0.125)),
    ("advance", 2.5), ("decide", "fast")]

#: Same cause, one step on: the histograms exist but their bootstrap
#: publish is pending, and the enqueue-time touch fired it at 0.0 where
#: the naive walk fires it at the decision at 0.4.  A bootstrap publish
#: restarts the interval, so the swaps fell at 1.0 against 1.4 and the
#: last decision (at 1.6) read different windows.
ENQUEUE_WHILE_BOOTSTRAP_PENDING = (
    [("record", ("fast", 0.1))] * 2
    + [("enqueue", "fast"), ("advance", 0.4), ("decide", "fast"),
       ("advance", 0.4), ("advance", 0.4)]
    + [("record", ("fast", 0.01))] * 3
    + [("advance", 0.4), ("decide", "fast")])


#: Found by hypothesis once ``retain_min_samples=0`` was in its reach
#: (open since PR 12).  The third record fires the bootstrap publish and
#: stays in the write buffer; at 1.0 a time-driven publish is due, and the
#: enqueue-time touch made it -- a one-sample view -- so by the decision
#: at 2.0 the fast path published the empty interval after it (nothing is
#: retained at 0) and decided on nothing, ACCEPT {50: 0.0, 90: 0.0}, where
#: the naive walk, touching the buffer for the first time since 0.0,
#: published the one sample and REJECTed at {50: 0.1576, 90: 0.1596}.
ENQUEUE_WHILE_PUBLISH_DUE = (
    [("record", ("fast", 0.125))] * 3
    + [("advance", 1.0), ("enqueue", "fast"), ("advance", 1.0),
       ("decide", "fast")])

#: The same on the general histogram alone.  ``fast``'s histogram is made
#: at 0.4, so at 1.2 nothing is due on it, but it is cold, so its term
#: reads the general view -- whose boundary, set by the bootstrap publish
#: at 0.0, passed at 1.0 with one sample in the write buffer.
ENQUEUE_WHILE_GENERAL_PUBLISH_DUE = (
    [("record", ("slow", 0.125))] * 3
    + [("advance", 0.4), ("decide", "fast"), ("advance", 0.4),
       ("advance", 0.4), ("enqueue", "fast"), ("advance", 1.0),
       ("decide", "fast")])


class TestFastPathEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=op_strategy(), retain=st.sampled_from([0, 2]))
    @example(ops=ENQUEUE_BEFORE_FIRST_DECISION, retain=2)
    @example(ops=ENQUEUE_WHILE_BOOTSTRAP_PENDING, retain=2)
    @example(ops=ENQUEUE_WHILE_PUBLISH_DUE, retain=0)
    @example(ops=ENQUEUE_WHILE_GENERAL_PUBLISH_DUE, retain=0)
    def test_dual_buffer_interleavings(self, ops, retain):
        runner = ScriptRunner(min_samples=3, retain_min_samples=retain,
                              bootstrap_samples=2)
        runner.assert_identical(runner.run(ops))

    @settings(max_examples=60, deadline=None)
    @given(ops=op_strategy())
    @example(ops=ENQUEUE_BEFORE_FIRST_DECISION)
    @example(ops=ENQUEUE_WHILE_BOOTSTRAP_PENDING)
    @example(ops=ENQUEUE_WHILE_PUBLISH_DUE)
    @example(ops=ENQUEUE_WHILE_GENERAL_PUBLISH_DUE)
    def test_sliding_window_interleavings(self, ops):
        runner = ScriptRunner(histogram_mode=HISTOGRAMS_SLIDING_WINDOW,
                              histogram_window=3.0, min_samples=2)
        runner.assert_identical(runner.run(ops))

    def test_retention_lull_stays_identical(self):
        # Force the Appendix A retention path: a warm interval, then a lull
        # interval below retain_min_samples, with decisions either side.
        ops = (
            [("record", ("fast", 0.004))] * 6 + [("enqueue", "fast")] * 2
            + [("advance", 1.0), ("decide", "fast"),
               ("record", ("fast", 0.09)),   # lull: 1 < retain_min_samples
               ("advance", 1.0), ("decide", "fast"),
               ("enqueue", "slow"), ("decide", "slow"),
               ("advance", 1.0), ("decide", "fast")]
        )
        runner = ScriptRunner(min_samples=2, retain_min_samples=4)
        runner.assert_identical(runner.run(ops))

    def test_import_state_invalidates_fast_caches(self):
        policy, clock, queue = make_policy(fast_path=True, debug_check=True)
        feed(policy, clock, "fast", [0.004] * 3)
        queue.on_enqueue("fast")
        before = policy.estimate_wait_mean()
        donor, dclock, _ = make_policy()
        feed(donor, dclock, "fast", [0.05] * 6)
        policy.import_state(donor.export_state())
        after = policy.estimate_wait_mean()  # debug_check verifies vs naive
        assert after != before

    def test_scalar_memo_counts_hits(self):
        policy, clock, queue = make_policy(fast_path=True)
        feed(policy, clock, "fast", [0.004] * 4)
        queue.on_enqueue("fast")
        for _ in range(10):
            policy.decide(Query(qtype="fast"))
        stats = policy.fast_path_stats
        assert stats.cache_hits > 0
        # Enqueue invalidates the Eq. 2 scalar but not the epoch caches.
        queue.on_enqueue("fast")
        policy.decide(Query(qtype="fast"))
        assert policy.fast_path_stats.cache_hits > stats.cache_hits - 1


class TestSimulatorCompaction:
    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule_after(1.0, lambda: None)
        drop = sim.schedule_after(2.0, lambda: None)
        assert sim.pending == 2
        drop.cancel()
        assert sim.pending == 1
        drop.cancel()  # idempotent
        assert sim.pending == 1
        assert keep.cancelled is False

    def test_compaction_sweeps_placeholders(self):
        sim = Simulator()
        events = [sim.schedule_after(1000.0, lambda: None)
                  for _ in range(200)]
        for event in events[:150]:
            event.cancel()
        # Compaction triggered part-way through the cancels (threshold 64,
        # majority-dead): the schedule shed placeholders while the live
        # count stayed exact.
        assert len(sim._heap) < 200
        assert sim.pending == 50
        assert sum(1 for e in sim._heap if e[2] is not None) == 50

    def test_late_cancel_after_fire_does_not_skew(self):
        sim = Simulator()
        fired = sim.schedule_after(0.5, lambda: None)
        sim.schedule_after(1.0, lambda: None)
        sim.step()
        pending_before = sim.pending
        fired.cancel()  # already fired: must not decrement live count
        assert sim.pending == pending_before
        sim.run()
        assert sim.pending == 0

    def test_run_drains_cancelled_heads(self):
        sim = Simulator()
        order = []
        first = sim.schedule_after(1.0, lambda: order.append("a"))
        sim.schedule_after(2.0, lambda: order.append("b"))
        first.cancel()
        sim.run()
        assert order == ["b"]
        assert sim.pending == 0


class TestSlotsTypes:
    def test_query_has_no_dict(self):
        query = Query(qtype="fast")
        assert not hasattr(query, "__dict__")
        with pytest.raises(AttributeError):
            query.unknown_attribute = 1

    def test_query_service_time_slot(self):
        query = Query(qtype="fast")
        assert query.service_time is None
        query.service_time = 0.01
        assert query.service_time == 0.01

    def test_admission_result_has_no_dict(self):
        result = AdmissionResult.accept()
        assert not hasattr(result, "__dict__")

    def test_admission_result_equality(self):
        a = AdmissionResult.accept(estimates={50.0: 0.01})
        b = AdmissionResult.accept(estimates={50.0: 0.01})
        assert a == b
        assert a != AdmissionResult.accept(estimates={50.0: 0.02})


class TestQueueViewSubscription:
    def test_listener_sees_deltas(self):
        queue = QueueView()
        seen = []
        queue.subscribe(lambda qtype, delta: seen.append((qtype, delta)))
        queue.on_enqueue("fast")
        queue.on_enqueue("slow")
        queue.on_dequeue("fast")
        assert seen == [("fast", 1), ("slow", 1), ("fast", -1)]

    def test_listener_may_read_view(self):
        # Listeners run outside the view lock: re-entrancy must not hang.
        queue = QueueView()
        lengths = []
        queue.subscribe(lambda qtype, delta: lengths.append(queue.length()))
        queue.on_enqueue("fast")
        assert lengths == [1]


class TestRandomizedSoak:
    def test_seeded_soak_fast_equals_naive(self):
        # A longer seeded soak beyond what hypothesis explores per example:
        # crosses many publish boundaries, bootstraps and lulls.
        rng = random.Random(77)
        ops = []
        for _ in range(800):
            roll = rng.random()
            if roll < 0.35:
                ops.append(("record", (rng.choice(TYPES),
                                       rng.uniform(1e-4, 0.08))))
            elif roll < 0.55:
                ops.append(("enqueue", rng.choice(TYPES)))
            elif roll < 0.70:
                ops.append(("dequeue", rng.randrange(8)))
            elif roll < 0.80:
                ops.append(("advance", rng.choice([0.2, 0.7, 1.3])))
            else:
                ops.append(("decide", rng.choice(TYPES)))
        runner = ScriptRunner(min_samples=4, retain_min_samples=3,
                              bootstrap_samples=3)
        runner.assert_identical(runner.run(ops))
