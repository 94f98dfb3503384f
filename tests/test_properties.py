"""Property-based tests (hypothesis) for core data structures & invariants."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro._stats import percentile
from repro.core import (LatencyHistogram, LatencySLO, ManualClock,
                        SlidingWindowCounts, SlidingWindowStats)
from repro.core.dual_buffer import DualBufferHistogram
from repro.core.histogram import BucketLayout, HistogramSnapshot
from repro.liquid.partition import HashPartitioner
from repro.liquid.vlist import VList
from repro.sim.workload import QueryTypeSpec

latencies = st.floats(min_value=1e-7, max_value=50.0, allow_nan=False,
                      allow_infinity=False)


class TestHistogramProperties:
    @given(st.lists(latencies, min_size=1, max_size=300))
    def test_mean_is_exact(self, values):
        hist = LatencyHistogram.from_values(values)
        assert math.isclose(hist.mean(), sum(values) / len(values),
                            rel_tol=1e-9)

    @given(st.lists(latencies, min_size=1, max_size=300),
           st.floats(min_value=1.0, max_value=100.0))
    def test_percentile_bracketed_by_order_statistics(self, values, p):
        # The histogram's percentile (target rank = p/100 * n, interpolated
        # inside the target bucket) must land between the order statistics
        # bracketing that rank, give or take one bucket of relative error
        # (growth 1.04) — the accuracy contract Bouncer relies on.
        ordered = sorted(values)
        n = len(ordered)
        hist = LatencyHistogram.from_values(values)
        approx = hist.percentile(p)
        target = p / 100.0 * n
        k_lo = min(max(math.floor(target) - 1, 0), n - 1)
        k_hi = min(math.ceil(target), n - 1)
        assert approx >= min(ordered[k_lo] / 1.05, 1.1e-6)
        assert approx <= max(ordered[k_hi] * 1.05, 1.1e-6)

    @given(st.lists(latencies, min_size=1, max_size=200))
    def test_percentiles_monotone(self, values):
        snap = LatencyHistogram.from_values(values).snapshot()
        ps = [1, 10, 25, 50, 75, 90, 99, 100]
        results = snap.percentiles(ps)
        assert results == sorted(results)

    @given(st.floats(min_value=1e-9, max_value=1e4))
    def test_every_value_has_a_bucket(self, value):
        layout = BucketLayout()
        idx = layout.index_for(value)
        assert 0 <= idx < layout.num_buckets

    @given(st.lists(latencies, max_size=200))
    def test_dict_round_trip_is_exact(self, values):
        # What import_state installs is what export_state saw.
        snap = LatencyHistogram.from_values(values).snapshot()
        restored = HistogramSnapshot.from_dict(snap.to_dict())
        assert restored.count == snap.count
        assert restored.mean() == snap.mean()
        ps = [1, 50, 90, 99, 100]
        assert restored.percentiles(ps) == snap.percentiles(ps)


class TestDualBufferProperties:
    @given(ops=st.lists(st.one_of(
               st.tuples(st.just("record"), latencies),
               st.tuples(st.just("advance"),
                         st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.5]))),
               max_size=80),
           min_samples=st.sampled_from([0, 1, 3]),
           bootstrap=st.sampled_from([0, 2, 5]))
    def test_view_changes_only_at_a_publish(self, ops, min_samples,
                                            bootstrap):
        # The read side moves only at a due boundary or an armed
        # bootstrap, and every move carries a fresh, larger epoch.
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0,
                                  min_samples=min_samples,
                                  bootstrap_samples=bootstrap)
        view, due = buf.snapshot(), buf.next_publish_due()
        for op, arg in ops:
            if op == "record":
                buf.record(arg)
            else:
                clock.advance(arg)
            pending = buf.bootstrap_pending
            current = buf.snapshot()
            if current is not view:
                assert clock.now() >= due or pending
                assert current.epoch > view.epoch
            view, due = current, buf.next_publish_due()
            assert due > clock.now()


class TestExactPercentileProperties:
    @given(st.lists(st.floats(min_value=1e-9, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    def test_bounded_by_min_max(self, values):
        ordered = sorted(values)
        for p in (0, 25, 50, 75, 100):
            result = percentile(ordered, p)
            assert ordered[0] <= result <= ordered[-1]

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    def test_p0_and_p100_are_extremes(self, values):
        ordered = sorted(values)
        assert percentile(ordered, 0) == ordered[0]
        assert percentile(ordered, 100) == ordered[-1]


class TestSlidingWindowProperties:
    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                              st.booleans(),
                              st.floats(min_value=0, max_value=0.05)),
                    max_size=200))
    def test_received_equals_accepted_plus_rejected(self, events):
        clock = ManualClock()
        window = SlidingWindowCounts(clock, duration=1.0, step=0.01)
        for key, ok, gap in events:
            clock.advance(gap)
            window.record(key, ok)
        for key in "abc":
            acc = window.accepted_count(key)
            recv = window.received_count(key)
            assert 0 <= acc <= recv
            assert 0.0 <= window.acceptance_ratio(key) <= 1.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0,
                    max_size=100))
    def test_stats_mean_bounded_by_extremes(self, values):
        stats = SlidingWindowStats(ManualClock(), duration=10.0, step=1.0)
        for value in values:
            stats.add(value)
        if values:
            assert min(values) - 1e-9 <= stats.mean() <= max(values) + 1e-9
        else:
            assert stats.mean() == 0.0


class TestSLOProperties:
    @given(st.dictionaries(st.integers(min_value=1, max_value=99),
                           st.floats(min_value=1e-4, max_value=10.0),
                           min_size=1, max_size=5))
    def test_sorted_targets_always_construct(self, raw):
        # Force monotonicity, then the SLO must accept the mapping.
        ordered = dict(sorted(raw.items()))
        running = 0.0
        fixed = {}
        for p, t in ordered.items():
            running = max(running, t)
            fixed[p] = running
        slo = LatencySLO(fixed)
        assert slo.is_met_by({p: t for p, t in fixed.items()})

    @given(st.floats(min_value=1e-4, max_value=1.0),
           st.floats(min_value=1.001, max_value=10.0))
    def test_violation_detected(self, target, factor):
        slo = LatencySLO({50: target})
        assert not slo.is_met_by({50: target * factor})
        assert slo.is_met_by({50: target})


class TestLognormalFitProperties:
    @given(st.floats(min_value=1e-4, max_value=0.1),
           st.floats(min_value=1.0, max_value=5.0))
    def test_fit_reproduces_moments(self, median, mean_ratio):
        mean = median * mean_ratio
        spec = QueryTypeSpec.from_mean_median("t", 1.0, mean=mean,
                                              median=median)
        assert math.isclose(spec.mean, mean, rel_tol=1e-9)
        assert math.isclose(spec.median, median, rel_tol=1e-9)
        assert spec.p90 >= spec.median


class TestVListProperties:
    @given(st.lists(st.integers(), max_size=500))
    def test_behaves_like_a_list(self, items):
        vlist = VList(items)
        assert len(vlist) == len(items)
        assert list(vlist) == items
        for idx in range(len(items)):
            assert vlist[idx] == items[idx]

    @given(st.lists(st.integers(), min_size=1, max_size=300),
           st.integers())
    def test_contains_matches_list(self, items, probe):
        vlist = VList(items)
        assert (probe in vlist) == (probe in items)


class TestPartitionProperties:
    @given(st.lists(st.text(min_size=1, max_size=20), max_size=100),
           st.integers(min_value=1, max_value=16))
    def test_group_by_shard_is_a_partition(self, vertices, shards):
        partitioner = HashPartitioner(shards)
        groups = partitioner.group_by_shard(vertices)
        assert sum(len(g) for g in groups) == len(vertices)
        rebuilt = sorted(v for g in groups for v in g)
        assert rebuilt == sorted(vertices)
