"""Unit tests for repro.core.histogram."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import (BucketLayout, LatencyHistogram,
                                  empty_snapshot)
from repro.exceptions import ConfigurationError


class TestBucketLayout:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            BucketLayout(min_value=0)
        with pytest.raises(ConfigurationError):
            BucketLayout(min_value=1.0, max_value=0.5)
        with pytest.raises(ConfigurationError):
            BucketLayout(growth=1.0)

    def test_index_for_small_values_clamps_to_zero(self):
        layout = BucketLayout(min_value=1e-6)
        assert layout.index_for(0.0) == 0
        assert layout.index_for(1e-9) == 0

    def test_index_for_large_values_clamps_to_last(self):
        layout = BucketLayout(max_value=10.0)
        assert layout.index_for(10.0) == layout.num_buckets - 1
        assert layout.index_for(1e6) == layout.num_buckets - 1

    def test_value_falls_within_its_bucket_bounds(self):
        layout = BucketLayout()
        for value in (1e-6, 3.7e-5, 0.00123, 0.018, 0.5, 7.0, 99.0):
            idx = layout.index_for(value)
            assert layout.lower_bound(idx) <= value < layout.upper_bound(idx)

    def test_bounds_are_monotone(self):
        layout = BucketLayout()
        bounds = [layout.lower_bound(i) for i in range(layout.num_buckets)]
        assert bounds == sorted(bounds)

    def test_compatibility(self):
        a = BucketLayout()
        b = BucketLayout()
        c = BucketLayout(growth=1.1)
        assert a.compatible_with(b)
        assert not a.compatible_with(c)


class TestLatencyHistogram:
    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean() == 0.0
        assert len(hist) == 0

    def test_record_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1.0)

    def test_mean_is_exact(self):
        hist = LatencyHistogram.from_values([0.010, 0.020, 0.030])
        assert hist.mean() == pytest.approx(0.020)

    def test_percentile_within_relative_error(self):
        values = [0.001 * i for i in range(1, 1001)]
        hist = LatencyHistogram.from_values(values)
        # True p50 is ~0.5; log-bucket approximation error <= growth - 1.
        assert hist.percentile(50) == pytest.approx(0.5, rel=0.05)
        assert hist.percentile(90) == pytest.approx(0.9, rel=0.05)
        assert hist.percentile(99) == pytest.approx(0.99, rel=0.05)

    def test_single_value_percentiles(self):
        hist = LatencyHistogram.from_values([0.018])
        for p in (1, 50, 99, 100):
            assert hist.percentile(p) == pytest.approx(0.018, rel=0.05)

    def test_percentile_monotone_in_p(self):
        hist = LatencyHistogram.from_values(
            [0.001, 0.003, 0.010, 0.050, 0.200])
        values = [hist.percentile(p) for p in (10, 25, 50, 75, 90, 99)]
        assert values == sorted(values)

    def test_merge_combines_counts_and_sum(self):
        a = LatencyHistogram.from_values([0.010] * 10)
        b = LatencyHistogram.from_values([0.030] * 10)
        a.merge(b)
        assert a.count == 20
        assert a.mean() == pytest.approx(0.020)

    def test_merge_rejects_incompatible_layouts(self):
        a = LatencyHistogram(BucketLayout())
        b = LatencyHistogram(BucketLayout(growth=1.2))
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_reset_clears_everything(self):
        hist = LatencyHistogram.from_values([0.01, 0.02])
        hist.reset()
        assert hist.count == 0
        assert hist.mean() == 0.0
        assert hist.snapshot().is_empty

    def test_values_above_max_clamp_instead_of_erroring(self):
        layout = BucketLayout(max_value=1.0)
        hist = LatencyHistogram(layout)
        hist.record(50.0)
        assert hist.count == 1
        assert hist.percentile(50) <= layout.upper_bound(
            layout.num_buckets - 1)


#: A small layout, so the ``max_value`` clamp is hit often.
CLAMPED = BucketLayout(max_value=10.0)
#: Values ``record`` treats specially: 0.0, the clamp edge and past it,
#: NaN, negatives and the infinities.
EDGE_VALUES = st.sampled_from([0.0, -0.0, 10.0, 11.0, float("inf"),
                               float("nan"), -1e-3, -float("inf")])


def _recorded(hist, record):
    """Feed ``hist`` through ``record`` and describe what it holds: the
    bucket counts, the count, the bit pattern of the sum and the error."""
    try:
        record(hist)
        error = None
    except ValueError as exc:
        error = str(exc)
    data = hist.snapshot().to_dict()
    return data["buckets"], data["count"], data["sum"].hex(), error


class TestRecordMany:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 20.0), EDGE_VALUES),
                    max_size=40))
    def test_equals_the_record_loop(self, values):
        def loop(hist):
            for value in values:
                hist.record(value)

        assert _recorded(LatencyHistogram(CLAMPED),
                         lambda hist: hist.record_many(values)) == \
            _recorded(LatencyHistogram(CLAMPED), loop)

    def test_nan_mid_batch_keeps_what_came_before(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError, match="NaN"):
            hist.record_many([0.001, 0.002, float("nan"), 0.003])
        assert hist.count == 2
        assert sum(hist.snapshot().to_dict()["buckets"].values()) == 2
        assert hist.mean() == (0.001 + 0.002) / 2


class TestHistogramSnapshot:
    def test_snapshot_is_isolated_from_later_records(self):
        hist = LatencyHistogram.from_values([0.010])
        snap = hist.snapshot()
        hist.record(0.100)
        assert snap.count == 1
        assert hist.count == 2

    def test_empty_snapshot_percentile_is_zero(self):
        snap = empty_snapshot()
        assert snap.is_empty
        assert snap.percentile(50) == 0.0
        assert snap.mean() == 0.0

    def test_percentile_rejects_out_of_range(self):
        snap = LatencyHistogram.from_values([0.01]).snapshot()
        with pytest.raises(ValueError):
            snap.percentile(0)
        with pytest.raises(ValueError):
            snap.percentile(101)

    def test_percentiles_batch_matches_individual(self):
        hist = LatencyHistogram.from_values(
            [0.001 * i for i in range(1, 500)])
        snap = hist.snapshot()
        batch = snap.percentiles([50, 90, 99])
        individual = [snap.percentile(p) for p in (50, 90, 99)]
        assert batch == pytest.approx(individual)

    def test_percentiles_batch_on_empty(self):
        assert empty_snapshot().percentiles([50, 90]) == [0.0, 0.0]

    def test_merged_with(self):
        a = LatencyHistogram.from_values([0.010] * 5).snapshot()
        b = LatencyHistogram.from_values([0.020] * 5).snapshot()
        merged = a.merged_with(b)
        assert merged.count == 10
        assert merged.mean() == pytest.approx(0.015)
        # Operands untouched.
        assert a.count == 5 and b.count == 5

    def test_merged_with_incompatible_layouts(self):
        a = LatencyHistogram(BucketLayout()).snapshot()
        b = LatencyHistogram(BucketLayout(growth=1.5)).snapshot()
        with pytest.raises(ConfigurationError):
            a.merged_with(b)
