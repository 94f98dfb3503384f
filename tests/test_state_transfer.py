"""Tests for histogram snapshot serialization and Bouncer state transfer
(Appendix A's pre-populated-histogram deployment)."""

import json

import pytest

from repro.core import (BouncerConfig, BouncerPolicy, DualBufferHistogram,
                        HistogramSnapshot, HostContext, LatencyHistogram,
                        LatencySLO, ManualClock, QueueView, SLORegistry)
from repro.core.histogram import BucketLayout
from repro.core.types import Query
from repro.exceptions import ConfigurationError

SLO = LatencySLO.from_ms(p50=18, p90=50)


def make_bouncer(clock=None, **config):
    clock = clock or ManualClock()
    ctx = HostContext(clock=clock, queue=QueueView(), parallelism=4)
    defaults = dict(min_samples=1, retain_min_samples=1,
                    bootstrap_samples=0)
    defaults.update(config)
    policy = BouncerPolicy(ctx, BouncerConfig(
        slos=SLORegistry.uniform(SLO, ["fast", "slow"]), **defaults))
    return policy, clock


class TestSnapshotSerialization:
    def test_round_trip_preserves_statistics(self):
        hist = LatencyHistogram.from_values(
            [0.001, 0.005, 0.012, 0.012, 0.030, 0.080])
        snap = hist.snapshot()
        restored = HistogramSnapshot.from_dict(snap.to_dict())
        assert restored.count == snap.count
        assert restored.mean() == pytest.approx(snap.mean())
        for p in (50, 90, 99):
            assert restored.percentile(p) == pytest.approx(
                snap.percentile(p))

    def test_round_trip_through_json(self):
        snap = LatencyHistogram.from_values([0.010] * 100).snapshot()
        payload = json.dumps(snap.to_dict())
        restored = HistogramSnapshot.from_dict(json.loads(payload))
        assert restored.mean() == pytest.approx(0.010)

    def test_sparse_encoding(self):
        snap = LatencyHistogram.from_values([0.010]).snapshot()
        data = snap.to_dict()
        assert len(data["buckets"]) == 1  # one occupied bucket only

    def test_from_dict_validates_bucket_index(self):
        snap = LatencyHistogram.from_values([0.010]).snapshot()
        data = snap.to_dict()
        data["buckets"] = {"999999": 1}
        with pytest.raises(ConfigurationError):
            HistogramSnapshot.from_dict(data)

    def test_from_dict_validates_count(self):
        snap = LatencyHistogram.from_values([0.010]).snapshot()
        data = snap.to_dict()
        data["count"] = 5
        with pytest.raises(ConfigurationError):
            HistogramSnapshot.from_dict(data)

    def test_layout_round_trip(self):
        layout = BucketLayout(min_value=1e-5, max_value=10.0, growth=1.1)
        restored = BucketLayout.from_dict(layout.to_dict())
        assert restored.compatible_with(layout)


class TestDualBufferPreload:
    def test_preload_serves_reads_immediately(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=10.0)
        snap = LatencyHistogram.from_values([0.020] * 50).snapshot()
        buf.preload(snap)
        assert buf.snapshot().mean() == pytest.approx(0.020)

    def test_preload_rejects_incompatible_layout(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0)
        other = LatencyHistogram(BucketLayout(growth=1.5)).snapshot()
        with pytest.raises(ConfigurationError):
            buf.preload(other)

    def test_live_data_replaces_preload_after_interval(self):
        clock = ManualClock()
        buf = DualBufferHistogram(clock, interval=1.0, min_samples=1)
        buf.preload(LatencyHistogram.from_values([0.500] * 50).snapshot())
        for _ in range(20):
            buf.record(0.001)
        clock.advance(1.0)
        assert buf.snapshot().mean() == pytest.approx(0.001)


class TestBouncerStateTransfer:
    def test_export_import_round_trip(self):
        old, old_clock = make_bouncer()
        for value in (0.030, 0.032, 0.031, 0.029):
            old.on_completed(Query(qtype="slow"), 0.0, value)
        for value in (0.001, 0.002):
            old.on_completed(Query(qtype="fast"), 0.0, value)
        old_clock.advance(1.0)
        old.processing_snapshot("slow")  # publish
        old.processing_snapshot("fast")
        state = old.export_state()

        fresh, _ = make_bouncer()
        fresh.import_state(state)
        assert fresh.processing_snapshot("slow").count == 4
        assert fresh.processing_snapshot("slow").mean() == pytest.approx(
            0.0305, rel=0.05)
        assert fresh.general_snapshot().count == 6

    def test_imported_state_drives_decisions_without_warmup(self):
        # Exported histograms show the slow type over the SLO; a freshly
        # deployed policy must reject it with zero local observations.
        old, old_clock = make_bouncer()
        for _ in range(50):
            old.on_completed(Query(qtype="slow"), 0.0, 0.030)
        old_clock.advance(1.0)
        old.processing_snapshot("slow")
        state = old.export_state()

        fresh, _ = make_bouncer(min_samples=10)
        assert fresh.decide(Query(qtype="slow")).accepted  # blank -> lenient
        fresh.import_state(state)
        assert not fresh.decide(Query(qtype="slow")).accepted

    def test_state_survives_json(self):
        old, old_clock = make_bouncer()
        for _ in range(10):
            old.on_completed(Query(qtype="fast"), 0.0, 0.002)
        old_clock.advance(1.0)
        old.processing_snapshot("fast")
        payload = json.dumps(old.export_state())
        fresh, _ = make_bouncer()
        fresh.import_state(json.loads(payload))
        assert fresh.processing_snapshot("fast").count == 10

    def test_empty_types_not_exported(self):
        policy, clock = make_bouncer()
        policy.processing_snapshot("never-seen")  # lazily created, empty
        state = policy.export_state()
        assert "never-seen" not in state["types"]

    def test_malformed_import_installs_nothing(self):
        # The second type's payload is malformed: the import must refuse
        # the whole payload, not keep the general histogram and the first
        # type, and decisions must still come from the views it kept.
        old, old_clock = make_bouncer()
        for qtype in ("fast", "slow"):
            for _ in range(10):
                old.on_completed(Query(qtype=qtype), 0.0, 0.030)
        old_clock.advance(1.0)
        state = old.export_state()
        state["types"]["slow"]["count"] += 1

        fresh, _ = make_bouncer(min_samples=10)
        assert fresh.decide(Query(qtype="fast")).accepted  # blank -> lenient
        with pytest.raises(ConfigurationError):
            fresh.import_state(state)
        assert fresh.general_snapshot().count == 0
        assert fresh.processing_snapshot("fast").count == 0
        assert fresh.decide(Query(qtype="fast")).accepted

    def test_import_tolerates_missing_general(self):
        policy, _ = make_bouncer()
        policy.import_state({"types": {}})  # must not raise


def _published_state(clock_policy):
    """Export from a policy that published 10 x 30 ms for both types."""
    old, old_clock = clock_policy
    for qtype in ("fast", "slow"):
        for _ in range(10):
            old.on_completed(Query(qtype=qtype), 0.0, 0.030)
    old_clock.advance(1.0)
    return old.export_state()


def _break_count(payload):
    payload["count"] += 1


def _break_bucket(payload):
    payload["buckets"] = {"999999": payload["count"]}


def _break_layout(payload):
    payload["layout"] = BucketLayout(growth=1.5).to_dict()


class TestImportIsAllOrNothing:
    """Whatever part of the payload is malformed, and however it is, the
    import refuses the whole payload before installing anything."""

    @pytest.mark.parametrize("where, breaks", [
        ("general", _break_count),
        ("slow", _break_bucket),
        ("slow", _break_layout),
        ("general", _break_layout),
    ])
    def test_malformed_payload_changes_nothing(self, where, breaks):
        state = _published_state(make_bouncer())
        breaks(state["general"] if where == "general"
               else state["types"][where])

        fresh, clock = make_bouncer()
        for _ in range(4):
            fresh.on_completed(Query(qtype="fast"), 0.0, 0.001)
        clock.advance(1.0)
        before = (fresh.general_snapshot(), fresh.processing_snapshot("fast"),
                  fresh.processing_snapshot("slow"))
        with pytest.raises(ConfigurationError):
            fresh.import_state(state)
        after = (fresh.general_snapshot(), fresh.processing_snapshot("fast"),
                 fresh.processing_snapshot("slow"))
        assert all(a is b for a, b in zip(after, before))

    def test_live_data_replaces_the_import_after_an_interval(self):
        state = _published_state(make_bouncer())
        policy, clock = make_bouncer(min_samples=10)
        clock.advance(0.4)
        policy.import_state(state)
        assert not policy.decide(Query(qtype="slow")).accepted
        for _ in range(20):
            policy.on_completed(Query(qtype="slow"), 0.0, 0.001)
        clock.advance(0.999)  # the import restarted the interval at 0.4
        assert not policy.decide(Query(qtype="slow")).accepted
        clock.advance(0.001)
        assert policy.decide(Query(qtype="slow")).accepted
        assert policy.processing_snapshot("slow").count == 20

    def test_import_equals_preload_of_the_parsed_payload(self):
        state = _published_state(make_bouncer())
        imported, _ = make_bouncer()
        imported.import_state(state)
        preloaded, _ = make_bouncer()
        preloaded.preload_snapshots(
            {qtype: HistogramSnapshot.from_dict(payload)
             for qtype, payload in state["types"].items()},
            HistogramSnapshot.from_dict(state["general"]))
        assert imported.export_state() == preloaded.export_state()
        for qtype in ("fast", "slow", "other"):
            a = imported.estimate(qtype)
            b = preloaded.estimate(qtype)
            assert (a.response, a.cold_start) == (b.response, b.cold_start)

    def test_empty_payloads_keep_the_live_views(self):
        policy, clock = make_bouncer()
        for _ in range(4):
            policy.on_completed(Query(qtype="fast"), 0.0, 0.001)
        clock.advance(1.0)
        live = policy.processing_snapshot("fast")
        empty = LatencyHistogram().snapshot().to_dict()
        policy.import_state({"general": empty, "types": {"fast": empty}})
        assert policy.processing_snapshot("fast") is live
        assert policy.general_snapshot().count == 4

    def test_layouts_are_checked_against_the_configured_one(self):
        coarse = BucketLayout(growth=1.5)
        source, clock = make_bouncer(layout=coarse)
        for _ in range(10):
            source.on_completed(Query(qtype="slow"), 0.0, 0.030)
        clock.advance(1.0)
        state = source.export_state()

        default_layout, _ = make_bouncer()
        with pytest.raises(ConfigurationError):
            default_layout.import_state(state)
        assert default_layout.general_snapshot().is_empty
        same_layout, _ = make_bouncer(layout=coarse)
        same_layout.import_state(state)
        assert same_layout.processing_snapshot("slow").count == 10
