"""Tests for the telemetry subsystem: registry, tracer, facade, wiring."""

import json
import threading

import pytest

from repro.bench import (cluster_config, cluster_policy_lineup,
                         make_bouncer, simulation_mix)
from repro.core import (AcceptanceAllowancePolicy, BouncerConfig,
                        BouncerPolicy, HostContext, LatencySLO, ManualClock,
                        QueueView, SLORegistry)
from repro.core.types import AdmissionResult, Query, RejectReason
from repro.exceptions import ConfigurationError
from repro.liquid import run_cluster_simulation
from repro.sim import run_simulation
from repro.telemetry import (DecisionTracer, MetricsRegistry, SpanRecorder,
                             Telemetry, TraceEvent, parse_jsonl)


def make_warm_bouncer(parallelism=4):
    clock = ManualClock()
    queue = QueueView()
    ctx = HostContext(clock=clock, queue=queue, parallelism=parallelism)
    policy = BouncerPolicy(ctx, BouncerConfig(
        slos=SLORegistry.uniform(LatencySLO.from_ms(p50=18, p90=50),
                                 ["fast", "slow"]),
        min_samples=1, retain_min_samples=1, bootstrap_samples=0))
    for _ in range(50):
        policy.on_completed(Query(qtype="slow"), 0.0, 0.030)
        policy.on_completed(Query(qtype="fast"), 0.0, 0.002)
    clock.advance(1.0)
    return policy, clock, queue


class TestMetricsRegistry:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        family = registry.counter("hits_total", "Hits.")
        family.labels(qtype="a").inc()
        family.labels(qtype="a").inc(2)
        assert family.labels(qtype="a").value == 3
        assert registry.counter_value("hits_total", qtype="a") == 3
        assert registry.counter_value("hits_total", qtype="b") == 0

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c_total").labels().inc(-1)

    def test_gauge_set(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "Depth.")
        gauge.labels(host="h").set(4.5)
        gauge.labels(host="h").dec(0.5)
        assert gauge.labels(host="h").value == 4.0

    def test_histogram_observe_and_render(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "Latency.")
        for value in (0.001, 0.002, 0.050):
            hist.labels(qtype="x").observe(value)
        text = registry.render()
        assert "repro_telemetry_lat_seconds_count" in text
        assert 'le="+Inf"' in text
        assert "repro_telemetry_lat_seconds_sum" in text
        # Cumulative semantics: the +Inf bucket equals the count.
        assert 'qtype="x",le="+Inf"} 3' in text
        assert '_count{qtype="x"} 3' in text

    def test_clamped_observation_is_counted_only_under_inf(self):
        # 200 s is past the layout's 100 s clamp: it lands in the last
        # bucket, whose finite edge would claim it was below that edge.
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "Latency.")
        hist.labels().observe(0.001)
        hist.labels().observe(200.0)
        buckets = [line for line in registry.render().splitlines()
                   if "_bucket" in line]
        assert len(buckets) == 2
        assert buckets[0].endswith(" 1") and 'le="+Inf"' not in buckets[0]
        assert buckets[1] == 'repro_telemetry_lat_seconds_bucket{le="+Inf"} 2'

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("thing_total")

    def test_render_escapes_hostile_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c_total").labels(qtype='a\nb"c\\d').inc()
        text = registry.render()
        assert "\\n" in text and '\\"' in text and "\\\\" in text
        # No raw newline may survive inside a label value.
        for line in text.splitlines():
            assert line.startswith(("#", "repro_telemetry_"))

    def test_concurrent_increments_are_lossless(self):
        registry = MetricsRegistry()
        child = registry.counter("n_total").labels()

        def spin():
            for _ in range(5000):
                child.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert child.value == 20000


class TestDecisionTracer:
    def test_sampling_is_deterministic_and_bounded(self):
        tracer = DecisionTracer(sample_rate=0.5)
        verdicts = [tracer.sampled(i) for i in range(2000)]
        assert verdicts == [tracer.sampled(i) for i in range(2000)]
        rate = sum(verdicts) / len(verdicts)
        assert 0.35 < rate < 0.65

    def test_rate_extremes(self):
        assert all(DecisionTracer(sample_rate=1.0).sampled(i)
                   for i in range(100))
        assert not any(DecisionTracer(sample_rate=0.0).sampled(i)
                       for i in range(100))

    def test_ring_buffer_eviction_and_dropped(self):
        tracer = DecisionTracer(capacity=10)
        for i in range(25):
            tracer.record(TraceEvent(event="decision", point=1, ts=float(i),
                                     query_id=i, qtype="t"))
        assert len(tracer) == 10
        assert tracer.dropped == 15
        assert [e.query_id for e in tracer.events()] == list(range(15, 25))
        assert [e.query_id for e in tracer.events(limit=3)] == [22, 23, 24]

    def test_jsonl_round_trip(self, tmp_path):
        tracer = DecisionTracer()
        tracer.record(TraceEvent(
            event="decision", point=1, ts=1.5, query_id=7, qtype="edge",
            host="broker-0", accepted=False, reason="slo_estimate",
            queue_length=3, ewt_mean=0.004,
            ert={"50": 0.02, "90": 0.06}, slo={"50": 0.018, "90": 0.05},
            cold_start=False))
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(str(path)) == 1
        events = parse_jsonl(path.read_text())
        assert len(events) == 1
        event = events[0]
        assert event.qtype == "edge" and event.reason == "slo_estimate"
        assert event.ert == {"50": 0.02, "90": 0.06}
        assert event.slo["90"] == 0.05

    def test_none_fields_omitted_from_json(self):
        event = TraceEvent(event="dequeue", point=2, ts=0.0, query_id=1,
                           qtype="t", wait_time=0.25)
        data = json.loads(event.to_json())
        assert "reason" not in data and "ert" not in data
        assert data["wait_time"] == 0.25

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            DecisionTracer(capacity=0)
        with pytest.raises(ConfigurationError):
            DecisionTracer(sample_rate=1.5)


def filled_tracer():
    tracer = DecisionTracer()
    for i in range(3):
        tracer.record(TraceEvent(event="decision", point=1, ts=float(i),
                                 query_id=i, qtype="t"))
    return tracer, tracer.events


def filled_span_recorder():
    recorder = SpanRecorder()
    for i in range(3):
        recorder.record_trace(i, "t", "h", float(i), i + 0.5)
    return recorder, recorder.spans


@pytest.mark.parametrize("fill", [filled_tracer, filled_span_recorder])
def test_limit_keeps_the_newest_n_and_zero_keeps_none(fill, tmp_path):
    # ``/traces?limit=0`` and ``/spans?limit=0`` (and a negative limit,
    # which the handler clamps to 0) land here with ``limit=0``.
    sink, records = fill()
    assert records(limit=0) == []
    assert records(limit=2) == records()[1:]
    assert records(limit=5) == records()
    assert sink.render_jsonl(limit=0) == ""
    path = tmp_path / "out.jsonl"
    assert sink.export_jsonl(str(path), limit=0) == 0
    assert path.read_text() == ""


class TestTelemetryFacade:
    def test_decision_counters_and_trace(self):
        policy, clock, queue = make_warm_bouncer()
        telemetry = Telemetry(tracer=DecisionTracer(sample_rate=1.0))
        query = Query(qtype="slow")
        result = policy.decide(query)
        assert not result.accepted
        telemetry.on_decision(query, result, now=clock.now(),
                              queue_length=queue.length(), policy=policy)
        assert telemetry.registry.counter_value(
            "rejected_total", host="main", qtype="slow",
            reason="slo_estimate") == 1
        (event,) = telemetry.tracer.events()
        assert event.event == "decision" and event.accepted is False
        assert event.ewt_mean is not None
        assert event.cold_start is False
        assert set(event.slo) == {"50", "90"}
        assert event.ert  # estimates rode along on the AdmissionResult

    def test_bouncer_unwrapped_through_starvation_wrapper(self):
        policy, clock, queue = make_warm_bouncer()
        wrapper = AcceptanceAllowancePolicy(policy, clock, allowance=0.05,
                                            seed=1)
        telemetry = Telemetry(tracer=DecisionTracer(sample_rate=1.0))
        query = Query(qtype="fast")
        result = wrapper.decide(query)
        telemetry.on_decision(query, result, now=clock.now(),
                              queue_length=0, policy=wrapper)
        (event,) = telemetry.tracer.events()
        assert event.slo  # found the Bouncer inside the wrapper

    def test_point_2_and_3_measured_times(self):
        telemetry = Telemetry(tracer=DecisionTracer(sample_rate=1.0))
        query = Query(qtype="t")
        query.enqueued_at = 1.0
        query.dequeued_at = 1.25
        telemetry.on_dequeue(query, now=1.25)
        query.completed_at = 1.75
        telemetry.on_completion(query, now=1.75)
        dequeue, completion = telemetry.tracer.events()
        assert dequeue.wait_time == pytest.approx(0.25)
        assert completion.processing_time == pytest.approx(0.5)
        assert completion.response_time == pytest.approx(0.75)
        assert "queue_wait_seconds" in telemetry.registry.render()

    def test_expired_and_policy_error_counters(self):
        telemetry = Telemetry()
        query = Query(qtype="t")
        telemetry.on_expired(query, now=0.0)
        telemetry.on_policy_error()
        assert telemetry.expired_count == 1
        assert telemetry.policy_error_count == 1

    def test_scoped_views_share_registry_and_tracer(self):
        telemetry = Telemetry(tracer=DecisionTracer(sample_rate=1.0))
        scoped = telemetry.scoped("broker-1")
        assert scoped.registry is telemetry.registry
        assert scoped.tracer is telemetry.tracer
        scoped.on_decision(Query(qtype="t"), AdmissionResult.accept(),
                           now=0.0)
        assert telemetry.registry.counter_value(
            "accepted_total", host="broker-1", qtype="t") == 1
        (event,) = telemetry.tracer.events()
        assert event.host == "broker-1"

    def test_no_tracer_means_no_events_but_counters_work(self):
        telemetry = Telemetry()
        telemetry.on_decision(
            Query(qtype="t"),
            AdmissionResult.reject(RejectReason.QUEUE_FULL), now=0.0)
        assert telemetry.tracer is None
        assert telemetry.registry.counter_value(
            "rejected_total", host="main", qtype="t",
            reason="queue_full") == 1


class TestSimulationIntegration:
    def test_simulated_server_fires_all_metric_points(self):
        telemetry = Telemetry(tracer=DecisionTracer(capacity=200000,
                                                    sample_rate=1.0),
                              host="sim0")
        mix = simulation_mix()
        run_simulation(mix, make_bouncer(),
                       rate_qps=1.2 * mix.full_load_qps(20),
                       num_queries=1500, parallelism=20, seed=3,
                       telemetry=telemetry)
        kinds = {}
        for event in telemetry.tracer.events():
            kinds[event.event] = kinds.get(event.event, 0) + 1
        assert kinds.get("decision", 0) > 0
        assert kinds.get("dequeue", 0) > 0
        assert kinds.get("completion", 0) > 0
        # Every accepted-and-served query crosses points 2 and 3 equally.
        assert kinds["dequeue"] == kinds["completion"]
        text = telemetry.render()
        assert 'repro_telemetry_accepted_total{host="sim0"' in text

    def test_cluster_hosts_are_attributed(self):
        telemetry = Telemetry(tracer=DecisionTracer(capacity=50000,
                                                    sample_rate=0.25))
        factory = dict(cluster_policy_lineup())["Bouncer+AA"]
        run_cluster_simulation(cluster_config(seed=5), factory,
                               rate_qps=9000, num_queries=800, seed=5,
                               telemetry=telemetry)
        text = telemetry.render()
        assert 'host="broker-0"' in text
        assert 'host="shard-0"' in text
        hosts = {event.host for event in telemetry.tracer.events()}
        assert any(h and h.startswith("broker-") for h in hosts)
        assert any(h and h.startswith("shard-") for h in hosts)

    def test_uninstrumented_run_matches_instrumented(self):
        """Telemetry must observe, never perturb: same seed, same report."""
        mix = simulation_mix()
        kwargs = dict(rate_qps=1.1 * mix.full_load_qps(10),
                      num_queries=800, parallelism=10, seed=7)
        plain = run_simulation(mix, make_bouncer(), **kwargs)
        telemetry = Telemetry(tracer=DecisionTracer(sample_rate=1.0))
        traced = run_simulation(mix, make_bouncer(), telemetry=telemetry,
                                **kwargs)
        assert plain.overall.completed == traced.overall.completed
        assert plain.overall.rejected == traced.overall.rejected
        assert plain.overall.response == traced.overall.response


class TestFastPathCounters:
    def test_record_fast_path_delta_syncs(self):
        policy, clock, queue = make_warm_bouncer()
        queue.on_enqueue("fast")
        for _ in range(5):
            policy.decide(Query(qtype="fast"))
        telemetry = Telemetry()
        telemetry.record_fast_path(policy)
        hits = telemetry.registry.counter_value("estimator_cache_hits",
                                                host="main")
        misses = telemetry.registry.counter_value("estimator_cache_misses",
                                                  host="main")
        assert hits == policy.fast_path_stats.cache_hits > 0
        assert misses == policy.fast_path_stats.cache_misses > 0
        # Re-sync without new activity: counters must not double-count.
        telemetry.record_fast_path(policy)
        assert telemetry.registry.counter_value("estimator_cache_hits",
                                                host="main") == hits
        # New decisions add only the delta.
        policy.decide(Query(qtype="fast"))
        telemetry.record_fast_path(policy)
        assert telemetry.registry.counter_value(
            "estimator_cache_hits",
            host="main") == policy.fast_path_stats.cache_hits

    def test_counters_flow_through_decision_hook(self):
        policy, clock, queue = make_warm_bouncer()
        queue.on_enqueue("fast")
        telemetry = Telemetry()
        query = Query(qtype="fast")
        result = policy.decide(query)
        telemetry.on_decision(query, result, now=0.0, policy=policy)
        text = telemetry.render()
        assert "estimator_cache_hits" in text or (
            "estimator_cache_misses" in text)

    def test_non_bouncer_policy_is_ignored(self):
        telemetry = Telemetry()
        from repro.core import AlwaysAcceptPolicy

        telemetry.record_fast_path(AlwaysAcceptPolicy())
        assert telemetry.registry.counter_value("estimator_cache_hits",
                                                host="main") == 0.0
