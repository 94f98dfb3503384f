"""Tests for lifecycle span recording (``repro.tracing``).

Covers the span model, deterministic sampling, the batched lifecycle
hot path (``open_lifecycle`` / ``transition_execute`` /
``finish_lifecycle``), export formats (JSONL + Chrome trace events), the
critical-path summary, and the PR's acceptance gate: a Figure-6 seeded
run must make bit-identical admission decisions with span tracing on
and off.
"""

import json

import pytest

from repro.bench.experiments import (cluster_config, cluster_slos,
                                     make_bouncer, simulation_mix)
from repro.exceptions import ConfigurationError
from repro.faults import NAMED_PLANS, FaultInjector, named_plan
from repro.liquid.cluster_sim import ResilienceConfig, run_cluster_simulation
from repro.sim.driver import run_simulation
from repro.telemetry import (CalibrationTracker, DecisionTracer, Span,
                             SpanContext, SpanRecorder, Telemetry,
                             load_spans_jsonl, parse_spans_jsonl,
                             render_chrome_trace, render_span_report,
                             summarize_spans)
from repro.telemetry.spans import _EMPTY_ATTRS


class TestSpanModel:
    def test_round_trip_dict_and_json(self):
        span = Span(trace_id=7, span_id=2, parent_id=1, name="execute",
                    qtype="edge", host="srv", start=1.5, end=2.0,
                    status="error", attrs={"shard": 3})
        clone = Span.from_dict(json.loads(span.to_json()))
        assert clone.to_dict() == span.to_dict()
        assert clone.duration == pytest.approx(0.5)

    def test_open_span_has_no_duration(self):
        span = Span(trace_id=1, span_id=1, parent_id=None, name="query",
                    qtype="q", host="h", start=0.0)
        assert span.duration is None
        assert span.end is None
        assert "trace=1" in repr(span)

    def test_empty_attrs_sentinel_is_copied_on_write(self):
        recorder = SpanRecorder(sample_rate=1.0)
        first = recorder.begin_trace(1, "q", "h", 0.0)
        second = recorder.begin_trace(2, "q", "h", 0.0)
        first.annotate(shard=1)
        # The shared sentinel must never be mutated through a span.
        assert _EMPTY_ATTRS == {}
        assert second.attrs == {}
        assert first.attrs == {"shard": 1}
        first.finish(1.0)
        second.finish(1.0, attrs_via_finish=True)
        assert second.attrs == {"attrs_via_finish": True}
        assert _EMPTY_ATTRS == {}

    def test_finish_is_idempotent_first_close_wins(self):
        recorder = SpanRecorder(sample_rate=1.0)
        span = recorder.begin_trace(1, "q", "h", 0.0)
        span.finish(1.0, status="expired")
        span.finish(9.0, status="ok")
        assert span.end == 1.0 and span.status == "expired"
        assert recorder.recorded == 1


class TestRecorderValidation:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SpanRecorder(capacity=0)

    def test_sample_rate_must_be_a_fraction(self):
        with pytest.raises(ConfigurationError):
            SpanRecorder(sample_rate=1.5)
        with pytest.raises(ConfigurationError):
            SpanRecorder(sample_rate=-0.1)


class TestDeterministicSampling:
    def test_verdict_matches_decision_tracer(self):
        recorder = SpanRecorder(sample_rate=0.3)
        tracer = DecisionTracer(sample_rate=0.3)
        calibration = CalibrationTracker(sample_rate=0.3)
        verdicts = [recorder.sampled(i) for i in range(500)]
        assert verdicts == [tracer.sampled(i) for i in range(500)]
        assert verdicts == [calibration.sampled(i) for i in range(500)]
        assert 0 < sum(verdicts) < 500

    def test_rate_extremes(self):
        assert all(SpanRecorder(sample_rate=1.0).sampled(i)
                   for i in range(50))
        assert not any(SpanRecorder(sample_rate=0.0).sampled(i)
                       for i in range(50))

    def test_unsampled_lifecycle_is_a_noop(self):
        recorder = SpanRecorder(sample_rate=0.0)
        assert recorder.open_lifecycle(1, "q", "h", 0.0, 0.0) is None
        assert recorder.begin_trace(1, "q", "h", 0.0) is None
        assert not recorder.record_trace(1, "q", "h", 0.0, 1.0)
        assert len(recorder) == 0 and recorder.open_count == 0


class TestLifecycleHotPath:
    def test_happy_path_produces_three_closed_spans(self):
        recorder = SpanRecorder(sample_rate=1.0)
        ctx = recorder.open_lifecycle(41, "edge", "srv", 0.0, 0.1)
        assert ctx.root.span_id == 1 and ctx.root.parent_id is None
        assert ctx.queue.span_id == 2 and ctx.queue.parent_id == 1
        assert recorder.open_count == 2
        recorder.transition_execute(ctx, 0.4, "srv")
        assert ctx.queue is None
        assert ctx.execute.name == "execute"
        assert ctx.execute.span_id == 3
        assert recorder.open_count == 2  # root + execute
        recorder.finish_lifecycle(ctx, 1.0, "ok")
        assert recorder.open_count == 0
        assert recorder.recorded == 3
        spans = {s.name: s for s in recorder.spans()}
        assert spans["query"].duration == pytest.approx(1.0)
        assert spans["queue_wait"].duration == pytest.approx(0.3)
        assert spans["execute"].duration == pytest.approx(0.6)
        assert all(s.status == "ok" for s in spans.values())
        assert {s.trace_id for s in spans.values()} == {41}

    def test_expiry_in_queue_marks_queue_and_root(self):
        recorder = SpanRecorder(sample_rate=1.0)
        ctx = recorder.open_lifecycle(7, "edge", "srv", 0.0, 0.0)
        recorder.finish_lifecycle(ctx, 0.5, "expired")
        spans = {s.name: s for s in recorder.spans()}
        assert set(spans) == {"query", "queue_wait"}
        assert spans["query"].status == "expired"
        assert spans["queue_wait"].status == "expired"
        assert recorder.open_count == 0

    def test_execution_failure_leaves_queue_neutral(self):
        recorder = SpanRecorder(sample_rate=1.0)
        ctx = recorder.open_lifecycle(7, "edge", "srv", 0.0, 0.0)
        recorder.transition_execute(ctx, 0.2, "srv")
        recorder.finish_lifecycle(ctx, 0.6, "error")
        spans = {s.name: s for s in recorder.spans()}
        # The queue phase ended normally at dequeue; only the execution
        # phase (and the root) carry the failure.
        assert spans["queue_wait"].status == "ok"
        assert spans["execute"].status == "error"
        assert spans["query"].status == "error"

    def test_finish_lifecycle_is_idempotent(self):
        recorder = SpanRecorder(sample_rate=1.0)
        ctx = recorder.open_lifecycle(7, "edge", "srv", 0.0, 0.0)
        recorder.transition_execute(ctx, 0.2, "srv")
        recorder.finish_lifecycle(ctx, 0.6, "ok")
        recorder.finish_lifecycle(ctx, 9.9, "error")
        assert recorder.recorded == 3
        assert all(s.end <= 0.6 for s in recorder.spans())

    def test_rejection_records_single_span_trace(self):
        recorder = SpanRecorder(sample_rate=1.0)
        assert recorder.record_trace(9, "edge", "srv", 0.0, 0.01,
                                     status="rejected",
                                     reason="queue_full")
        (span,) = recorder.spans()
        assert span.parent_id is None and span.status == "rejected"
        assert span.attrs == {"reason": "queue_full"}
        assert recorder.open_count == 0

    def test_adopted_context_uses_shard_execute_name(self):
        # A shard adopts a root opened by the broker's recorder: the
        # context is NOT the trace's allocator, so its spans go through
        # the open-span table instead of the lifecycle fast path.
        recorder = SpanRecorder(sample_rate=1.0)
        attempt = recorder.begin_trace(11, "edge", "broker", 0.0,
                                       name="shard_attempt")
        ctx = SpanContext(attempt, execute_name="shard_execute")
        ctx.queue = attempt.child_span("queue_wait", 0.1, host="shard-0")
        assert recorder.open_count == 2
        recorder.transition_execute(ctx, 0.3, "shard-0")
        assert ctx.execute.name == "shard_execute"
        assert ctx.execute.parent_id == attempt.span_id
        recorder.finish_lifecycle(ctx, 0.9, "ok")
        assert recorder.open_count == 0
        assert recorder.recorded == 3
        names = [s.name for s in recorder.spans()]
        assert names == ["queue_wait", "shard_execute", "shard_attempt"]

    def test_child_span_and_marker_under_begin_trace(self):
        recorder = SpanRecorder(sample_rate=1.0)
        root = recorder.begin_trace(5, "edge", "broker", 0.0)
        child = root.child_span("fanout_round", 0.1, round=0)
        child.marker("fault", 0.2, status="fault", kind="stall")
        child.finish(0.5)
        root.finish(0.6)
        spans = recorder.spans()
        assert [s.span_id for s in spans] == [3, 2, 1]  # close order
        by_name = {s.name: s for s in spans}
        assert by_name["fault"].parent_id == by_name["fanout_round"].span_id
        assert by_name["fault"].duration == 0.0
        assert by_name["fault"].attrs == {"kind": "stall"}

    def test_open_spans_snapshot_and_clear(self):
        recorder = SpanRecorder(sample_rate=1.0)
        ctx = recorder.open_lifecycle(3, "edge", "srv", 0.0, 0.0)
        loose = recorder.begin_trace(5, "slow", "srv", 0.0)
        open_names = sorted(s.name for s in recorder.open_spans())
        assert open_names == ["query", "query", "queue_wait"]
        assert recorder.open_count == 3
        recorder.clear()
        assert recorder.open_count == 0 and len(recorder) == 0
        assert recorder.recorded == 0
        # Keep references alive past the snapshot assertion.
        assert ctx.root is not None and loose is not None

    def test_ring_buffer_eviction_counts_dropped(self):
        recorder = SpanRecorder(capacity=4, sample_rate=1.0)
        for i in range(10):
            recorder.record_trace(i, "q", "h", float(i), i + 0.5)
        assert len(recorder) == 4
        assert recorder.recorded == 10
        assert recorder.dropped == 6
        assert [s.trace_id for s in recorder.spans()] == [6, 7, 8, 9]

    def test_spans_limit_and_qtype_filter(self):
        recorder = SpanRecorder(sample_rate=1.0)
        for i in range(6):
            recorder.record_trace(i, "edge" if i % 2 else "slow", "h",
                                  float(i), i + 0.5)
        assert [s.trace_id for s in recorder.spans(limit=2)] == [4, 5]
        edge = recorder.spans(qtype="edge")
        assert [s.trace_id for s in edge] == [1, 3, 5]
        assert [s.trace_id
                for s in recorder.spans(limit=1, qtype="edge")] == [5]


class TestExportFormats:
    def fill(self, recorder):
        ctx = recorder.open_lifecycle(2, "edge", "srv", 0.0, 0.0)
        recorder.transition_execute(ctx, 0.2, "srv")
        recorder.finish_lifecycle(ctx, 0.7, "ok")
        recorder.record_trace(3, "slow", "broker", 1.0, 1.1,
                              status="rejected", reason="queue_full")

    def test_jsonl_round_trip(self, tmp_path):
        recorder = SpanRecorder(sample_rate=1.0)
        self.fill(recorder)
        text = recorder.render_jsonl()
        assert text.endswith("\n")
        parsed = parse_spans_jsonl(text)
        assert [s.to_dict() for s in parsed] == \
            [s.to_dict() for s in recorder.spans()]
        path = tmp_path / "spans.jsonl"
        assert recorder.export_jsonl(str(path)) == 4
        assert [s.to_dict() for s in load_spans_jsonl(str(path))] == \
            [s.to_dict() for s in recorder.spans()]
        assert recorder.render_jsonl(qtype="nope") == ""

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_spans_jsonl('{"trace_id": 1, "span_id": 1, "name": "q",'
                              ' "qtype": "t", "start": 0.0}\nnot json\n')

    def test_chrome_trace_structure(self):
        recorder = SpanRecorder(sample_rate=1.0)
        self.fill(recorder)
        doc = json.loads(recorder.render_chrome())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in meta} == {"srv", "broker"}
        assert len(slices) == 4
        root = next(e for e in slices if e["name"] == "query")
        assert root["ts"] == 0.0 and root["dur"] == pytest.approx(7e5)
        assert root["tid"] == 2 and root["args"]["status"] == "ok"
        rejected = next(e for e in slices if e["args"].get("reason"))
        assert rejected["args"]["status"] == "rejected"

    def test_export_chrome_writes_loadable_file(self, tmp_path):
        recorder = SpanRecorder(sample_rate=1.0)
        self.fill(recorder)
        path = tmp_path / "trace.json"
        assert recorder.export_chrome(str(path)) == 4
        assert json.loads(path.read_text())["traceEvents"]

    def test_render_chrome_skips_open_spans(self):
        recorder = SpanRecorder(sample_rate=1.0)
        root = recorder.begin_trace(1, "q", "h", 0.0)
        doc = json.loads(render_chrome_trace(recorder.open_spans()))
        assert [e["ph"] for e in doc["traceEvents"]] == ["M"]
        root.finish(1.0)


class TestSummarizeSpans:
    def test_critical_path_categories(self):
        recorder = SpanRecorder(sample_rate=1.0)
        ctx = recorder.open_lifecycle(2, "edge", "srv", 0.0, 0.1)
        recorder.transition_execute(ctx, 0.4, "srv")
        retry = ctx.execute.child_span("retry", 0.5, attempt=1)
        retry.finish(0.6)
        recorder.finish_lifecycle(ctx, 1.0, "ok")
        recorder.record_trace(3, "edge", "srv", 0.0, 0.2,
                              status="rejected", reason="queue_full")
        recorder.record_trace(5, "slow", "srv", 0.0, 2.0,
                              status="expired")
        per_type = summarize_spans(recorder.spans())
        edge = per_type["edge"]
        assert edge.traces == 2
        assert edge.completed == 1 and edge.rejected == 1
        assert edge.queue_wait == pytest.approx(0.3)
        assert edge.execute == pytest.approx(0.6)
        assert edge.retry == pytest.approx(0.1) and edge.retries == 1
        assert edge.mean(edge.total) == pytest.approx((1.0 + 0.2) / 2)
        slow = per_type["slow"]
        assert slow.expired == 1 and slow.traces == 1

    def test_report_renders_all_types_and_totals(self):
        recorder = SpanRecorder(sample_rate=1.0)
        recorder.record_trace(2, "edge", "srv", 0.0, 0.5)
        recorder.record_trace(3, "slow", "srv", 0.0, 1.5)
        text = render_span_report(summarize_spans(recorder.spans()),
                                  title="unit fixture")
        assert "Critical-path breakdown" in text
        assert "unit fixture" in text
        for token in ("edge", "slow", "ALL", "queue (ms)", "exec (ms)"):
            assert token in text


class TestDifferentialSpansOnOff:
    def test_fig06_decisions_bit_identical_with_tracing(self):
        """Span tracing is pure observation: the Figure-6 seeded run must
        admit and reject the exact same queries with the recorder on."""
        mix = simulation_mix()
        decisions = {}
        recorders = {}
        for label, telemetry in (
                ("off", None),
                ("on", Telemetry(spans=SpanRecorder(sample_rate=1.0)))):
            seq = []
            run_simulation(
                mix, make_bouncer(), rate_qps=4000.0, num_queries=4000,
                parallelism=100, seed=11, telemetry=telemetry,
                on_decision=lambda now, q, r, seq=seq: seq.append(
                    (now, q.qtype, r.accepted, tuple(sorted(
                        r.estimates.items())))))
            decisions[label] = seq
            recorders[label] = telemetry.spans if telemetry else None
        assert decisions["on"] == decisions["off"]
        assert len(decisions["on"]) > 0
        recorder = recorders["on"]
        # Every opened span was closed on some exit path, and every
        # sampled query produced a trace.
        assert recorder.open_count == 0
        assert recorder.recorded > 0
        roots = [s for s in recorder.spans() if s.parent_id is None]
        assert roots and all(s.end is not None for s in recorder.spans())


class TestClusterSpansDrain:
    @pytest.mark.parametrize("plan", [None] + sorted(NAMED_PLANS))
    def test_every_span_closes_fault_free_and_under_each_plan(self, plan):
        """Every broker, shard-attempt, retry and hedge span of a traced
        cluster run is finished on some exit path: a handle the cluster
        model opens and drops stays in the recorder's open table."""
        telemetry = Telemetry(spans=SpanRecorder(sample_rate=1.0))
        faults = {}
        if plan is not None:
            faults = dict(fault_injector=FaultInjector(named_plan(plan)),
                          resilience=ResilienceConfig())
        run_cluster_simulation(
            cluster_config(seed=5), make_bouncer(cluster_slos()),
            rate_qps=9000.0, num_queries=3000, seed=5,
            telemetry=telemetry, **faults)
        recorder = telemetry.spans
        assert recorder.recorded > 0
        assert recorder.open_count == 0
