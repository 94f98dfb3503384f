"""Tests for the metrics exposition module."""

import re
import threading

from repro.core import (AcceptanceAllowancePolicy, AlwaysAcceptPolicy,
                        BouncerConfig, BouncerPolicy, HostContext,
                        LatencySLO, ManualClock, QueueView, SLORegistry)
from repro.core.types import Query
from repro.telemetry import render_metrics


def make_bouncer():
    clock = ManualClock()
    queue = QueueView()
    ctx = HostContext(clock=clock, queue=queue, parallelism=4)
    policy = BouncerPolicy(ctx, BouncerConfig(
        slos=SLORegistry.uniform(LatencySLO.from_ms(p50=18, p90=50),
                                 ["fast", "slow"]),
        min_samples=1, retain_min_samples=1, bootstrap_samples=0))
    return policy, clock, queue


class TestRenderMetrics:
    def test_accept_and_reject_counters(self):
        policy, clock, queue = make_bouncer()
        for _ in range(50):
            policy.on_completed(Query(qtype="slow"), 0.0, 0.030)
            policy.on_completed(Query(qtype="fast"), 0.0, 0.002)
        clock.advance(1.0)
        policy.processing_snapshot("slow")
        policy.decide(Query(qtype="fast"))   # 2ms p50 -> accept
        policy.decide(Query(qtype="slow"))   # 30ms p50 > 18ms -> reject
        text = render_metrics(policy, queue)
        assert 'accepted_total{qtype="fast"} 1' in text
        assert ('rejected_total{qtype="slow",reason="slo_estimate"} 1'
                in text)

    def test_queue_gauges(self):
        policy, clock, queue = make_bouncer()
        queue.on_enqueue("fast")
        queue.on_enqueue("fast")
        queue.on_enqueue("slow")
        text = render_metrics(policy, queue)
        assert "queue_length 3" in text
        assert 'queue_occupancy{qtype="fast"} 2' in text

    def test_bouncer_estimates_exposed(self):
        policy, clock, queue = make_bouncer()
        for _ in range(20):
            policy.on_completed(Query(qtype="slow"), 0.0, 0.030)
        clock.advance(1.0)
        policy.decide(Query(qtype="slow"))
        text = render_metrics(policy, queue)
        assert 'processing_seconds{qtype="slow",quantile="50"}' in text
        assert "estimated_wait_seconds" in text

    def test_wrapper_override_counter(self):
        clock = ManualClock()
        wrapper = AcceptanceAllowancePolicy(AlwaysAcceptPolicy(), clock,
                                            allowance=0.05, seed=1)
        wrapper.decide(Query(qtype="t"))  # first-of-type free pass
        text = render_metrics(wrapper)
        assert "overrides_total 1" in text

    def test_plain_policy_without_queue(self):
        policy = AlwaysAcceptPolicy()
        policy.decide(Query(qtype="x"))
        text = render_metrics(policy)
        assert 'accepted_total{qtype="x"} 1' in text
        assert "queue_length" not in text

    def test_output_is_stable(self):
        policy, clock, queue = make_bouncer()
        policy.decide(Query(qtype="b"))
        policy.decide(Query(qtype="a"))
        assert render_metrics(policy, queue) == render_metrics(policy,
                                                               queue)

    def test_label_escaping(self):
        policy = AlwaysAcceptPolicy()
        policy.decide(Query(qtype='we"ird\\type'))
        text = render_metrics(policy)
        assert '\\"' in text and "\\\\" in text

    def test_newline_in_label_value_cannot_split_scrape(self):
        # Regression: a raw newline in a label value used to split the
        # sample line in two, corrupting the whole scrape body.  The
        # text-format spec requires escaping it as the two characters \n.
        policy = AlwaysAcceptPolicy()
        policy.decide(Query(qtype='evil\ntype{injected="1"} 999'))
        text = render_metrics(policy)
        assert "\\n" in text
        for line in text.splitlines():
            assert line.startswith(("#", "repro_admission_")), line

    def test_host_counters_rendered_when_supplied(self):
        policy, clock, queue = make_bouncer()
        text = render_metrics(policy, queue, policy_errors=3,
                              expired_count=7)
        assert "repro_admission_policy_errors_total 3" in text
        assert "repro_admission_expired_total 7" in text

    def test_host_counters_omitted_by_default(self):
        policy, clock, queue = make_bouncer()
        text = render_metrics(policy, queue)
        assert "policy_errors_total" not in text
        assert "expired_total" not in text


class TestRenderMetricsConcurrent:
    def test_counters_monotonic_under_concurrent_load(self):
        """Scrapes taken mid-flight on a starvation-wrapped Bouncer must
        parse and never show a counter going backwards.

        ``repro.core`` is lock-free: the host serializes every call into
        the policy, scrapes included.  ``host_lock`` plays that host, the
        way ``AdmissionServer``'s one lock does."""
        policy, clock, queue = make_bouncer()
        for _ in range(50):
            policy.on_completed(Query(qtype="slow"), 0.0, 0.030)
            policy.on_completed(Query(qtype="fast"), 0.0, 0.002)
        clock.advance(1.0)
        wrapper = AcceptanceAllowancePolicy(policy, clock, allowance=0.05,
                                            seed=3)
        host_lock = threading.Lock()
        stop = threading.Event()
        errors = []

        def submit_and_complete():
            while not stop.is_set():
                for qtype in ("fast", "slow"):
                    query = Query(qtype=qtype)
                    with host_lock:
                        result = wrapper.decide(query)
                    if result.accepted:
                        with host_lock:
                            wrapper.on_completed(
                                query, 0.0,
                                0.002 if qtype == "fast" else 0.030)

        counter_re = re.compile(
            r"^(repro_admission_\w+_total(?:\{[^}]*\})?) (\d+)$")

        def scrape_loop():
            last = {}
            for _ in range(200):
                with host_lock:
                    text = render_metrics(wrapper, queue)
                for line in text.splitlines():
                    match = counter_re.match(line)
                    if not match:
                        continue
                    key, value = match.group(1), int(match.group(2))
                    if value < last.get(key, 0):
                        errors.append(
                            f"{key} went {last[key]} -> {value}")
                    last[key] = value

        workers = [threading.Thread(target=submit_and_complete)
                   for _ in range(3)]
        for thread in workers:
            thread.start()
        try:
            scrape_loop()
        finally:
            stop.set()
            for thread in workers:
                thread.join(timeout=5.0)
        assert not errors, errors
        final = render_metrics(wrapper, queue)
        assert 'accepted_total{qtype="fast"}' in final
        assert "overrides_total" in final


class TestFastPathExposition:
    def test_fast_path_counters_rendered(self):
        policy, clock, queue = make_bouncer()
        for _ in range(10):
            policy.on_completed(Query(qtype="fast"), 0.0, 0.002)
        clock.advance(1.0)
        queue.on_enqueue("fast")
        for _ in range(3):
            policy.decide(Query(qtype="fast"))
        text = render_metrics(policy, queue)
        assert "estimator_cache_hits" in text
        assert "estimator_cache_misses" in text
        assert "eq2_recomputes" in text
        match = re.search(r"estimator_cache_hits (\d+)", text)
        assert match and int(match.group(1)) > 0
