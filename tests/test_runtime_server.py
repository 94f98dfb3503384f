"""Tests for the real threaded AdmissionServer."""

import threading
import time

import pytest

from repro.core import (AlwaysAcceptPolicy, AlwaysRejectPolicy,
                        BouncerConfig, BouncerPolicy, LatencySLO,
                        MaxQueueLengthPolicy, SLORegistry)
from repro.core.types import AdmissionResult, Query, RejectReason
from repro.exceptions import (ConfigurationError, QueryRejectedError,
                              ShuttingDownError)
from repro.runtime import AdmissionServer


def echo_handler(query: Query):
    return ("done", query.qtype)


def make_server(policy_cls=AlwaysAcceptPolicy, handler=echo_handler,
                workers=2):
    return AdmissionServer(lambda ctx: policy_cls(), handler,
                           workers=workers)


class TestLifecycle:
    def test_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError):
            make_server(workers=0)

    def test_submit_before_start_raises(self):
        server = make_server()
        with pytest.raises(ShuttingDownError):
            server.submit(Query(qtype="x"))

    def test_context_manager_starts_and_stops(self):
        with make_server() as server:
            future = server.submit(Query(qtype="x"))
            assert future.result(timeout=2.0) == ("done", "x")
        with pytest.raises(ShuttingDownError):
            server.submit(Query(qtype="x"))

    def test_start_is_idempotent(self):
        server = make_server()
        server.start()
        server.start()
        try:
            assert server.submit(Query(qtype="x")).result(timeout=2.0)
        finally:
            server.stop()

    def test_stop_drains_queued_work(self):
        slow_done = []

        def slow_handler(query):
            time.sleep(0.02)  # repro: allow=no-wall-clock (real-thread server timing)
            slow_done.append(query.query_id)
            return "ok"

        server = AdmissionServer(lambda ctx: AlwaysAcceptPolicy(),
                                 slow_handler, workers=1)
        server.start()
        futures = [server.submit(Query(qtype="x")) for _ in range(3)]
        server.stop()
        assert len(slow_done) == 3
        assert all(f.done() for f in futures)


class TestSubmission:
    def test_rejection_raises_immediately(self):
        with make_server(policy_cls=AlwaysRejectPolicy) as server:
            with pytest.raises(QueryRejectedError) as excinfo:
                server.submit(Query(qtype="x"))
            assert not excinfo.value.result.accepted

    def test_try_submit_returns_rejection(self):
        with make_server(policy_cls=AlwaysRejectPolicy) as server:
            result, future = server.try_submit(Query(qtype="x"))
            assert not result.accepted
            assert future is None

    def test_try_submit_accepted(self):
        with make_server() as server:
            result, future = server.try_submit(Query(qtype="x"))
            assert result.accepted
            assert future.result(timeout=2.0) == ("done", "x")

    def test_handler_exception_propagates_to_future(self):
        def failing(query):
            raise RuntimeError("kaboom")

        server = AdmissionServer(lambda ctx: AlwaysAcceptPolicy(), failing,
                                 workers=1)
        with server:
            future = server.submit(Query(qtype="x"))
            with pytest.raises(RuntimeError, match="kaboom"):
                future.result(timeout=2.0)

    def test_timestamps_stamped(self):
        with make_server() as server:
            query = Query(qtype="x")
            server.submit(query).result(timeout=2.0)
            assert query.enqueued_at is not None
            assert query.dequeued_at >= query.enqueued_at
            assert query.completed_at >= query.dequeued_at
            assert query.response_time >= 0.0

    def test_many_concurrent_submissions(self):
        with make_server(workers=4) as server:
            futures = [server.submit(Query(qtype=f"t{i % 3}"))
                       for i in range(200)]
            results = [f.result(timeout=5.0) for f in futures]
            assert len(results) == 200
            assert server.policy.stats.totals().accepted == 200

    def test_queue_view_returns_to_empty(self):
        with make_server(workers=2) as server:
            futures = [server.submit(Query(qtype="x")) for _ in range(20)]
            for future in futures:
                future.result(timeout=5.0)
            deadline = server.ctx.clock.now() + 2.0
            while (server.queue_view.length() and
                   server.ctx.clock.now() < deadline):
                time.sleep(0.001)  # repro: allow=no-wall-clock (real-thread server timing)
            assert server.queue_view.length() == 0


class DawdlingMaxQL(MaxQueueLengthPolicy):
    """MaxQL that pauses between reading the queue length and answering.

    The pause widens the window between check and act: submitters that
    the host does not serialize all read the same length and all get in,
    every run rather than one run in fifty.  Each enqueue notes the queue
    length it leaves in :attr:`lengths`.
    """

    def __init__(self, ctx, limit):
        super().__init__(ctx, limit=limit)
        self.lengths = []

    def _decide(self, query: Query) -> AdmissionResult:
        result = super()._decide(query)
        time.sleep(0.002)  # repro: allow=no-wall-clock (real threads racing)
        return result

    def on_enqueued(self, query: Query) -> None:
        self.lengths.append(self._ctx.queue.length())


class TestAdmissionIsAtomic:
    def test_concurrent_submitters_cannot_over_admit(self):
        limit, workers, submitters = 4, 2, 32
        release = threading.Event()

        def parked(query):
            release.wait(timeout=10.0)
            return "ok"

        server = AdmissionServer(
            lambda ctx: DawdlingMaxQL(ctx, limit=limit), parked,
            workers=workers)
        barrier = threading.Barrier(submitters)
        outcomes = []

        def submitter():
            barrier.wait(timeout=10.0)
            outcomes.append(server.try_submit(Query(qtype="x")))

        threads = [threading.Thread(target=submitter)
                   for _ in range(submitters)]
        with server:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in threads)
            release.set()
            futures = [future for _, future in outcomes
                       if future is not None]
            assert [f.result(timeout=5.0) for f in futures] == (
                ["ok"] * len(futures))
        # At most ``limit`` wait while each parked worker holds one more.
        assert limit <= len(futures) <= limit + workers
        assert max(server.policy.lengths) <= limit
        totals = server.policy.stats.totals()
        assert totals.received == submitters == len(outcomes)
        assert totals.accepted == len(futures)
        assert server.queue_view.length() == 0


class TestWithBouncer:
    def test_bouncer_learns_from_real_completions(self):
        slos = SLORegistry.uniform(LatencySLO.from_ms(p50=100, p90=200),
                                   ["x"])

        def factory(ctx):
            return BouncerPolicy(ctx, BouncerConfig(
                slos=slos, min_samples=1, bootstrap_samples=5))

        def busy_handler(query):
            time.sleep(0.001)  # repro: allow=no-wall-clock (real-thread server timing)
            return "ok"

        server = AdmissionServer(factory, busy_handler, workers=2)
        with server:
            for _ in range(20):
                server.submit(Query(qtype="x")).result(timeout=2.0)
            snap = server.policy.processing_snapshot("x")
            assert snap.count >= 5
            assert snap.mean() >= 0.001

    def test_bouncer_rejects_queries_over_slo(self):
        # Queries take ~4ms against a 2ms p50 SLO: once the bootstrap
        # publishes the histogram, Bouncer must start rejecting on the
        # percentile estimate alone (the early rejection of paper Alg. 1).
        slos = SLORegistry.uniform(LatencySLO.from_ms(p50=2, p90=5), ["x"])

        def factory(ctx):
            return BouncerPolicy(ctx, BouncerConfig(
                slos=slos, min_samples=1, bootstrap_samples=3))

        def slow_handler(query):
            time.sleep(0.004)  # repro: allow=no-wall-clock (real-thread server timing)
            return "ok"

        server = AdmissionServer(factory, slow_handler, workers=1)
        with server:
            rejected = 0
            for _ in range(20):
                result, future = server.try_submit(Query(qtype="x"))
                if future is not None:
                    future.result(timeout=2.0)
                else:
                    rejected += 1
            assert rejected > 0
            assert server.policy.stats.for_type("x").rejected == rejected


class TestFailureInjection:
    def test_crashing_policy_fails_open(self):
        class Broken(AlwaysAcceptPolicy):
            def _decide(self, query):
                raise RuntimeError("policy bug")

        server = AdmissionServer(lambda ctx: Broken(), echo_handler,
                                 workers=1)
        with server:
            future = server.submit(Query(qtype="x"))
            assert future.result(timeout=2.0) == ("done", "x")
            assert server.policy_errors == 1

    def test_policy_errors_do_not_leak_to_later_queries(self):
        calls = []

        class FlakyOnce(AlwaysAcceptPolicy):
            def _decide(self, query):
                calls.append(query.query_id)
                if len(calls) == 1:
                    raise RuntimeError("transient")
                return super()._decide(query)

        server = AdmissionServer(lambda ctx: FlakyOnce(), echo_handler,
                                 workers=1)
        with server:
            assert server.submit(Query(qtype="x")).result(timeout=2.0)
            assert server.submit(Query(qtype="x")).result(timeout=2.0)
            assert server.policy_errors == 1

    def test_hook_exceptions_do_not_kill_workers_or_queries(self):
        # Policy hooks are advisory: a buggy hook is counted and the
        # query still completes on a surviving worker.
        class BadHook(AlwaysAcceptPolicy):
            def on_dequeued(self, query, wait):
                raise ValueError("hook bug")

        server = AdmissionServer(lambda ctx: BadHook(), echo_handler,
                                 workers=1)
        with server:
            assert server.submit(Query(qtype="x")).result(
                timeout=2.0) == ("done", "x")
            assert server.submit(Query(qtype="x")).result(
                timeout=2.0) == ("done", "x")
            assert server.policy_errors == 2


class RejectEvensCrashThirds(AlwaysAcceptPolicy):
    """Deterministic misbehaviour keyed on a per-policy arrival index:
    every 3rd decision raises, every 2nd (that survives) rejects."""

    def __init__(self):
        super().__init__()
        self.seen = 0

    def _decide(self, query):
        self.seen += 1
        if self.seen % 3 == 0:
            raise RuntimeError("periodic policy bug")
        if self.seen % 2 == 0:
            return AdmissionResult.reject(RejectReason.ADMINISTRATIVE)
        return AdmissionResult.accept()


class TestFailOpenParity:
    """submit and submit_many must fail open identically (same decisions,
    same counters, same traces) when the policy misbehaves."""

    def run_scalar(self, queries, telemetry):
        server = AdmissionServer(lambda ctx: RejectEvensCrashThirds(),
                                 echo_handler, workers=2,
                                 telemetry=telemetry)
        with server:
            outcomes = [server.try_submit(q) for q in queries]
            for _, future in outcomes:
                if future is not None:
                    future.result(timeout=5.0)
        return server, outcomes

    def run_batch(self, queries, telemetry):
        server = AdmissionServer(lambda ctx: RejectEvensCrashThirds(),
                                 echo_handler, workers=2,
                                 telemetry=telemetry)
        with server:
            outcomes = server.submit_many(queries)
            for _, future in outcomes:
                if future is not None:
                    future.result(timeout=5.0)
        return server, outcomes

    def test_differential_scalar_vs_batch(self):
        from repro.telemetry import DecisionTracer, Telemetry

        def make_queries():
            return [Query(qtype=f"t{i % 3}") for i in range(30)]

        scalar_tel = Telemetry(tracer=DecisionTracer())
        batch_tel = Telemetry(tracer=DecisionTracer())
        scalar_server, scalar_out = self.run_scalar(make_queries(),
                                                    scalar_tel)
        batch_server, batch_out = self.run_batch(make_queries(),
                                                 batch_tel)

        # Identical decision pattern, in arrival order.
        scalar_bits = [result.accepted for result, _ in scalar_out]
        batch_bits = [result.accepted for result, _ in batch_out]
        assert scalar_bits == batch_bits
        assert True in scalar_bits and False in scalar_bits

        # A decision that raised fails open in both paths.
        assert scalar_server.policy_errors == batch_server.policy_errors
        assert scalar_server.policy_errors == 30 // 3

        # Identical policy-side tallies.
        assert (scalar_server.policy.stats.totals().accepted ==
                batch_server.policy.stats.totals().accepted)
        assert (scalar_server.policy.stats.totals().rejected ==
                batch_server.policy.stats.totals().rejected)

        # Identical decision traces (the Point-1 events both hosts emit).
        def decision_trace(telemetry):
            return [(e.qtype, e.accepted) for e in
                    telemetry.tracer.events() if e.event == "decision"]

        assert decision_trace(scalar_tel) == decision_trace(batch_tel)

        # Every accepted query resolved in both paths.
        for outcomes in (scalar_out, batch_out):
            for result, future in outcomes:
                assert future is None or future.done()


class TestShutdownUnderLoad:
    """stop(timeout) with a full queue and in-flight work must leave no
    orphaned threads and no unresolved futures, however it was fed."""

    def slow_server(self, workers=1):
        def slow_handler(query):
            time.sleep(0.05)  # repro: allow=no-wall-clock (real-thread server timing)
            return "ok"

        return AdmissionServer(lambda ctx: AlwaysAcceptPolicy(),
                               slow_handler, workers=workers)

    def assert_no_engine_threads(self):
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("repro-engine-") and t.is_alive()]

    def check_abandoned_drain(self, server, futures):
        resolved = [f for f in futures if f.done() and not f.cancelled()]
        cancelled = [f for f in futures if f.cancelled()]
        assert len(resolved) + len(cancelled) == len(futures)
        assert cancelled, "tiny timeout must abandon part of the backlog"
        assert server.cancelled_count == len(cancelled)
        self.assert_no_engine_threads()
        with pytest.raises(ShuttingDownError):
            server.submit(Query(qtype="x"))

    def test_scalar_submissions_abandoned_drain(self):
        server = self.slow_server()
        server.start()
        futures = [server.submit(Query(qtype="x")) for _ in range(10)]
        server.stop(timeout=0.1)
        self.check_abandoned_drain(server, futures)

    def test_batch_submissions_abandoned_drain(self):
        server = self.slow_server()
        server.start()
        outcomes = server.submit_many(
            [Query(qtype="x") for _ in range(10)])
        futures = [future for _, future in outcomes]
        assert all(future is not None for future in futures)
        server.stop(timeout=0.1)
        self.check_abandoned_drain(server, futures)

    def test_graceful_drain_cancels_nothing(self):
        server = self.slow_server(workers=2)
        server.start()
        futures = [server.submit(Query(qtype="x")) for _ in range(4)]
        server.stop(timeout=10.0)
        assert all(f.result(timeout=0) == "ok" for f in futures)
        assert server.cancelled_count == 0
        self.assert_no_engine_threads()

    def test_expired_queries_counted_once_not_cancelled(self):
        server = self.slow_server()
        server.start()
        now = server.ctx.clock.now()
        futures = [server.submit(Query(qtype="x", deadline=now - 1.0))
                   for _ in range(5)]
        server.stop(timeout=10.0)
        for future in futures:
            with pytest.raises(Exception):
                future.result(timeout=0)
        assert server.expired_count == 5
        assert server.cancelled_count == 0

    def test_stop_is_idempotent_after_abandon(self):
        server = self.slow_server()
        server.start()
        futures = [server.submit(Query(qtype="x")) for _ in range(10)]
        server.stop(timeout=0.1)
        cancelled = sum(1 for f in futures if f.cancelled())
        server.stop(timeout=0.1)
        assert server.cancelled_count == cancelled
