"""Tests for deadline (expiration time) enforcement (paper §5.1/§2)."""

import time

import pytest

from repro.core import AlwaysAcceptPolicy
from repro.core.types import Query
from repro.exceptions import DeadlineExceededError
from repro.runtime import AdmissionServer
from repro.sim import SimulatedServer, Simulator


def accept_all(ctx):
    return AlwaysAcceptPolicy()


class TestSimulatedDeadlines:
    def test_expired_query_dropped_at_dequeue(self):
        sim = Simulator()
        server = SimulatedServer(sim, 1, accept_all)
        # Occupy the single process for 10ms; the second query expires at
        # 5ms while still queued.
        server.offer(Query(qtype="x", payload=0.010))
        doomed = Query(qtype="x", payload=0.010, deadline=0.005)
        server.offer(doomed)
        sim.run()
        assert doomed.dequeued_at is None  # never processed
        assert server.metrics.expired == 1
        assert server.metrics.wasted_work == 0.0
        stats = server.metrics.build_type_stats()["x"]
        assert stats.expired == 1
        assert stats.completed == 1

    def test_late_completion_counts_as_wasted_work(self):
        sim = Simulator()
        server = SimulatedServer(sim, 1, accept_all)
        # Starts immediately but takes 20ms against a 5ms deadline: the
        # engine time is spent, and wasted.
        late = Query(qtype="x", payload=0.020, deadline=0.005)
        server.offer(late)
        sim.run()
        assert server.metrics.expired == 1
        assert server.metrics.wasted_work == pytest.approx(0.020)
        assert server.metrics.completed == 0

    def test_query_meeting_deadline_completes_normally(self):
        sim = Simulator()
        server = SimulatedServer(sim, 1, accept_all)
        fine = Query(qtype="x", payload=0.002, deadline=0.050)
        server.offer(fine)
        sim.run()
        assert server.metrics.completed == 1
        assert server.metrics.expired == 0

    def test_no_deadline_never_expires(self):
        sim = Simulator()
        server = SimulatedServer(sim, 1, accept_all)
        server.offer(Query(qtype="x", payload=0.050))
        server.offer(Query(qtype="x", payload=0.050))
        sim.run()
        assert server.metrics.completed == 2

    def test_expired_counts_in_received(self):
        sim = Simulator()
        server = SimulatedServer(sim, 1, accept_all)
        server.offer(Query(qtype="x", payload=0.010))
        server.offer(Query(qtype="x", payload=0.010, deadline=0.005))
        sim.run()
        stats = server.metrics.build_overall_stats()
        assert stats.received == 2


class TestRuntimeDeadlines:
    def test_expired_query_future_fails(self):
        release = []

        def slow_handler(query):
            time.sleep(0.05)  # repro: allow=no-wall-clock (real handler latency for a real-thread server)
            return "ok"

        server = AdmissionServer(accept_all, slow_handler, workers=1)
        with server:
            now = server.ctx.clock.now()
            blocker = server.submit(Query(qtype="x"))
            doomed = server.submit(Query(qtype="x", deadline=now + 0.01))
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=5.0)
            assert blocker.result(timeout=5.0) == "ok"
            assert server.expired_count == 1

    def test_generous_deadline_succeeds(self):
        server = AdmissionServer(accept_all, lambda q: "ok", workers=1)
        with server:
            future = server.submit(
                Query(qtype="x", deadline=server.ctx.clock.now() + 10.0))
            assert future.result(timeout=5.0) == "ok"
            assert server.expired_count == 0
