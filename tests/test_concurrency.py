"""Concurrency tests: the one threaded host under contention.

``repro.core`` takes no locks.  A policy, its queue view, its stats and
its histograms belong to one host, and the host serializes its calls into
them -- hammering those structures from bare threads would test a
contract nobody offers.  The contract that exists is the host's:
:class:`~repro.runtime.AdmissionServer` holds one lock around every group
of calls it makes into the policy and the view, so whatever its
submitters, workers and scrape thread do at once, nothing is lost.

Each battery releases its submitter threads from a barrier against a
started server with a scraper running beside them, and then checks
conservation, exactly: every offered query got one verdict, every
accepted query ended one way, the view is back to zero, the general
histogram holds one sample per completion, and the policy's tallies add
up to what was offered.  Run under ``REPRO_LOCKCHECK=1`` (CI loops it
twenty times) the same batteries feed the lock graph.
"""

import sys
import threading

import pytest

from repro.analysis import lockcheck
from repro.core import (BouncerConfig, BouncerPolicy, LatencySLO, Query,
                        SLORegistry)
from repro.exceptions import DeadlineExceededError, ShuttingDownError
from repro.runtime import AdmissionServer
from repro.telemetry import DecisionTracer, Telemetry

TYPES = ("fast", "slow", "bulk")
SUBMITTERS = 6
ROUNDS = 12
BURST = 8
#: Per submitter and round: one burst, then ``BURST`` single submissions.
PER_SUBMITTER = ROUNDS * 2 * BURST
JOIN_TIMEOUT = 30.0


@pytest.fixture(autouse=True)
def short_switch_interval():
    """Preempt threads every 10 us so interleavings actually happen."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def bouncer_factory(ctx):
    # One bootstrap publish after 40 completions, then no time-driven
    # swap for the length of the test: the published view plus the write
    # buffer is every sample ever recorded.  An 8 ms p50 target against
    # ~1 ms handlers makes the policy reject once the queue builds.
    return BouncerPolicy(ctx, BouncerConfig(
        slos=SLORegistry.uniform(LatencySLO.from_ms(p50=8, p90=20), TYPES),
        histogram_interval=3600.0, histogram_window=3600.0, min_samples=5,
        retain_min_samples=0, bootstrap_samples=40))


def recorded_samples(histogram):
    """Every sample a dual buffer ever took: published view + write side."""
    return histogram.snapshot().count + histogram.force_swap().count


class Battery:
    """Submitters, workers and a scraper against one server."""

    def __init__(self, handler_s=0.0005, workers=4):
        self.stop_work = threading.Event()

        def handler(query):
            self.stop_work.wait(handler_s)
            return query.qtype

        self.telemetry = Telemetry(tracer=DecisionTracer(sample_rate=0.25))
        self.server = AdmissionServer(bouncer_factory, handler,
                                      workers=workers,
                                      telemetry=self.telemetry)
        self.outcomes = []          # (result, future-or-None), any order
        self.refused = []           # submitters turned away by stop()
        self.scrapes = []
        self.errors = []
        self._barrier = threading.Barrier(SUBMITTERS + 1)
        self._scraping = threading.Event()

    def _submitter(self, seed):
        server = self.server
        try:
            self._barrier.wait(timeout=JOIN_TIMEOUT)
            for round_index in range(ROUNDS):
                now = server.ctx.clock.now()
                burst = [Query(qtype=TYPES[(seed + i) % 3])
                         for i in range(BURST)]
                # One query per burst is already past its deadline: if
                # admitted it must expire in the queue, never run.
                burst[round_index % BURST].deadline = now - 1.0
                self.outcomes.extend(server.submit_many(burst))
                for i in range(BURST):
                    self.outcomes.append(server.try_submit(
                        Query(qtype=TYPES[(seed + round_index + i) % 3])))
        except ShuttingDownError:
            self.refused.append(seed)
        except Exception as exc:  # surfaced by the test body
            self.errors.append(exc)

    def _scraper(self):
        try:
            while not self._scraping.is_set():
                self.scrapes.append(self.server.render_metrics())
        except Exception as exc:
            self.errors.append(exc)

    def run(self, stop_once_offered=None):
        """Run to the end, or give up once that many verdicts are in."""
        submitters = [threading.Thread(target=self._submitter, args=(seed,))
                      for seed in range(SUBMITTERS)]
        scraper = threading.Thread(target=self._scraper)
        self.server.start()
        try:
            scraper.start()
            for thread in submitters:
                thread.start()
            self._barrier.wait(timeout=JOIN_TIMEOUT)
            if stop_once_offered is not None:
                while len(self.outcomes) < stop_once_offered:
                    self.stop_work.wait(0.0005)
                self.server.stop(timeout=0.01)
            for thread in submitters:
                thread.join(timeout=JOIN_TIMEOUT)
            assert not any(thread.is_alive() for thread in submitters)
        finally:
            self.server.stop(timeout=JOIN_TIMEOUT)
            self._scraping.set()
            scraper.join(timeout=JOIN_TIMEOUT)
        assert not scraper.is_alive()
        assert self.errors == []

    def check_conservation(self):
        server = self.server
        offered = len(self.outcomes)
        futures = [future for _, future in self.outcomes
                   if future is not None]
        accepted = sum(1 for result, _ in self.outcomes if result.accepted)
        rejected = offered - accepted
        assert accepted == len(futures)

        completed = expired = cancelled = 0
        for future in futures:
            assert future.done()
            if future.cancelled():
                cancelled += 1
            elif isinstance(future.exception(timeout=0),
                            DeadlineExceededError):
                expired += 1
            else:
                assert future.result(timeout=0) in TYPES
                completed += 1
        assert accepted == completed + expired + cancelled
        assert server.expired_count == expired
        assert server.cancelled_count == cancelled

        assert server.queue_view.length() == 0
        assert server.queue_view.occupancy() == {}

        totals = server.policy.stats.totals()
        assert totals.received == offered
        assert totals.accepted == accepted
        assert totals.rejected == rejected
        assert sum(totals.rejected_by_reason.values()) == rejected

        policy = server.policy
        assert recorded_samples(policy._general) == completed
        assert sum(recorded_samples(hist)
                   for hist in policy._hists.values()) == completed
        assert server.policy_errors == 0
        return offered, completed, expired, cancelled


class TestHostConservation:
    def test_nothing_lost_under_contention(self):
        battery = Battery()
        battery.run()
        offered, completed, expired, cancelled = (
            battery.check_conservation())
        assert battery.refused == []
        assert offered == SUBMITTERS * PER_SUBMITTER
        assert cancelled == 0
        assert completed > 0 and expired > 0
        assert battery.scrapes
        assert all("queue_length" in body for body in battery.scrapes)

    def test_nothing_lost_when_stopped_mid_flight(self):
        # Slow handlers and a stop() that gives up at once: part of the
        # backlog is abandoned while submitters are still arriving.
        battery = Battery(handler_s=0.005, workers=2)
        battery.run(stop_once_offered=4 * BURST)
        offered, _, _, cancelled = battery.check_conservation()
        assert battery.refused, "stop() must turn late submitters away"
        assert offered < SUBMITTERS * PER_SUBMITTER
        assert cancelled > 0, "a 10 ms budget must abandon some backlog"


def lock_edges(registry):
    """The lock graph as ``{(holder id, acquired id)}`` plus lock names."""
    with registry._mutex:
        return ({(source, target)
                 for source, targets in registry._graph.items()
                 for target in targets}, dict(registry._names))


class TestLockGraph:
    def test_host_lock_precedes_telemetry_and_nothing_else(
            self, lock_registry, monkeypatch):
        registry = lock_registry
        taken = []
        real_acquire = lockcheck.CheckedLock.acquire

        def acquire(self, *args, **kwargs):
            taken.append(self)
            return real_acquire(self, *args, **kwargs)

        monkeypatch.setattr(lockcheck.CheckedLock, "acquire", acquire)
        # Under REPRO_LOCKCHECK=1 the graph already holds the suite's
        # edges (and ids of freed locks get reused): judge the new ones.
        before, _ = lock_edges(registry)
        battery = Battery()
        battery.run()
        offered, _, _, _ = battery.check_conservation()
        host_lock = battery.server._lock
        assert isinstance(host_lock, lockcheck.CheckedLock)
        after, names = lock_edges(registry)
        # Decide-to-enqueue, dequeue, completion: three per query at most
        # (a burst shares the first), one per scrape, a few to start/stop.
        assert sum(1 for lock in taken if lock is host_lock) <= (
            3 * offered + len(battery.scrapes) + 8)
        new = after - before
        under_host = [names[target] for source, target in new
                      if source == id(host_lock)]
        assert under_host, "decisions record telemetry under the host lock"
        assert [site for site in under_host
                if "/repro/telemetry/" not in site] == []
        # Nobody takes the host lock while holding another lock.
        assert [names[source] for source, target in new
                if target == id(host_lock)] == []
        assert registry.violations == []
