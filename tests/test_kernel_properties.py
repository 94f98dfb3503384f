"""Algorithm 1 is monotone in the queue.

At fixed published snapshots, Eq. 2's wait can only grow when a query
joins the queue: each term is a non-negative count times a non-negative
mean, and float addition and multiplication are monotone.  Every
response estimate is that wait plus a fixed percentile, so enqueueing
one more query of any type never turns a rejection into an acceptance,
under either decision mode.  The snapshots are held fixed the way a
gateway worker holds them: a frozen clock and snapshots preloaded with
their publisher's epochs.  This is the precondition for rejecting at the
edge against published queue counts (ROADMAP).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (BouncerConfig, BouncerPolicy, HostContext,
                        LatencyHistogram, LatencySLO, ManualClock, QueueView,
                        SLORegistry)
from repro.core.bouncer import DECISION_ALL, DECISION_ANY
from repro.core.types import Query

#: Published and trusted, published below ``min_samples`` (cold), and
#: never published; only the first three carry their own SLO.
TYPES = ("known", "other", "thin", "stranger")
SLOS = SLORegistry(
    default=LatencySLO({50: 0.020, 90: 0.050}),
    per_type={"known": LatencySLO({50: 0.012, 90: 0.030}),
              "other": LatencySLO({50: 0.030, 90: 0.080}),
              "thin": LatencySLO({90: 0.040})})
MIN_SAMPLES = 5


def _frozen_policy(mode, latencies, fill):
    queue = QueueView()
    ctx = HostContext(clock=ManualClock(0.0), queue=queue, parallelism=4)
    policy = BouncerPolicy(ctx, BouncerConfig(
        slos=SLOS, min_samples=MIN_SAMPLES, retain_min_samples=1,
        bootstrap_samples=0, decision_mode=mode))
    general = LatencyHistogram()
    types = {}
    for qtype, values in latencies.items():
        hist = LatencyHistogram()
        for value in values:
            hist.record(value)
            general.record(value)
        types[qtype] = hist.snapshot(epoch=1)
    policy.preload_snapshots(types, general.snapshot(epoch=1),
                             adopt_epochs=True)
    for qtype, count in fill:
        for _ in range(count):
            enqueue(policy, queue, qtype)
    return policy, queue


def enqueue(policy, queue, qtype):
    queue.on_enqueue(qtype)
    policy.on_enqueued(Query(qtype=qtype))


def _latencies():
    latency = st.floats(min_value=1e-4, max_value=0.05, allow_nan=False)
    return st.fixed_dictionaries({
        "known": st.lists(latency, min_size=MIN_SAMPLES, max_size=30),
        "other": st.lists(latency, min_size=MIN_SAMPLES, max_size=30),
        "thin": st.lists(latency, max_size=MIN_SAMPLES - 1)})


class TestQueueMonotonicity:
    @pytest.mark.parametrize("mode", [DECISION_ANY, DECISION_ALL])
    @settings(max_examples=150, deadline=None)
    @given(latencies=_latencies(),
           fill=st.lists(st.tuples(st.sampled_from(TYPES),
                                   st.integers(0, 6)), max_size=6),
           decided=st.sampled_from(TYPES), added=st.sampled_from(TYPES))
    def test_one_more_queued_query_never_admits_more(
            self, mode, latencies, fill, decided, added):
        policy, queue = _frozen_policy(mode, latencies, fill)
        wait = policy.estimate_wait_mean()
        before = policy.decide(Query(qtype=decided))
        enqueue(policy, queue, added)
        assert policy.estimate_wait_mean() >= wait
        after = policy.decide(Query(qtype=decided))
        assert before.estimates.keys() == after.estimates.keys()
        for percentile, estimate in before.estimates.items():
            assert after.estimates[percentile] >= estimate
        assert before.accepted or not after.accepted
