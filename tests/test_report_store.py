"""The simulated hosts' shared sample store.

Both hosts measure into :class:`repro.sim.report.SampleStore`: the single
host through :class:`ServerMetrics`, the cluster model through
:class:`ClusterMetrics`.  The store keeps samples in ``array("d")`` and
builds its ALL row from the chained per-type arrays, with no pooled copy.
These tests pin that the rows and attainment it builds equal the
list-based stores it replaced (``tests/report_oracle.py``) bit for bit,
and that a measured query costs what the arrays promise.
"""

import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.types import AdmissionResult, Query, RejectReason
from repro.liquid.cluster_sim import ClusterMetrics
from repro.sim.report import ServerMetrics

from tests.report_oracle import ListClusterMetrics, ListServerMetrics

TYPES = ("fast", "QT10", "QT2", "slow", "medium")

durations = st.one_of(
    st.sampled_from([0.0, 1e-3, 0.25]),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False,
              allow_infinity=False))


def outcomes(kinds):
    """Event lists: (kind, type, arrival, wait, processing, warm-up)."""
    return st.lists(st.tuples(st.sampled_from(kinds),
                              st.sampled_from(TYPES), durations, durations,
                              durations, st.booleans()),
                    max_size=60)


def make_query(qtype, arrival, wait, proc, stray, window):
    query = Query(qtype=qtype, arrival_time=arrival)
    query.enqueued_at = arrival
    query.dequeued_at = arrival + wait
    query.completed_at = arrival + wait + proc
    # A warm-up stray carries the window before the open one.
    query.window = window - 1 if stray else window
    return query


def assert_same_rows(store, oracle, threshold):
    assert repr(store.build_type_stats()) == repr(oracle.build_type_stats())
    assert (repr(store.build_overall_stats())
            == repr(oracle.build_overall_stats()))
    assert (repr(store.attainment(threshold))
            == repr(oracle.attainment(threshold)))


REJECTED = AdmissionResult.reject(RejectReason.CAPACITY)


@settings(max_examples=150, deadline=None)
@given(events=outcomes(("complete", "reject", "expire", "error")),
       threshold=durations)
@example(events=[], threshold=0.5)                     # an empty window
# A type with rejections only scores 0.0.
@example(events=[("reject", "slow", 0.0, 0.0, 0.0, False),
                 ("complete", "fast", 0.0, 0.1, 0.2, False)], threshold=0.5)
# Means that depend on summation order: 1.0 first absorbs each 1e-16.
@example(events=[("complete", "fast", 0.0, 0.0, d, False)
                 for d in (1.0, 1e-16, 1e-16)], threshold=0.5)
def test_single_host_rows_equal_the_list_store(events, threshold):
    store, oracle = ServerMetrics(), ListServerMetrics()
    store.reset(0.0)
    oracle.reset()
    for kind, qtype, arrival, wait, proc, stray in events:
        query = make_query(qtype, arrival, wait, proc, stray, store.window)
        for host in (store, oracle):
            if kind == "complete":
                host.record_completion(query)
            elif kind == "reject":
                host.record_rejection(query, REJECTED)
            elif kind == "expire":
                host.record_expiration(query, 0.0)
            else:
                host.record_error(query)
    assert_same_rows(store, oracle, threshold)


@settings(max_examples=150, deadline=None)
@given(events=outcomes(("complete", "degraded", "broker", "shard")),
       threshold=durations)
@example(events=[], threshold=0.5)
# A type with rejections only: no wait row, and no attainment entry.
@example(events=[("shard", "QT10", 0.0, 0.0, 0.0, False),
                 ("degraded", "QT2", 0.0, 0.1, 0.2, False)], threshold=0.5)
# The ALL row's means sum in sorted type order, not in arrival order.
@example(events=[("complete", qtype, 0.0, 0.0, d, False)
                 for qtype, d in (("slow", 1.0), ("QT2", 1e-16),
                                  ("QT10", 1e-16))], threshold=0.5)
def test_cluster_rows_equal_the_list_store(events, threshold):
    store, oracle = ClusterMetrics(), ListClusterMetrics()
    store.reset(0.0)
    oracle.reset()
    for kind, qtype, arrival, wait, proc, stray in events:
        query = make_query(qtype, arrival, wait, proc, stray, store.window)
        for host in (store, oracle):
            if kind in ("complete", "degraded"):
                host.record_completion(query, degraded=kind == "degraded")
            else:
                host.record_rejection(query, at_broker=kind == "broker")
    assert_same_rows(store, oracle, threshold)
    assert store.degraded == oracle.degraded
    assert store.broker_rejections == oracle.broker_rejections
    assert store.shard_rejections == oracle.shard_rejections


#: Three 8-byte samples per completion, plus one sorted list (an 8 B
#: pointer and a 24 B float per value) alive while a pooled series is
#: ranked: 61 B here.  Three boxed floats per completion in lists, and the
#: ALL row's pooled copies, cost 128 B.
BYTES_PER_COMPLETION = 72


def test_a_measured_completion_costs_at_most_72_bytes():
    completions = 100_000
    # Queries are built before tracing: a host holds them anyway, and
    # each read of their timing properties makes fresh floats.
    pool = []
    for i in range(1000):
        query = make_query(TYPES[i % len(TYPES)], i * 1e-3,
                           (i % 7) * 1e-4, (i % 13) * 1e-4, False, 0)
        pool.append(query)
    metrics = ServerMetrics()
    tracemalloc.start()
    try:
        for _ in range(completions // len(pool)):
            for query in pool:
                metrics.record_completion(query)
        metrics.build_type_stats()
        metrics.build_overall_stats()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert metrics.completed == completions
    assert peak / completions <= BYTES_PER_COMPLETION
