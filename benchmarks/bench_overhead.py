"""Policy decision overhead (§5.4's 18µs result).

The paper reports Bouncer's per-decision overhead at mean = 18µs,
p50 = 15µs, p99 = 87µs on its C++ LIquid brokers — "small ... for
millisecond-scale queries".  This bench measures our Python policies'
``decide()`` with realistic warm state (populated histograms, an occupied
queue, eleven query types).  The absolute number differs by the
Python-vs-C++ constant; the claim under test is that a decision costs
microseconds, three orders of magnitude below millisecond-scale queries.

Unlike the other modules, this one uses pytest-benchmark's statistical
timing (that is the entire point of the artifact).
"""

import itertools

from repro.bench import cluster_slos, make_accept_fraction, make_bouncer, \
    make_bouncer_aa, make_maxql, make_maxqwt, publish
from repro.core import HostContext, ManualClock, QueueView
from repro.core.types import Query
from repro.telemetry import DecisionTracer, SpanRecorder, Telemetry

QTYPES = [f"QT{i}" for i in range(1, 12)]


def warm_policy(factory):
    """Build a policy with populated histograms and a busy queue."""
    clock = ManualClock()
    queue = QueueView()
    ctx = HostContext(clock=clock, queue=queue, parallelism=32)
    policy = factory(ctx)
    # Teach it a realistic latency spread per type.
    for round_idx in range(3):
        for idx, qtype in enumerate(QTYPES):
            for sample in range(40):
                policy.on_completed(Query(qtype=qtype), 0.0,
                                    0.0005 * (idx + 1) * (1 + sample % 3))
        clock.advance(1.0)
    # A queue with a realistic mix in it.
    for qtype, _ in zip(itertools.cycle(QTYPES), range(64)):
        queue.on_enqueue(qtype)
    return policy, clock


def _bench_decide(benchmark, factory, name):
    policy, clock = warm_policy(factory)
    types = itertools.cycle(QTYPES)

    def decide():
        policy.decide(Query(qtype=next(types)))

    benchmark(decide)
    mean_us = benchmark.stats.stats.mean * 1e6
    publish(f"overhead_{name}",
            f"{name}.decide() mean overhead: {mean_us:.1f} us "
            f"(paper reports 18 us mean for its C++ implementation; the "
            f"claim is microsecond-scale vs millisecond-scale queries)")
    # Three orders of magnitude under a 10ms query: stay below 500us even
    # on slow CI machines.
    assert mean_us < 500.0


def test_overhead_bouncer(benchmark):
    _bench_decide(benchmark, make_bouncer(slos=cluster_slos()), "bouncer")


def test_overhead_bouncer_with_allowance(benchmark):
    _bench_decide(benchmark, make_bouncer_aa(slos=cluster_slos()),
                  "bouncer_aa")


def test_overhead_maxql(benchmark):
    _bench_decide(benchmark, make_maxql(limit=800), "maxql")


def test_overhead_maxqwt(benchmark):
    _bench_decide(benchmark, make_maxqwt(limit=0.012), "maxqwt")


def test_overhead_accept_fraction(benchmark):
    _bench_decide(benchmark, make_accept_fraction(max_utilization=0.8),
                  "accept_fraction")


# -- telemetry overhead ----------------------------------------------------
# The instrumented rows measure decide() + Telemetry.on_decision() — the
# full point-1 hot path a live host pays per query — against the plain
# decide() rows above.  Counters-only should cost single-digit extra
# microseconds; full tracing (sample_rate=1.0, which also recomputes
# Bouncer's wait estimate per event) bounds the worst case; a sampled
# tracer at 1% is the recommended production setting.

def _bench_instrumented(benchmark, telemetry, name, note):
    policy, clock = warm_policy(make_bouncer(slos=cluster_slos()))
    types = itertools.cycle(QTYPES)

    def decide_and_record():
        query = Query(qtype=next(types))
        result = policy.decide(query)
        telemetry.on_decision(query, result, now=clock.now(),
                              queue_length=64, policy=policy)

    benchmark(decide_and_record)
    mean_us = benchmark.stats.stats.mean * 1e6
    publish(f"overhead_{name}",
            f"bouncer.decide() + on_decision() [{note}] mean: "
            f"{mean_us:.1f} us (compare the uninstrumented overhead_"
            f"bouncer row; telemetry must stay microsecond-scale too)")
    assert mean_us < 1000.0


def test_overhead_bouncer_with_registry(benchmark):
    _bench_instrumented(benchmark, Telemetry(), "bouncer_telemetry",
                        "counters only, tracing off")


def test_overhead_bouncer_with_sampled_tracer(benchmark):
    telemetry = Telemetry(tracer=DecisionTracer(sample_rate=0.01))
    _bench_instrumented(benchmark, telemetry, "bouncer_tracer_sampled",
                        "tracer at 1% sampling")


def test_overhead_bouncer_with_full_tracer(benchmark):
    telemetry = Telemetry(tracer=DecisionTracer(sample_rate=1.0))
    _bench_instrumented(benchmark, telemetry, "bouncer_tracer_full",
                        "tracer at 100% sampling")


# -- span tracing overhead -------------------------------------------------
# The lifecycle rows run the complete per-query hook sequence — decide(),
# then on_decision/on_dequeue/on_completion (Figure 1's points 1/2/3) —
# so every span a query opens is also closed inside the measured region.
# The spans row against the plain lifecycle row isolates what opening,
# transitioning, and finishing the root/queue_wait/execute spans costs.

def _bench_lifecycle(benchmark, telemetry, name, note):
    policy, clock = warm_policy(make_bouncer(slos=cluster_slos()))
    types = itertools.cycle(QTYPES)
    now = clock.now()

    def lifecycle():
        query = Query(qtype=next(types))
        result = policy.decide(query)
        telemetry.on_decision(query, result, now=now,
                              queue_length=64, policy=policy)
        if result.accepted:
            query.enqueued_at = now
            query.dequeued_at = now
            telemetry.on_dequeue(query, now=now)
            query.completed_at = now
            telemetry.on_completion(query, now=now)

    benchmark(lifecycle)
    mean_us = benchmark.stats.stats.mean * 1e6
    publish(f"overhead_{name}",
            f"full lifecycle [{note}] mean: {mean_us:.1f} us "
            f"(decide + points 1/2/3; compare overhead_lifecycle_plain "
            f"to isolate span open/close cost per traced query)")
    assert mean_us < 1000.0


def test_overhead_lifecycle_plain(benchmark):
    telemetry = Telemetry(tracer=DecisionTracer(sample_rate=1.0))
    _bench_lifecycle(benchmark, telemetry, "lifecycle_plain",
                     "tracer at 100%, span recorder off")


def test_overhead_lifecycle_with_spans(benchmark):
    telemetry = Telemetry(tracer=DecisionTracer(sample_rate=1.0),
                          spans=SpanRecorder(sample_rate=1.0))
    _bench_lifecycle(benchmark, telemetry, "lifecycle_spans",
                     "tracer and span recorder at 100%")
