"""Differential battery for batched admission (``decide_many``).

The contract under test (see ``AdmissionPolicy.decide_many``): for any
policy and any query burst, ``decide_many`` must be *bit-identical* to
the scalar ``decide`` loop — results, ``PolicyStats`` tallies, and every
side effect applied through the ``on_decision`` callback.  The property
tests drive a scalar world and a batch world through identical random
op scripts (records, enqueues, dequeues, clock advances, decision
bursts with and without a host-style enqueue callback) for Bouncer in
every histogram mode *and* every baseline/wrapper policy.

Also here: the batch arm of the Figure 6 differential guard (a batched
simulation run against the seed scalar run), the empty-batch and
snapshot-epoch-boundary memo regressions, and the runtime host's
``submit_many`` (including per-query fail-open).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (BouncerConfig, BouncerPolicy, HostContext,
                        LatencySLO, ManualClock, QueueView, SLORegistry)
from repro.core.bouncer import HISTOGRAMS_SLIDING_WINDOW
from repro.core.baselines.accept_fraction import AcceptFractionPolicy
from repro.core.baselines.max_queue_length import MaxQueueLengthPolicy
from repro.core.baselines.max_queue_wait import MaxQueueWaitTimePolicy
from repro.core.baselines.queue_cap import QueueLimitWrapper
from repro.core.policy import AlwaysAcceptPolicy, AlwaysRejectPolicy
from repro.core.starvation import (AcceptanceAllowancePolicy,
                                   HelpingTheUnderservedPolicy)
from repro.core.types import Query

SLO = LatencySLO.from_ms(p50=18, p90=50)
TYPES = ("fast", "slow", "bulk")


def _bouncer_factory(**config):
    def make(ctx):
        registry = SLORegistry.uniform(SLO, TYPES)
        defaults = dict(min_samples=1, retain_min_samples=1,
                        bootstrap_samples=0)
        defaults.update(config)
        return BouncerPolicy(ctx, BouncerConfig(slos=registry, **defaults))
    return make


def _simulate(policy_factory, *, batched, burst, num_queries,
              warmup_queries, seed, **host_kwargs):
    """A bursty Table-1 run at 4000 qps, either through ``run_simulation``
    (each burst one ``offer_many`` / ``decide_many``) or, as the reference,
    the same bursts at the same instants with one
    ``SimulatedServer.offer`` (one ``decide``) per query."""
    import itertools
    import types

    from repro.bench.experiments import simulation_mix
    from repro.sim import (ArrivalSchedule, SimulatedServer, Simulator,
                           run_simulation)

    if batched:
        return run_simulation(
            simulation_mix(), policy_factory, rate_qps=4000.0,
            num_queries=num_queries, parallelism=100,
            warmup_queries=warmup_queries, seed=seed, burst=burst,
            attainment_threshold=0.05, **host_kwargs)
    sim = Simulator()
    server = SimulatedServer(sim, 100, policy_factory, **host_kwargs)
    arrivals = iter(ArrivalSchedule(simulation_mix(), 4000.0, seed=seed,
                                    burst=burst))
    total = warmup_queries + num_queries
    offered = 0

    def arrive(queries):
        nonlocal offered
        for query in queries:
            if offered == warmup_queries:
                server.reset_measurement()
            server.offer(query)
            offered += 1
        if offered < total:
            schedule_next()

    def schedule_next():
        queries = list(itertools.islice(arrivals,
                                        min(burst, total - offered)))
        sim._schedule_call(queries[0].arrival_time, arrive, queries)

    schedule_next()
    sim.run()
    server.flush_telemetry()
    return types.SimpleNamespace(
        attainment=server.metrics.attainment(0.05),
        overall=server.metrics.build_overall_stats(),
        per_type=server.metrics.build_type_stats())


#: Every policy held to the batch contract.  Bouncer's fast path carries
#: ``debug_check`` so it additionally self-verifies Eq. 2 per decision;
#: policies with internal randomness get fixed seeds so the scalar and
#: batch worlds draw identical streams.
POLICY_FACTORIES = {
    "bouncer_fast": _bouncer_factory(fast_path=True, debug_check=True),
    "bouncer_naive": _bouncer_factory(fast_path=False),
    "bouncer_sliding": _bouncer_factory(
        histogram_mode=HISTOGRAMS_SLIDING_WINDOW, histogram_window=3.0,
        min_samples=2),
    "maxql": lambda ctx: MaxQueueLengthPolicy(ctx, limit=3),
    "maxqwt": lambda ctx: MaxQueueWaitTimePolicy(ctx, limit=0.01),
    "accept_fraction": lambda ctx: AcceptFractionPolicy(ctx, seed=7),
    "queue_cap": lambda ctx: QueueLimitWrapper(
        _bouncer_factory(fast_path=True)(ctx), ctx, limit=4),
    "starvation_aa": lambda ctx: AcceptanceAllowancePolicy(
        _bouncer_factory(fast_path=True)(ctx), ctx.clock, allowance=0.4,
        window=4.0, step=1.0, seed=13),
    "starvation_hu": lambda ctx: HelpingTheUnderservedPolicy(
        _bouncer_factory(fast_path=True)(ctx), ctx.clock, alpha=1.0,
        window=4.0, step=1.0, qtypes=TYPES, seed=13),
    "always_accept": lambda ctx: AlwaysAcceptPolicy(),
    "always_reject": lambda ctx: AlwaysRejectPolicy(),
}


class World:
    """One policy instance with its own clock, queue, and queue mirror."""

    def __init__(self, factory, parallelism=4):
        self.clock = ManualClock()
        self.queue = QueueView()
        ctx = HostContext(clock=self.clock, queue=self.queue,
                          parallelism=parallelism)
        self.policy = factory(ctx)
        self.queued = []

    def host_callback(self, query, result):
        """Host-style side effect: enqueue each accepted query before the
        next one in the burst is decided (what ``offer_many`` does)."""
        if result.accepted:
            self.queue.on_enqueue(query.qtype)
            self.policy.on_enqueued(query)
            self.queued.append(query.qtype)


def _assert_result_identical(scalar, batch):
    assert scalar.decision is batch.decision
    assert scalar.reason is batch.reason
    assert scalar.estimates == batch.estimates  # exact float equality


class BatchDifferentialRunner:
    """Drive a scalar world and a batch world through one op script."""

    def __init__(self, factory):
        self.scalar = World(factory)
        self.batch = World(factory)

    def run(self, ops):
        for kind, arg in ops:
            if kind == "record":
                qtype, value = arg
                for world in (self.scalar, self.batch):
                    world.policy.on_completed(Query(qtype=qtype), 0.0, value)
            elif kind == "enqueue":
                for world in (self.scalar, self.batch):
                    world.queue.on_enqueue(arg)
                    world.policy.on_enqueued(Query(qtype=arg))
                    world.queued.append(arg)
            elif kind == "dequeue":
                if self.scalar.queued:
                    index = arg % len(self.scalar.queued)
                    for world in (self.scalar, self.batch):
                        qtype = world.queued.pop(index)
                        world.queue.on_dequeue(qtype)
                        world.policy.on_dequeued(Query(qtype=qtype), 0.0)
            elif kind == "advance":
                for world in (self.scalar, self.batch):
                    world.clock.advance(arg)
            elif kind == "batch":
                qtypes, use_callback = arg
                self._decide_burst(qtypes, use_callback)
        self.assert_worlds_identical()

    def _decide_burst(self, qtypes, use_callback):
        scalar_queries = [Query(qtype=qtype) for qtype in qtypes]
        batch_queries = [Query(qtype=qtype) for qtype in qtypes]
        if use_callback:
            scalar_results = []
            for query in scalar_queries:
                result = self.scalar.policy.decide(query)
                self.scalar.host_callback(query, result)
                scalar_results.append(result)
            batch_results = self.batch.policy.decide_many(
                batch_queries, on_decision=self.batch.host_callback)
        else:
            scalar_results = [self.scalar.policy.decide(query)
                              for query in scalar_queries]
            batch_results = self.batch.policy.decide_many(batch_queries)
        assert len(scalar_results) == len(batch_results) == len(qtypes)
        for scalar, batch in zip(scalar_results, batch_results):
            _assert_result_identical(scalar, batch)
            # Fresh estimates dict per result: mutating one must not leak.
            assert scalar.estimates is not batch.estimates or not scalar.estimates

    def assert_worlds_identical(self):
        assert self.scalar.policy.stats.types() == \
            self.batch.policy.stats.types()
        assert self.scalar.queue.occupancy() == self.batch.queue.occupancy()
        assert self.scalar.queued == self.batch.queued
        scalar_wait = getattr(self.scalar.policy, "estimate_wait_mean", None)
        if scalar_wait is not None:
            assert scalar_wait() == self.batch.policy.estimate_wait_mean()


def op_strategy():
    qtypes = st.sampled_from(TYPES)
    values = st.floats(min_value=1e-4, max_value=0.2, allow_nan=False,
                       allow_infinity=False)
    bursts = st.tuples(st.lists(qtypes, min_size=0, max_size=12),
                       st.booleans())
    return st.lists(
        st.one_of(
            st.tuples(st.just("record"), st.tuples(qtypes, values)),
            st.tuples(st.just("enqueue"), qtypes),
            st.tuples(st.just("dequeue"), st.integers(0, 7)),
            st.tuples(st.just("advance"),
                      st.sampled_from([0.1, 0.4, 1.0, 2.5])),
            st.tuples(st.just("batch"), bursts),
        ),
        min_size=1, max_size=40)


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("name", sorted(POLICY_FACTORIES))
    @settings(max_examples=20, deadline=None)
    @given(ops=op_strategy())
    def test_property_interleavings(self, name, ops):
        runner = BatchDifferentialRunner(POLICY_FACTORIES[name])
        runner.run(ops)

    def test_seeded_soak_bouncer_fast(self):
        # A longer seeded soak than hypothesis explores per example:
        # crosses many publish boundaries with large mid-burst mutation.
        rng = random.Random(99)
        ops = []
        for _ in range(500):
            roll = rng.random()
            if roll < 0.30:
                ops.append(("record", (rng.choice(TYPES),
                                       rng.uniform(1e-4, 0.08))))
            elif roll < 0.45:
                ops.append(("enqueue", rng.choice(TYPES)))
            elif roll < 0.60:
                ops.append(("dequeue", rng.randrange(8)))
            elif roll < 0.70:
                ops.append(("advance", rng.choice([0.2, 0.7, 1.3])))
            else:
                burst = [rng.choice(TYPES)
                         for _ in range(rng.randrange(0, 10))]
                ops.append(("batch", (burst, rng.random() < 0.5)))
        runner = BatchDifferentialRunner(POLICY_FACTORIES["bouncer_fast"])
        runner.run(ops)


class TestBatchMemoRegressions:
    """Satellite regressions: the empty batch and a batch spanning a
    snapshot-epoch boundary must not poison the epoch-keyed memo."""

    def _warmed_pair(self):
        worlds = [World(POLICY_FACTORIES["bouncer_fast"])
                  for _ in range(2)]
        for world in worlds:
            for qtype in TYPES:
                for _ in range(4):
                    world.policy.on_completed(Query(qtype=qtype), 0.0, 0.01)
            world.clock.advance(1.5)
            world.queue.on_enqueue("fast")
            world.policy.on_enqueued(Query(qtype="fast"))
        return worlds

    def test_empty_batch_returns_empty_and_touches_nothing(self):
        world, _ = self._warmed_pair()
        world.policy.decide(Query(qtype="fast"))  # prime the caches
        before = world.policy.fast_path_stats
        calls, misses = before.batch_calls, before.cache_misses
        assert world.policy.decide_many([]) == []
        after = world.policy.fast_path_stats
        assert after.batch_calls == calls      # not counted as a batch
        assert after.cache_misses == misses    # no snapshot/memo touch
        assert world.policy.stats.totals().received == 1

    def test_empty_batch_then_decisions_still_identical(self):
        batch_world, scalar_world = self._warmed_pair()
        batch_world.policy.decide_many([])
        for qtype in ("fast", "slow", "bulk"):
            batch = batch_world.policy.decide_many([Query(qtype=qtype)])[0]
            scalar = scalar_world.policy.decide(Query(qtype=qtype))
            _assert_result_identical(scalar, batch)

    def test_batch_spanning_epoch_boundary(self):
        # Records land mid-interval, the clock crosses the publish
        # boundary, and the NEXT touch is the batch itself: the first
        # query of the burst must trigger the lazy publish (new epoch)
        # and the rest of the burst must reuse the fresh memo — exactly
        # what the scalar loop would do.
        batch_world, scalar_world = self._warmed_pair()
        for world in (batch_world, scalar_world):
            for _ in range(6):
                world.policy.on_completed(Query(qtype="fast"), 0.0, 0.03)
            world.clock.advance(1.1)  # cross the 1s publish boundary
        qtypes = ["fast", "slow", "fast", "bulk", "fast"]
        batch_results = batch_world.policy.decide_many(
            [Query(qtype=qtype) for qtype in qtypes])
        scalar_results = [scalar_world.policy.decide(Query(qtype=qtype))
                          for qtype in qtypes]
        for scalar, batch in zip(scalar_results, batch_results):
            _assert_result_identical(scalar, batch)
        # The memo survives the boundary healthily: post-batch scalar
        # decisions on both worlds still agree bit-for-bit.
        for qtype in TYPES:
            _assert_result_identical(
                scalar_world.policy.decide(Query(qtype=qtype)),
                batch_world.policy.decide(Query(qtype=qtype)))


class TestFig06BatchArm:
    """The batch arm of the Figure 6 differential guard: a batched
    simulation run must be bit-identical to the seed scalar run."""

    def _run(self, burst, batched, fast_path):
        from repro.bench.experiments import make_bouncer

        seq = []
        overrides = (dict(fast_path=True, debug_check=True) if fast_path
                     else dict(fast_path=False))
        report = _simulate(
            make_bouncer(**overrides), batched=batched, burst=burst,
            num_queries=2500, warmup_queries=1000, seed=11,
            on_decision=lambda now, q, r: seq.append(
                (now, q.qtype, r.accepted,
                 tuple(sorted(r.estimates.items())))))
        return seq, report

    @pytest.mark.parametrize("burst", [8, 64])
    def test_batched_run_bit_identical_to_scalar_run(self, burst):
        scalar_seq, scalar_report = self._run(burst, batched=False,
                                              fast_path=True)
        batch_seq, batch_report = self._run(burst, batched=True,
                                            fast_path=True)
        assert len(scalar_seq) > 0
        assert scalar_seq == batch_seq
        assert scalar_report.attainment == batch_report.attainment
        assert scalar_report.overall.response == \
            batch_report.overall.response

    def test_batched_fast_matches_batched_naive(self):
        fast_seq, fast_report = self._run(8, batched=True, fast_path=True)
        naive_seq, naive_report = self._run(8, batched=True,
                                            fast_path=False)
        assert fast_seq == naive_seq
        assert fast_report.attainment == naive_report.attainment


class TestRuntimeSubmitMany:
    def _make_server(self, policy_factory, workers=2):
        from repro.runtime import AdmissionServer

        def handler(query):
            return ("done", query.qtype)

        return AdmissionServer(policy_factory, handler, workers=workers)

    def test_burst_matches_scalar_results(self):
        registry = SLORegistry.uniform(SLO, TYPES)

        def factory(ctx):
            return BouncerPolicy(ctx, BouncerConfig(
                slos=registry, min_samples=1, retain_min_samples=1,
                bootstrap_samples=0, fast_path=True, debug_check=True))

        qtypes = ["fast", "slow", "fast", "bulk"]
        with self._make_server(factory) as server:
            pairs = server.submit_many([Query(qtype=qtype)
                                        for qtype in qtypes])
            assert len(pairs) == len(qtypes)
            for result, future in pairs:
                assert result.accepted
                assert future is not None
                assert future.result(timeout=2.0)[0] == "done"
            assert server.policy.stats.totals().accepted == len(qtypes)

    def test_empty_burst(self):
        with self._make_server(lambda ctx: AlwaysAcceptPolicy()) as server:
            assert server.submit_many([]) == []

    def test_rejections_returned_not_raised(self):
        with self._make_server(lambda ctx: AlwaysRejectPolicy()) as server:
            pairs = server.submit_many([Query(qtype="x"),
                                        Query(qtype="y")])
            assert [future for _, future in pairs] == [None, None]
            assert all(not result.accepted for result, _ in pairs)

    def test_submit_many_before_start_raises(self):
        from repro.exceptions import ShuttingDownError

        server = self._make_server(lambda ctx: AlwaysAcceptPolicy())
        with pytest.raises(ShuttingDownError):
            server.submit_many([Query(qtype="x")])

    def test_per_query_fail_open(self):
        class FlakyPolicy(AlwaysAcceptPolicy):
            """Explodes on the marked query, scalar or batched."""

            def _decide(self, query):
                if query.qtype == "boom":
                    raise RuntimeError("policy bug")
                return super()._decide(query)

        qtypes = ["ok", "boom", "ok", "boom", "ok"]
        with self._make_server(lambda ctx: FlakyPolicy()) as server:
            pairs = server.submit_many([Query(qtype=qtype)
                                        for qtype in qtypes])
            # Every query — including the two that broke the policy — is
            # admitted: fail-open costs admission control, not availability.
            assert len(pairs) == len(qtypes)
            for result, future in pairs:
                assert result.accepted
                assert future is not None
                assert future.result(timeout=2.0)[0] == "done"


class TestSpansOnBatchDifferential:
    """Satellite guard: an *unarmed* injector or an attached span recorder
    must not push ``offer_many`` off the batch path, and tracing must not
    perturb results — batched and scalar runs with spans on produce the
    same report and the same span stream."""

    def _run(self, batched):
        import json

        from repro.bench.experiments import make_bouncer
        from repro.faults import FaultInjector, FaultPlan
        from repro.telemetry import SpanRecorder, Telemetry

        recorder = SpanRecorder(capacity=100_000, sample_rate=1.0)
        telemetry = Telemetry(spans=recorder)
        # Attached but never armed: all hooks are inert no-ops.
        injector = FaultInjector(FaultPlan(name="idle", seed=5))
        report = _simulate(
            make_bouncer(), batched=batched, burst=4, num_queries=1500,
            warmup_queries=500, seed=23, telemetry=telemetry)
        spans = []
        # Global counters (query ids, trace/span ids) differ between two
        # runs in one process; remap them to first-seen ordinals so only
        # the structure and timings are compared.
        canonical: dict = {}

        def ordinal(value):
            if value is None:
                return None
            return canonical.setdefault(value, len(canonical))

        for line in recorder.render_jsonl().splitlines():
            record = json.loads(line)
            record.pop("query_id", None)
            for key in ("trace_id", "span_id", "parent_id"):
                if key in record:
                    record[key] = ordinal(record[key])
            spans.append(record)
        return report, spans

    def test_batched_run_matches_scalar_with_spans_on(self):
        batch_report, batch_spans = self._run(batched=True)
        scalar_report, scalar_spans = self._run(batched=False)
        assert len(batch_spans) > 0
        assert batch_spans == scalar_spans
        assert batch_report.attainment == scalar_report.attainment
        assert batch_report.overall == scalar_report.overall
        assert batch_report.per_type == scalar_report.per_type
