"""Host-level unit tests for the cluster model's broker and shard."""

import random

import pytest

from repro.core import AlwaysAcceptPolicy, AlwaysRejectPolicy
from repro.core.types import Query
from repro.liquid import FANOUT_ALL, FANOUT_ONE, ClusterConfig, QueryTypeCost
from repro.liquid.cluster_sim import (BrokerHost, ClusterMetrics, ShardHost)
from repro.sim.simulator import Simulator


def two_type_config(**overrides):
    table = [
        QueryTypeCost("one_round", 0.5, rounds=1, fanout=FANOUT_ALL,
                      subquery_median=0.001, subquery_sigma=0.0,
                      broker_overhead=0.0005),
        QueryTypeCost("two_round", 0.5, rounds=2, fanout=FANOUT_ONE,
                      subquery_median=0.002, subquery_sigma=0.0,
                      broker_overhead=0.001),
    ]
    defaults = dict(cost_table=table, num_brokers=1, num_shards=2,
                    broker_processes=4, shard_processes=2,
                    shard_slowdown_gamma=0.0, broker_slowdown_gamma=0.0,
                    seed=7)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def make_shard(config=None):
    sim = Simulator()
    config = config or two_type_config()
    shard = ShardHost(sim, config, 0, random.Random(1))
    return sim, shard


def make_broker(config=None, policy_factory=None):
    sim = Simulator()
    config = config or two_type_config()
    metrics = ClusterMetrics()
    shards = [ShardHost(sim, config, i, random.Random(i))
              for i in range(config.num_shards)]
    broker = BrokerHost(sim, config, 0,
                        policy_factory or (lambda ctx: AlwaysAcceptPolicy()),
                        shards, metrics, random.Random(9))
    return sim, broker, shards, metrics


class TestShardHost:
    def test_accepted_subquery_completes_with_callback(self):
        sim, shard = make_shard()
        outcomes = []
        parent = Query(qtype="one_round")
        assert shard.offer(parent, 0.003, outcomes.append)
        sim.run()
        assert outcomes == [True]
        assert shard.completed_subqueries == 1
        assert sim.now == pytest.approx(0.003)

    def test_queue_cap_rejects_immediately(self):
        config = two_type_config(queue_cap=1, shard_processes=1)
        sim, shard = make_shard(config)
        outcomes = []
        parent = Query(qtype="one_round")
        shard.offer(parent, 0.010, outcomes.append)   # in service
        shard.offer(parent, 0.010, outcomes.append)   # queued (cap = 1)
        shard.offer(parent, 0.010, outcomes.append)   # over cap -> rejected
        assert outcomes == [False]
        assert shard.rejected_subqueries == 1
        sim.run()
        assert outcomes == [False, True, True]

    def test_parallel_service(self):
        sim, shard = make_shard()  # 2 shard processes
        done = []
        parent = Query(qtype="one_round")
        shard.offer(parent, 0.005, lambda ok: done.append(sim.now))
        shard.offer(parent, 0.005, lambda ok: done.append(sim.now))
        sim.run()
        # Both ran concurrently: both finish at t=5ms.
        assert done == [pytest.approx(0.005), pytest.approx(0.005)]

    def test_subquery_expired_in_queue_answers_false(self):
        sim, shard = make_shard(two_type_config(shard_processes=1))
        outcomes = []
        shard.offer(Query(qtype="one_round"), 0.010, outcomes.append)
        shard.offer(Query(qtype="one_round", deadline=0.005), 0.010,
                    outcomes.append)
        sim.run()
        assert outcomes == [True, False]
        assert shard.errored_subqueries == 1
        assert shard._idle == 1

    def test_slowdown_inflates_service(self):
        config = two_type_config(shard_slowdown_gamma=1.0,
                                 shard_slowdown_power=1.0,
                                 shard_processes=1)
        sim, shard = make_shard(config)
        finished = []
        parent = Query(qtype="one_round")
        shard.offer(parent, 0.010, lambda ok: finished.append(sim.now))
        sim.run()
        # One of one processes busy at dispatch -> slowdown factor 2.
        assert finished[0] == pytest.approx(0.020)


class TestBrokerHost:
    def test_single_round_query_lifecycle(self):
        sim, broker, shards, metrics = make_broker()
        broker.offer(Query(qtype="one_round"))
        sim.run()
        stats = metrics.build_type_stats()["one_round"]
        assert stats.completed == 1
        # pt = max over both shards (1ms deterministic) + 0.5ms merge.
        assert stats.processing[50.0] == pytest.approx(0.0015)

    def test_multi_round_accumulates_rounds(self):
        sim, broker, shards, metrics = make_broker()
        broker.offer(Query(qtype="two_round"))
        sim.run()
        stats = metrics.build_type_stats()["two_round"]
        # 2 rounds x (2ms sub-query + 1ms merge) = 6ms.
        assert stats.processing[50.0] == pytest.approx(0.006)

    def test_policy_rejection_counts_at_broker(self):
        sim, broker, shards, metrics = make_broker(
            policy_factory=lambda ctx: AlwaysRejectPolicy())
        broker.offer(Query(qtype="one_round"))
        sim.run()
        assert metrics.broker_rejections.get("one_round") == 1
        assert metrics.build_overall_stats().completed == 0

    def test_shard_rejection_fails_whole_query(self):
        config = two_type_config(queue_cap=1, shard_processes=1)
        sim, broker, shards, metrics = make_broker(config)
        # Saturate shard 0 and its 1-slot queue with direct sub-queries.
        blocker = Query(qtype="one_round")
        shards[0].offer(blocker, 0.050, lambda ok: None)
        shards[0].offer(blocker, 0.050, lambda ok: None)
        # Now a fan-out query must get its shard-0 sub-query refused.
        broker.offer(Query(qtype="one_round"))
        sim.run()
        assert metrics.shard_rejections.get("one_round") == 1
        stats = metrics.build_type_stats()["one_round"]
        assert stats.completed == 0
        assert stats.rejected == 1

    def test_engine_processes_limit_concurrency(self):
        config = two_type_config(broker_processes=1)
        sim, broker, shards, metrics = make_broker(config)
        broker.offer(Query(qtype="one_round"))
        broker.offer(Query(qtype="one_round"))
        sim.run()
        stats = metrics.build_type_stats()["one_round"]
        assert stats.completed == 2
        # Serialized: the second query waited for the first (1.5ms each),
        # so responses are [1.5ms, 3.0ms]; the interpolated p90 is 2.85ms.
        assert stats.response[90.0] == pytest.approx(0.00285)

    def test_deadline_past_in_shard_queue_fails_query(self):
        config = two_type_config(shard_processes=1)
        sim, broker, shards, metrics = make_broker(config)
        # A blocker holds shard 0's one engine past the query's deadline.
        shards[0].offer(Query(qtype="one_round"), 0.050, lambda ok: None)
        broker.offer(Query(qtype="one_round", deadline=0.010))
        sim.run()
        assert metrics.shard_rejections.get("one_round") == 1
        assert broker._idle == broker.parallelism

    def test_deadline_past_in_broker_queue_expires(self):
        config = two_type_config(broker_processes=1)
        sim, broker, shards, metrics = make_broker(config)
        broker.offer(Query(qtype="one_round"))  # holds the engine 1.5ms
        broker.offer(Query(qtype="one_round", deadline=0.001))
        sim.run()
        stats = metrics.build_overall_stats()
        assert (stats.completed, stats.expired, stats.rejected) == (1, 1, 0)
        assert broker._idle == broker.parallelism

    def test_completion_feeds_policy_histograms(self):
        seen = []

        class Recorder(AlwaysAcceptPolicy):
            def on_completed(self, query, wait, proc):
                seen.append((query.qtype, proc))

        sim, broker, shards, metrics = make_broker(
            policy_factory=lambda ctx: Recorder())
        broker.offer(Query(qtype="one_round"))
        sim.run()
        assert seen and seen[0][0] == "one_round"
        assert seen[0][1] == pytest.approx(0.0015)
