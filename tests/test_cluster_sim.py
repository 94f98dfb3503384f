"""Tests for the event-driven LIquid cluster model (§5.4 substrate)."""

import pytest

from repro.core import (AlwaysAcceptPolicy, AlwaysRejectPolicy,
                        BouncerConfig, BouncerPolicy, LatencySLO,
                        SLORegistry)
from repro.exceptions import ConfigurationError
from repro.liquid import (FANOUT_ALL, FANOUT_ONE, ClusterConfig,
                          QueryTypeCost, linkedin_cost_table,
                          run_cluster_simulation)
from repro.liquid.cluster_sim import LiquidClusterSim
from repro.sim.simulator import Simulator


def tiny_cost_table():
    return [
        QueryTypeCost("cheap", 0.7, rounds=1, fanout=FANOUT_ONE,
                      subquery_median=0.001, subquery_sigma=0.2,
                      broker_overhead=0.0001),
        QueryTypeCost("dear", 0.3, rounds=2, fanout=FANOUT_ALL,
                      subquery_median=0.002, subquery_sigma=0.2,
                      broker_overhead=0.0005),
    ]


def tiny_config(**overrides):
    defaults = dict(cost_table=tiny_cost_table(), num_brokers=2,
                    num_shards=2, broker_processes=8, shard_processes=8,
                    seed=3)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def accept_all(ctx):
    return AlwaysAcceptPolicy()


class TestQueryTypeCost:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QueryTypeCost("x", 0.5, rounds=0, fanout=FANOUT_ALL,
                          subquery_median=0.001, subquery_sigma=0.1)
        with pytest.raises(ConfigurationError):
            QueryTypeCost("x", 0.5, rounds=1, fanout="some",
                          subquery_median=0.001, subquery_sigma=0.1)
        with pytest.raises(ConfigurationError):
            QueryTypeCost("x", 0.5, rounds=1, fanout=FANOUT_ALL,
                          subquery_median=0.0, subquery_sigma=0.1)

    def test_shard_work_accounts_for_fanout_and_rounds(self):
        cost = QueryTypeCost("x", 1.0, rounds=2, fanout=FANOUT_ALL,
                             subquery_median=0.001, subquery_sigma=0.0)
        assert cost.shard_work_per_query(4) == pytest.approx(0.008)
        one = QueryTypeCost("y", 1.0, rounds=2, fanout=FANOUT_ONE,
                            subquery_median=0.001, subquery_sigma=0.0)
        assert one.shard_work_per_query(4) == pytest.approx(0.002)

    def test_subquery_mean_above_median(self):
        cost = QueryTypeCost("x", 1.0, rounds=1, fanout=FANOUT_ONE,
                             subquery_median=0.001, subquery_sigma=0.5)
        assert cost.subquery_mean > 0.001


class TestClusterConfig:
    def test_proportions_must_sum_to_one(self):
        bad = [QueryTypeCost("only", 0.5, 1, FANOUT_ONE, 0.001, 0.1)]
        with pytest.raises(ConfigurationError):
            ClusterConfig(cost_table=bad)

    def test_duplicate_types_rejected(self):
        dup = [QueryTypeCost("t", 0.5, 1, FANOUT_ONE, 0.001, 0.1),
               QueryTypeCost("t", 0.5, 1, FANOUT_ONE, 0.001, 0.1)]
        with pytest.raises(ConfigurationError):
            ClusterConfig(cost_table=dup)

    def test_cost_lookup(self):
        config = tiny_config()
        assert config.cost_for("cheap").name == "cheap"
        with pytest.raises(KeyError):
            config.cost_for("nope")

    def test_saturation_qps_formula(self):
        config = tiny_config()
        expected = ((config.num_shards * config.shard_processes)
                    / config.weighted_shard_work())
        assert config.shard_saturation_qps() == pytest.approx(expected)

    def test_linkedin_cost_table_shape(self):
        table = linkedin_cost_table()
        assert [c.name for c in table] == [f"QT{i}" for i in range(1, 12)]
        assert sum(c.proportion for c in table) == pytest.approx(1.0)
        # Ascending per-query latency ladder.  A full-fan-out round waits
        # for the max of num_shards lognormal draws; E[max of 4] multiplies
        # the median by ~exp(1.03 * sigma).
        import math
        walls = []
        for c in table:
            max_factor = (math.exp(1.03 * c.subquery_sigma)
                          if c.fanout == FANOUT_ALL else 1.0)
            walls.append(c.rounds * (c.subquery_median * max_factor
                                     + c.broker_overhead))
        assert walls == sorted(walls)


class TestClusterExecution:
    def test_light_load_no_rejections(self):
        report = run_cluster_simulation(tiny_config(), accept_all,
                                        rate_qps=200.0, num_queries=500,
                                        warmup_queries=100, seed=1)
        assert report.overall.rejected == 0
        assert report.overall.completed == 500

    def test_response_time_includes_all_rounds(self):
        # 'dear': 2 rounds x (subq ~2ms + overhead 0.5ms) >= ~5ms.
        report = run_cluster_simulation(tiny_config(), accept_all,
                                        rate_qps=100.0, num_queries=400,
                                        warmup_queries=100, seed=2)
        dear = report.stats_for("dear")
        cheap = report.stats_for("cheap")
        assert dear.processing.get(50.0) > cheap.processing.get(50.0)
        assert dear.processing.get(50.0) >= 0.004

    def test_reproducible_with_seed(self):
        kwargs = dict(rate_qps=300.0, num_queries=400, warmup_queries=100)
        a = run_cluster_simulation(tiny_config(), accept_all, seed=5,
                                   **kwargs)
        b = run_cluster_simulation(tiny_config(), accept_all, seed=5,
                                   **kwargs)
        assert a.overall.response == b.overall.response

    def test_report_does_not_follow_string_hash_order(self):
        # Pooling types in set order made the overall means (a float sum)
        # and the per-type key order differ between processes with
        # different PYTHONHASHSEEDs.
        from repro._stats import mean
        from repro.liquid.cluster_sim import ClusterMetrics

        metrics = ClusterMetrics()
        names = [f"QT{i}" for i in range(20)]
        for i, name in enumerate(names):
            metrics.responses[name] = [0.1 / (i + 3), 0.7 / (i + 7)]
            metrics.processing[name] = [0.1 / (i + 3)]
        assert list(metrics.build_type_stats()) == sorted(names)
        in_sorted_order = [value for name in sorted(names)
                           for value in metrics.responses[name]]
        # repro: allow=no-simtime-float-eq (bit-identity: same summation)
        assert (metrics.build_overall_stats().response_mean
                == mean(in_sorted_order))

    def test_broker_rejections_counted(self):
        report = run_cluster_simulation(
            tiny_config(), lambda ctx: AlwaysRejectPolicy(),
            rate_qps=200.0, num_queries=300, warmup_queries=50, seed=1)
        assert report.overall.rejected == 300
        assert report.broker_rejections == 300
        assert report.overall.completed == 0

    def test_mix_proportions_respected(self):
        report = run_cluster_simulation(tiny_config(), accept_all,
                                        rate_qps=300.0, num_queries=3000,
                                        warmup_queries=200, seed=7)
        cheap_share = report.stats_for("cheap").received / 3000
        assert cheap_share == pytest.approx(0.7, abs=0.03)

    def test_round_robin_balances_brokers(self):
        sim = Simulator()
        cluster = LiquidClusterSim(sim, tiny_config(), accept_all)
        from repro.core.types import Query
        for i in range(10):
            cluster.offer(Query(qtype="cheap"))
        received = [broker.policy.stats.totals().received
                    for broker in cluster.brokers]
        assert received == [5, 5]

    def test_shard_shedding_under_extreme_load(self):
        # Overwhelm the tiny cluster: shards must start shedding and the
        # failures surface as (downstream) rejections at the brokers.
        report = run_cluster_simulation(tiny_config(), accept_all,
                                        rate_qps=6000.0, num_queries=4000,
                                        warmup_queries=1000, seed=9)
        assert report.shard_rejections > 0
        assert report.overall.rejected == (report.broker_rejections
                                           + report.shard_rejections)

    def test_slowdown_inflates_processing_under_load(self):
        config = tiny_config(shard_slowdown_gamma=2.0,
                             broker_slowdown_gamma=1.0)
        light = run_cluster_simulation(config, accept_all, rate_qps=100.0,
                                       num_queries=800, warmup_queries=200,
                                       seed=4)
        heavy = run_cluster_simulation(config, accept_all, rate_qps=2500.0,
                                       num_queries=2500, warmup_queries=600,
                                       seed=4)
        assert (heavy.stats_for("dear").processing_mean
                > light.stats_for("dear").processing_mean)

    def test_queue_cap_bounds_broker_queue(self):
        config = tiny_config(queue_cap=20)
        report = run_cluster_simulation(config, accept_all,
                                        rate_qps=5000.0, num_queries=2000,
                                        warmup_queries=500, seed=6)
        # With a tiny cap, the cap (broker-side) must produce rejections.
        assert report.broker_rejections > 0

    def test_bouncer_on_brokers_keeps_slo(self):
        qtypes = [c.name for c in tiny_cost_table()]
        slos = SLORegistry.uniform(LatencySLO.from_ms(p50=15, p90=40),
                                   qtypes)

        def bouncer(ctx):
            return BouncerPolicy(ctx, BouncerConfig(slos=slos))

        report = run_cluster_simulation(tiny_config(), bouncer,
                                        rate_qps=2500.0, num_queries=4000,
                                        warmup_queries=2500, seed=8)
        assert report.overall.rejected > 0
        for qtype in qtypes:
            stats = report.stats_for(qtype)
            if stats.completed:
                assert stats.response.get(50.0) <= 0.015 * 1.3
