"""Tests for the end-to-end simulation driver (§5.3 methodology)."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AlwaysAcceptPolicy, MaxQueueLengthPolicy
from repro.exceptions import ConfigurationError
from repro.sim import (ArrivalSchedule, QueryTypeSpec, SimulatedServer,
                       Simulator, WorkloadMix, run_simulation)


def small_mix():
    return WorkloadMix([
        QueryTypeSpec.from_mean_median("fast", 0.7, 0.002, 0.0015),
        QueryTypeSpec.from_mean_median("slow", 0.3, 0.010, 0.007),
    ])


def accept_all(ctx):
    return AlwaysAcceptPolicy()


class TestRunSimulation:
    def test_rejects_bad_num_queries(self):
        with pytest.raises(ConfigurationError):
            run_simulation(small_mix(), accept_all, 100.0, num_queries=0)

    @pytest.mark.parametrize("warmup", [None, 10])
    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_rejects_a_rate_that_is_not_finite(self, rate, warmup):
        with pytest.raises(ConfigurationError):
            run_simulation(small_mix(), accept_all, rate, num_queries=10,
                           warmup_queries=warmup)

    def test_rejects_a_fractional_burst(self):
        with pytest.raises(ConfigurationError):
            run_simulation(small_mix(), accept_all, 100.0, num_queries=10,
                           burst=2.5)

    def test_report_counts_measured_queries_only(self):
        mix = small_mix()
        report = run_simulation(mix, accept_all, rate_qps=500.0,
                                num_queries=2000, warmup_queries=500,
                                parallelism=8, seed=1)
        assert report.overall.received == 2000
        assert report.overall.completed == 2000  # accept-all, no rejections
        assert report.overall.rejected == 0

    @pytest.mark.parametrize("warmup", [504, 503])
    def test_burst_straddling_the_warmup_boundary(self, warmup):
        # 503 % 8 != 0: the boundary burst's warm-up part arrives at the
        # instant the window opens and must still not be measured.
        mix = small_mix()
        report = run_simulation(mix, accept_all, rate_qps=500.0,
                                num_queries=2000, warmup_queries=warmup,
                                parallelism=8, seed=1, burst=8)
        overall = report.overall
        assert (overall.completed + overall.expired + overall.errors
                + overall.rejected) == 2000
        assert sum(stats.completed for stats in report.per_type.values()
                   ) == overall.completed

    def test_underload_means_no_queueing(self):
        mix = small_mix()
        # Offered load ~ 0.4 of capacity: responses ~ service times.
        rate = 0.4 * mix.full_load_qps(8)
        report = run_simulation(mix, accept_all, rate_qps=rate,
                                num_queries=3000, parallelism=8, seed=2)
        fast = report.stats_for("fast")
        assert fast.wait_mean < 0.002
        assert fast.response.get(50.0) == pytest.approx(0.0015, rel=0.2)

    def test_reproducible_with_same_seed(self):
        mix = small_mix()
        kwargs = dict(rate_qps=800.0, num_queries=1500, parallelism=8,
                      warmup_queries=200)
        a = run_simulation(mix, accept_all, seed=7, **kwargs)
        b = run_simulation(mix, accept_all, seed=7, **kwargs)
        assert a.overall.response == b.overall.response
        assert a.utilization == b.utilization

    def test_different_seeds_differ(self):
        mix = small_mix()
        kwargs = dict(rate_qps=800.0, num_queries=1500, parallelism=8,
                      warmup_queries=200)
        a = run_simulation(mix, accept_all, seed=7, **kwargs)
        b = run_simulation(mix, accept_all, seed=8, **kwargs)
        assert a.overall.response != b.overall.response

    def test_overload_utilization_approaches_one(self):
        mix = small_mix()
        rate = 1.5 * mix.full_load_qps(8)
        report = run_simulation(mix, accept_all, rate_qps=rate,
                                num_queries=4000, parallelism=8, seed=3)
        assert report.utilization > 0.9

    def test_report_accessors(self):
        mix = small_mix()
        report = run_simulation(mix, accept_all, rate_qps=500.0,
                                num_queries=1000, parallelism=8, seed=4)
        assert report.policy_name == "always-accept"
        assert report.rejection_pct() == 0.0
        assert report.rejection_pct("fast") == 0.0
        assert report.response_percentile("fast", 50.0) > 0.0
        assert report.response_percentile("missing", 50.0) == 0.0
        assert "always-accept" in str(report)

    def test_decision_hook_invoked_per_arrival(self):
        mix = small_mix()
        decisions = []
        run_simulation(mix, accept_all, rate_qps=500.0, num_queries=100,
                       warmup_queries=50, parallelism=8, seed=5,
                       on_decision=lambda now, q, r: decisions.append(now))
        assert len(decisions) == 150  # warm-up + measured
        assert decisions == sorted(decisions)

    def test_per_type_breakdown_present(self):
        mix = small_mix()
        report = run_simulation(mix, accept_all, rate_qps=500.0,
                                num_queries=1000, parallelism=8, seed=6)
        assert set(report.per_type) == {"fast", "slow"}
        ratio = report.per_type["fast"].received / 1000
        assert ratio == pytest.approx(0.7, abs=0.05)


class TestConservation:
    """No offered query is lost or counted twice, whatever the burst size
    and wherever the warm-up boundary falls inside a burst."""

    @settings(max_examples=60, deadline=None)
    @given(num_queries=st.integers(min_value=1, max_value=300),
           warmup=st.integers(min_value=0, max_value=150),
           burst=st.sampled_from([1, 2, 3, 8, 64, 500]),
           load=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
           seed=st.integers(min_value=0, max_value=1000))
    def test_report_accounts_for_every_offered_query(
            self, num_queries, warmup, burst, load, seed):
        mix = small_mix()
        decisions = []
        report = run_simulation(
            mix, lambda ctx: MaxQueueLengthPolicy(ctx, limit=3),
            rate_qps=load * mix.full_load_qps(4), num_queries=num_queries,
            warmup_queries=warmup, parallelism=4, seed=seed, burst=burst,
            on_decision=lambda now, q, r: decisions.append(
                (q.window, q.qtype, r.accepted)))
        # Every arrival is decided exactly once, and the measurement window
        # opens exactly between the last warm-up query and the first
        # measured one, even in the middle of a burst.
        assert [window for window, _, _ in decisions] == \
            [0] * warmup + [1] * num_queries
        measured = decisions[warmup:]
        overall = report.overall
        assert report.offered == num_queries
        assert overall.rejected == sum(not ok for _, _, ok in measured)
        assert (overall.completed + overall.expired + overall.errors
                == sum(ok for _, _, ok in measured))
        for qtype, stats in report.per_type.items():
            mine = [ok for _, name, ok in measured if name == qtype]
            assert stats.received == len(mine)
            assert stats.rejected == mine.count(False)
        for count in ("completed", "rejected", "expired", "errors"):
            assert sum(getattr(stats, count)
                       for stats in report.per_type.values()
                       ) == getattr(overall, count)

    @settings(max_examples=60, deadline=None)
    @given(bursts=st.lists(st.integers(min_value=1, max_value=12),
                           min_size=1, max_size=30),
           slack=st.sampled_from([None, 0.02, 0.002]),
           limit=st.integers(min_value=1, max_value=20),
           seed=st.integers(min_value=0, max_value=1000))
    def test_host_and_schedule_drain_to_empty(self, bursts, slack, limit,
                                              seed):
        sim = Simulator()
        server = SimulatedServer(
            sim, 2, lambda ctx: MaxQueueLengthPolicy(ctx, limit=limit))
        arrivals = iter(ArrivalSchedule(small_mix(), 1000.0, seed=seed))
        results = []

        def arrive(size):
            queries = list(itertools.islice(arrivals, size))
            if slack is not None:  # tight enough that some expire queued
                for query in queries:
                    query.deadline = sim.now + slack
            if size == 1:
                results.append(server.offer(queries[0]))
            else:
                results.extend(server.offer_many(queries))

        for index, size in enumerate(bursts):
            sim.schedule_at(0.002 * index, lambda size=size: arrive(size))
        sim.run()
        accepted = sum(result.accepted for result in results)
        metrics = server.metrics
        assert len(results) == sum(bursts)
        assert metrics.rejected == len(results) - accepted
        assert metrics.admitted == accepted
        assert metrics.completed + metrics.expired + metrics.errors == accepted
        assert sim.pending == 0
        assert server.queue_view.length() == 0
        assert server.queue_length == 0
        assert server.in_flight == 0
