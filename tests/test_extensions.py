"""Tests for the paper's future-work extensions we implement (§7).

* Bouncer with sliding-window histograms instead of dual buffers.
"""

import pytest

from repro.core import (HISTOGRAMS_SLIDING_WINDOW, BouncerConfig,
                        BouncerPolicy, HostContext, LatencySLO, ManualClock,
                        QueueView, SLORegistry)
from repro.core.types import Query
from repro.exceptions import ConfigurationError
from repro.sim import QueryTypeSpec, WorkloadMix, run_simulation

SLO = LatencySLO.from_ms(p50=18, p90=50)


def sliding_bouncer(parallelism=2, window=3.0, interval=1.0,
                    min_samples=1):
    clock = ManualClock()
    queue = QueueView()
    ctx = HostContext(clock=clock, queue=queue, parallelism=parallelism)
    policy = BouncerPolicy(ctx, BouncerConfig(
        slos=SLORegistry.uniform(SLO, ["t"]),
        histogram_mode=HISTOGRAMS_SLIDING_WINDOW,
        histogram_window=window, histogram_interval=interval,
        min_samples=min_samples))
    return policy, clock, queue


class TestSlidingWindowMode:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BouncerConfig(slos=SLORegistry.uniform(SLO),
                          histogram_mode="rolling")
        with pytest.raises(ConfigurationError):
            BouncerConfig(slos=SLORegistry.uniform(SLO),
                          histogram_mode=HISTOGRAMS_SLIDING_WINDOW,
                          histogram_window=0.5, histogram_interval=1.0)

    def test_observations_visible_immediately(self):
        # Unlike the dual buffer, the sliding window includes the current
        # slice — no one-interval publication delay.
        policy, clock, queue = sliding_bouncer()
        policy.on_completed(Query(qtype="t"), 0.0, 0.030)
        snap = policy.processing_snapshot("t")
        assert snap.count == 1

    def test_rejects_on_fresh_violating_data(self):
        policy, clock, queue = sliding_bouncer(parallelism=1)
        for _ in range(10):
            policy.on_completed(Query(qtype="t"), 0.0, 0.030)
        assert not policy.decide(Query(qtype="t")).accepted

    def test_old_observations_age_out_gradually(self):
        policy, clock, queue = sliding_bouncer(window=2.0, interval=0.5)
        for _ in range(10):
            policy.on_completed(Query(qtype="t"), 0.0, 0.030)
        clock.advance(10.0)
        assert policy.processing_snapshot("t").is_empty
        # Blank again -> cold-start leniency applies.
        assert policy.decide(Query(qtype="t")).accepted

    def test_end_to_end_simulation_meets_slo(self):
        mix = WorkloadMix([
            QueryTypeSpec.from_mean_median("a", 0.6, 0.002, 0.0015),
            QueryTypeSpec.from_mean_median("b", 0.4, 0.012, 0.008),
        ])
        slos = SLORegistry.uniform(SLO, mix.type_names)

        def factory(ctx):
            return BouncerPolicy(ctx, BouncerConfig(
                slos=slos, histogram_mode=HISTOGRAMS_SLIDING_WINDOW))

        report = run_simulation(mix, factory,
                                rate_qps=1.3 * mix.full_load_qps(32),
                                num_queries=20_000, parallelism=32,
                                seed=19)
        assert report.rejection_pct() > 0
        b = report.stats_for("b")
        if b.completed:
            assert b.response[50.0] <= 0.018 * 1.2
