"""Unit tests for the Bouncer policy (paper §3, Algorithm 1, Appendix A)."""

import pytest

from repro.core import (DECISION_ALL, BouncerConfig, BouncerPolicy,
                        HostContext, LatencySLO, ManualClock, QueueView,
                        SLORegistry)
from repro.core.types import Query, RejectReason
from repro.exceptions import ConfigurationError

SLO = LatencySLO.from_ms(p50=18, p90=50)


def make_policy(parallelism=4, slos=None, clock=None, queue=None, **config):
    clock = clock or ManualClock()
    queue = queue or QueueView()
    ctx = HostContext(clock=clock, queue=queue, parallelism=parallelism)
    registry = slos or SLORegistry.uniform(SLO, ["fast", "slow"])
    defaults = dict(min_samples=1, retain_min_samples=1, bootstrap_samples=0)
    defaults.update(config)
    policy = BouncerPolicy(ctx, BouncerConfig(slos=registry, **defaults))
    return policy, clock, queue


def feed(policy, clock, qtype, values):
    """Record processing times and publish them (advance past interval)."""
    for value in values:
        policy.on_completed(Query(qtype=qtype), 0.0, value)
    clock.advance(policy.config.histogram_interval)
    policy.processing_snapshot(qtype)  # trigger the swap


class TestConfigValidation:
    def test_rejects_bad_decision_mode(self):
        with pytest.raises(ConfigurationError):
            BouncerConfig(slos=SLORegistry.uniform(SLO),
                          decision_mode="bogus")

    def test_rejects_negative_min_samples(self):
        with pytest.raises(ConfigurationError):
            BouncerConfig(slos=SLORegistry.uniform(SLO), min_samples=-1)

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigurationError):
            BouncerConfig(slos=SLORegistry.uniform(SLO),
                          histogram_interval=0)

    @pytest.mark.parametrize("field, value", [
        ("histogram_interval", float("nan")),
        ("histogram_interval", float("inf")),
        ("histogram_window", float("nan")),
        ("histogram_window", float("inf")),
        ("min_samples", float("nan")),
        ("min_samples", 2.5),
    ])
    def test_rejects_non_finite_and_non_integer_values(self, field, value):
        # NaN fails every comparison, so ``x < 0``-style checks let it in.
        with pytest.raises(ConfigurationError):
            BouncerConfig(slos=SLORegistry.uniform(SLO), **{field: value})


class TestWaitEstimate:
    def test_empty_queue_means_zero_wait(self):
        policy, clock, queue = make_policy()
        assert policy.estimate_wait_mean() == 0.0

    def test_eq2_sums_per_type_means_over_parallelism(self):
        policy, clock, queue = make_policy(parallelism=2)
        feed(policy, clock, "fast", [0.002] * 10)
        feed(policy, clock, "slow", [0.020] * 10)
        # Queue: 3 fast + 1 slow -> (3*2ms + 1*20ms) / 2 = 13ms.
        for _ in range(3):
            queue.on_enqueue("fast")
        queue.on_enqueue("slow")
        assert policy.estimate_wait_mean() == pytest.approx(0.013, rel=0.06)

    def test_unmeasured_queued_type_uses_general_mean(self):
        policy, clock, queue = make_policy(parallelism=1, min_samples=5)
        feed(policy, clock, "fast", [0.010] * 10)
        queue.on_enqueue("mystery")  # type with no histogram of its own
        # The general histogram holds the fast samples -> mean 10ms.
        assert policy.estimate_wait_mean() == pytest.approx(0.010, rel=0.06)


class TestDecision:
    def test_accepts_when_estimates_under_slo(self):
        policy, clock, queue = make_policy()
        feed(policy, clock, "fast", [0.002] * 50)
        result = policy.decide(Query(qtype="fast"))
        assert result.accepted
        assert result.estimates[50] < SLO.target(50)

    def test_rejects_when_p50_estimate_exceeds(self):
        policy, clock, queue = make_policy(parallelism=1)
        feed(policy, clock, "slow", [0.019] * 50)  # pt_p50 > 18ms SLO
        result = policy.decide(Query(qtype="slow"))
        assert not result.accepted
        assert result.reason is RejectReason.SLO_ESTIMATE

    def test_rejects_when_only_p90_exceeds_any_mode(self):
        policy, clock, queue = make_policy(parallelism=1)
        # p50 ~ 10ms (ok), p90 > 50ms (violation): ANY mode must reject.
        values = [0.010] * 80 + [0.080] * 20
        feed(policy, clock, "slow", values)
        result = policy.decide(Query(qtype="slow"))
        assert not result.accepted

    def test_all_mode_requires_every_percentile_to_exceed(self):
        policy, clock, queue = make_policy(parallelism=1,
                                           decision_mode=DECISION_ALL)
        values = [0.010] * 80 + [0.080] * 20  # only p90 exceeds
        feed(policy, clock, "slow", values)
        assert policy.decide(Query(qtype="slow")).accepted

    def test_queue_wait_pushes_estimate_over_slo(self):
        policy, clock, queue = make_policy(parallelism=1)
        feed(policy, clock, "fast", [0.010] * 50)
        assert policy.decide(Query(qtype="fast")).accepted
        # Ten queued 10ms queries on one process: ewt = 100ms >> SLO.
        for _ in range(10):
            queue.on_enqueue("fast")
        assert not policy.decide(Query(qtype="fast")).accepted

    def test_estimates_returned_on_both_outcomes(self):
        policy, clock, queue = make_policy()
        feed(policy, clock, "fast", [0.002] * 50)
        accepted = policy.decide(Query(qtype="fast"))
        assert set(accepted.estimates) == {50, 90}

    def test_stats_recorded(self):
        policy, clock, queue = make_policy()
        feed(policy, clock, "fast", [0.002] * 50)
        policy.decide(Query(qtype="fast"))
        assert policy.stats.for_type("fast").accepted == 1


class TestColdStart:
    def test_blank_policy_accepts(self):
        # Nothing measured anywhere: deliberate leniency.
        policy, clock, queue = make_policy(min_samples=10)
        assert policy.decide(Query(qtype="fast")).accepted

    def test_cold_type_uses_general_histogram_and_default_slo(self):
        default = LatencySLO.from_ms(p50=5, p90=10)  # strict default
        registry = SLORegistry(default,
                               {"fast": SLO, "slow": SLO})
        policy, clock, queue = make_policy(slos=registry, min_samples=5,
                                           parallelism=1)
        # Populate ONLY the general histogram via another type, with values
        # violating the default SLO but fine for the per-type SLO.
        feed(policy, clock, "fast", [0.012] * 50)
        estimate = policy.estimate("slow")
        assert estimate.cold_start
        assert estimate.slo == default
        # p50 estimate ~12ms > 5ms default target -> rejected while cold.
        assert not policy.decide(Query(qtype="slow")).accepted

    def test_warm_type_uses_its_own_slo(self):
        default = LatencySLO.from_ms(p50=5, p90=10)
        registry = SLORegistry(default, {"slow": SLO})
        policy, clock, queue = make_policy(slos=registry, min_samples=5,
                                           parallelism=1)
        feed(policy, clock, "slow", [0.012] * 50)
        estimate = policy.estimate("slow")
        assert not estimate.cold_start
        assert estimate.slo == SLO
        assert policy.decide(Query(qtype="slow")).accepted

    def test_unknown_type_lazily_creates_histogram(self):
        policy, clock, queue = make_policy()
        snap = policy.processing_snapshot("brand-new")
        assert snap.is_empty

    def test_completions_feed_both_histograms(self):
        policy, clock, queue = make_policy()
        feed(policy, clock, "fast", [0.003] * 10)
        assert policy.processing_snapshot("fast").count == 10
        assert policy.general_snapshot().count == 10


class TestBootstrap:
    def test_bootstrap_shortens_cold_window(self):
        policy, clock, queue = make_policy(parallelism=1, min_samples=5,
                                           bootstrap_samples=5)
        # Record 5 violating completions; no interval boundary crossed.
        for _ in range(5):
            policy.on_completed(Query(qtype="slow"), 0.0, 0.030)
        # Snapshot published via bootstrap: p50 estimate 30ms > 18ms SLO.
        assert not policy.decide(Query(qtype="slow")).accepted
