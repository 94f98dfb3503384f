"""Ablations of Bouncer's design choices (DESIGN.md §3).

These probe the knobs the paper calls out but does not sweep:

1. Decision expression — Algorithm 1 rejects when ANY percentile estimate
   exceeds its target; the ALL variant is laxer.  (§3: "adopt different
   logical expressions for acceptance decision making".)
2. Percentile choice — p50/p90 vs adding a p99 objective under a workload
   with a GC-pause-like latency tail (Appendix B.1's stability argument).
3. Histogram swap interval — estimate freshness vs noise.
4. Cold start — the Appendix A general-histogram fallback vs a blank
   start, measured as SLO violations in the first seconds of traffic.
"""

import pytest

from repro import (BouncerConfig, BouncerPolicy, LatencySLO, SLORegistry,
                   run_simulation)
from repro.bench import (format_table, publish, simulation_mix,
                         simulation_slos)
from repro.core.bouncer import DECISION_ALL, DECISION_ANY
from repro.sim import QueryTypeSpec, WorkloadMix

FACTOR = 1.3
NUM_QUERIES = 30_000


def bouncer_factory(slos, **overrides):
    def factory(ctx):
        return BouncerPolicy(ctx, BouncerConfig(slos=slos, **overrides))
    return factory


def test_ablation_decision_mode(benchmark):
    """ANY (paper) vs ALL: ALL admits until *every* objective is breached.

    The difference shows on types whose p50 and p90 headrooms diverge:
    medium_slow has ~10.6ms of p50 headroom but ~23.6ms of p90 headroom,
    so at 1.5x the ANY rule starts rejecting it when queue waits pass the
    former while the ALL rule admits until the latter — and lets its
    median response blow through SLO_p50.
    """
    def build():
        mix = simulation_mix()
        slos = simulation_slos(mix)
        rate = 1.5 * mix.full_load_qps(100)
        out = {}
        for mode in (DECISION_ANY, DECISION_ALL):
            out[mode] = run_simulation(
                mix, bouncer_factory(slos, decision_mode=mode),
                rate_qps=rate, num_queries=NUM_QUERIES, seed=31)
        return out

    reports = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = []
    for mode, report in reports.items():
        ms = report.stats_for("medium_slow")
        rows.append([mode, f"{report.rejection_pct():.2f}",
                     f"{ms.response.get(50.0, 0) * 1000:.2f}",
                     f"{ms.response.get(90.0, 0) * 1000:.2f}"])
    publish("ablation_decision_mode", format_table(
        ["mode", "overall rej %", "medium_slow rt_p50 (ms)",
         "medium_slow rt_p90 (ms)"],
        rows, title="Ablation: Algorithm 1 decision expression at 1.5x"))

    assert (reports[DECISION_ALL].rejection_pct()
            <= reports[DECISION_ANY].rejection_pct())
    # The lax variant lets medium_slow breach SLO_p50 where ANY holds it.
    any_ms = reports[DECISION_ANY].stats_for("medium_slow")
    all_ms = reports[DECISION_ALL].stats_for("medium_slow")
    assert all_ms.response[50.0] > any_ms.response[50.0]
    assert all_ms.response[50.0] > 0.018


def test_ablation_p99_objective_with_gc_tail(benchmark):
    """Appendix B.1: a p99 objective whipsaws under a GC-like tail.

    The workload's types have heavy tails (a 'GC pause' mixture).  Adding
    SLO_p99 makes Bouncer reject far more traffic for the same p50/p90
    outcomes — the paper's reason for preferring p50/p90 objectives.
    """
    def build():
        # ~2% of executions hit a 60-80ms pause regardless of type.
        mix = WorkloadMix([
            QueryTypeSpec.from_mean_median("svc", 0.98, 4.0e-3, 2.5e-3),
            QueryTypeSpec.from_mean_median("gc_pause", 0.02, 70e-3,
                                           68e-3),
        ])
        rate = 1.1 * mix.full_load_qps(100)
        base = LatencySLO.from_ms(p50=18, p90=50)
        with_p99 = LatencySLO.from_ms(p50=18, p90=50, p99=80)
        out = {}
        for label, slo in (("p50/p90", base), ("p50/p90/p99", with_p99)):
            slos = SLORegistry.uniform(slo, mix.type_names)
            out[label] = run_simulation(
                mix, bouncer_factory(slos), rate_qps=rate,
                num_queries=NUM_QUERIES, seed=37)
        return out

    reports = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = [[label, f"{r.rejection_pct():.2f}",
             f"{r.stats_for('svc').response.get(50.0, 0) * 1000:.2f}"]
            for label, r in reports.items()]
    publish("ablation_p99_objective", format_table(
        ["objectives", "overall rej %", "svc rt_p50 (ms)"], rows,
        title="Ablation: adding a p99 objective under a GC-like tail"))

    assert (reports["p50/p90/p99"].rejection_pct()
            >= reports["p50/p90"].rejection_pct())


@pytest.mark.parametrize("interval", [0.25, 1.0, 4.0])
def test_ablation_histogram_interval(benchmark, interval):
    """Swap-interval sensitivity: all intervals hold the SLO; staleness
    shifts how many queries must be rejected to do so."""
    def build():
        mix = simulation_mix()
        slos = simulation_slos(mix)
        rate = FACTOR * mix.full_load_qps(100)
        return run_simulation(
            mix, bouncer_factory(slos, histogram_interval=interval),
            rate_qps=rate, num_queries=NUM_QUERIES, seed=41)

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    slow_p50 = report.stats_for("medium_slow").response.get(50.0, 0)
    publish(f"ablation_interval_{interval}",
            f"histogram_interval={interval}s: overall rej "
            f"{report.rejection_pct():.2f}%, medium_slow rt_p50 "
            f"{slow_p50 * 1000:.2f}ms")
    if report.stats_for("medium_slow").completed:
        assert slow_p50 <= 0.018 * 1.2


def test_ablation_cold_start_fallback(benchmark):
    """Appendix A: the general-histogram fallback vs a long cold window.

    With bootstrapping disabled and a long interval, the policy flies
    blind for the whole first interval; with a 100-sample bootstrap the
    blind window is a few milliseconds.  Measured from a cold start (no
    warm-up), the bootstrap cuts the worst-case response times.
    """
    def build():
        mix = simulation_mix()
        slos = simulation_slos(mix)
        rate = 1.2 * mix.full_load_qps(100)
        out = {}
        for label, bootstrap in (("no bootstrap", 0), ("bootstrap", 100)):
            out[label] = run_simulation(
                mix, bouncer_factory(slos, bootstrap_samples=bootstrap),
                rate_qps=rate, num_queries=20_000, warmup_queries=1,
                seed=43)
        return out

    reports = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = [[label, f"{r.overall.response.get(99.0, 0) * 1000:.1f}",
             f"{r.overall.response.get(90.0, 0) * 1000:.1f}"]
            for label, r in reports.items()]
    publish("ablation_cold_start", format_table(
        ["variant", "rt_p99 (ms)", "rt_p90 (ms)"], rows,
        title="Ablation: cold start with/without bootstrap publication "
              "(no warm-up phase)"))

    assert (reports["bootstrap"].overall.response[99.0]
            <= reports["no bootstrap"].overall.response[99.0])


def test_ablation_bouncer_on_both_tiers(benchmark):
    """§5.6 pairing: Bouncer brokers + AcceptFraction shards vs Bouncer on
    both tiers.

    The paper pairs broker-side Bouncer with shard-side AcceptFraction
    because CPU is the shards' limiting resource.  Running Bouncer on the
    shards too enforces per-sub-query latency there but gives up the
    explicit utilization guard; this quantifies the trade at an
    overloaded rate.
    """
    from repro.bench import (CLUSTER_RATES_SCALED, cluster_config,
                             cluster_policy_lineup, cluster_slos)
    from repro.core import BouncerConfig as _BConfig
    from repro.core import BouncerPolicy as _BPolicy
    from repro.liquid import run_cluster_simulation

    broker_factory = dict(cluster_policy_lineup())["Bouncer+AA"]
    shard_slos = cluster_slos()

    def shard_bouncer(ctx):
        return _BPolicy(ctx, _BConfig(slos=shard_slos))

    def build():
        # Shard-constrained cluster (12 cores per shard instead of 48):
        # the shards, not the brokers, are the bottleneck, so the
        # shard-side policy actually decides something.
        rate = CLUSTER_RATES_SCALED[2]
        out = {}
        config = cluster_config()
        config.shard_processes = 12
        out["AF shards (paper)"] = run_cluster_simulation(
            config, broker_factory, rate_qps=rate, num_queries=8000,
            seed=5)
        config2 = cluster_config()
        config2.shard_processes = 12
        config2.shard_policy_factory = shard_bouncer
        out["Bouncer shards"] = run_cluster_simulation(
            config2, broker_factory, rate_qps=rate, num_queries=8000,
            seed=5)
        return out

    reports = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = []
    for label, report in reports.items():
        qt11 = report.stats_for("QT11")
        rows.append([label, f"{report.rejection_pct():.2f}",
                     f"{report.broker_rejections}",
                     f"{report.shard_rejections}",
                     f"{qt11.response.get(50.0, 0) * 1000:.2f}"])
    publish("ablation_shard_policy", format_table(
        ["shard policy", "overall rej %", "broker rej", "shard rej",
         "QT11 rt_p50 (ms)"], rows,
        title="Ablation: shard-side policy on a shard-constrained "
              "cluster at 108K-equivalent load (brokers run Bouncer+AA)"))

    paper = reports["AF shards (paper)"]
    swapped = reports["Bouncer shards"]
    # The paper's pairing sheds at the overloaded shards and holds the SLO.
    assert paper.shard_rejections > 0
    qt11_paper = paper.stats_for("QT11")
    if qt11_paper.completed:
        assert qt11_paper.response[50.0] <= 0.018 * 1.2
    # Query-level SLOs never trip on sub-millisecond sub-queries, so the
    # swapped pairing leaves the shards unguarded and loses the SLO.
    assert swapped.shard_rejections == 0
    qt11_swapped = swapped.stats_for("QT11")
    if qt11_swapped.completed:
        assert qt11_swapped.response[50.0] > qt11_paper.response[50.0]
