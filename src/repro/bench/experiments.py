"""Shared experiment configuration for the benchmark harness.

Everything here mirrors the paper's §5.3 and §5.4 setups:

* :data:`TABLE1_TYPES` — the four anonymized simulation query types with
  their Table 1 proportions, means, and medians.
* :func:`simulation_mix` / :func:`simulation_slos` — the §5.3 workload and
  the Table 2 SLO (p50 = 18ms, p90 = 50ms for every type).
* :func:`make_*` — policy factories configured per Table 2.
* :data:`TRAFFIC_FACTORS` — 0.9x .. 1.5x of ``QPS_full_load`` in 0.05 steps.
* :func:`cluster_config` / :data:`CLUSTER_RATES_SCALED` — the §5.4 LIquid
  cluster model (scaled 4x down) and its five rates (36K..180K equivalent).

Run sizes come from environment variables so CI can dial them:
``REPRO_BENCH_QUERIES`` (per-run measured queries, default 60,000) and
``REPRO_BENCH_CLUSTER_QUERIES`` (default 15,000).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.baselines.accept_fraction import (AcceptFractionConfig,
                                              AcceptFractionPolicy)
from ..core.baselines.max_queue_length import MaxQueueLengthPolicy
from ..core.baselines.max_queue_wait import MaxQueueWaitTimePolicy
from ..core.bouncer import BouncerConfig, BouncerPolicy
from ..core.context import HostContext
from ..core.policy import AdmissionPolicy
from ..core.slo import LatencySLO, SLORegistry
from ..core.starvation import (AcceptanceAllowancePolicy,
                               HelpingTheUnderservedPolicy)
from ..liquid.cluster_sim import ClusterConfig
from ..liquid.traces import linkedin_cost_table
from ..sim import QueryTypeSpec, WorkloadMix

PolicyFactory = Callable[[HostContext], AdmissionPolicy]

#: Engine processes on the simulated host (§5.3: "100 query engine
#: processes, a number in the same order of magnitude used in practice").
SIM_PARALLELISM = 100

#: Table 1: (name, proportion, pt_mean seconds, pt_p50 seconds).
TABLE1_TYPES: Tuple[Tuple[str, float, float, float], ...] = (
    ("fast", 0.40, 1.16e-3, 0.38e-3),
    ("medium_fast", 0.20, 2.53e-3, 2.22e-3),
    ("medium_slow", 0.30, 12.13e-3, 7.40e-3),
    ("slow", 0.10, 20.05e-3, 12.51e-3),
)

#: Traffic factors swept by the simulation study (x of QPS_full_load).
TRAFFIC_FACTORS: Tuple[float, ...] = (
    0.90, 0.95, 1.00, 1.05, 1.10, 1.15, 1.20, 1.25, 1.30, 1.35, 1.40, 1.45,
    1.50)

#: §5.4 cluster rates, scaled 4x down from the paper's 36K..180K QPS.
CLUSTER_RATES_SCALED: Tuple[int, ...] = (9000, 18000, 27000, 36000, 45000)

#: Map a scaled rate back to the paper's cluster-equivalent label.
CLUSTER_SCALE = 4


def bench_queries(default: int = 60_000) -> int:
    """Measured queries per single-host simulation run (env-tunable)."""
    return int(os.environ.get("REPRO_BENCH_QUERIES", default))


def cluster_queries(default: int = 15_000) -> int:
    """Measured queries per cluster simulation run (env-tunable)."""
    return int(os.environ.get("REPRO_BENCH_CLUSTER_QUERIES", default))


def simulation_mix() -> WorkloadMix:
    """The Table 1 query mix with lognormal processing times."""
    return WorkloadMix([
        QueryTypeSpec.from_mean_median(name, proportion, mean, median)
        for name, proportion, mean, median in TABLE1_TYPES
    ])


def simulation_slos(mix: Optional[WorkloadMix] = None) -> SLORegistry:
    """Table 2: SLO_p50 = 18ms and SLO_p90 = 50ms for every query type."""
    mix = mix or simulation_mix()
    return SLORegistry.uniform(LatencySLO.from_ms(p50=18, p90=50),
                               mix.type_names)


def starvation_demo_mix() -> WorkloadMix:
    """The two-type FAST/SLOW workload behind the paper's Figure 3.

    Both types share the SLO (p50 = 18ms, p90 = 50ms).  SLOW's processing
    times sit just under the targets (p50 ~ 16ms, p90 ~ 47ms), so any queue
    wait pushes its estimates over the SLO while FAST sails through — the
    paper's "FAST queries make the SLOW queries starve" setup, where ~99%
    of SLOW queries get rejected under heavy load.
    """
    return WorkloadMix([
        QueryTypeSpec.from_mean_median("FAST", 0.90, mean=1.16e-3,
                                       median=0.38e-3),
        QueryTypeSpec.from_mean_median("SLOW", 0.10, mean=22.8e-3,
                                       median=16.0e-3),
    ])


# -- policy factories (Table 2 parameters) ---------------------------------

def make_bouncer(slos: Optional[SLORegistry] = None,
                 **config_overrides: Any) -> PolicyFactory:
    """Basic Bouncer with the Table 2 SLOs."""
    registry = slos or simulation_slos()

    def factory(ctx: HostContext) -> AdmissionPolicy:
        return BouncerPolicy(ctx, BouncerConfig(slos=registry,
                                                **config_overrides))
    return factory


def make_bouncer_aa(allowance: float = 0.05,
                    slos: Optional[SLORegistry] = None,
                    seed: int = 101) -> PolicyFactory:
    """Bouncer + acceptance-allowance (Table 2: A = 0.05)."""
    registry = slos or simulation_slos()

    def factory(ctx: HostContext) -> AdmissionPolicy:
        inner = BouncerPolicy(ctx, BouncerConfig(slos=registry))
        return AcceptanceAllowancePolicy(inner, ctx.clock,
                                         allowance=allowance, seed=seed)
    return factory


def make_bouncer_hu(alpha: float = 1.0,
                    slos: Optional[SLORegistry] = None,
                    qtypes: Optional[Sequence[str]] = None,
                    seed: int = 102) -> PolicyFactory:
    """Bouncer + helping-the-underserved (Table 2: alpha = 1.0)."""
    registry = slos or simulation_slos()

    def factory(ctx: HostContext) -> AdmissionPolicy:
        inner = BouncerPolicy(ctx, BouncerConfig(slos=registry))
        return HelpingTheUnderservedPolicy(
            inner, ctx.clock, alpha=alpha,
            qtypes=qtypes if qtypes is not None else registry.known_types(),
            seed=seed)
    return factory


def make_maxql(limit: int = 400) -> PolicyFactory:
    """MaxQL (Table 2: queue length limit = 400)."""
    def factory(ctx: HostContext) -> AdmissionPolicy:
        return MaxQueueLengthPolicy(ctx, limit=limit)
    return factory


def make_maxqwt(limit: float = 0.015,
                per_type_limits: Optional[Dict[str, float]] = None
                ) -> PolicyFactory:
    """MaxQWT (Table 2: wait time limit = 15ms in simulation)."""
    def factory(ctx: HostContext) -> AdmissionPolicy:
        return MaxQueueWaitTimePolicy(ctx, limit=limit,
                                      per_type_limits=per_type_limits)
    return factory


def make_accept_fraction(max_utilization: float = 0.95,
                         seed: int = 103) -> PolicyFactory:
    """AcceptFraction (Table 2: utilization threshold 95% in simulation)."""
    def factory(ctx: HostContext) -> AdmissionPolicy:
        return AcceptFractionPolicy(
            ctx, AcceptFractionConfig(max_utilization=max_utilization),
            seed=seed)
    return factory


def simulation_policy_lineup() -> List[Tuple[str, PolicyFactory]]:
    """The §5.3.1 policy line-up (Figures 6, 7, 8)."""
    return [
        ("Bouncer", make_bouncer()),
        ("MaxQL", make_maxql(limit=400)),
        ("MaxQWT", make_maxqwt(limit=0.015)),
        ("AcceptFraction", make_accept_fraction(max_utilization=0.95)),
    ]


# -- §5.4 cluster experiment -------------------------------------------------

def cluster_config(seed: int = 1) -> ClusterConfig:
    """The scaled-down LIquid cluster with the QT1..QT11 cost ladder."""
    return ClusterConfig(cost_table=linkedin_cost_table(), seed=seed)


def cluster_slos() -> SLORegistry:
    """§5.4: p50 = 18ms / p90 = 50ms for all QT types."""
    return SLORegistry.uniform(
        LatencySLO.from_ms(p50=18, p90=50),
        [cost.name for cost in linkedin_cost_table()])


def cluster_policy_lineup() -> List[Tuple[str, PolicyFactory]]:
    """The §5.4 broker policy line-up (Figures 11, 12, 13)."""
    slos = cluster_slos()
    qtypes = [cost.name for cost in linkedin_cost_table()]
    return [
        ("Bouncer+AA", make_bouncer_aa(allowance=0.05, slos=slos)),
        ("Bouncer+HU", make_bouncer_hu(alpha=1.0, slos=slos, qtypes=qtypes)),
        ("MaxQL", make_maxql(limit=800)),
        ("MaxQWT", make_maxqwt(limit=0.012)),
        ("AcceptFraction", make_accept_fraction(max_utilization=0.80)),
    ]
