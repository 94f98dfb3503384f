"""Seeded inputs: query mixes, SLOs, policy factories, gateway traffic.

Everything random here derives from the ``--seed`` argument (the gateway's
backend latency profile excepted, see :func:`gateway_publication`); the
program under test only ever sees what these functions generate.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core import (AcceptanceAllowancePolicy, AdmissionPolicy,
                        BouncerConfig, BouncerPolicy, HistogramSnapshot,
                        HostContext, LatencyHistogram, LatencySLO,
                        SLORegistry)
from repro.gateway import PolicySpec
from repro.liquid import ClusterConfig, linkedin_cost_table
from repro.sim import QueryTypeSpec, WorkloadMix

from . import spec

PolicyFactory = Callable[[HostContext], AdmissionPolicy]
Publication = Tuple[Dict[str, HistogramSnapshot], HistogramSnapshot]


def table1_mix() -> WorkloadMix:
    """The Table 1 query mix with lognormal processing times."""
    return WorkloadMix([
        QueryTypeSpec.from_mean_median(name, share, mean, median)
        for name, share, mean, median in spec.TABLE1_TYPES])


def uniform_slos(qtypes: Sequence[str]) -> SLORegistry:
    """Table 2: the same p50 / p90 objective for every type."""
    return SLORegistry.uniform(
        LatencySLO.from_ms(p50=spec.SLO_P50_MS, p90=spec.SLO_P90_MS),
        qtypes)


def bouncer_factory(slos: SLORegistry) -> PolicyFactory:
    def factory(ctx: HostContext) -> AdmissionPolicy:
        return BouncerPolicy(ctx, BouncerConfig(slos=slos))
    return factory


def bouncer_aa_factory(slos: SLORegistry, seed: int) -> PolicyFactory:
    """Bouncer + acceptance allowance; the wrapper's RNG follows ``seed``
    (every host built by the factory gets the same stream, as the repo's
    own experiment line-up does)."""
    def factory(ctx: HostContext) -> AdmissionPolicy:
        inner = BouncerPolicy(ctx, BouncerConfig(slos=slos))
        return AcceptanceAllowancePolicy(inner, ctx.clock,
                                         allowance=spec.ALLOWANCE,
                                         seed=seed + 101)
    return factory


def cluster_config(seed: int) -> ClusterConfig:
    """The paper's 12-broker x 16-shard cluster at the model's default 4x
    down-scale (3 x 4), QT1..QT11 cost ladder."""
    return ClusterConfig(cost_table=linkedin_cost_table(), seed=seed)


def host_loop_lifecycles(seed: int, count: int
                         ) -> Tuple[List[str], List[float]]:
    """``count`` (type, processing time) pairs from the Table 1 mix."""
    rng = random.Random(seed)
    mix = table1_mix()
    names = [t.name for t in mix.types]
    picks = rng.choices(range(len(names)),
                        weights=[t.proportion for t in mix.types], k=count)
    mus = [t.mu for t in mix.types]
    sigmas = [t.sigma for t in mix.types]
    return ([names[i] for i in picks],
            [rng.lognormvariate(mus[i], sigmas[i]) for i in picks])


# -- gateway -----------------------------------------------------------------

def gateway_policy_spec() -> PolicySpec:
    """The one spec every worker, shadow engine and replay builds from."""
    types = spec.GATEWAY_TYPES
    return PolicySpec(
        default_slo={50: 0.025, 90: 0.060},
        type_slos={name: {50: p50, 90: p90}
                   for name, (_, p50, p90, _, _) in types.items()},
        queue_fill={name: fill for name, (_, _, _, _, fill) in types.items()},
        parallelism=spec.GATEWAY_ENGINE_PARALLELISM)


def gateway_frames(seed: int, count: int) -> List[List[str]]:
    """``count`` frames of ``GATEWAY_FRAME_QUERIES`` weighted type names."""
    rng = random.Random(seed * 7919 + 1)
    names = list(spec.GATEWAY_TYPES)
    weights = [spec.GATEWAY_TYPES[name][3] for name in names]
    flat = rng.choices(names, weights=weights,
                       k=count * spec.GATEWAY_FRAME_QUERIES)
    size = spec.GATEWAY_FRAME_QUERIES
    return [flat[i:i + size] for i in range(0, len(flat), size)]


def gateway_publication(index: int) -> Publication:
    """Histograms for the ``index``-th publication (0-based).

    Each type walks the drift cycle at its own phase; the epoch stamped on
    every snapshot is ``index + 1`` so successive publications carry
    increasing epochs for the workers to adopt.  The sequence is the
    protected backend's latency profile and the same for every ``--seed``
    (which draws the traffic): the SLOs sit so close to the drifted
    estimates that redrawing the histograms flips whole (type,
    publication) cells and moved the accept share by 2.5% between seeds.
    """
    epoch = index + 1
    types: Dict[str, HistogramSnapshot] = {}
    general = LatencyHistogram()
    for phase, (name, (median, _, _, _, _)) in enumerate(
            spec.GATEWAY_TYPES.items()):
        drift = spec.DRIFT_CYCLE[(index + phase) % len(spec.DRIFT_CYCLE)]
        rng = random.Random(f"{spec.GATEWAY_PROFILE_SEED}/{index}/{name}")
        mu = math.log(median * drift)
        values = [rng.lognormvariate(mu, spec.GATEWAY_LATENCY_SIGMA)
                  for _ in range(spec.GATEWAY_SAMPLES_PER_PUBLICATION)]
        hist = LatencyHistogram()
        hist.record_many(values)
        general.record_many(values)
        types[name] = hist.snapshot(epoch=epoch)
    return types, general.snapshot(epoch=epoch)
