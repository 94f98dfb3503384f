"""The drifting gateway workload the gateway tests decide and replay.

A policy spec over eight LIquid-like query types, and a deterministic
publication sequence whose latency scale walks :data:`DRIFT_CYCLE`, so
marginal types cross their SLO thresholds and a run sees accepts *and*
rejects (and the epoch-keyed estimator caches are rebuilt on every
publication).  :func:`replay_decision_log` is the acceptance check: a
worker's log replayed through a fresh single-process policy built from
the same spec must reproduce every bit.
"""

import math
import random
from typing import Dict, Mapping, Tuple

from repro.core.histogram import HistogramSnapshot, LatencyHistogram
from repro.core.types import Query
from repro.gateway import PolicySpec

#: Query types: name -> (median seconds, p50 SLO, p90 SLO, traffic
#: weight, static queue fill).  Medians span 2-60ms like the paper's
#: LIquid mix; SLOs sit close enough above the drifted response estimates
#: that the :data:`DRIFT_CYCLE` swings types across their thresholds.
GATEWAY_TYPES: Mapping[str, Tuple[float, float, float, float, int]] = {
    "point_read": (0.002, 0.011, 0.030, 30.0, 10),
    "range_scan": (0.004, 0.013, 0.040, 20.0, 8),
    "two_hop": (0.008, 0.019, 0.060, 15.0, 6),
    "rank": (0.012, 0.025, 0.060, 12.0, 5),
    "facet": (0.018, 0.032, 0.075, 10.0, 4),
    "analytic": (0.030, 0.050, 0.110, 7.0, 3),
    "bulk_export": (0.060, 0.150, 0.400, 4.0, 2),
    "admin": (0.005, 0.015, 0.035, 2.0, 1),
}

#: Latency-scale multiplier per published generation (cycled).  The 1.45
#: peak overloads the tighter types; the 0.7 trough clears them again.
DRIFT_CYCLE: Tuple[float, ...] = (0.7, 1.0, 1.45, 1.0, 0.85, 1.25)

#: Log-normal shape of every type's latency distribution.
LATENCY_SIGMA = 0.5
#: Observations per type per publication.
SAMPLES_PER_PUBLICATION = 400
#: Simulated engine parallelism behind the gateway (Eq. 2 denominator).
ENGINE_PARALLELISM = 64

Publication = Tuple[Dict[str, HistogramSnapshot], HistogramSnapshot]


def build_policy_spec() -> PolicySpec:
    """The one spec every worker and every replay builds from."""
    return PolicySpec(
        default_slo={50: 0.025, 90: 0.060},
        type_slos={name: {50: p50, 90: p90}
                   for name, (_, p50, p90, _, _) in GATEWAY_TYPES.items()},
        queue_fill={name: fill
                    for name, (_, _, _, _, fill) in GATEWAY_TYPES.items()},
        parallelism=ENGINE_PARALLELISM)


def build_publication(index: int, seed: int) -> Publication:
    """Histograms for the ``index``-th publication (0-based).

    Deterministic in (index, seed); the epoch stamped on every snapshot
    is ``index + 1`` so successive publications carry strictly
    increasing epochs for the workers to adopt.
    """
    epoch = index + 1
    types: Dict[str, HistogramSnapshot] = {}
    general = LatencyHistogram()
    for phase, (name, (median, _, _, _, _)) in enumerate(
            GATEWAY_TYPES.items()):
        # Each type walks the drift cycle at its own phase, so every
        # generation pushes a *different* subset of types across their
        # SLO thresholds instead of flipping the whole workload at once.
        drift = DRIFT_CYCLE[(index + phase) % len(DRIFT_CYCLE)]
        rng = random.Random(f"{seed}/{index}/{name}")
        hist = LatencyHistogram()
        mu = math.log(median * drift)
        for _ in range(SAMPLES_PER_PUBLICATION):
            value = rng.lognormvariate(mu, LATENCY_SIGMA)
            hist.record(value)
            general.record(value)
        types[name] = hist.snapshot(epoch=epoch)
    return types, general.snapshot(epoch=epoch)


def replay_decision_log(path: str, spec: PolicySpec,
                        publications: Mapping[int, Publication]
                        ) -> Tuple[int, int]:
    """Replay one worker's log through a fresh policy.

    Returns ``(decisions, mismatches)``.  ``publications`` maps board
    generations to the snapshots published under them; ``g`` lines
    preload at exactly the logged positions with ``adopt_epochs=True``,
    reproducing the worker's epoch sequence, and every ``d`` line's
    scalar ``decide()`` must reproduce the worker's bit (the batch
    differential battery guarantees the worker's ``decide_types``
    framing cannot matter).
    """
    policy, _, _ = spec.build()
    decisions = 0
    mismatches = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("g "):
                types, general = publications[int(line[2:])]
                policy.preload_snapshots(types, general,
                                         adopt_epochs=True)
            elif line.startswith("d "):
                qtype, bit = line[2:].split()
                result = policy.decide(Query(qtype=qtype))
                decisions += 1
                if result.accepted != (bit == "1"):
                    mismatches += 1
    return decisions, mismatches
