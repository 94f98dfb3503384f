"""repro — a full reproduction of *Bouncer: Admission Control with Response
Time Objectives for Low-latency Online Data Systems* (SIGMOD 2024).

The package provides:

* :mod:`repro.core` — the Bouncer policy, its starvation-avoidance
  strategies, the baseline policies (MaxQL, MaxQWT, AcceptFraction), and the
  shared measurement machinery (histograms, sliding windows, SLOs).
* :mod:`repro.sim` — the discrete event simulator and single-host study
  harness (paper §5.3).
* :mod:`repro.liquid` — a LIquid-style in-memory distributed graph database
  substrate: a real sharded store plus an event-driven broker/shard cluster
  model (paper §5.1 and §5.4).
* :mod:`repro.runtime` — a real (wall-clock, threaded) admission-controlled
  server and an open-loop load generator.
* :mod:`repro.bench` — the experiment configurations and formatting used by
  the benchmark harness that regenerates every table and figure.
* :mod:`repro.telemetry` — the measurement substrate: a metrics registry
  with Prometheus-text exposition, per-query decision traces at the
  paper's Figure-1 metric points, and an HTTP scrape endpoint.

Every public name below is importable from ``repro`` itself and is loaded
from its defining module on first use, so ``import repro`` costs nothing
and a process pays only for the layers it touches.

Quickstart::

    from repro import (BouncerConfig, BouncerPolicy, LatencySLO,
                       QueryTypeSpec, SLORegistry, WorkloadMix,
                       run_simulation)

    mix = WorkloadMix([
        QueryTypeSpec.from_mean_median("fast", 0.7, mean=0.002, median=0.001),
        QueryTypeSpec.from_mean_median("slow", 0.3, mean=0.020, median=0.012),
    ])
    slos = SLORegistry.uniform(LatencySLO.from_ms(p50=18, p90=50),
                               mix.type_names)
    report = run_simulation(
        mix,
        lambda ctx: BouncerPolicy(ctx, BouncerConfig(slos=slos)),
        rate_qps=1.2 * mix.full_load_qps(100),
        num_queries=50_000,
    )
    print(report)
"""

from typing import Any, List

from ._lazy import LazyExports

__version__ = "1.0.0"

_EXPORTS = LazyExports(globals(), {
    ".exceptions": "ConfigurationError QueryRejectedError ReproError "
                   "ShuttingDownError SimulationError",
    # core
    ".core.baselines.accept_fraction": "AcceptFractionConfig "
                                       "AcceptFractionPolicy",
    ".core.baselines.max_queue_length": "MaxQueueLengthPolicy",
    ".core.baselines.max_queue_wait": "MaxQueueWaitTimePolicy",
    ".core.baselines.queue_cap": "QueueLimitWrapper",
    ".core.bouncer": "DECISION_ALL DECISION_ANY BouncerConfig "
                     "BouncerEstimate BouncerPolicy",
    ".core.clock": "Clock ManualClock MonotonicClock",
    ".core.context": "HostContext",
    ".core.dual_buffer": "DualBufferHistogram",
    ".core.histogram": "BucketLayout HistogramSnapshot LatencyHistogram",
    ".core.policy": "AdmissionPolicy AlwaysAcceptPolicy AlwaysRejectPolicy "
                    "PolicyStats QueueView TypeCounters",
    ".core.sliding_window": "SlidingWindowCounts SlidingWindowStats",
    ".core.slo": "LatencySLO SLORegistry",
    ".core.starvation": "AcceptanceAllowancePolicy "
                        "HelpingTheUnderservedPolicy",
    ".core.types": "DEFAULT_QUERY_TYPE AdmissionResult Decision Query "
                   "RejectReason",
    # liquid
    ".liquid.cluster_sim": "ClusterConfig ClusterReport QueryTypeCost "
                           "run_cluster_simulation",
    ".liquid.query": "CountQuery DistanceQuery EdgeQuery FanoutQuery",
    ".liquid.service": "LiquidService build_random_graph",
    ".liquid.traces": "linkedin_cost_table sample_graph_queries",
    # runtime
    ".runtime.loadgen": "LoadGenerator LoadResult",
    ".runtime.server": "AdmissionServer",
    # sim
    ".sim.driver": "run_simulation",
    ".sim.report": "SimulationReport TypeStats",
    ".sim.server": "SimulatedServer",
    ".sim.simulator": "Simulator",
    ".sim.workload": "ArrivalSchedule QueryTypeSpec WorkloadMix",
    # telemetry
    ".telemetry.calibration": "CalibrationTracker",
    ".telemetry.http": "TelemetryHTTPServer",
    ".telemetry.hub": "Telemetry",
    ".telemetry.registry": "MetricsRegistry",
    ".telemetry.spans": "Span SpanRecorder",
    ".telemetry.tracer": "DecisionTracer TraceEvent",
})
__all__ = _EXPORTS.names


def __getattr__(name: str) -> Any:
    return _EXPORTS.load(name)


def __dir__() -> List[str]:
    return _EXPORTS.dir()
