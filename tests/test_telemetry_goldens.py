"""Seeded telemetry output pinned to digests.

The cells here were recorded at ``a1dd54f``, the last commit whose hosts
buffered hot-path counter and histogram updates for a later flush and
whose policy-side exposition had a Prometheus writer of its own.  They
pin what the one write path and the one exposition must still produce:

* ``Telemetry.render()`` of a seeded Bouncer simulation at 1.2x full
  load, once with counters and histograms only and once with a tracer, a
  span recorder and a calibration tracker attached, all at
  ``sample_rate=1.0``; the second cell also pins the traces and spans
  JSONL digests;
* the same three digests for the cluster model, whose brokers and
  shards share one registry (recorded at ``df424da``, before they were
  rebuilt on ``SimulatedServer``);
* the sample lines of ``render_metrics`` (``#`` lines dropped, sorted as
  a multiset) for a Bouncer inside a starvation wrapper.

The estimator counters alone (``estimator_cache_hits``/``misses`` and
``eq2_recomputes``, in the text and in the traces' ``fast_path`` field)
were re-recorded when Eq. 2's per-type means took the decision entries'
reuse rule; they count reads, and that change moved when reads happen.

Query ids come from a process-global counter, so each simulated cell
restarts it; at ``sample_rate=1.0`` every id is sampled either way.
``python -m tests.test_telemetry_goldens`` prints the document the
current tree produces; re-record only for a change *meant* to alter the
exposition.
"""

import contextlib
import hashlib
import itertools
import json
import pathlib

import pytest

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "telemetry.json"


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@contextlib.contextmanager
def _fresh_query_ids():
    from repro.core import types

    saved = types._query_ids
    types._query_ids = itertools.count(1)
    try:
        yield
    finally:
        types._query_ids = saved


def _sim_cell(telemetry):
    from repro.bench.experiments import make_bouncer, simulation_mix
    from repro.sim.driver import run_simulation

    mix = simulation_mix()
    with _fresh_query_ids():
        run_simulation(
            mix, make_bouncer(), rate_qps=1.2 * mix.full_load_qps(100),
            num_queries=3000, parallelism=100, warmup_queries=1000, seed=7,
            telemetry=telemetry)
    return telemetry


def counters_cell():
    from repro.telemetry import MetricsRegistry, Telemetry

    telemetry = _sim_cell(Telemetry(registry=MetricsRegistry()))
    return {"render": _digest(telemetry.render())}


def sinks_cell():
    from repro.telemetry import (CalibrationTracker, DecisionTracer,
                                 MetricsRegistry, SpanRecorder, Telemetry)

    telemetry = _sim_cell(Telemetry(
        registry=MetricsRegistry(),
        tracer=DecisionTracer(capacity=200000, sample_rate=1.0),
        spans=SpanRecorder(capacity=200000, sample_rate=1.0),
        calibration=CalibrationTracker(sample_rate=1.0)))
    return {"render": _digest(telemetry.render()),
            "traces": _digest(telemetry.tracer.render_jsonl()),
            "spans": _digest(telemetry.spans.render_jsonl())}


def render_metrics_lines():
    """Sorted sample lines for a starvation-wrapped Bouncer with accepted,
    rejected and overridden queries, a queue, and both host counters."""
    from repro.core import (AcceptanceAllowancePolicy, BouncerConfig,
                            BouncerPolicy, HostContext, LatencySLO,
                            ManualClock, QueueView, SLORegistry)
    from repro.core.types import Query
    from repro.telemetry import render_metrics

    clock = ManualClock()
    queue = QueueView()
    ctx = HostContext(clock=clock, queue=queue, parallelism=4)
    bouncer = BouncerPolicy(ctx, BouncerConfig(
        slos=SLORegistry.uniform(LatencySLO.from_ms(p50=18, p90=50),
                                 ["fast", "slow"]),
        min_samples=1, retain_min_samples=1, bootstrap_samples=0))
    for index in range(40):
        bouncer.on_completed(Query(qtype="slow"), 0.0, 0.030 + index * 1e-4)
        bouncer.on_completed(Query(qtype="fast"), 0.0, 0.002 + index * 1e-5)
    clock.advance(1.0)
    wrapper = AcceptanceAllowancePolicy(bouncer, clock, allowance=0.2,
                                        seed=3)
    for step in range(60):
        clock.advance(0.01)
        wrapper.decide(Query(qtype=("fast", "slow", 'we"ird')[step % 3]))
    for qtype in ("fast", "fast", "slow"):
        queue.on_enqueue(qtype)
    text = render_metrics(wrapper, queue, policy_errors=3, expired_count=7)
    return sorted(line for line in text.splitlines()
                  if line and not line.startswith("#"))


def cluster_cell():
    """The cluster model with every broker and shard recording into one
    registry, tracer and span recorder, under shard engine errors, a shard
    stall and the default resilience (retries, hedges, timeouts)."""
    from repro.bench.experiments import (cluster_config, cluster_slos,
                                         make_bouncer_aa)
    from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
    from repro.liquid import run_cluster_simulation
    from repro.liquid.cluster_sim import ResilienceConfig
    from repro.telemetry import (DecisionTracer, MetricsRegistry,
                                 SpanRecorder, Telemetry)

    telemetry = Telemetry(
        registry=MetricsRegistry(),
        tracer=DecisionTracer(capacity=200000, sample_rate=1.0),
        spans=SpanRecorder(capacity=200000, sample_rate=1.0))
    plan = FaultPlan("golden-telemetry", 7, (
        FaultSpec(FaultKind.ERROR, start=0.0, duration=0.03,
                  target="shard-*", probability=0.1),
        FaultSpec(FaultKind.ENGINE_STALL, start=0.01, duration=0.01,
                  target="shard-0"),
    ))
    with _fresh_query_ids():
        run_cluster_simulation(
            cluster_config(seed=5), make_bouncer_aa(slos=cluster_slos()),
            rate_qps=30_000.0, num_queries=1500, warmup_queries=1500,
            seed=13, telemetry=telemetry,
            fault_injector=FaultInjector(plan, telemetry=telemetry),
            resilience=ResilienceConfig())
    return {"render": _digest(telemetry.render()),
            "traces": _digest(telemetry.tracer.render_jsonl()),
            "spans": _digest(telemetry.spans.render_jsonl())}


_CELLS = {"counters": counters_cell, "sinks": sinks_cell,
          "cluster": cluster_cell}


class TestTelemetryGoldens:
    @pytest.mark.parametrize("cell", sorted(_CELLS))
    def test_sim_cell_matches_golden_digests(self, cell):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert _CELLS[cell]() == golden["sim"][cell]

    def test_render_metrics_sample_lines_match_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert render_metrics_lines() == golden["render_metrics"]


def current_document():
    return {"sim": {name: cell() for name, cell in sorted(_CELLS.items())},
            "render_metrics": render_metrics_lines()}


if __name__ == "__main__":
    print(json.dumps(current_document(), indent=1, sort_keys=True))
