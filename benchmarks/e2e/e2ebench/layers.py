"""Standalone drives of single layers.

They do not depend on the workload being traced: every traced run makes
the same set, so a layer's own speed can be read next to the share of each
workload it accounts for.
"""

from __future__ import annotations

import random
import statistics
from typing import Any, Callable, Dict, List

from repro.core import DualBufferHistogram, LatencyHistogram, ManualClock
from repro.sim import ArrivalSchedule, Simulator
from repro.telemetry import MetricsRegistry, Telemetry

from . import inputs, spec
from .measure import now
from .workloads import GatewayWorkload, build, drive_engines_in_process


def _timed(action: Callable[[], Any]) -> float:
    start = now()
    action()
    return now() - start


def workload_generation(seed: int, sizes: spec.Sizes) -> Dict[str, float]:
    """Drain ``ArrivalSchedule.iter_chunks`` for sim_overload's traffic."""
    mix = inputs.table1_mix()
    count = sizes.sim_overload_queries
    chunks = ArrivalSchedule(
        mix, 1.2 * mix.full_load_qps(spec.SIM_PARALLELISM),
        seed=seed).iter_chunks(1024)

    def drain() -> None:
        drawn = 0
        while drawn < count:
            drawn += len(next(chunks))

    return {"sim.workload.gen_us_per_query": _timed(drain) / count * 1e6}


def event_engine(sizes: spec.Sizes) -> Dict[str, float]:
    """A self-scheduling chain, and one that cancels as much as it fires."""
    events = sizes.storm_events

    def storm() -> None:
        sim = Simulator()
        left = events

        def tick() -> None:
            nonlocal left
            left -= 1
            if left > 0:
                sim.schedule_after(0.001, tick)

        sim.schedule_after(0.001, tick)
        sim.run()

    def cancel_heavy() -> None:
        # Every tick arms a timeout and disarms the previous one: the
        # hedge/timeout pattern of the cluster model.
        sim = Simulator()
        left = events // 2
        pending: List[Any] = []

        def tick() -> None:
            nonlocal left
            left -= 1
            if pending:
                pending.pop().cancel()
            if left > 0:
                pending.append(sim.schedule_after(0.050, tick))
                sim.schedule_after(0.001, tick)

        sim.schedule_after(0.001, tick)
        sim.run()

    return {"sim.simulator.storm_events_per_s": events / _timed(storm),
            "sim.simulator.cancel_events_per_s":
                events / _timed(cancel_heavy)}


def histograms(seed: int, sizes: spec.Sizes) -> Dict[str, float]:
    rng = random.Random(seed * 31 + 5)
    count = sizes.histogram_values
    values = [rng.lognormvariate(-5.0, 1.0) for _ in range(count)]
    chunk = 512

    plain = LatencyHistogram()

    def record() -> None:
        put = plain.record
        for value in values:
            put(value)

    batched = LatencyHistogram()

    def record_many() -> None:
        for first in range(0, count, chunk):
            batched.record_many(values[first:first + chunk])

    snapshot = plain
    calls = sizes.percentile_calls

    def percentiles(targets: tuple) -> Callable[[], None]:
        def run() -> None:
            snap = snapshot.snapshot()
            for _ in range(calls):
                snap.percentiles(targets)
        return run

    # 18,000 records per simulated second: one swap per 18,000 records.
    clock = ManualClock(0.0)
    dual = DualBufferHistogram(clock)

    def dual_record() -> None:
        gap = spec.HOST_ARRIVAL_GAP_S
        for index, value in enumerate(values):
            clock.set(index * gap)
            dual.record(value)

    out = {"core.histogram.record_per_s": count / _timed(record),
           "core.histogram.record_many_per_s": count / _timed(record_many)}
    # Two targets take the bisect arm, six the numpy arm.
    out["core.histogram.percentiles2_per_s"] = calls / _timed(
        percentiles((50.0, 90.0)))
    out["core.histogram.percentiles6_per_s"] = calls / _timed(
        percentiles((50.0, 75.0, 90.0, 95.0, 99.0, 99.9)))
    out["core.dual_buffer.record_per_s"] = count / _timed(dual_record)
    out["core.dual_buffer.swaps"] = dual.swap_count
    return out


def telemetry_overhead(seed: int, sizes: spec.Sizes,
                       scratch_dir: str) -> Dict[str, float]:
    """A reduced sim_overload with a metrics registry attached over one
    without, alternated so drift hits both arms alike."""
    queries = sizes.telemetry_queries
    workload = build("sim_overload", seed, sizes, scratch_dir)
    workload.setup()
    plain: List[float] = []
    instrumented: List[float] = []
    for _ in range(2):
        plain.append(_timed(
            lambda: workload.simulate(queries, queries // 3)))
        instrumented.append(_timed(lambda: workload.simulate(
            queries, queries // 3,
            telemetry=Telemetry(registry=MetricsRegistry()))))
    return {"telemetry.sim_overhead_ratio":
            statistics.median(instrumented) / statistics.median(plain)}


def gateway(seed: int, sizes: spec.Sizes, scratch_dir: str
            ) -> Dict[str, Any]:
    """The gateway's layers apart, then a short fleet run to find what
    the sockets, asyncio and framing add on top of them."""
    fleet = GatewayWorkload(seed, sizes, scratch_dir,
                            closed_frames=sizes.layer_gateway_closed_frames,
                            open_frames=sizes.layer_gateway_open_frames)
    fleet.setup()
    try:
        run = fleet.repeat()
    finally:
        problems = fleet.teardown()
    local = drive_engines_in_process(fleet.policy_spec, fleet.frames,
                                     fleet.publications)
    if local.pop("digest") != run.outcome["bits"]:
        problems.append("layer drive: in-process engines decided "
                        "differently from the worker processes")
    out: Dict[str, Any] = dict(local)
    out["gateway.server.transport_us_per_frame"] = (
        run.layer.pop("closed_us_per_frame")
        - local["gateway.hashring.assign_us_per_frame"]
        - local["gateway.worker.decide_batch_us_per_frame"])
    out.update(run.layer)
    out["problems"] = problems + run.problems
    return out


def drive_all(seed: int, sizes: spec.Sizes, scratch_dir: str
              ) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    out.update(workload_generation(seed, sizes))
    out.update(event_engine(sizes))
    out.update(histograms(seed, sizes))
    out.update(telemetry_overhead(seed, sizes, scratch_dir))
    out.update(gateway(seed, sizes, scratch_dir))
    return out
