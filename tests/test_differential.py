"""Differential test: simulated host vs. threaded runtime.

The repo has two independent implementations of the same serving model —
the event-driven :mod:`repro.sim` host and the thread-pool
:mod:`repro.runtime` server.  Feeding both the *same* pre-sampled
workload (identical qtype/payload sequence, same mean rate, same policy)
must produce agreeing macro behavior: accept rates and SLO attainment
within tolerance.  A divergence means one of the implementations drifted.

The comparison runs twice — fault-free, and under an active
:class:`~repro.faults.FaultPlan` — because the fault hooks are wired into
each framework separately and are exactly the kind of code that can rot
on one side only.  The fault plan uses always-on windows so the two
frameworks' different epoch conventions (sim arms at measurement start,
runtime arms at server start) cannot misalign the schedule, and its
probabilistic drop draws advance once per matching offered query, so the
realized drop sequence is identical across frameworks by construction —
which the test asserts exactly.

Honors ``REPRO_CHAOS_SEED`` so CI can sweep a seed matrix.
"""

import itertools
import os
import time
from collections import deque
from typing import Dict, List

import pytest

from repro.bench import make_maxqwt, simulation_mix
from repro.core.types import Query
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.runtime import AdmissionServer, LoadGenerator
from repro.sim import run_simulation
from repro.sim.workload import ArrivalSchedule, service_time_of

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))
PARALLELISM = 8
NUM_QUERIES = 600
THRESHOLD = 0.050  # the paper's p90 objective
ACCEPT_TOLERANCE = 0.05
ATTAINMENT_TOLERANCE = 0.12
MIN_COMPLETIONS = 30  # per-type comparison needs a real sample


def _rate() -> float:
    # Half of full load: both frameworks run uncongested, so queueing
    # noise stays well inside the tolerance bands.
    return 0.5 * simulation_mix().full_load_qps(PARALLELISM)


def _policy_factory():
    return make_maxqwt(limit=0.015)


def _fault_plan() -> FaultPlan:
    # Always-on windows (epoch-independent); one admission fault and one
    # service fault, each hitting a distinct high-volume type.  Both are
    # probabilistic so their RNG streams advance per matching offered
    # query (aligning across frameworks), and the spike hits rarely
    # enough that the host stays uncongested — a congested host would
    # compare policy-rejection dynamics, not the fault plumbing.
    return FaultPlan("differential", SEED, (
        FaultSpec(kind=FaultKind.QUEUE_DROP, qtypes=("fast",),
                  probability=0.3),
        FaultSpec(kind=FaultKind.LATENCY_SPIKE, qtypes=("medium_fast",),
                  magnitude=0.060, probability=0.15),
    ))


def _attainment_of(response_times: Dict[str, List[float]]
                   ) -> Dict[str, float]:
    """Fraction of responses within THRESHOLD, per type plus ``ALL``."""
    result: Dict[str, float] = {}
    pooled_within = 0
    pooled_total = 0
    for qtype, values in response_times.items():
        within = sum(1 for value in values if value <= THRESHOLD)
        result[qtype] = within / len(values) if values else 0.0
        pooled_within += within
        pooled_total += len(values)
    result["ALL"] = pooled_within / pooled_total if pooled_total else 0.0
    return result


def _drop_schedule(injector: FaultInjector) -> List[str]:
    """The realized QUEUE_DROP victims (qtype sequence), in offer order."""
    return [entry[2] for entry in injector.log
            if entry[0] == FaultKind.QUEUE_DROP.value]


def _run_sim(plan):
    injector = FaultInjector(plan) if plan is not None else None
    report = run_simulation(
        simulation_mix(), _policy_factory(), rate_qps=_rate(),
        num_queries=NUM_QUERIES, parallelism=PARALLELISM,
        warmup_queries=0, seed=SEED, fault_injector=injector,
        attainment_threshold=THRESHOLD)
    accept = 1.0 - report.overall.rejection_pct / 100.0
    completions = {qtype: stats.completed
                   for qtype, stats in report.per_type.items()}
    return accept, report.attainment, completions, injector


def _run_runtime(plan):
    # Replay the exact qtype/payload sequence the sim host saw: the
    # arrival schedule is a pure function of (mix, rate, seed).
    schedule = iter(ArrivalSchedule(simulation_mix(), _rate(), seed=SEED))
    pending = deque((q.qtype, q.payload)
                    for q in itertools.islice(schedule, NUM_QUERIES))

    def factory(rng):
        qtype, payload = pending.popleft()
        return Query(qtype=qtype, payload=payload)

    injector = FaultInjector(plan) if plan is not None else None
    server = AdmissionServer(
        # repro: allow=no-wall-clock (runtime leg of the differential really serves; sim leg uses ManualClock)
        _policy_factory(), handler=lambda q: time.sleep(service_time_of(q)),
        workers=PARALLELISM, fault_injector=injector)
    server.start()
    try:
        generator = LoadGenerator(server, factory, rate_qps=_rate(),
                                  seed=SEED + 1)
        result = generator.run(NUM_QUERIES)
    finally:
        server.stop()
    assert result.errors == 0
    accept = result.accepted / result.offered
    completions = {qtype: len(values)
                   for qtype, values in result.response_times.items()}
    return accept, _attainment_of(result.response_times), completions, \
        injector


def _assert_agreement(sim, runtime):
    sim_accept, sim_attain, sim_counts, _ = sim
    run_accept, run_attain, run_counts, _ = runtime
    assert abs(sim_accept - run_accept) <= ACCEPT_TOLERANCE, (
        f"accept rates diverge: sim={sim_accept:.3f} "
        f"runtime={run_accept:.3f}")
    assert abs(sim_attain["ALL"] - run_attain["ALL"]) \
        <= ATTAINMENT_TOLERANCE, (
            f"overall attainment diverges: sim={sim_attain['ALL']:.3f} "
            f"runtime={run_attain['ALL']:.3f}")
    for qtype in sim_attain:
        if qtype == "ALL" or qtype not in run_attain:
            continue
        if (sim_counts.get(qtype, 0) < MIN_COMPLETIONS
                or run_counts.get(qtype, 0) < MIN_COMPLETIONS):
            continue
        assert abs(sim_attain[qtype] - run_attain[qtype]) \
            <= ATTAINMENT_TOLERANCE, (
                f"{qtype} attainment diverges: "
                f"sim={sim_attain[qtype]:.3f} "
                f"runtime={run_attain[qtype]:.3f}")


class TestDifferentialFaultFree:
    def test_frameworks_agree_without_faults(self):
        sim = _run_sim(None)
        runtime = _run_runtime(None)
        _assert_agreement(sim, runtime)
        # Sanity: an uncongested host should accept nearly everything.
        assert sim[0] > 0.9
        assert runtime[0] > 0.9


class TestDifferentialUnderFaults:
    def test_frameworks_agree_under_active_fault_plan(self):
        plan = _fault_plan()
        sim = _run_sim(plan)
        runtime = _run_runtime(plan)
        _assert_agreement(sim, runtime)
        # Both frameworks actually injected faults...
        assert sim[3].total_injected() > 0
        assert runtime[3].total_injected() > 0
        # ...and the probabilistic drop draws, which advance once per
        # matching offered query, realized the *identical* victim
        # sequence on both sides.
        sim_drops = _drop_schedule(sim[3])
        runtime_drops = _drop_schedule(runtime[3])
        assert sim_drops == runtime_drops
        assert len(sim_drops) > 0
        # The drop fault visibly dented the accept rate on both sides.
        assert sim[0] < 0.95
        assert runtime[0] < 0.95


class TestErrorVerdictFeedsPolicy:
    """An injected engine error is reported to the policy on both hosts:
    the engine did the work, then errored the query."""

    @staticmethod
    def _counting_policy(completed):
        from repro.core import AlwaysAcceptPolicy

        class Counting(AlwaysAcceptPolicy):
            def on_completed(self, query, wait, processing):
                completed.append(query.qtype)

        return lambda ctx: Counting()

    @staticmethod
    def _always_error():
        return FaultInjector(FaultPlan("poison", SEED, (
            FaultSpec(kind=FaultKind.ERROR, probability=1.0),)), epoch=0.0)

    def test_sim_host_reports_errored_completions(self):
        from repro.sim import SimulatedServer, Simulator

        completed = []
        sim = Simulator()
        server = SimulatedServer(sim, 2, self._counting_policy(completed),
                                 fault_injector=self._always_error())
        for _ in range(5):
            server.offer(Query(qtype="x", payload=0.001))
        sim.run()
        assert server.metrics.errors == 5
        assert completed == ["x"] * 5

    def test_runtime_host_reports_errored_completions(self):
        from repro.exceptions import InjectedFaultError

        completed = []
        server = AdmissionServer(self._counting_policy(completed),
                                 handler=lambda q: "ok", workers=2,
                                 fault_injector=self._always_error())
        with server:
            futures = [server.submit(Query(qtype="x")) for _ in range(5)]
            for future in futures:
                with pytest.raises(InjectedFaultError):
                    future.result(timeout=5.0)
        assert completed == ["x"] * 5

    def test_runtime_host_reports_raising_handler(self):
        """A handler that raises costs the engine work as well: the policy
        hears of it, as it does of an injected error."""
        completed = []

        def handler(query):
            raise RuntimeError("backend down")

        server = AdmissionServer(self._counting_policy(completed),
                                 handler=handler, workers=2)
        with server:
            futures = [server.submit(Query(qtype="x")) for _ in range(5)]
            for future in futures:
                with pytest.raises(RuntimeError, match="backend down"):
                    future.result(timeout=5.0)
        assert completed == ["x"] * 5

    @pytest.mark.parametrize("outcome", ["ok", "raise", "injected"])
    def test_policy_hears_before_the_future_resolves(self, outcome):
        """One completion tail for every outcome: the policy is told of
        the work before the caller's future is resolved."""
        completed = []

        def handler(query):
            if outcome == "raise":
                raise RuntimeError("backend down")
            return "ok"

        faults = self._always_error() if outcome == "injected" else None
        server = AdmissionServer(self._counting_policy(completed),
                                 handler=handler, workers=1,
                                 fault_injector=faults)
        with server:
            for sent in range(1, 4):
                future = server.submit(Query(qtype="x"))
                future.exception(timeout=5.0)
                assert completed == ["x"] * sent

    def test_raising_handler_reports_the_time_it_took(self):
        from repro.core import AlwaysAcceptPolicy

        reported, entered = [], []

        class Recording(AlwaysAcceptPolicy):
            def on_completed(self, query, wait, processing):
                reported.append((query, processing))

        def handler(query):
            entered.append(server.ctx.clock.now())
            raise RuntimeError("backend down")

        server = AdmissionServer(lambda ctx: Recording(), handler=handler,
                                 workers=1)
        with server:
            future = server.submit(Query(qtype="x"))
            with pytest.raises(RuntimeError):
                future.result(timeout=5.0)
        [(query, processing)] = reported
        assert processing == query.processing_time >= 0.0
        assert query.completed_at >= entered[0]

    def test_mixed_outcomes_each_reach_policy_and_caller(self):
        completed = []

        def handler(query):
            if query.payload % 2:
                raise ValueError(f"odd {query.payload}")
            return query.payload

        server = AdmissionServer(self._counting_policy(completed),
                                 handler=handler, workers=2)
        with server:
            futures = [server.submit(Query(qtype="x", payload=n))
                       for n in range(8)]
            for n, future in enumerate(futures):
                if n % 2:
                    with pytest.raises(ValueError, match=f"odd {n}"):
                        future.result(timeout=5.0)
                else:
                    assert future.result(timeout=5.0) == n
        assert completed == ["x"] * 8
