"""The five workloads.

Each has ``setup()`` (inputs, fleets, a short warm-up), ``repeat()`` (one
timed pass over a fixed amount of work, returning a :class:`Repeat`) and
``teardown()`` (stop what was started and run the end-of-run checks).  The
work of a repeat is fixed by the seed and the scale, so every repeat of a
workload must produce the same ``outcome``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (Any, ContextManager, Deque, Dict, List, Mapping,
                    Optional, Tuple)

from repro.core import (AdmissionPolicy, BouncerConfig, BouncerPolicy,
                        HostContext, ManualClock, Query, QueueView)
from repro.gateway import GatewayServer, PolicySpec, ShardRouter, SnapshotBoard
from repro.gateway.worker import ShardEngine
from repro.liquid import run_cluster_simulation
from repro.sim import run_simulation

from . import inputs, spec
from .measure import now, percentile, sleep
from .proxy import Tracer


@dataclass
class Repeat:
    """One timed pass."""

    wall_s: float                  # the wall time ``work`` is divided by
    work: int                      # queries, lifecycles or decisions
    attempted: int                 # operations that could have failed
    failed: int
    #: Deterministic for a seed; equal across repeats and with tracing on.
    outcome: Dict[str, Any]
    #: This repeat's accept_share, slo_ok_share, rt_p50_ms, rt_p90_ms.
    values: Dict[str, float]
    #: Workload-specific rows of the layer ledger.
    layer: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: Set where ``work / wall_s`` is not the steadiest estimate of the rate.
    queries_per_s: Optional[float] = None

    def rate(self) -> float:
        if self.queries_per_s is None:
            return self.work / self.wall_s
        return self.queries_per_s


def _phase(tracer: Optional[Tracer], name: str) -> ContextManager[None]:
    return tracer.span(name) if tracer is not None else nullcontext()


def _traced(factory: inputs.PolicyFactory, tracer: Optional[Tracer]
            ) -> inputs.PolicyFactory:
    """``factory`` with every policy it builds behind the timing proxy."""
    if tracer is None:
        return factory
    return lambda ctx: tracer.wrap(factory(ctx))


def _simulated_values(outcome: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end values a simulated outcome determines."""
    return {"accept_share": outcome["accepted"] / outcome["offered"],
            "slo_ok_share": outcome["within_slo"] / outcome["offered"],
            "rt_p50_ms": outcome["rt_p50_ms"],
            "rt_p90_ms": outcome["rt_p90_ms"]}


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: spec.Sizes, scratch_dir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.scratch_dir = scratch_dir

    def setup(self) -> None:
        raise NotImplementedError

    def repeat(self, tracer: Optional[Tracer] = None) -> Repeat:
        raise NotImplementedError

    def teardown(self, check: bool = True) -> List[str]:
        """Release everything ``setup`` acquired; returns failed checks."""
        return []


# -- simulated hosts -----------------------------------------------------------

def _report_repeat(report: Any, wall_s: float, offered: int, warmup: int,
                   slow_type: str) -> Repeat:
    """Outcome, metric values and invariants of a sim or cluster report."""
    overall = report.overall
    per_type = report.per_type
    accepted = offered - overall.rejected
    within = round(report.attainment["ALL"] * overall.completed)
    # Plain Bouncer can starve the slow type for a whole run (the paper's
    # Fig. 3), so the bounded latency is over all served queries and the
    # slow type's, when it was served at all, rides along in the outcome.
    slow = per_type[slow_type].response if slow_type in per_type else {}
    outcome = {
        "offered": offered, "accepted": accepted,
        "rejected": overall.rejected, "completed": overall.completed,
        "expired": overall.expired, "errors": overall.errors,
        "within_slo": within,
        "rt_p50_ms": overall.response[50.0] * 1e3,
        "rt_p90_ms": overall.response[90.0] * 1e3,
        "slow_rt_p50_ms": slow.get(50.0, 0.0) * 1e3,
        "slow_rt_p90_ms": slow.get(90.0, 0.0) * 1e3,
    }
    problems = []
    if accepted != overall.completed + overall.expired + overall.errors:
        problems.append(
            f"accepted {accepted} != completed {overall.completed} + expired "
            f"{overall.expired} + errors {overall.errors}")
    for count in ("completed", "rejected", "expired", "errors"):
        by_type = sum(getattr(stats, count) for stats in per_type.values())
        if by_type != getattr(overall, count):
            problems.append(f"per-type {count} sum {by_type} != overall "
                            f"{getattr(overall, count)}")
    return Repeat(
        wall_s=wall_s, work=offered + warmup, attempted=offered,
        failed=overall.errors, outcome=outcome,
        values=_simulated_values(outcome), problems=problems)


class SimWorkload(Workload):
    """``run_simulation`` over the Table-1 mix."""

    def __init__(self, name: str, seed: int, sizes: spec.Sizes,
                 scratch_dir: str, *, load: float, burst: int, queries: int,
                 allowance: bool) -> None:
        super().__init__(seed, sizes, scratch_dir)
        self.name = name
        self._load = load
        self._burst = burst
        self._queries = queries
        self._allowance = allowance

    def setup(self) -> None:
        self._mix = inputs.table1_mix()
        slos = inputs.uniform_slos(self._mix.type_names)
        self._factory = (inputs.bouncer_aa_factory(slos, self.seed)
                         if self._allowance
                         else inputs.bouncer_factory(slos))
        self._rate = self._load * self._mix.full_load_qps(
            spec.SIM_PARALLELISM)
        self._warmup = self.sizes.sim_warmup
        if self._warmup is None:
            # The driver's own default: two simulated seconds of traffic,
            # so the dual buffers publish before measurement starts.
            self._warmup = max(self._queries // 5, int(2.0 * self._rate))
        # Whole bursts only: the driver counts the warm-up part of a burst
        # that straddles the boundary as measured (README, "Findings").
        self._warmup -= self._warmup % self._burst
        self.simulate(self._queries // 10,
                      self._queries // 10 // self._burst * self._burst)

    def simulate(self, queries: int, warmup: int,
                 tracer: Optional[Tracer] = None, **extra: Any) -> Any:
        return run_simulation(
            self._mix, _traced(self._factory, tracer), rate_qps=self._rate,
            num_queries=queries,
            parallelism=spec.SIM_PARALLELISM, warmup_queries=warmup,
            seed=self.seed, burst=self._burst,
            attainment_threshold=spec.SLO_LIMIT_S, **extra)

    def repeat(self, tracer: Optional[Tracer] = None) -> Repeat:
        with _phase(tracer, "run"):
            start = now()
            report = self.simulate(self._queries, self._warmup, tracer)
            wall = now() - start
        result = _report_repeat(report, wall, self._queries, self._warmup,
                                spec.SIM_SLOW_TYPE)
        result.layer = {
            "sim.server.wait_p50_ms": report.overall.wait[50.0] * 1e3,
            "sim.server.engine_util": report.utilization}
        return result


class ClusterWorkload(Workload):
    """``run_cluster_simulation``: Bouncer + allowance at the brokers."""

    name = "cluster_overload"
    RATE_QPS = 36_000.0     # the paper's 144K on the 4x-scaled cluster

    def setup(self) -> None:
        self._config = inputs.cluster_config(self.seed)
        self._factory = inputs.bouncer_aa_factory(
            inputs.uniform_slos([c.name for c in self._config.cost_table]),
            self.seed)
        self._simulate(max(self.sizes.cluster_queries // 10, 1),
                       self.sizes.cluster_warmup // 10)

    def _simulate(self, queries: int, warmup: int,
                  tracer: Optional[Tracer] = None) -> Any:
        return run_cluster_simulation(
            self._config, _traced(self._factory, tracer),
            rate_qps=self.RATE_QPS,
            num_queries=queries, warmup_queries=warmup, seed=self.seed,
            attainment_threshold=spec.SLO_LIMIT_S)

    def repeat(self, tracer: Optional[Tracer] = None) -> Repeat:
        queries = self.sizes.cluster_queries
        warmup = self.sizes.cluster_warmup
        with _phase(tracer, "run"):
            start = now()
            report = self._simulate(queries, warmup, tracer)
            wall = now() - start
        result = _report_repeat(report, wall, queries, warmup,
                                spec.CLUSTER_SLOW_TYPE)
        result.outcome["broker_rejections"] = report.broker_rejections
        result.layer = {"liquid.cluster_sim.broker_reject_share":
                        report.broker_rejections / queries}
        return result


# -- the library under an embedding host ---------------------------------------

class HostLoopWorkload(Workload):
    """decide > on_enqueued > on_dequeued > on_completed, no simulator.

    The host is the fluid limit of a FIFO in front of P engines: every
    arrival tick hands it ``P * gap`` engine-seconds, which it spends on
    the heads of the queue in order (capacity left over while the queue is
    empty is lost).  A head has waited ``now - enqueued_at`` when it is
    served; response time is wait + processing (Eq. 1).  Arrivals carry
    1.19x the work the engines can do, so like ``sim_overload`` the policy
    sits on Alg. 1's boundary -- without an event scheduler in the way.
    """

    name = "policy_host_loop"

    def setup(self) -> None:
        with_warmup = self.sizes.host_warmup + self.sizes.host_lifecycles
        self._qtypes, self._demands = inputs.host_loop_lifecycles(
            self.seed, with_warmup)
        self._slos = inputs.uniform_slos(
            [name for name, _, _, _ in spec.TABLE1_TYPES])
        self._drive(with_warmup // 10, self.sizes.host_warmup // 10, None)

    def _drive(self, lifecycles: int, warmup: int,
               tracer: Optional[Tracer]) -> Dict[str, Any]:
        clock = ManualClock(0.0)
        view = QueueView()
        ctx = HostContext(clock=clock, queue=view,
                          parallelism=spec.SIM_PARALLELISM)
        policy: AdmissionPolicy = BouncerPolicy(
            ctx, BouncerConfig(slos=self._slos))
        if tracer is not None:
            policy = tracer.wrap(policy)
        fifo: Deque[Query] = deque()
        gap = spec.HOST_ARRIVAL_GAP_S
        per_tick = spec.SIM_PARALLELISM * gap
        budget = 0.0
        measured_from = warmup * gap
        slow_type = spec.SIM_SLOW_TYPE
        limit = spec.SLO_LIMIT_S
        served_rt: List[float] = []
        slow_rt: List[float] = []
        rejected = completed = within = 0

        def serve_head(at: float) -> None:
            nonlocal completed, within
            head = fifo.popleft()
            head.dequeued_at = at
            view.on_dequeue(head.qtype)
            wait = at - head.enqueued_at        # type: ignore[operator]
            policy.on_dequeued(head, wait)
            demand = head.payload
            head.completed_at = at + demand
            policy.on_completed(head, wait, demand)
            if head.arrival_time >= measured_from:
                completed += 1
                served_rt.append(wait + demand)
                if wait + demand <= limit:
                    within += 1
                if head.qtype == slow_type:
                    slow_rt.append(wait + demand)

        qtypes = self._qtypes
        demands = self._demands
        with _phase(tracer, "run"):
            for index in range(lifecycles):
                at = index * gap
                clock.set(at)
                budget += per_tick
                while fifo and budget >= fifo[0].payload:
                    budget -= fifo[0].payload
                    serve_head(at)
                if not fifo:
                    budget = 0.0
                query = Query(qtypes[index], arrival_time=at,
                              payload=demands[index])
                if policy.decide(query).accepted:
                    query.enqueued_at = at
                    fifo.append(query)
                    view.on_enqueue(query.qtype)
                    policy.on_enqueued(query)
                elif index >= warmup:
                    rejected += 1
        with _phase(tracer, "drain"):
            at = lifecycles * gap
            clock.set(at)
            while fifo:
                serve_head(at)
        # Plain Bouncer can starve the slow type, as on the simulated host.
        return {"offered": lifecycles - warmup,
                "accepted": lifecycles - warmup - rejected,
                "rejected": rejected,
                "completed": completed, "within_slo": within,
                "rt_p50_ms": percentile(served_rt, 50) * 1e3,
                "rt_p90_ms": percentile(served_rt, 90) * 1e3,
                "slow_rt_p50_ms":
                    percentile(slow_rt, 50) * 1e3 if slow_rt else 0.0,
                "slow_rt_p90_ms":
                    percentile(slow_rt, 90) * 1e3 if slow_rt else 0.0}

    def repeat(self, tracer: Optional[Tracer] = None) -> Repeat:
        lifecycles = self.sizes.host_warmup + self.sizes.host_lifecycles
        start = now()
        outcome = self._drive(lifecycles, self.sizes.host_warmup, tracer)
        wall = now() - start
        problems = []
        if outcome["accepted"] != outcome["completed"]:
            problems.append(f"accepted {outcome['accepted']} != completed "
                            f"{outcome['completed']}")
        return Repeat(
            wall_s=wall, work=lifecycles, attempted=outcome["offered"],
            failed=0, outcome=outcome, values=_simulated_values(outcome),
            problems=problems)


# -- the multi-process gateway ---------------------------------------------------

def replay_decision_log(path: str, policy_spec: PolicySpec,
                        publications: Mapping[int, inputs.Publication]
                        ) -> Tuple[int, int]:
    """Replay one worker's log through a fresh single-process policy.

    ``g <generation>`` lines preload the snapshots published under that
    board generation, ``d <qtype> <bit>`` lines must be reproduced by a
    scalar ``decide``.  Returns ``(decisions, mismatches)``.
    """
    policy, _, _ = policy_spec.build()
    decisions = mismatches = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("g "):
                types, general = publications[int(line[2:])]
                policy.preload_snapshots(types, general, adopt_epochs=True)
            elif line.startswith("d "):
                qtype, bit = line[2:].split()
                decisions += 1
                if policy.decide(Query(qtype=qtype)).accepted != (bit == "1"):
                    mismatches += 1
    return decisions, mismatches


def drive_engines_in_process(policy_spec: PolicySpec,
                             frames: List[List[str]],
                             publications: List[inputs.Publication],
                             tracer: Optional[Tracer] = None
                             ) -> Dict[str, Any]:
    """The fleet's work without the fleet: router, board and one
    ``ShardEngine`` per shard in this process, each step timed apart."""
    router = ShardRouter(spec.GATEWAY_SHARDS)
    board = SnapshotBoard.create()
    try:
        engines = [ShardEngine(policy_spec, board, shard)
                   for shard in range(spec.GATEWAY_SHARDS)]
        if tracer is not None:
            for engine in engines:
                engine.policy = tracer.wrap(engine.policy)  # type: ignore[assignment]
        digest = hashlib.blake2b(digest_size=16)
        assign_s = decide_s = publish_s = 0.0
        published_bytes = roundtrips = 0
        for index, frame in enumerate(frames):
            if index % spec.GATEWAY_PUBLISH_EVERY == 0:
                types, general = publications[
                    index // spec.GATEWAY_PUBLISH_EVERY]
                start = now()
                board.publish(types, general)
                publish_s += now() - start
                published_bytes += (len(general.to_bytes()) + sum(
                    len(snap.to_bytes()) for snap in types.values()))
            start = now()
            grouped = router.assignment(frame)
            assign_s += now() - start
            roundtrips += len(grouped)
            start = now()
            bits = {shard: engines[shard].decide_batch(owned)
                    for shard, owned in grouped.items()}
            decide_s += now() - start
            # Back into frame order, as GatewayServer.decide_many returns.
            cursor = dict.fromkeys(grouped, 0)
            ordered = bytearray()
            for qtype in frame:
                shard = router.shard_for(qtype)
                ordered.append(bits[shard][cursor[shard]] == "1")
                cursor[shard] += 1
            digest.update(ordered)
        reads = 200
        start = now()
        for _ in range(reads):
            board.read()
        read_s = now() - start
    finally:
        board.unlink()
    count = len(frames)
    published = (count - 1) // spec.GATEWAY_PUBLISH_EVERY + 1
    return {
        "digest": digest.hexdigest(),
        "gateway.hashring.assign_us_per_frame": assign_s / count * 1e6,
        "gateway.snapshot.publish_us": publish_s / published * 1e6,
        "gateway.snapshot.read_us": read_s / reads * 1e6,
        "gateway.snapshot.bytes_per_publish": published_bytes / published,
        "gateway.worker.decide_batch_us_per_frame": decide_s / count * 1e6,
        "gateway.worker.snapshot_syncs":
            sum(engine.snapshot_syncs for engine in engines),
        "gateway.worker.policy_errors":
            sum(engine.policy_errors for engine in engines),
        "gateway.server.roundtrips_per_frame": roundtrips / count,
    }


class GatewayWorkload(Workload):
    """Closed loop for capacity, open loop for latency, then replay.

    One generator (this thread) drives ``GatewayServer.decide_many`` over
    the server's own two connections; it also publishes, every
    ``GATEWAY_PUBLISH_EVERY`` frames, so which publication a frame is
    decided under -- and therefore every accept bit -- repeats exactly.
    """

    name = "gateway_rpc"

    def __init__(self, seed: int, sizes: spec.Sizes, scratch_dir: str,
                 closed_frames: Optional[int] = None,
                 open_frames: Optional[int] = None) -> None:
        super().__init__(seed, sizes, scratch_dir)
        self._closed = (sizes.gateway_closed_frames if closed_frames is None
                        else closed_frames)
        self._open = (sizes.gateway_open_frames if open_frames is None
                      else open_frames)
        self._gateway: Optional[GatewayServer] = None
        self._runtime_dir = ""

    def setup(self) -> None:
        with_warmup = self._closed + self._open + self.sizes.gateway_warmup_frames
        frames = inputs.gateway_frames(self.seed, with_warmup)
        self._warmup_frames = frames[self._closed + self._open:]
        self.frames = frames[:self._closed + self._open]
        self.publications = [
            inputs.gateway_publication(index)
            for index in range((len(self.frames) - 1)
                               // spec.GATEWAY_PUBLISH_EVERY + 1)]
        self.policy_spec = inputs.gateway_policy_spec()
        self._by_generation: Dict[int, inputs.Publication] = {}
        self._sent = 0
        os.makedirs(self.scratch_dir, exist_ok=True)
        self._runtime_dir = tempfile.mkdtemp(prefix="gw-",
                                             dir=self.scratch_dir)
        # AF_UNIX paths are limited to ~100 bytes; a relative path keeps
        # the sockets inside the checkout however deep the checkout is.
        relative = os.path.relpath(self._runtime_dir)
        self._gateway = GatewayServer(self.policy_spec,
                                      shards=spec.GATEWAY_SHARDS,
                                      runtime_dir=relative)
        try:
            self._gateway.start()
            self._publish(0)
            for frame in self._warmup_frames:
                self._decide(frame)
        except BaseException:
            self.teardown(check=False)
            raise

    def _publish(self, index: int) -> None:
        assert self._gateway is not None
        publication = self.publications[index]
        self._by_generation[self._gateway.publish(*publication)] = publication

    def _decide(self, frame: List[str]) -> List[bool]:
        assert self._gateway is not None
        self._sent += len(frame)
        return self._gateway.decide_many(frame)

    def repeat(self, tracer: Optional[Tracer] = None) -> Repeat:
        every = spec.GATEWAY_PUBLISH_EVERY
        digest = hashlib.blake2b(digest_size=16)
        accepted = unanswered = 0
        closed = self.frames[:self._closed]
        marks: List[float] = []     # where each publication's frames begin
        with _phase(tracer, "run_closed"):
            for index, frame in enumerate(closed):
                if index % every == 0:
                    marks.append(now())
                    self._publish(index // every)
                bits = self._decide(frame)
                accepted += sum(bits)
                unanswered += len(frame) - len(bits)
                digest.update(bytes(bits))
            marks.append(now())
        closed_wall = marks[-1] - marks[0]
        closed_bits = digest.hexdigest()
        # The repeat's rate is that of its quicker chunks (a publication and
        # the frames decided under it): the lower quartile of their times.
        # Whatever disturbs a three-process ping-pong on a shared two-vCPU
        # guest only ever slows it, for a fraction of a second at a time;
        # over ten runs the whole loop's rate spread 14%, this one 5%.
        # (Every scale's closed loop is a whole number of chunks.)
        chunk_walls = sorted(later - earlier
                             for earlier, later in zip(marks, marks[1:]))
        quick_rate = (every * spec.GATEWAY_FRAME_QUERIES
                      / chunk_walls[len(chunk_walls) // 4])
        gap = 1.0 / spec.GATEWAY_OPEN_RATE
        limit = spec.GATEWAY_RTT_LIMIT_S
        rtts: List[float] = []
        lates: List[float] = []
        open_queries = timely = 0
        with _phase(tracer, "run_open"):
            origin = now() + gap
            for offset, frame in enumerate(self.frames[self._closed:]):
                index = self._closed + offset
                due = origin + offset * gap
                while True:
                    ahead = due - now()
                    if ahead <= 0.0:
                        break
                    if ahead > 0.0003:
                        sleep(ahead - 0.00015)
                # A publication due with this frame is paid for by this
                # frame: its cost lands in the round trip from due time.
                if index % every == 0:
                    self._publish(index // every)
                lates.append(now() - due)
                bits = self._decide(frame)
                rtt = now() - due
                rtts.append(rtt)
                accepted += sum(bits)
                unanswered += len(frame) - len(bits)
                digest.update(bytes(bits))
                open_queries += len(frame)
                if rtt <= limit:
                    timely += sum(bits)
        decisions = sum(len(frame) for frame in self.frames)
        outcome = {"offered": decisions, "accepted": accepted,
                   "rejected": decisions - accepted - unanswered,
                   "bits": digest.hexdigest()}
        problems = []
        if tracer is not None:
            # The workers cannot be proxied from here; the same closed-loop
            # frames through in-process engines can.
            with _phase(tracer, "shadow"):
                shadow = drive_engines_in_process(
                    self.policy_spec, closed, self.publications, tracer)
            if shadow["digest"] != closed_bits:
                problems.append("in-process engines decided differently "
                                "from the worker processes")
        return Repeat(
            wall_s=closed_wall,
            work=sum(len(frame) for frame in closed),
            queries_per_s=quick_rate,
            attempted=decisions, failed=unanswered, outcome=outcome,
            values={"accept_share": accepted / decisions,
                    "slo_ok_share": timely / open_queries,
                    "rt_p50_ms": percentile(rtts, 50) * 1e3,
                    "rt_p90_ms": percentile(rtts, 90) * 1e3},
            layer={"loadgen.late_us_p90": percentile(lates, 90) * 1e6,
                   "loadgen.late_share":
                       sum(1 for late in lates if late > 0.25 * gap)
                       / len(lates),
                   "gateway_rpc.rtt_p99_us": percentile(rtts, 99) * 1e6,
                   "closed_us_per_frame": closed_wall / len(closed) * 1e6},
            problems=problems)

    def teardown(self, check: bool = True) -> List[str]:
        gateway, self._gateway = self._gateway, None
        problems: List[str] = []
        if gateway is None:
            return problems
        try:
            stats = gateway.collect_stats() if check else {}
        finally:
            gateway.stop(timeout=30.0)
        try:
            if check:
                errors = sum(s.policy_errors for s in stats.values())
                answered = sum(s.decisions for s in stats.values())
                if errors:
                    problems.append(f"{errors} policy errors in the workers")
                if answered != self._sent:
                    problems.append(f"workers answered {answered} of "
                                    f"{self._sent} queries sent")
                replayed = 0
                for shard, path in sorted(gateway.decision_log_paths.items()):
                    decisions, mismatches = replay_decision_log(
                        path, self.policy_spec, self._by_generation)
                    replayed += decisions
                    if mismatches:
                        problems.append(
                            f"shard {shard}: {mismatches} of {decisions} "
                            f"logged decisions differ on replay")
                if replayed != self._sent:
                    problems.append(f"logs hold {replayed} decisions, "
                                    f"{self._sent} were sent")
        finally:
            shutil.rmtree(self._runtime_dir, ignore_errors=True)
        return problems


def build(name: str, seed: int, sizes: spec.Sizes,
          scratch_dir: str) -> Workload:
    if name == "sim_overload":
        return SimWorkload(name, seed, sizes, scratch_dir, load=1.2, burst=1,
                           queries=sizes.sim_overload_queries,
                           allowance=False)
    if name == "sim_burst":
        return SimWorkload(name, seed, sizes, scratch_dir, load=0.7,
                           burst=64, queries=sizes.sim_burst_queries,
                           allowance=True)
    classes = {cls.name: cls for cls in (ClusterWorkload, HostLoopWorkload,
                                         GatewayWorkload)}
    return classes[name](seed, sizes, scratch_dir)
