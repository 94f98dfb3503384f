"""The event engine and the arrival path against their oracles.

There is one scheduler and one arrival generator, so the references live
here, with the subject:

* a ten-line model of the scheduler's whole contract — live events fire in
  ``(when, seq)`` order — driven in lockstep with :class:`Simulator`
  through random op scripts;
* ``ArrivalSchedule.__iter__`` as the reference for ``iter_chunks``, which
  only regroups it;
* golden values recorded at the last commit that still shipped the
  calendar queue, the legacy driver arm, the numpy mirror and the query
  pool (``be3a321``, where that commit's own tests held all of those arms
  to one another): three end-to-end report fingerprints and a digest of
  the seeded arrival stream, in ``tests/golden/event_engine.json``.
  Three more cluster cells (no resilience; faults; Bouncer on the shards)
  were recorded at ``781dcdd``, before the cluster model's sub-query
  lifecycle was rebuilt.  ``python tests/test_event_engine.py`` prints
  the document the current tree produces — re-record only for a change
  *meant* to alter seeded outcomes.
"""

import copy
import dataclasses
import hashlib
import itertools
import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.simulator import Simulator
from repro.sim.workload import ArrivalSchedule, QueryTypeSpec, WorkloadMix

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "event_engine.json"


# -- the scheduler against its model -------------------------------------------

class _Model:
    """The contract: live events fire in ``(when, seq)`` order; a firing
    event may chain one more event or cancel another."""

    def __init__(self):
        self.now, self.seq, self.live, self.effects = 0.0, 0, {}, {}

    def schedule(self, when, effect=None):
        self.live[self.seq], self.effects[self.seq] = when, effect
        self.seq += 1
        return self.seq - 1

    def cancel(self, tag):
        self.live.pop(tag, None)

    def pop(self, until=None):
        when, tag = min(((w, t) for t, w in self.live.items()),
                        default=(None, None))
        if tag is None or (until is not None and when > until):
            return None
        del self.live[tag]
        self.now = when
        kind, arg = self.effects[tag] or (None, None)
        if kind == "chain":
            self.schedule(when + arg)
        elif kind == "cancel":
            self.cancel(arg)
        return tag


class _Driven:
    """A :class:`Simulator` whose callbacks log ``(tag, now)`` and apply the
    model's effects to the real engine."""

    def __init__(self):
        self.sim = Simulator()
        self.fired = []
        self.handles = {}
        self._tags = itertools.count()

    def schedule(self, how, value, effect=None):
        tag = next(self._tags)
        sim = self.sim

        def fire(_arg=None):
            self.fired.append((tag, sim.now))
            kind, arg = effect or (None, None)
            if kind == "chain":
                self.schedule("call", sim.now + arg)
            elif kind == "cancel":
                self.handles[arg].cancel()

        if how == "call":
            sim._schedule_call(value, fire, None)
        elif how == "at":
            self.handles[tag] = sim.schedule_at(value, fire)
        else:
            self.handles[tag] = sim.schedule_after(value, fire)
        return tag


def _run_script(ops):
    """Drive engine and model through ``ops``; every observable must agree
    after every op.  An op is ``(kind, amount, selector)``."""
    driven, model = _Driven(), _Model()
    sim = driven.sim
    expected = []

    def drain_model(until=None, limit=None):
        while limit is None or limit > 0:
            tag = model.pop(until)
            if tag is None:
                return
            expected.append((tag, model.now))
            if limit is not None:
                limit -= 1

    for kind, amount, selector in ops:
        if kind in ("at", "after", "call"):
            cancellable = sorted(driven.handles)
            if selector >= 8 and cancellable:
                effect = ("cancel", cancellable[selector % len(cancellable)])
            elif selector >= 6:
                effect = ("chain", amount / 2)
            else:
                effect = None
            when = sim.now + amount
            driven.schedule(kind, amount if kind == "after" else when,
                            effect)
            model.schedule(when, effect)
        elif kind == "cancel":
            cancellable = sorted(driven.handles)
            if cancellable:
                tag = cancellable[selector % len(cancellable)]
                driven.handles[tag].cancel()
                model.cancel(tag)
        elif kind == "step":
            for _ in range(selector % 8 + 1):
                before = len(expected)
                drain_model(limit=1)
                assert sim.step() == (len(expected) > before)
        elif kind == "until":
            horizon = sim.now + amount
            sim.run(until=horizon)
            drain_model(until=horizon)
            model.now = horizon
        assert driven.fired == expected
        assert sim.pending == len(model.live)
        # repro: allow=no-simtime-float-eq (bit-identity: exact same float)
        assert sim.now == model.now
    sim.run()
    drain_model()
    assert driven.fired == expected
    assert sim.pending == 0
    assert sim.events_processed == len(expected)
    # repro: allow=no-simtime-float-eq (bit-identity: exact same float)
    assert sim.now == model.now


#: Amounts are drawn small so schedules stay dense: ties, chains landing
#: between pending events, and cancels of both fired and pending events all
#: occur within one script.
_AMOUNT = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
_OPS = st.lists(
    st.tuples(st.sampled_from(["at", "after", "call", "cancel", "step",
                               "until"]),
              _AMOUNT, st.integers(min_value=0, max_value=40)),
    min_size=1, max_size=60)


class TestSchedulerEquivalence:
    """The one engine vs the model: identical pop sequences."""

    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS)
    def test_identical_pop_sequences(self, ops):
        _run_script(ops)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compaction_keeps_order_and_pending_exact(self, seed,
                                                      monkeypatch):
        # Most of a 300-event schedule is cancelled, from outside and from
        # inside callbacks (run() is then mid-loop over the very list being
        # compacted), interleaved with new events and stepping.
        import heapq

        compactions = []
        heapify = heapq.heapify
        monkeypatch.setattr(heapq, "heapify",
                            lambda heap: compactions.append(heapify(heap)))
        rng = random.Random(seed)
        ops = [("at", rng.uniform(0.0, 50.0), 0) for _ in range(300)]
        for victim in rng.sample(range(300), 260):
            ops.append(("cancel", 0.0, victim))
            if rng.random() < 0.3:
                ops.append(("at", rng.uniform(0.0, 5.0),
                            rng.randrange(8, 40)))
            if rng.random() < 0.2:
                ops.append(("step", 0.0, 0))
        _run_script(ops)
        assert len(compactions) >= 2

    @settings(max_examples=60, deadline=None)
    @given(whens=st.lists(st.floats(min_value=0.0, max_value=10.0,
                                    allow_nan=False),
                          min_size=1, max_size=200),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_same_timestamp_ties_resolve_by_seq(self, whens, seed):
        # Duplicate some timestamps deliberately: ties must fire in
        # scheduling order.
        rng = random.Random(seed)
        whens = whens + [rng.choice(whens) for _ in range(len(whens) // 2)]
        sim = Simulator()
        popped = []
        for tag, when in enumerate(whens):
            sim._schedule_call(when, popped.append, (when, tag))
        sim.run()
        assert popped == sorted((when, tag)
                                for tag, when in enumerate(whens))

    def test_run_until_stops_identically(self):
        _run_script([("call", when, 0) for when in (0.5, 1.0, 1.5, 2.5)]
                    + [("until", 1.5, 0)])
        sim = Simulator()
        log = []
        for when in (0.5, 1.0, 1.5, 2.5):
            sim._schedule_call(when, log.append, when)
        sim.run(until=1.5)
        assert log == [0.5, 1.0, 1.5]
        # repro: allow=no-simtime-float-eq (until= pins the exact bound)
        assert sim.now == 1.5
        assert sim.pending == 1

    def test_cancel_after_fire_is_a_no_op(self):
        _run_script([("at", 0.5, 0), ("at", 1.0, 0), ("step", 0.0, 0),
                     ("cancel", 0.0, 0), ("cancel", 0.0, 0)])


# -- the arrival path ----------------------------------------------------------

def _mix():
    return WorkloadMix([
        QueryTypeSpec("fast", 0.6, mu=math.log(0.01), sigma=0.4),
        QueryTypeSpec("slow", 0.3, mu=math.log(0.05), sigma=0.7),
        QueryTypeSpec("fixed", 0.1, mu=math.log(0.02), sigma=0.0),
    ])


def _stream_digest(burst, count=10_000):
    """sha256 over the first ``count`` ``(qtype, arrival_time, payload)``."""
    digest = hashlib.sha256()
    stream = iter(ArrivalSchedule(_mix(), 500.0, seed=7, burst=burst))
    for query in itertools.islice(stream, count):
        digest.update(repr((query.qtype, query.arrival_time,
                            query.payload)).encode())
    return digest.hexdigest()


class TestChunkedWorkloadEquivalence:
    """``iter_chunks`` regroups ``__iter__`` and nothing else."""

    def _compare(self, burst, chunk_size, n=3000):
        reference = list(itertools.islice(
            iter(ArrivalSchedule(_mix(), 500.0, seed=42, burst=burst)), n))
        regrouped = []
        chunks = ArrivalSchedule(_mix(), 500.0, seed=42,
                                 burst=burst).iter_chunks(chunk_size)
        while len(regrouped) < n:
            chunk = next(chunks)
            # Whole bursts only: a burst never straddles two chunks.
            assert len(chunk) == max(1, chunk_size // burst) * burst
            assert len({q.arrival_time for q in chunk}) <= len(chunk) // burst
            regrouped.extend(chunk)
        assert ([(q.qtype, q.arrival_time, q.payload) for q in reference]
                == [(q.qtype, q.arrival_time, q.payload)
                    for q in regrouped[:n]])

    def test_chunked_matches_per_query_stream(self):
        for chunk_size in (1, 7, 64, 1024):
            self._compare(burst=1, chunk_size=chunk_size)

    def test_chunked_matches_per_query_stream_bursty(self):
        for burst in (4, 64):
            for chunk_size in (1, 7, 64, 1024):
                self._compare(burst=burst, chunk_size=chunk_size)

    @pytest.mark.parametrize("burst", [1, 64])
    def test_stream_matches_golden_digest(self, burst):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert _stream_digest(burst) == golden["stream"][f"burst{burst}"]


# -- end to end ----------------------------------------------------------------

def _report_fingerprint(report):
    """Every count and every float of a report (``json`` writes a float as
    its ``repr``, so the round trip is exact)."""
    return json.loads(json.dumps(dataclasses.asdict(report)))


def _fig06_cell(policy_factory=None):
    from repro.bench.experiments import make_bouncer, simulation_mix
    from repro.sim.driver import run_simulation

    return run_simulation(
        simulation_mix(), policy_factory or make_bouncer(), rate_qps=4000.0,
        num_queries=2500, parallelism=100, warmup_queries=1000, seed=11,
        attainment_threshold=0.05)


def _burst4_cell():
    """1.2x full load in clumps of four through Bouncer + allowance; the
    odd warm-up makes one burst straddle the measurement boundary."""
    from repro.bench.experiments import make_bouncer_aa, simulation_mix
    from repro.sim.driver import run_simulation

    mix = simulation_mix()
    return run_simulation(
        mix, make_bouncer_aa(), rate_qps=1.2 * mix.full_load_qps(100),
        num_queries=6000, parallelism=100, warmup_queries=30001, seed=11,
        attainment_threshold=0.05, burst=4)


def _cluster_cell():
    """The LIquid model overloaded, with hedge and timeout delays short
    enough that hedges, retries and degraded responses all occur."""
    from repro.bench.experiments import (cluster_config, cluster_slos,
                                         make_bouncer_aa)
    from repro.liquid import run_cluster_simulation
    from repro.liquid.cluster_sim import ResilienceConfig

    return run_cluster_simulation(
        cluster_config(seed=5), make_bouncer_aa(slos=cluster_slos()),
        rate_qps=36_000.0, num_queries=3000, warmup_queries=6000, seed=11,
        resilience=ResilienceConfig(hedge_after=0.0005,
                                    subquery_timeout=0.002,
                                    retry_backoff=0.0005),
        attainment_threshold=0.05)


def _cluster_plain_cell():
    """The referee's ``cluster_overload`` setup (Bouncer + allowance at the
    brokers, 36k qps) at test scale: no resilience, no faults."""
    from repro.bench.experiments import (cluster_config, cluster_slos,
                                         make_bouncer_aa)
    from repro.liquid import run_cluster_simulation

    return run_cluster_simulation(
        cluster_config(seed=7), make_bouncer_aa(slos=cluster_slos(), seed=108),
        rate_qps=36_000.0, num_queries=3000, warmup_queries=6000, seed=7,
        attainment_threshold=0.05)


def _cluster_faults_cell():
    """Shard engine errors, shard and broker stalls, a shard blackout and
    broker queue drops under the default resilience: errored completions,
    both hosts' stall resumes, timeouts racing a frozen shard's answer."""
    from repro.bench.experiments import (cluster_config, cluster_slos,
                                         make_bouncer_aa)
    from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
    from repro.liquid import run_cluster_simulation
    from repro.liquid.cluster_sim import ResilienceConfig

    plan = FaultPlan("golden", 3, (
        FaultSpec(FaultKind.ERROR, start=0.0, duration=0.05,
                  target="shard-*", probability=0.1),
        FaultSpec(FaultKind.ENGINE_STALL, start=0.02, duration=0.015,
                  target="shard-1"),
        FaultSpec(FaultKind.ENGINE_STALL, start=0.06, duration=0.01,
                  target="broker-0"),
        FaultSpec(FaultKind.BLACKOUT, start=0.07, duration=0.01,
                  target="shard-2"),
        FaultSpec(FaultKind.QUEUE_DROP, start=0.0, duration=0.03,
                  target="broker-1", probability=0.3),
    ))
    return run_cluster_simulation(
        cluster_config(seed=5), make_bouncer_aa(slos=cluster_slos()),
        rate_qps=30_000.0, num_queries=3000, warmup_queries=6000, seed=13,
        fault_injector=FaultInjector(plan), resilience=ResilienceConfig(),
        attainment_threshold=0.05)


def _cluster_shard_bouncer_cell():
    """Bouncer at the brokers *and* the shards (the §5.6 pairing), with
    shard work scaled up so both tiers reject."""
    from repro.bench.experiments import (cluster_slos, make_bouncer,
                                         make_bouncer_aa)
    from repro.core import LatencySLO, SLORegistry
    from repro.liquid import ClusterConfig, linkedin_cost_table
    from repro.liquid import run_cluster_simulation

    table = linkedin_cost_table(work_scale=1.5)
    shard_slos = SLORegistry.uniform(LatencySLO.from_ms(p50=3, p90=8),
                                     [c.name for c in table])
    config = ClusterConfig(cost_table=table, shard_processes=16, seed=9,
                           shard_policy_factory=make_bouncer(slos=shard_slos))
    return run_cluster_simulation(
        config, make_bouncer_aa(slos=cluster_slos()), rate_qps=30_000.0,
        num_queries=3000, warmup_queries=6000, seed=17,
        attainment_threshold=0.05)


_CELLS = {"fig06": _fig06_cell, "burst4": _burst4_cell,
          "cluster": _cluster_cell, "cluster_plain": _cluster_plain_cell,
          "cluster_faults": _cluster_faults_cell,
          "cluster_shard_bouncer": _cluster_shard_bouncer_cell}


#: The only report fields a cell may move away from its recorded value:
#: warm-up queries that failed downstream or were served degraded after
#: the measurement window opened used to be counted as measured outcomes.
#: The golden's ``straggler_fix`` section lists, per cell, each moved
#: field's recorded (parent) value next to its value now.
_STRAGGLER_FIELDS = ("rejected", "shard_rejections", "degraded")


def _expected_fingerprint(golden, cell):
    expected = copy.deepcopy(golden["reports"][cell])
    for path, change in golden["straggler_fix"].get(cell, {}).items():
        *parents, leaf = path.split(".")
        assert leaf in _STRAGGLER_FIELDS, path
        node = expected
        for key in parents:
            node = node[key]
        assert node[leaf] == change["parent"], path
        node[leaf] = change["now"]
    return expected


class TestEndToEndReportEquality:
    """Seeded runs reproduce the recorded reports bit for bit, apart from
    the straggler fields named above."""

    @pytest.mark.parametrize("cell", sorted(_CELLS))
    def test_cell_matches_golden_fingerprint(self, cell):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert (_report_fingerprint(_CELLS[cell]())
                == _expected_fingerprint(golden, cell))


def current_document():
    return {"stream": {f"burst{b}": _stream_digest(b) for b in (1, 64)},
            "reports": {name: _report_fingerprint(cell())
                        for name, cell in sorted(_CELLS.items())}}


if __name__ == "__main__":
    print(json.dumps(current_document(), indent=1, sort_keys=True))
