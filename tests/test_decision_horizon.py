"""Tests for Bouncer's O(1) decision between publications.

Two mechanisms make a decision one dictionary lookup and one comparison
while no histogram it reads can publish:

* the **wait limit**: each type's entry folds Algorithm 1's
  per-percentile loop into the largest wait it accepts, and the verdict
  ``not (wait > limit)`` must equal the loop for every float wait;
* the **entry horizon**: an entry is reused untouched until the first
  publish boundary of the backends it was read from; a record that arms
  a bootstrap publish drops the entries it could change.

Each horizon edge is driven through Bouncer and the naive oracle
(``tests/bouncer_oracle.py``), which builds a fresh entry and runs the
percentile loop on every decision; results must agree bit for bit.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (BouncerConfig, BouncerPolicy, HostContext,
                        LatencySLO, ManualClock, QueueView, SLORegistry)
from repro.core import bouncer as bouncer_module
from repro.core.bouncer import (DECISION_ALL, DECISION_ANY, _accept_limit,
                                _TypeEntry)
from repro.core.types import Query
from tests.bouncer_oracle import NaiveBouncerPolicy

SLO = LatencySLO.from_ms(p50=18, p90=50)
TIGHT = LatencySLO.from_ms(p50=1, p90=2)

#: Floats the limit must survive: zeros of both signs, subnormals, the
#: extremes, infinities and NaN.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, 1e-300,
           1e300, math.inf, -math.inf, math.nan, 0.018, 0.05]
any_float = st.one_of(st.floats(), st.sampled_from(SPECIAL))
target_float = st.one_of(
    st.floats(min_value=0.0, exclude_min=True),
    st.sampled_from([5e-324, 1e-300, 0.018, 0.05, 1e300, math.inf]))


def loop_verdict(slo, values, wait, mode_any):
    """Algorithm 1's per-percentile loop, as the naive oracle runs it."""
    exceeded = constrained = 0
    for index, (_, target) in enumerate(slo.items()):
        constrained += 1
        estimate = wait if values is None else wait + values[index]
        if estimate > target:
            exceeded += 1
    if mode_any:
        return exceeded == 0
    return constrained == 0 or exceeded != constrained


@st.composite
def slo_and_values(draw):
    """A one-to-three percentile SLO and its processing-time values; a
    value may equal its target or dwarf it."""
    targets = sorted(draw(st.lists(target_float, min_size=1, max_size=3)))
    slo = LatencySLO(dict(zip((50, 90, 99), targets)))
    if draw(st.booleans()):
        return slo, None
    values = []
    for target in targets:
        values.append(draw(st.one_of(
            any_float, st.just(target), st.just(target * 1e20),
            st.just(-target))))
    return slo, values


class TestWaitLimit:
    @settings(max_examples=400, deadline=None)
    @given(case=slo_and_values(), waits=st.lists(any_float, max_size=8),
           mode_any=st.booleans())
    @example(case=(LatencySLO({50: 0.05}), [0.05]), waits=[0.0, -0.0,
             5e-324, math.nan], mode_any=True)
    @example(case=(LatencySLO({50: 1e-300, 90: 1e-300}), [1e300, 0.0]),
             waits=[-1e300, -math.inf, math.nan], mode_any=False)
    def test_limit_equals_the_percentile_loop(self, case, waits, mode_any):
        slo, values = case
        entry = _TypeEntry(slo, False, values, mode_any)
        limit = entry.limit
        # The limit's neighbours are where an inexact limit would show.
        probes = waits + [limit, math.nextafter(limit, math.inf),
                          math.nextafter(limit, -math.inf)]
        for wait in probes:
            assert (not wait > limit) == loop_verdict(
                slo, values, wait, mode_any), (slo, values, wait)

    @settings(max_examples=400, deadline=None)
    @given(target=st.floats(allow_nan=False), pt=any_float)
    def test_limit_is_the_largest_passing_wait(self, target, pt):
        limit = _accept_limit(target, pt)
        assert not limit + pt > target
        if limit < math.inf:
            assert math.nextafter(limit, math.inf) + pt > target

    @pytest.mark.parametrize("target,pt", [
        (0.05, 0.05),              # limit is half an ulp of pt: ~1e16 ulps
        (1e-300, 1e300),           # pt dwarfs the target
        (5e-324, 1.0),
        (0.05, math.inf),
        (1.7976931348623157e308, -1.7976931348623157e308),
        (0.05, -0.0)])
    def test_search_is_bounded(self, monkeypatch, target, pt):
        calls = []
        real = bouncer_module._DOUBLE

        class Counting:
            def pack(self, value):
                calls.append(value)
                return real.pack(value)

            def unpack(self, raw):
                return real.unpack(raw)

        monkeypatch.setattr(bouncer_module, "_DOUBLE", Counting())
        limit = _accept_limit(target, pt)
        assert not limit + pt > target
        assert len(calls) <= 130


class Twin:
    """Bouncer and the naive oracle over one script, decisions compared.

    Each policy has its own clock and queue; both share one SLO registry,
    so registering an SLO reaches both.
    """

    def __init__(self, slos=None, **config):
        self.slos = slos or SLORegistry(SLO, {"fast": SLO, "slow": SLO})
        settings = dict(min_samples=3, retain_min_samples=2,
                        bootstrap_samples=0)
        settings.update(config)
        self.worlds = []
        for cls in (BouncerPolicy, NaiveBouncerPolicy):
            clock, queue = ManualClock(), QueueView()
            ctx = HostContext(clock=clock, queue=queue, parallelism=2)
            policy = cls(ctx, BouncerConfig(slos=self.slos, **settings))
            self.worlds.append((policy, clock, queue))
        self.fast = self.worlds[0][0]

    def record(self, qtype, *values):
        for policy, _, _ in self.worlds:
            for value in values:
                policy.on_completed(Query(qtype=qtype), 0.0, value)

    def enqueue(self, qtype):
        for _, _, queue in self.worlds:
            queue.on_enqueue(qtype)

    def set(self, at):
        for _, clock, _ in self.worlds:
            clock.set(at)

    def apply(self, action):
        for policy, _, _ in self.worlds:
            action(policy)

    def decide(self, qtype):
        """Both verdicts, asserted equal; returns Bouncer's result."""
        fast, naive = (policy.decide(Query(qtype=qtype))
                       for policy, _, _ in self.worlds)
        assert fast.decision is naive.decision
        assert fast.reason is naive.reason
        assert fast.estimates == naive.estimates
        return fast

    def entry(self, qtype):
        return self.fast._entries.get(qtype)


def count_entry_calls(monkeypatch, policy):
    calls = []
    real = policy._entry

    def counting(qtype):
        calls.append(qtype)
        return real(qtype)

    monkeypatch.setattr(policy, "_entry", counting)
    return calls


class TestEntryHorizon:
    def test_reused_until_the_publish_boundary_then_reread(self,
                                                           monkeypatch):
        twin = Twin()
        twin.record("fast", *[0.004] * 4)
        twin.set(1.0)
        first = twin.decide("fast")
        hist = twin.fast._hists["fast"]
        assert twin.entry("fast").until == hist.next_publish_due() == 2.0
        calls = count_entry_calls(monkeypatch, twin.fast)
        twin.record("fast", *[0.2] * 4)
        twin.set(1.5)
        assert twin.decide("fast").estimates == first.estimates
        twin.set(math.nextafter(2.0, 0.0))
        twin.decide("fast")
        assert calls == []
        # Exactly at the boundary the dual buffer swaps, so the entry
        # must be re-read: the new interval's slow samples show.
        twin.set(2.0)
        at_boundary = twin.decide("fast")
        assert calls == ["fast"]
        assert at_boundary.estimates != first.estimates
        assert not at_boundary.accepted

    def test_a_pending_bootstrap_is_never_skipped(self):
        twin = Twin(min_samples=2, bootstrap_samples=3)
        twin.record("fast", 0.004, 0.004)
        twin.set(0.25)
        assert twin.decide("fast").estimates == {50: 0.0, 90: 0.0}
        # Empty views hold like any other until the first boundary.
        assert twin.entry("fast").until == 1.0
        twin.record("fast", 0.2)     # 3 samples: the next touch publishes
        assert twin.entry("fast") is None        # the arming record drops it
        hist = twin.fast._hists["fast"]
        assert hist.bootstrap_pending
        twin.set(0.5)
        published = twin.decide("fast")
        assert not hist.bootstrap_pending and hist.published_epoch == 1
        assert twin.fast.processing_snapshot("fast").count == 3
        assert published.estimates[90] > 0.1
        assert twin.entry("fast").until == 1.5       # restarted interval

    def test_a_cold_types_own_bootstrap_is_never_skipped(self):
        slos = SLORegistry(SLO, {"fast": TIGHT})
        twin = Twin(slos=slos, min_samples=2, bootstrap_samples=3)
        twin.record("slow", *[0.004] * 5)
        twin.set(0.25)
        twin.decide("fast")          # cold on the general view, own empty
        entry = twin.entry("fast")
        assert entry.cold and entry.slo is SLO
        twin.record("fast", *[0.004] * 2)
        assert twin.entry("fast") is entry       # nothing armed yet
        twin.record("fast", 0.004)   # arms own bootstrap, not the general's
        assert twin.entry("fast") is None
        hist = twin.fast._hists["fast"]
        assert hist.bootstrap_pending
        twin.set(0.5)
        twin.decide("fast")          # this touch bootstrap-publishes own
        assert not hist.bootstrap_pending
        assert twin.entry("fast").slo is TIGHT

    def test_a_view_emptied_again_is_watched_again(self):
        # With retain_min_samples=0 an idle interval publishes an empty
        # view, so a type's bootstrap can come due a second time; the
        # next decision's Eq. 2 must see it publish, as the walk does.
        twin = Twin(min_samples=1, retain_min_samples=0, bootstrap_samples=2)
        twin.record("slow", *[0.004] * 3)
        twin.record("fast", 0.004, 0.004)
        twin.decide("fast")
        twin.set(0.25)
        twin.record("fast", 0.004)
        twin.set(1.25)
        twin.decide("fast")
        twin.set(2.25)               # [1, 2) was idle: empty view
        twin.decide("fast")
        assert twin.fast.processing_snapshot("fast").count == 0
        twin.enqueue("fast")
        twin.record("fast", 0.2, 0.2)
        twin.set(2.5)
        twin.decide("slow")
        twin.enqueue("slow")
        twin.set(2.75)
        twin.decide("slow")

    def test_cold_to_warm_and_warm_to_retained(self):
        slos = SLORegistry(SLO, {"fast": TIGHT})
        twin = Twin(slos=slos, min_samples=3, retain_min_samples=2)
        twin.record("slow", *[0.004] * 5)
        twin.record("fast", 0.004)
        twin.set(1.0)
        cold = twin.decide("fast")
        entry = twin.entry("fast")
        assert entry.cold and entry.slo is SLO
        assert cold.accepted
        twin.record("fast", 0.004, 0.004, 0.004)
        twin.set(2.0)
        twin.decide("fast")
        warm = twin.entry("fast")
        assert not warm.cold and warm.slo is TIGHT
        # A lull: one sample < retain_min_samples keeps the stale view, so
        # the boundary confirms the same entry and moves its horizon.
        twin.record("fast", 0.2)
        twin.set(3.0)
        twin.decide("fast")
        assert twin.entry("fast") is warm
        assert warm.until == 4.0

    @pytest.mark.parametrize("how", ["import_state", "preload_snapshots"])
    def test_state_transfer_mid_run_drops_entries(self, how):
        twin = Twin()
        twin.record("fast", *[0.004] * 4)
        twin.set(1.0)
        assert twin.decide("fast").accepted
        donor = Twin()
        donor.record("fast", *[0.2] * 6)
        donor.set(1.0)
        donor.decide("fast")
        if how == "import_state":
            state = donor.fast.export_state()
            twin.apply(lambda policy: policy.import_state(state))
        else:
            types = {"fast": donor.fast.processing_snapshot("fast")}
            general = donor.fast.general_snapshot()
            twin.apply(lambda policy: policy.preload_snapshots(
                types, general))
        twin.set(1.25)
        assert not twin.decide("fast").accepted

    def test_registering_an_slo_changes_the_next_decision(self):
        twin = Twin()
        twin.record("fast", *[0.01] * 4)
        twin.set(1.0)
        twin.enqueue("fast")
        assert twin.decide("fast").accepted
        twin.slos.register("fast", TIGHT)
        assert not twin.decide("fast").accepted
        assert twin.entry("fast").slo is TIGHT

    def test_decide_types_follows_the_same_rule(self, monkeypatch):
        twin = Twin()
        twin.record("fast", *[0.004] * 4)
        twin.set(1.0)
        twin.decide("fast")
        calls = count_entry_calls(monkeypatch, twin.fast)
        out = bytearray()
        twin.fast.decide_types(["fast"] * 5, out)
        assert calls == [] and out == b"11111"
        twin.set(2.0)
        twin.fast.decide_types(["fast"] * 5, out)
        assert calls == ["fast"]


def recorded_sequence(policy, clock, queue, seed=20):
    """A seeded soak of records, enqueues, dequeues, clock steps and
    decisions over a warm, a cold and a never-seen type."""
    rng = random.Random(seed)
    queued = []
    for _ in range(3000):
        roll = rng.random()
        qtype = rng.choice(("fast", "slow", "bulk", "fresh"))
        if roll < 0.3:
            policy.on_completed(Query(qtype=qtype), 0.0,
                                rng.uniform(1e-4, 0.02))
        elif roll < 0.42:
            queue.on_enqueue(qtype)
            queued.append(qtype)
        elif roll < 0.6 and queued:
            queue.on_dequeue(queued.pop(rng.randrange(len(queued))))
        elif roll < 0.68:
            clock.advance(rng.choice((0.05, 0.25, 0.5)))
        else:
            policy.decide(Query(qtype=qtype))


#: The estimator counters of the sequence once Eq. 2's means follow the
#: entries' reuse rule: a cache hit per reused entry, a hit or a miss per
#: epoch-memo lookup otherwise, and one Eq. 2 recompute per queued type's
#: mean re-read.  The tallies are those of every earlier tree.
RECORDED_COUNTERS = {"cache_hits": 1037, "cache_misses": 138,
                     "eq2_recomputes": 205, "accepted": 773, "rejected": 199}


def test_fast_path_counters_match_the_recorded_sequence():
    clock, queue = ManualClock(), QueueView()
    ctx = HostContext(clock=clock, queue=queue, parallelism=4)
    slos = SLORegistry(SLO, {"fast": SLO, "slow": TIGHT})
    policy = BouncerPolicy(ctx, BouncerConfig(
        slos=slos, min_samples=5, retain_min_samples=3,
        bootstrap_samples=8))
    recorded_sequence(policy, clock, queue)
    stats = policy.fast_path_stats
    totals = policy.stats.totals()
    assert {"cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "eq2_recomputes": stats.eq2_recomputes,
            "accepted": totals.accepted,
            "rejected": totals.rejected} == RECORDED_COUNTERS


@pytest.mark.parametrize("mode", [DECISION_ANY, DECISION_ALL])
def test_recorded_sequence_matches_the_oracle(mode):
    """The same soak through Bouncer and the oracle, decision by decision,
    in both decision modes."""
    results = []
    for cls in (BouncerPolicy, NaiveBouncerPolicy):
        clock, queue = ManualClock(), QueueView()
        ctx = HostContext(clock=clock, queue=queue, parallelism=4)
        slos = SLORegistry(SLO, {"fast": SLO, "slow": TIGHT})
        policy = cls(ctx, BouncerConfig(
            slos=slos, min_samples=5, retain_min_samples=3,
            bootstrap_samples=8, decision_mode=mode))
        seen = []
        decide = policy.decide

        def recording(query, decide=decide, seen=seen):
            result = decide(query)
            seen.append((result.decision, dict(result.estimates)))
            return result

        policy.decide = recording
        recorded_sequence(policy, clock, queue)
        results.append(seen)
    assert results[0] == results[1]
