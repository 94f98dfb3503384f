"""The per-query lifecycle does each piece of work once.

Two kinds of test, neither of which times anything:

* an oracle: ``reference_index_for`` is the log-based bucket search
  ``BucketLayout.index_for`` used before it became one ``bisect_right``,
  kept here so the two can be held equal over the whole float line;
* work counts: how often the hot path enters ``index_for`` and
  ``_maybe_swap``, who owns each result's estimates dict, and how many
  locks a single-threaded host creates and takes in ``repro.core`` (none).
"""

import math
import pathlib
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core
from repro.analysis import lockcheck
from repro.bench import make_bouncer, simulation_mix
from repro.core import (BouncerConfig, BouncerPolicy, HostContext,
                        LatencySLO, ManualClock, Query, QueueView,
                        SLORegistry)
from repro.core.dual_buffer import DualBufferHistogram
from repro.core.histogram import (DEFAULT_LAYOUT, BucketLayout,
                                  LatencyHistogram)
from repro.sim import run_simulation
from repro.telemetry.registry import HistogramChild

SLO = LatencySLO.from_ms(p50=18, p90=50)

LAYOUTS = [
    DEFAULT_LAYOUT,
    # max_value is an exact power of growth here: the clamp and the last
    # bucket's lower edge coincide (up to rounding in either direction).
    BucketLayout(min_value=1e-6, max_value=100.0, growth=10.0),
    BucketLayout(min_value=1e-3, max_value=10.0, growth=2.0),
    BucketLayout(min_value=0.5, max_value=3.0, growth=1.001),
]


def reference_index_for(layout: BucketLayout, value: float) -> int:
    """Bucket index by logarithm, nudged onto the right side of an edge."""
    if value < layout.min_value:
        return 0
    if value >= layout.max_value:
        return layout.num_buckets - 1
    idx = int((math.log(value) - math.log(layout.min_value))
              / math.log(layout.growth))
    # Guard against floating point landing on a boundary's wrong side.
    if idx + 1 <= layout.num_buckets and value >= layout.lower_bound(idx + 1):
        idx += 1
    elif value < layout.lower_bound(idx):
        idx -= 1
    return min(max(idx, 0), layout.num_buckets - 1)


def edge_cases(layout: BucketLayout):
    """Every edge and the floats either side of it, plus the odd ones."""
    edges = [layout.lower_bound(i) for i in range(layout.num_buckets + 1)]
    values = [0.0, 5e-324, -5e-324, -1.0, -math.inf, math.inf,
              layout.min_value, layout.max_value,
              math.nextafter(layout.max_value, 0.0),
              math.nextafter(layout.max_value, math.inf),
              math.nextafter(edges[-2], 0.0)]
    for edge in edges:
        values += [math.nextafter(edge, 0.0), edge,
                   math.nextafter(edge, math.inf)]
    return values


class TestIndexForOracle:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_edges_and_their_neighbours(self, layout):
        for value in edge_cases(layout):
            assert layout.index_for(value) == reference_index_for(
                layout, value), value

    @given(st.floats(allow_nan=False))
    def test_any_float(self, value):
        for layout in LAYOUTS:
            assert layout.index_for(value) == reference_index_for(
                layout, value)

    @given(st.floats(min_value=1e-7, max_value=200.0))
    def test_the_range_latencies_live_in(self, value):
        assert DEFAULT_LAYOUT.index_for(value) == reference_index_for(
            DEFAULT_LAYOUT, value)

    def test_max_value_is_a_clamp_not_an_edge(self):
        layout = DEFAULT_LAYOUT
        last = layout.num_buckets - 1
        assert layout.lower_bound(last) > layout.max_value
        # By the edges alone [max_value, lower_bound(last)) is in last - 1.
        assert layout.index_for(layout.max_value) == last
        assert layout.index_for(
            math.nextafter(layout.max_value, 0.0)) == last - 1

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_nan_has_no_bucket(self, layout):
        with pytest.raises(ValueError):
            layout.index_for(math.nan)
        with pytest.raises(ValueError):
            reference_index_for(layout, math.nan)


class TestRefusedSamples:
    def recorders(self):
        clock = ManualClock()
        return [LatencyHistogram(), DualBufferHistogram(clock)]

    def test_negative_is_refused_by_every_recorder(self):
        for recorder in self.recorders():
            with pytest.raises(ValueError):
                recorder.record(-0.001)
            with pytest.raises(ValueError):
                recorder.record_at(DEFAULT_LAYOUT.index_for(-0.001), -0.001)
            recorder.record_at(DEFAULT_LAYOUT.index_for(0.002), 0.002)
            snap = (recorder.force_swap()
                    if isinstance(recorder, DualBufferHistogram)
                    else recorder.snapshot())
            assert snap.count == 1

    @pytest.mark.parametrize("bad", [-0.001, math.nan])
    def test_policy_refuses_and_records_nothing(self, bad):
        policy, clock, _ = make_policy()
        with pytest.raises(ValueError):
            policy.on_completed(Query("fast"), 0.0, bad)
        clock.advance(1.0)
        assert policy.processing_snapshot("fast").count == 0
        assert policy.general_snapshot().count == 0

    def test_telemetry_histogram_still_clamps_negatives(self):
        child = HistogramChild(DEFAULT_LAYOUT)
        child.observe(-3.0)
        child.observe(-1.0)
        child.observe(0.004)
        assert child.count == 3
        assert child._counts[0] == 2
        assert child._sum == 0.004


class CountingLayout(BucketLayout):
    """A layout that counts the bucket searches made through it."""

    def __init__(self) -> None:
        super().__init__()
        self.searches = 0

    def index_for(self, value: float) -> int:
        self.searches += 1
        return super().index_for(value)


class CountingDualBuffer(DualBufferHistogram):
    """A dual buffer that counts entries into the swap routine."""

    entered = 0

    def _maybe_swap(self, now: float) -> None:
        self.entered += 1
        super()._maybe_swap(now)


def make_policy(**config):
    clock = ManualClock()
    queue = QueueView()
    ctx = HostContext(clock=clock, queue=queue, parallelism=4)
    defaults = dict(min_samples=1, retain_min_samples=1, bootstrap_samples=0)
    defaults.update(config)
    policy = BouncerPolicy(ctx, BouncerConfig(
        slos=SLORegistry.uniform(SLO, ("fast", "slow")), **defaults))
    return policy, clock, queue


def warm_policy(**config):
    policy, clock, queue = make_policy(**config)
    for qtype, value in (("fast", 0.004), ("slow", 0.030)):
        for _ in range(5):
            policy.on_completed(Query(qtype), 0.0, value)
    clock.advance(1.0)
    return policy, clock, queue


class TestWorkCounts:
    def test_one_bucket_search_per_completion(self):
        layout = CountingLayout()
        policy, clock, _ = make_policy(layout=layout)
        for done in range(1, 6):
            policy.on_completed(Query("fast"), 0.0, 0.004)
            assert layout.searches == done
        clock.advance(1.0)
        # The one index put the sample in the same bucket of both.
        own = policy.processing_snapshot("fast")
        general = policy.general_snapshot()
        assert own.count == general.count == 5
        assert own.percentile(50) == general.percentile(50)

    def test_swap_routine_not_entered_inside_an_interval(self):
        clock = ManualClock()
        hist = CountingDualBuffer(clock, interval=1.0, min_samples=0)
        index = DEFAULT_LAYOUT.index_for(0.004)
        # Nothing published yet: a bootstrap could be due on any touch.
        hist.record(0.004)
        hist.record_at(index, 0.004)
        hist.snapshot()
        assert hist.entered == 3
        clock.advance(1.0)
        assert hist.snapshot().count == 2      # the boundary: swap
        assert hist.entered == 4
        clock.advance(0.5)
        hist.record(0.004)
        hist.record_at(index, 0.004)
        assert hist.snapshot().count == 2
        assert hist.entered == 4               # strictly inside: not entered
        clock.advance(0.5)
        hist.record(0.004)                     # at the boundary itself
        assert hist.entered == 5
        assert hist.snapshot().count == 2
        assert hist.swap_count == 2

    def check_owned(self, policy, decide):
        """``decide()`` returns results whose estimates nobody else holds."""
        expected = dict(decide()[0].estimates)
        assert expected
        seen = []
        for _ in range(3):
            results = decide()
            for result in results:
                assert result.estimates == expected
                assert all(result.estimates is not other for other in seen)
                seen.append(result.estimates)
            for result in results:
                result.estimates.clear()
                result.estimates[50] = -1.0
        assert all(result.estimates == expected for result in decide())

    def test_scalar_results_own_their_estimates(self):
        # An unchanged queue keeps the wait bit-equal between decisions:
        # every decision after the first is a memo hit.
        policy, _, _ = warm_policy()
        self.check_owned(policy, lambda: [policy.decide(Query("fast"))])

    def test_scalar_results_own_their_estimates_on_memo_misses(self):
        policy, _, queue = warm_policy()

        def decide():
            # A decision under a longer queue overwrites the memo, so the
            # decision returned, back under the first wait, misses it.
            queue.on_enqueue("slow")
            policy.decide(Query("fast"))
            queue.on_dequeue("slow")
            return [policy.decide(Query("fast"))]

        self.check_owned(policy, decide)

    @pytest.mark.parametrize("callback", [None, lambda query, result: None])
    def test_burst_results_own_their_estimates(self, callback):
        policy, _, _ = warm_policy()
        burst = [Query("fast"), Query("fast"), Query("slow"), Query("fast")]
        fast_only = lambda: [  # noqa: E731
            result for query, result in zip(
                burst, policy.decide_many(burst, callback))
            if query.qtype == "fast"]
        self.check_owned(policy, fast_only)


CORE_DIR = pathlib.Path(repro.core.__file__).parent


@pytest.fixture
def lock_ledger(monkeypatch, lock_registry):
    """Every instrumented lock made or taken while the checker is installed.

    Two lists of creation sites (``file:line``): one entry per lock
    created from ``repro`` code, one per acquisition of such a lock.
    """
    created, acquired = [], []
    real_init = lockcheck.CheckedLock.__init__
    real_acquire = lockcheck.CheckedLock.acquire

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        created.append(self._name)

    def acquire(self, *args, **kwargs):
        acquired.append(self._name)
        return real_acquire(self, *args, **kwargs)

    monkeypatch.setattr(lockcheck.CheckedLock, "__init__", init)
    monkeypatch.setattr(lockcheck.CheckedLock, "acquire", acquire)
    return created, acquired


def from_core(sites):
    return [site for site in sites if str(CORE_DIR) in site]


class TestNoLocksInCore:
    """The kernel is lock-free by contract: hosts serialize, core does not."""

    def test_ledger_sees_locks_elsewhere(self, lock_ledger):
        # The instrument works: a registry child is a repro lock.
        created, acquired = lock_ledger
        HistogramChild(DEFAULT_LAYOUT).observe(0.004)
        assert created and acquired
        assert not from_core(created)

    def test_simulation_takes_no_core_lock(self, lock_ledger):
        created, acquired = lock_ledger
        mix = simulation_mix()
        report = run_simulation(mix, make_bouncer(),
                                rate_qps=1.2 * mix.full_load_qps(50),
                                num_queries=2000, parallelism=50, seed=3)
        assert report.overall.completed > 0 and report.overall.rejected > 0
        assert from_core(created) == []
        assert from_core(acquired) == []

    def test_host_loop_takes_no_core_lock(self, lock_ledger):
        created, acquired = lock_ledger
        policy, clock, queue = make_policy()
        fifo = []
        for index in range(2000):
            clock.advance(0.001)
            while len(fifo) > 3:
                head = fifo.pop(0)
                queue.on_dequeue(head.qtype)
                policy.on_dequeued(head, 0.002)
                policy.on_completed(head, 0.002, 0.03)
            query = Query("slow" if index % 3 else "fast")
            if policy.decide(query).accepted:
                fifo.append(query)
                queue.on_enqueue(query.qtype)
                policy.on_enqueued(query)
        policy.decide_many([Query("fast"), Query("slow")])
        totals = policy.stats.totals()
        assert totals.received == 2002 and totals.rejected > 0
        assert from_core(created) == []
        assert from_core(acquired) == []

    def test_no_core_module_imports_threading(self):
        imports = re.compile(r"^\s*(import|from)\s+threading\b", re.MULTILINE)
        offenders = [path.name for path in sorted(CORE_DIR.rglob("*.py"))
                     if imports.search(path.read_text())]
        assert offenders == []
