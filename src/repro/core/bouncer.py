"""The Bouncer admission control policy (paper §3, Algorithm 1).

For every arriving query ``Q`` of type ``t``, Bouncer computes:

* an estimate of the mean queue wait time the query will experience::

      ewt_mean = sum(count(type) * pt_mean(type) for type in queue) / P    (Eq. 2)

  where ``count(type)`` is the number of queries of that type currently in
  the FIFO queue, ``pt_mean(type)`` is the mean processing time from the
  type's histogram, and ``P`` is the number of query engine processes; and

* percentile response-time estimates for each percentile ``p`` the type's
  SLO constrains::

      ert_p(Q) = ewt_mean + pt_p(t)                                (Eqs. 3-4)

and rejects ``Q`` iff any estimate exceeds its SLO target (Algorithm 1).
The paper uses p50 and p90; this implementation supports any percentile set
carried by the SLO (p99 etc. — listed by the authors as a straightforward
extension) and an alternative ``all`` decision mode for ablations.

Processing-time distributions are maintained per type in dual-buffer
histograms (§3 footnote 4) plus one *general* histogram over all types.
Cold starts are handled per Appendix A: while a type's histogram holds too
few samples, estimates are made from the general histogram against the
default (catch-all) SLO, and during traffic lulls stale per-type snapshots
are retained rather than replaced by empty ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Dict, List, Mapping, Optional, Sequence, Set, Tuple,
                    Union)

from ..exceptions import ConfigurationError
from .context import HostContext
from .dual_buffer import DualBufferHistogram, SlidingWindowHistogram
from .histogram import DEFAULT_LAYOUT, BucketLayout, HistogramSnapshot
from .policy import AdmissionPolicy, DecisionCallback
from .slo import LatencySLO, SLORegistry
from .types import AdmissionResult, Decision, Query, RejectReason

#: Either histogram backend satisfies the same record/estimate surface.
HistogramBackend = Union[DualBufferHistogram, SlidingWindowHistogram]

#: Reject when ANY percentile estimate exceeds its target (Algorithm 1).
DECISION_ANY = "any"
#: Reject only when ALL percentile estimates exceed their targets
#: (a laxer variant evaluated in the ablation benches).
DECISION_ALL = "all"

#: Histogram maintenance via atomically swapped non-overlapping windows
#: (the paper's production design, §3 footnote 4).
HISTOGRAMS_DUAL_BUFFER = "dual-buffer"
#: Histogram maintenance over a sliding window of overlapping slices (the
#: alternative the paper lists as future work, §7).
HISTOGRAMS_SLIDING_WINDOW = "sliding-window"


@dataclass
class BouncerConfig:
    """Tunables for :class:`BouncerPolicy`.

    Parameters
    ----------
    slos:
        Per-query-type latency SLOs with a catch-all default (§3).
    histogram_interval:
        Dual-buffer swap period in seconds (the paper's LIquid deployment
        publishes every second).
    min_samples:
        A type's snapshot must hold at least this many observations to be
        trusted; below it the policy falls back to the general histogram and
        default SLO (Appendix A warm-up behaviour).
    retain_min_samples:
        Passed through to the dual buffers: an interval with fewer samples
        keeps the previous (stale) snapshot instead of publishing
        (Appendix A traffic-lull behaviour).
    bootstrap_samples:
        Publish a histogram's very first snapshot as soon as it has this
        many samples instead of waiting out a full interval, shortening the
        cold-start window (0 disables).
    decision_mode:
        :data:`DECISION_ANY` (the paper's Algorithm 1) or
        :data:`DECISION_ALL`.
    histogram_mode:
        :data:`HISTOGRAMS_DUAL_BUFFER` (the paper's design) or
        :data:`HISTOGRAMS_SLIDING_WINDOW` (its future-work alternative:
        observations age out slice by slice instead of all at once).
    histogram_window:
        Sliding-window span in seconds (sliding-window mode only); slices
        are ``histogram_interval`` long.
    layout:
        Optional shared histogram bucket layout.
    fast_path:
        Enable the decision fast path: epoch-cached snapshot statistics and
        the incrementally maintained Eq. 2 occupancy state (see
        docs/performance.md).  Decisions are bit-identical with it on or
        off; ``False`` keeps the naive recompute-everything path, which the
        perf harness uses as its baseline.
    debug_check:
        Cross-check every fast-path wait estimate against the naive
        recomputation and raise ``AssertionError`` on any disagreement.
        Debugging/property-test aid; meaningful only with ``fast_path``.
    """

    slos: SLORegistry
    histogram_interval: float = 1.0
    min_samples: int = 20
    retain_min_samples: int = 10
    bootstrap_samples: int = 100
    decision_mode: str = DECISION_ANY
    histogram_mode: str = HISTOGRAMS_DUAL_BUFFER
    histogram_window: float = 5.0
    layout: Optional[BucketLayout] = None
    fast_path: bool = True
    debug_check: bool = False

    def __post_init__(self) -> None:
        if self.decision_mode not in (DECISION_ANY, DECISION_ALL):
            raise ConfigurationError(
                f"decision_mode must be {DECISION_ANY!r} or {DECISION_ALL!r},"
                f" got {self.decision_mode!r}")
        if self.histogram_mode not in (HISTOGRAMS_DUAL_BUFFER,
                                       HISTOGRAMS_SLIDING_WINDOW):
            raise ConfigurationError(
                f"histogram_mode must be {HISTOGRAMS_DUAL_BUFFER!r} or "
                f"{HISTOGRAMS_SLIDING_WINDOW!r}, got "
                f"{self.histogram_mode!r}")
        if self.histogram_window < self.histogram_interval:
            raise ConfigurationError(
                "histogram_window must be >= histogram_interval")
        if self.min_samples < 0:
            raise ConfigurationError("min_samples must be >= 0")
        if self.histogram_interval <= 0:
            raise ConfigurationError("histogram_interval must be > 0")


class BouncerEstimate:
    """The evidence behind one Bouncer decision (exposed for observability).

    ``cold_start`` flags that the general histogram and default SLO were
    used because the type's own histogram was insufficiently populated.
    One instance is allocated per decision, hence ``__slots__``.
    """

    __slots__ = ("qtype", "wait_mean", "response", "slo", "cold_start")

    def __init__(self, qtype: str, wait_mean: float,
                 response: Optional[Dict[float, float]] = None,
                 slo: Optional[LatencySLO] = None,
                 cold_start: bool = False) -> None:
        self.qtype = qtype
        self.wait_mean = wait_mean
        self.response: Dict[float, float] = (
            response if response is not None else {})
        self.slo = slo
        self.cold_start = cold_start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BouncerEstimate(qtype={self.qtype!r}, "
                f"wait_mean={self.wait_mean!r}, response={self.response!r}, "
                f"cold_start={self.cold_start!r})")


#: Dictionary key for the general histogram in the fast path's per-backend
#: caches.  Starts with a NUL byte, which cannot appear in a real query-type
#: string arriving over any of the repo's frontends.
_GENERAL_KEY = "\x00general"


class _SnapshotStats:
    """Memoized derived statistics for one published snapshot epoch.

    ``mean`` is computed on construction; percentile vectors are filled in
    lazily per requested percentile tuple.  An entry is valid exactly as
    long as the publisher keeps republishing the same epoch.
    """

    __slots__ = ("epoch", "mean", "percentiles")

    def __init__(self, epoch: int, mean: float) -> None:
        self.epoch = epoch
        self.mean = mean
        self.percentiles: Dict[Tuple[float, ...], List[float]] = {}


class _Eq2Term:
    """One queued type's row in the Eq. 2 term table.

    Array-of-structs layout: the queue count and the cached mean (plus its
    staleness tokens) live together, so the Eq. 2 sum is a single pass over
    ``terms.values()`` with no cross-dict lookups — the batch path's inner
    loop.  ``mean is None`` marks a term created while a full refresh was
    already pending (the refresh fills every mean before the sum runs).
    """

    __slots__ = ("count", "mean", "used_general", "epoch")

    def __init__(self, count: int, mean: Optional[float] = None,
                 used_general: bool = False, epoch: int = -1) -> None:
        self.count = count
        self.mean = mean
        self.used_general = used_general
        self.epoch = epoch


class _BatchEntry:
    """Per-type decision inputs shared across one ``decide_many`` batch.

    Within a batch the clock is frozen and no completions are recorded, so
    after the first query of a type touches the snapshots (triggering any
    due lazy publish — the same instant the scalar loop would), every later
    query of that type sees identical inputs.  ``proto_*`` memoizes the
    verdict against the wait estimate it was computed from; queue
    mutations between queries (host callbacks enqueueing accepts) change
    the wait, which invalidates the memo by value.  The estimates are not
    memoized: every result owns a dict, and building one costs what
    copying one would.
    """

    __slots__ = ("slo", "cold", "values", "proto_wait", "proto_accept")

    def __init__(self, slo: LatencySLO, cold: bool,
                 values: Optional[List[float]]) -> None:
        self.slo = slo
        self.cold = cold
        self.values = values
        self.proto_wait: Optional[float] = None
        self.proto_accept = False


class FastPathStats:
    """Counters describing fast-path effectiveness (telemetry surface).

    ``batch_calls`` / ``batch_queries`` count :meth:`BouncerPolicy.decide_many`
    invocations and the queries they carried (mean burst size is their
    ratio); they tick on the batch path regardless of ``fast_path`` mode.
    """

    __slots__ = ("cache_hits", "cache_misses", "eq2_recomputes",
                 "batch_calls", "batch_queries")

    def __init__(self) -> None:
        self.cache_hits = 0
        self.cache_misses = 0
        self.eq2_recomputes = 0
        self.batch_calls = 0
        self.batch_queries = 0


class BouncerPolicy(AdmissionPolicy):
    """SLO-driven admission control (the paper's primary contribution)."""

    name = "bouncer"

    def __init__(self, ctx: HostContext, config: BouncerConfig) -> None:
        super().__init__()
        self._ctx = ctx
        self._config = config
        self._slos = config.slos
        self._hists: Dict[str, HistogramBackend] = {}
        self._general = self._new_histogram()
        self._index_for = (config.layout or DEFAULT_LAYOUT).index_for
        self._mode_any = config.decision_mode == DECISION_ANY
        # Unified cold-start threshold: a snapshot is trusted only with at
        # least max(min_samples, 1) observations, so an empty snapshot is
        # never trusted even with min_samples=0 (both Eq. 2 and the
        # percentile path use this same bound).
        self._min_trusted = max(config.min_samples, 1)
        self._fast = config.fast_path
        self._debug = config.debug_check
        self.fast_path_stats = FastPathStats()
        # Eq. 2 term table (array-of-structs: count + cached mean per
        # queued type).  Insertion order mirrors the queue view's counts
        # dict so the sum visits types in the same order as the naive
        # occupancy walk — float addition is order-sensitive.
        self._terms: Dict[str, _Eq2Term] = {}
        self._pending_terms = 0
        self._stat_cache: Dict[str, _SnapshotStats] = {}
        self._next_due = math.inf
        self._general_deps = 0
        self._general_epoch_used = -1
        self._watch: Set[str] = set()
        self._sum_dirty = False
        # Memoized Eq. 2 result: valid until a queue event, a refresh
        # trigger, or a publish boundary — exact because it is the very
        # value the dot product produced, merely reused.
        self._wait_cache: Optional[float] = None
        # Scalar-path decision entries, one per type, kept warm across
        # decisions.  Validity is proven by object identity on every use
        # (same SLO object, same memoized percentile-values list), so no
        # invalidation hook is needed.
        self._scalar_entries: Dict[str, _BatchEntry] = {}
        if self._fast:
            ctx.queue.subscribe(self._on_queue_event)

    # -- construction helpers -------------------------------------------
    def _new_histogram(self) -> HistogramBackend:
        if self._config.histogram_mode == HISTOGRAMS_SLIDING_WINDOW:
            return SlidingWindowHistogram(
                self._ctx.clock,
                window=self._config.histogram_window,
                step=self._config.histogram_interval,
                layout=self._config.layout)
        return DualBufferHistogram(
            self._ctx.clock,
            interval=self._config.histogram_interval,
            min_samples=self._config.retain_min_samples,
            bootstrap_samples=self._config.bootstrap_samples,
            layout=self._config.layout)

    def _histogram_for(self, qtype: str) -> HistogramBackend:
        hist = self._hists.get(qtype)
        if hist is None:
            hist = self._new_histogram()
            self._hists[qtype] = hist
        return hist

    # -- observability ----------------------------------------------------
    @property
    def config(self) -> BouncerConfig:
        return self._config

    @property
    def slos(self) -> SLORegistry:
        return self._slos

    def processing_snapshot(self, qtype: str) -> HistogramSnapshot:
        """Published processing-time snapshot for a type (tests/metrics)."""
        return self._histogram_for(qtype).snapshot()

    def general_snapshot(self) -> HistogramSnapshot:
        """Published snapshot of the general (all-types) histogram."""
        return self._general.snapshot()

    # -- state transfer (Appendix A's pre-populated-histogram deployment) --
    def export_state(self) -> dict:
        """Serialize the published histograms to a JSON-friendly dict.

        Appendix A discusses "deploying the system along with
        pre-populated histograms containing query processing times from
        previous installations"; this is the capture side.  Only the
        published (read-side) snapshots are exported — the in-flight write
        buffers are transient by design.
        """
        state = {"general": self._general.snapshot().to_dict(),
                 "types": {}}
        for qtype, hist in self._hists.items():
            snapshot = hist.snapshot()
            if not snapshot.is_empty:
                state["types"][qtype] = snapshot.to_dict()
        return state

    def import_state(self, state: dict) -> None:
        """Preload histograms exported from a previous installation.

        Requires dual-buffer histogram mode (the paper's design); the
        preloaded snapshots serve estimates until live data replaces them,
        skipping the cold-start window entirely.
        """
        if self._config.histogram_mode != HISTOGRAMS_DUAL_BUFFER:
            raise ConfigurationError(
                "state import requires dual-buffer histograms")
        general = state.get("general")
        if general is not None:
            snapshot = HistogramSnapshot.from_dict(general)
            if not snapshot.is_empty:
                self._general.preload(snapshot)
        for qtype, payload in state.get("types", {}).items():
            snapshot = HistogramSnapshot.from_dict(payload)
            if not snapshot.is_empty:
                self._histogram_for(qtype).preload(snapshot)
        self.invalidate_estimates()

    def preload_snapshots(self, types: Mapping[str, HistogramSnapshot],
                          general: Optional[HistogramSnapshot] = None,
                          adopt_epochs: bool = False) -> None:
        """Install externally published snapshots (gateway snapshot feed).

        The sharded gateway publishes histogram snapshots across processes
        (see :mod:`repro.gateway.snapshot`); each consumer applies the
        changed ones here.  With ``adopt_epochs`` the publisher's epochs
        are carried into the local dual buffers (epoch handoff), so every
        process applying the same publication sequence keys its memoized
        statistics identically — the dual-buffer epoch is the one
        invalidation token shared across the fleet.  Requires dual-buffer
        mode, like :meth:`import_state`.
        """
        if self._config.histogram_mode != HISTOGRAMS_DUAL_BUFFER:
            raise ConfigurationError(
                "snapshot preload requires dual-buffer histograms")
        if general is not None and not general.is_empty:
            self._general.preload(general, adopt_epoch=adopt_epochs)
        for qtype, snapshot in types.items():
            if not snapshot.is_empty:
                self._histogram_for(qtype).preload(
                    snapshot, adopt_epoch=adopt_epochs)
        self.invalidate_estimates()

    # -- estimation (Eqs. 2-4) -------------------------------------------
    def estimate_wait_mean(self) -> float:
        """Eq. 2: expected mean queue wait for a newly accepted query.

        With the fast path enabled, the per-type occupancy and means are
        maintained incrementally (queue-view subscription + publish-epoch
        invalidation) and this reduces to one multiply-add per *distinct*
        queued type, instead of a histogram-snapshot walk per queued type.
        Both paths are bit-identical; ``debug_check`` verifies that.
        """
        if not self._fast:
            return self._estimate_wait_mean_naive()
        wait = self._fast_wait_mean()
        if self._debug:
            naive = self._estimate_wait_mean_naive()
            if naive != wait:
                raise AssertionError(
                    f"fast-path Eq. 2 diverged: fast={wait!r} "
                    f"naive={naive!r}")
        return wait

    def _estimate_wait_mean_naive(self) -> float:
        """The original recompute-everything Eq. 2 (fast-path baseline)."""
        occupancy = self._ctx.queue.occupancy()
        if not occupancy:
            return 0.0
        general_mean: Optional[float] = None
        total = 0.0
        for qtype, count in occupancy.items():
            snap = self._histogram_for(qtype).snapshot()
            if snap.count >= self._min_trusted:
                mean = snap.mean()
            else:
                if general_mean is None:
                    general_mean = self._general.snapshot().mean()
                mean = general_mean
            total += count * mean
        return total / self._ctx.parallelism

    def _fast_wait_mean(self) -> float:
        """Eq. 2 from the incrementally maintained term table."""
        if not self._terms:
            return 0.0
        now = self._ctx.clock.now()
        if (self._sum_dirty or now >= self._next_due
                or self._pending_terms):
            self._refresh_terms()
        if self._watch:
            self._service_watch()
            if self._sum_dirty:
                self._refresh_terms()
        if self._wait_cache is not None:
            # No term and no count has changed since the last computation
            # (every mutation path clears the memo): reuse it verbatim.
            return self._wait_cache
        total = 0.0
        for term in self._terms.values():
            mean = term.mean
            if mean is None:  # pragma: no cover - refresh fills every mean
                raise AssertionError("Eq. 2 refresh skipped a queued type")
            total += term.count * mean
        wait = total / self._ctx.parallelism
        self._wait_cache = wait
        return wait

    def estimate(self, qtype: str) -> BouncerEstimate:
        """Full percentile response-time estimate for an incoming type.

        Applies the Appendix A cold-start fallback: with a cold per-type
        histogram, percentiles come from the general histogram and the SLO
        compared against is the catch-all default.
        """
        wait_mean = self.estimate_wait_mean()
        entry = self._batch_entry(qtype)
        estimate = BouncerEstimate(qtype=qtype, wait_mean=wait_mean,
                                   slo=entry.slo, cold_start=entry.cold)
        if entry.values is None:
            # Nothing measured anywhere yet: estimates are just the queue
            # wait, which errs toward acceptance (deliberate leniency).
            for p in entry.slo.percentiles:
                estimate.response[p] = wait_mean
            return estimate
        # ``slo.percentiles`` is already ascending, matching ``values``.
        for p, value in zip(entry.slo.percentiles, entry.values):
            estimate.response[p] = wait_mean + value
        return estimate

    def _batch_entry(self, qtype: str) -> _BatchEntry:
        """Resolve one type's decision inputs (Appendix A fallback applied).

        This is the snapshot-touching half of :meth:`estimate`; callers
        must compute the Eq. 2 wait *before* calling it, preserving the
        scalar path's touch order (wait walk first, then the arriving
        type's histograms).  ``values is None`` encodes the empty-snapshot
        leniency case.
        """
        own = self._histogram_for(qtype).snapshot()
        cold = own.count < self._min_trusted
        if cold:
            snap = self._general.snapshot()
            slo = self._slos.default
        else:
            snap = own
            slo = self._slos.for_type(qtype)
        percentiles = slo.percentiles
        values: Optional[List[float]]
        if snap.is_empty:
            values = None
        elif self._fast:
            values = self._fast_percentiles(qtype, own, cold, snap,
                                            percentiles)
        else:
            values = snap.percentiles(percentiles)
        return _BatchEntry(slo, cold, values)

    def _fast_percentiles(self, qtype: str, own: HistogramSnapshot,
                          cold: bool, snap: HistogramSnapshot,
                          percentiles: Sequence[float]) -> List[float]:
        """Epoch-cached ``snap.percentiles`` plus staleness bookkeeping.

        The snapshot touches above may themselves have published a new
        view (e.g. an externally forced swap); if the arriving type backs a
        term of the cached Eq. 2 sum with a different epoch, mark the sum
        dirty so the *next* estimate refreshes it.  (The time- and
        bootstrap-driven publishes are already caught before this point by
        ``_next_due`` / the bootstrap watch, so this is a backstop for
        out-of-band mutation.)
        """
        term = self._terms.get(qtype)
        if term is not None and term.mean is not None:
            if term.used_general:
                if own.count >= self._min_trusted:
                    self._sum_dirty = True
            elif term.epoch != own.epoch:
                self._sum_dirty = True
        if (cold and self._general_deps
                and snap.epoch != self._general_epoch_used):
            self._sum_dirty = True
        entry = self._stat_entry(_GENERAL_KEY if cold else qtype, snap)
        ptuple = tuple(percentiles)
        values = entry.percentiles.get(ptuple)
        if values is None:
            values = snap.percentiles(percentiles)
            entry.percentiles[ptuple] = values
        return values

    # -- fast-path maintenance -------------------------------------------
    def _on_queue_event(self, qtype: str, delta: int) -> None:
        """Queue-view subscription: mirror occupancy incrementally."""
        self._wait_cache = None
        term = self._terms.get(qtype)
        if delta > 0:
            if term is not None:
                term.count += 1
            elif self._sum_dirty or self._touch_sets_phase(qtype):
                # A pending refresh recomputes every term anyway.
                self._terms[qtype] = _Eq2Term(1)
                self._pending_terms += 1
            else:
                self._terms[qtype] = self._term(qtype, 1)
        elif term is None:
            # The view held entries before this policy subscribed to it
            # (a policy built over a live queue): rebuild the table from
            # the authoritative view.
            self._terms = {
                queued: _Eq2Term(count)
                for queued, count in self._ctx.queue.occupancy().items()}
            self._pending_terms = len(self._terms)
            self._sum_dirty = True
        elif term.count > 1:
            term.count -= 1
        else:
            del self._terms[qtype]
            if term.mean is None:
                self._pending_terms -= 1
            elif term.used_general:
                self._general_deps -= 1
                if self._general_deps == 0:
                    self._general_epoch_used = -1

    def _touch_sets_phase(self, qtype: str) -> bool:
        """Would computing ``qtype``'s term now move a publisher's phase?

        Creating a histogram fixes its slice starts and swap boundaries,
        a bootstrap publish restarts the interval at the instant of the
        touch, and a time-driven publish that is due empties the write
        buffer into a view -- one more view than the naive walk makes if
        nothing else touches the publisher before the following boundary
        (with ``retain_min_samples=0`` that extra view is an empty one).
        The naive walk does all three at the next record or decision,
        never at an enqueue, so here they must wait for it: the caller
        leaves a pending term, and the refresh that forces touches the
        publishers at the next decision.  Hosts decide before they
        enqueue, so for them the histogram exists, its bootstrap, if one
        was due, has just fired, and it has been read at this instant;
        the general histogram is asked only when the term would read it.
        """
        hist = self._hists.get(qtype)
        if (hist is None or hist.bootstrap_pending
                or self._general.bootstrap_pending):
            return True
        now = self._ctx.clock.now()
        if now >= hist.next_publish_due():
            return True
        # Nothing is due on ``hist``, so reading its view moves nothing.
        return (hist.snapshot().count < self._min_trusted
                and now >= self._general.next_publish_due())

    def _stat_entry(self, key: str,
                    snap: HistogramSnapshot) -> _SnapshotStats:
        """Per-backend memo of derived stats, keyed on the publish epoch."""
        stats = self.fast_path_stats
        entry = self._stat_cache.get(key)
        if entry is None or entry.epoch != snap.epoch:
            entry = _SnapshotStats(snap.epoch, snap.mean())
            self._stat_cache[key] = entry
            stats.cache_misses += 1
        else:
            stats.cache_hits += 1
        return entry

    def _term(self, qtype: str, count: int) -> _Eq2Term:
        """Compute one type's Eq. 2 term and fold in its refresh triggers."""
        hist = self._histogram_for(qtype)
        snap = hist.snapshot()
        self._next_due = min(self._next_due, hist.next_publish_due())
        if snap.count >= self._min_trusted:
            entry = self._stat_entry(qtype, snap)
            return _Eq2Term(count, entry.mean, False, snap.epoch)
        gsnap = self._general.snapshot()
        gentry = self._stat_entry(_GENERAL_KEY, gsnap)
        if self._general_deps:
            if gsnap.epoch != self._general_epoch_used:
                # Another term was computed against an older general view.
                self._sum_dirty = True
        else:
            self._general_epoch_used = gsnap.epoch
        self._general_deps += 1
        self._next_due = min(self._next_due,
                             self._general.next_publish_due())
        if hist.bootstrap_pending:
            self._watch.add(qtype)
        if self._general.bootstrap_pending:
            self._watch.add(_GENERAL_KEY)
        return _Eq2Term(count, gentry.mean, True, gsnap.epoch)

    def _refresh_terms(self) -> None:
        """Slow path: recompute every queued type's Eq. 2 term.

        Runs on publish boundaries, bootstrap publishes, sliding-window
        content changes, and resynchronization — i.e. exactly when a cached
        term might no longer match what the naive walk would compute.  The
        snapshots it touches are a subset of the ones the naive path
        touches on every single decision, so lazy swaps and bootstrap
        publishes happen at the same instants in both modes.
        """
        self.fast_path_stats.eq2_recomputes += 1
        self._sum_dirty = False
        self._wait_cache = None
        self._next_due = math.inf
        self._general_deps = 0
        self._general_epoch_used = -1
        self._pending_terms = 0
        terms: Dict[str, _Eq2Term] = {}
        general_entry: Optional[_SnapshotStats] = None
        general_epoch = -1
        general_deps = 0
        for qtype, old in self._terms.items():
            hist = self._histogram_for(qtype)
            snap = hist.snapshot()
            self._next_due = min(self._next_due, hist.next_publish_due())
            if snap.count >= self._min_trusted:
                terms[qtype] = _Eq2Term(
                    old.count, self._stat_entry(qtype, snap).mean,
                    False, snap.epoch)
            else:
                if general_entry is None:
                    gsnap = self._general.snapshot()
                    general_entry = self._stat_entry(_GENERAL_KEY, gsnap)
                    general_epoch = gsnap.epoch
                terms[qtype] = _Eq2Term(old.count, general_entry.mean,
                                        True, general_epoch)
                general_deps += 1
                if hist.bootstrap_pending:
                    self._watch.add(qtype)
        if general_deps:
            self._next_due = min(self._next_due,
                                 self._general.next_publish_due())
            if self._general.bootstrap_pending:
                self._watch.add(_GENERAL_KEY)
        self._terms = terms
        self._general_deps = general_deps
        self._general_epoch_used = general_epoch

    def _service_watch(self) -> None:
        """Poke watched backends so pending bootstrap publishes fire.

        Bootstrap publishes are sample-driven, not time-driven, so
        ``_next_due`` cannot anticipate them; instead, completions note
        backends nearing their bootstrap and this touches them on the next
        decision — the same instant the naive path's walk would have.  Only
        backends the naive walk would touch (queued types; the general
        histogram when a term depends on it) are poked.
        """
        for key in list(self._watch):
            if key == _GENERAL_KEY:
                if not self._general_deps:
                    # No Eq. 2 term depends on the general view; if one
                    # appears later, _term re-adds the watch.
                    self._watch.discard(key)
                    continue
                backend: HistogramBackend = self._general
            else:
                if key not in self._terms:
                    # Not queued -> no term to go stale; an enqueue takes a
                    # fresh snapshot (and re-watches) anyway.
                    self._watch.discard(key)
                    continue
                backend = self._histogram_for(key)
            snap = backend.snapshot()
            if not backend.bootstrap_pending:
                self._watch.discard(key)
            if key == _GENERAL_KEY:
                if snap.epoch != self._general_epoch_used:
                    self._sum_dirty = True
            else:
                term = self._terms.get(key)
                if term is not None and term.mean is not None:
                    if term.used_general:
                        if snap.count >= self._min_trusted:
                            self._sum_dirty = True
                    elif term.epoch != snap.epoch:
                        self._sum_dirty = True

    def invalidate_estimates(self) -> None:
        """Drop all cached estimator state.

        Call after mutating a policy-owned histogram out of band (e.g.
        ``force_swap`` in a test, or :meth:`import_state`); the next
        decision recomputes from the live snapshots.
        """
        if self._fast:
            self._stat_cache.clear()
            self._sum_dirty = True
            self._wait_cache = None

    # -- the decision (Algorithm 1) ----------------------------------------
    def _decide(self, query: Query) -> AdmissionResult:
        """Algorithm 1 as a batch of one: the same engine as decide_many.

        With the fast path on (and no debug cross-check), the layered
        pipeline — ``estimate_wait_mean`` → ``_batch_entry`` →
        ``_fast_percentiles`` → ``_entry_result`` — is *fused* into one
        flat function: the same statements, side effects, and float
        operations in the same order, minus roughly ten Python frames and
        a ``_BatchEntry`` allocation per decision.  Scalar decisions
        dominate simulation hot loops (Poisson arrivals rarely coincide),
        so this flattening is a first-order throughput lever
        (docs/performance.md).  Bit-identity with the layered path is held
        by the fast-vs-naive and batch differential suites.
        """
        if not self._fast or self._debug:
            wait_mean = self.estimate_wait_mean()
            return self._entry_result(self._batch_entry(query.qtype),
                                      wait_mean)
        qtype = query.qtype
        # --- estimate_wait_mean / _fast_wait_mean, fused ---
        wait_mean = 0.0
        if self._terms:
            if (self._sum_dirty or self._pending_terms
                    or self._ctx.clock.now() >= self._next_due):
                self._refresh_terms()
            if self._watch:
                self._service_watch()
                if self._sum_dirty:
                    self._refresh_terms()
            cached_wait = self._wait_cache
            if cached_wait is None:
                total = 0.0
                for term in self._terms.values():
                    total += term.count * term.mean
                cached_wait = total / self._ctx.parallelism
                self._wait_cache = cached_wait
            wait_mean = cached_wait
        # --- _batch_entry, fused (same snapshot touch order: Eq. 2 walk
        # first, then the arriving type's histograms) ---
        hist = self._hists.get(qtype)
        if hist is None:
            hist = self._new_histogram()
            self._hists[qtype] = hist
        own = hist.snapshot()
        cold = own.count < self._min_trusted
        if cold:
            snap = self._general.snapshot()
            slo = self._slos.default
        else:
            snap = own
            slo = self._slos.for_type(qtype)
        values: Optional[List[float]]
        if snap.is_empty:
            values = None
        else:
            # --- _fast_percentiles / _stat_entry, fused ---
            term = self._terms.get(qtype)
            if term is not None and term.mean is not None:
                if term.used_general:
                    if not cold:
                        self._sum_dirty = True
                elif term.epoch != own.epoch:
                    self._sum_dirty = True
            if (cold and self._general_deps
                    and snap.epoch != self._general_epoch_used):
                self._sum_dirty = True
            key = _GENERAL_KEY if cold else qtype
            fstats = self.fast_path_stats
            sentry = self._stat_cache.get(key)
            if sentry is None or sentry.epoch != snap.epoch:
                sentry = _SnapshotStats(snap.epoch, snap.mean())
                self._stat_cache[key] = sentry
                fstats.cache_misses += 1
            else:
                fstats.cache_hits += 1
            ptuple = tuple(slo.percentiles)
            values = sentry.percentiles.get(ptuple)
            if values is None:
                values = snap.percentiles(slo.percentiles)
                sentry.percentiles[ptuple] = values
        # --- _entry_result, through a per-type entry kept warm across
        # decisions (valid while its inputs are the very same objects) ---
        entry = self._scalar_entries.get(qtype)
        if (entry is None or entry.slo is not slo
                or entry.values is not values or entry.cold != cold):
            entry = _BatchEntry(slo, cold, values)
            self._scalar_entries[qtype] = entry
        return self._entry_result(entry, wait_mean)

    def decide_many(
            self, queries: Sequence[Query],
            on_decision: Optional[DecisionCallback] = None,
    ) -> List[AdmissionResult]:
        """Vectorized Algorithm 1 over a burst of same-instant arrivals.

        Bit-identical to the scalar loop (the base-class contract; held to
        it by ``tests/test_batch_differential.py``) but shares work across
        the burst:

        * the Eq. 2 wait estimate is computed once and reused until an
          ``on_decision`` callback runs — a callback may enqueue the query
          it just accepted, which is exactly the mutation the scalar loop's
          next decision would observe, so the estimate is refreshed after
          every callback (a memo hit whenever nothing actually changed);
        * each distinct query type resolves its histogram snapshots, cold
          fallback, and SLO percentile values once per batch
          (:class:`_BatchEntry`), valid because the clock is frozen and no
          completions are recorded between decisions of one batch;
        * repeated types against an unchanged wait reuse the verdict,
          paying only for their own estimates dict and result.

        An empty batch returns immediately without touching any snapshot
        or memo.  The per-query tallies land in :attr:`stats` exactly as
        the scalar loop's would (batched under one lock when no callback
        needs interleaved visibility).
        """
        results: List[AdmissionResult] = []
        if not queries:
            return results
        stats = self.fast_path_stats
        stats.batch_calls += 1
        stats.batch_queries += len(queries)
        if len(queries) == 1:
            # A batch of one *is* one scalar decision: skip the per-batch
            # entry table, outcome buffer, and record_many lock round-trip
            # that exist to amortize work across a burst — with nothing to
            # amortize they were a ~30% throughput tax (BENCH_02 batch_1 vs
            # BENCH_01 scalar).  _decide is the same engine, so this is
            # bit-identical to the general path by construction.
            query = queries[0]
            result = self._decide(query)
            self.stats.record(query.qtype, result)
            results.append(result)
            if on_decision is not None:
                on_decision(query, result)
            return results
        entries: Dict[str, _BatchEntry] = {}
        outcomes: List[Tuple[str, AdmissionResult]] = []
        wait_mean = self.estimate_wait_mean()
        wait_stale = False
        for query in queries:
            if wait_stale:
                wait_mean = self.estimate_wait_mean()
                wait_stale = False
            qtype = query.qtype
            entry = entries.get(qtype)
            if entry is None:
                entry = self._batch_entry(qtype)
                entries[qtype] = entry
            result = self._entry_result(entry, wait_mean)
            results.append(result)
            if on_decision is not None:
                self.stats.record(qtype, result)
                on_decision(query, result)
                wait_stale = True
            else:
                outcomes.append((qtype, result))
        if outcomes:
            self.stats.record_many(outcomes)
        return results

    def _entry_result(self, entry: _BatchEntry,
                      wait_mean: float) -> AdmissionResult:
        """Algorithm 1 for one query given its type's batch entry.

        The response estimate is ``wait + pt_p`` per constrained
        percentile, in exactly the scalar arithmetic (no slack
        transformation — ``wait > target - pt_p`` is not float-equivalent).
        The estimates dict is built once and handed to the result, which
        owns it; a memoized verdict is reused only when the wait estimate
        is bit-equal to the one it was computed from.
        """
        slo = entry.slo
        response: Dict[float, float] = {}
        if entry.values is None:
            for p in slo.percentiles:
                response[p] = wait_mean
        else:
            # ``slo.percentiles`` is ascending, matching ``values``.
            for p, value in zip(slo.percentiles, entry.values):
                response[p] = wait_mean + value
        if entry.proto_wait == wait_mean:
            accept = entry.proto_accept
        else:
            exceeded = 0
            constrained = 0
            for percentile, target in slo.items():
                constrained += 1
                if response.get(percentile, 0.0) > target:
                    exceeded += 1
            if self._mode_any:
                accept = exceeded == 0
            else:
                accept = constrained == 0 or exceeded != constrained
            entry.proto_wait = wait_mean
            entry.proto_accept = accept
        if accept:
            return AdmissionResult(Decision.ACCEPT, None, response)
        return AdmissionResult(Decision.REJECT, RejectReason.SLO_ESTIMATE,
                               response)

    # -- framework hooks ----------------------------------------------------
    def on_completed(self, query: Query, wait_time: float,
                     processing_time: float) -> None:
        """Point 3: record the processing time in the type's histogram.

        Every completion also feeds the general histogram, which backs the
        cold-start fallback (Appendix A).  With the fast path on, the
        record also updates invalidation hints: sliding-window backends
        make records visible immediately (so any dependent Eq. 2 term goes
        stale now), while dual-buffer backends only change at a publish —
        the one sample-driven publish (cold-start bootstrap) is tracked via
        the bootstrap watch.
        """
        hist = self._histogram_for(query.qtype)
        # Both histograms share one layout: one bucket search serves both.
        index = self._index_for(processing_time)
        hist.record_at(index, processing_time)
        self._general.record_at(index, processing_time)
        if not self._fast:
            return
        if hist.records_visible_immediately:
            if query.qtype in self._terms or self._general_deps:
                self._sum_dirty = True
        else:
            # Watch only backends a cached Eq. 2 term depends on; any other
            # backend gets a fresh snapshot (and a new watch, if still
            # pending) from _term when its type is enqueued.
            if hist.bootstrap_pending and query.qtype in self._terms:
                self._watch.add(query.qtype)
            if self._general.bootstrap_pending and self._general_deps:
                self._watch.add(_GENERAL_KEY)
