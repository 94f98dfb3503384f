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
import struct
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..exceptions import ConfigurationError
from .context import HostContext
from .dual_buffer import DualBufferHistogram
from .histogram import DEFAULT_LAYOUT, BucketLayout, HistogramSnapshot
from .policy import AdmissionPolicy
from .slo import LatencySLO, SLORegistry
from .types import AdmissionResult, Decision, Query, RejectReason

#: Reject when ANY percentile estimate exceeds its target (Algorithm 1).
DECISION_ANY = "any"
#: Reject only when ALL percentile estimates exceed their targets
#: (a laxer variant evaluated in the ablation benches).
DECISION_ALL = "all"


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
    layout:
        Optional shared histogram bucket layout.
    """

    slos: SLORegistry
    histogram_interval: float = 1.0
    min_samples: int = 20
    retain_min_samples: int = 10
    bootstrap_samples: int = 100
    decision_mode: str = DECISION_ANY
    layout: Optional[BucketLayout] = None

    def __post_init__(self) -> None:
        if self.decision_mode not in (DECISION_ANY, DECISION_ALL):
            raise ConfigurationError(
                f"decision_mode must be {DECISION_ANY!r} or {DECISION_ALL!r},"
                f" got {self.decision_mode!r}")
        # Comparisons are written so that NaN fails them.
        if not 0 < self.histogram_interval < math.inf:
            raise ConfigurationError(
                "histogram_interval must be finite and > 0")
        for name in ("min_samples", "retain_min_samples",
                     "bootstrap_samples"):
            value = getattr(self, name)
            if not isinstance(value, int) or not value >= 0:
                raise ConfigurationError(f"{name} must be an integer >= 0")


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


#: Dictionary key for the general histogram in the per-backend caches.
#: Starts with a NUL byte, which cannot appear in a real query-type string
#: arriving over any of the repo's frontends.
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


_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")
#: The rank of ``+inf`` among the non-NaN floats, ordered by bit pattern.
_INF_RANK = 0x7FF0000000000000


def _accept_limit(target: float, pt: float) -> float:
    """The largest float ``w`` with ``not (w + pt > target)``.

    Adding a fixed ``pt`` is monotone in ``w``, so the waits that pass are
    the ones up to this limit, plus NaN, which passes any comparison:
    ``not (w > limit)`` is the percentile's verdict for every float ``w``.
    ``-inf`` always passes.  The search ranks floats by bit pattern
    (rank ``-r`` is minus rank ``r``), gallops from ``target - pt``, an
    ulp or two off the limit, then bisects: at most ~128 steps, however
    far apart the magnitudes are.
    """
    def at(rank: int) -> float:
        x = _DOUBLE.unpack(_INT64.pack(abs(rank)))[0]
        return -x if rank < 0 else x

    if not math.inf + pt > target:
        return math.inf
    guess = target - pt                  # not NaN once +inf fails
    probe = _INT64.unpack(_DOUBLE.pack(abs(guess)))[0]
    probe, step = (-probe if guess < 0 else probe), 1
    lo, hi = -_INF_RANK, _INF_RANK       # passes at lo, fails at hi
    while hi - lo > 1:
        if not at(probe) + pt > target:
            lo, probe = probe, probe + step
        else:
            hi, probe = probe, probe - step
        step *= 2
        if not lo < probe < hi:          # overshot: bisect from now on
            probe = (lo + hi) // 2
    return at(lo)


class _TypeEntry:
    """One type's Eqs. 3-4 inputs: its SLO, whether the Appendix A
    cold-start fallback applies, and the percentile values (``None`` when
    nothing is measured anywhere yet), also as (percentile, value) pairs.

    ``limit`` folds Algorithm 1 into one number, the min over the
    constrained percentiles of :func:`_accept_limit` (the max in mode
    ``all``): ``not (wait > limit)`` is the per-percentile verdict bit for
    bit.  ``until`` and ``version`` bound its reuse (``_entries``).
    """

    __slots__ = ("slo", "cold", "values", "pairs", "limit", "until",
                 "version")

    def __init__(self, slo: LatencySLO, cold: bool,
                 values: Optional[List[float]], mode_any: bool) -> None:
        self.slo = slo
        self.cold = cold
        self.values = values
        # ``slo.percentiles`` is ascending, matching ``values``.
        self.pairs = (None if values is None
                      else tuple(zip(slo.percentiles, values)))
        limits = [_accept_limit(target, pt) for (_, target), pt in zip(
            slo.items(), values or [0.0] * len(slo.percentiles))]
        self.limit = min(limits) if mode_any else max(limits)
        self.until = -math.inf
        self.version = -1


class FastPathStats:
    """Counters describing the estimator caches (telemetry surface).

    ``eq2_recomputes`` counts Eq. 2's reads of a queued type's mean, made
    when none is held or the held one is past its horizon.
    ``batch_calls`` / ``batch_queries`` count ``decide_types`` invocations
    and the queries they carried (mean batch size is their ratio).
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
        self._hists: Dict[str, DualBufferHistogram] = {}
        self._general = self._new_histogram()
        self._index_for = (config.layout or DEFAULT_LAYOUT).index_for
        self._mode_any = config.decision_mode == DECISION_ANY
        # Unified cold-start threshold: a snapshot is trusted only with at
        # least max(min_samples, 1) observations, so an empty snapshot is
        # never trusted even with min_samples=0 (both Eq. 2 and the
        # percentile path use this same bound).
        self._min_trusted = max(config.min_samples, 1)
        self.fast_path_stats = FastPathStats()
        self._stat_cache: Dict[str, _SnapshotStats] = {}
        # Per type, its decision entry and its Eq. 2 ``(mean, until)``,
        # each reused untouched while the clock is before ``until``, the
        # first publish boundary of the backends it was read from
        # (re-reading them sooner returns the same views), an entry also
        # while the SLO registry is at ``entry.version``.  A record that
        # arms a bootstrap publish drops what it could change
        # (on_completed); invalidate_estimates() drops everything.
        self._entries: Dict[str, _TypeEntry] = {}
        self._means: Dict[str, Tuple[float, float]] = {}
        # Backends seen holding a view, which with retain_min_samples >= 1
        # is never replaced by an empty one: no bootstrap publish to come.
        self._settled: Set[str] = set()
        self._views_persist = config.retain_min_samples > 0

    # -- construction helpers -------------------------------------------
    def _new_histogram(self) -> DualBufferHistogram:
        return DualBufferHistogram(
            self._ctx.clock,
            interval=self._config.histogram_interval,
            min_samples=self._config.retain_min_samples,
            bootstrap_samples=self._config.bootstrap_samples,
            layout=self._config.layout)

    def _histogram_for(self, qtype: str) -> DualBufferHistogram:
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

        The preloaded snapshots serve estimates until live data replaces
        them, skipping the cold-start window entirely.  The whole payload
        is parsed and its layouts checked before anything is installed, so
        a malformed one changes nothing.
        """
        general = state.get("general")
        general = None if general is None else HistogramSnapshot.from_dict(
            general)
        types = {qtype: HistogramSnapshot.from_dict(payload)
                 for qtype, payload in state.get("types", {}).items()}
        layout = self._config.layout or DEFAULT_LAYOUT
        for snapshot in (general, *types.values()):
            if (snapshot is not None and not snapshot.is_empty
                    and not layout.compatible_with(snapshot._layout)):
                raise ConfigurationError(
                    "imported snapshot has an incompatible bucket layout")
        self.preload_snapshots(types, general)

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
        invalidation token shared across the fleet.
        """
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

        Walks the queue view's counts in their own order -- float addition
        is order-sensitive -- and reuses each queued type's mean under the
        decision entries' rule (``_means``), so between publications it is
        one multiply-add per *distinct* queued type.  The naive walk that
        re-reads every mean, which this must equal bit for bit, is the
        test oracle (``tests/bouncer_oracle.py``).
        """
        counts = self._ctx.queue.counts
        if not counts:
            return 0.0
        now = self._ctx.clock.now()
        means = self._means
        total = 0.0
        for qtype, count in counts.items():
            mean = means.get(qtype)
            if mean is None or not now < mean[1]:
                self.fast_path_stats.eq2_recomputes += 1
                cold, snap, until = self._read(qtype)
                mean = means[qtype] = (self._stat_entry(
                    _GENERAL_KEY if cold else qtype, snap).mean, until)
            total += count * mean[0]
        return total / self._ctx.parallelism

    def estimate(self, qtype: str) -> BouncerEstimate:
        """Full percentile response-time estimate for an incoming type.

        Applies the Appendix A cold-start fallback: with a cold per-type
        histogram, percentiles come from the general histogram and the SLO
        compared against is the catch-all default.
        """
        wait_mean = self.estimate_wait_mean()
        entry = self._entry(qtype)
        if entry.pairs is None:
            # Nothing measured anywhere yet: estimates are just the queue
            # wait, which errs toward acceptance (deliberate leniency).
            response = dict.fromkeys(entry.slo.percentiles, wait_mean)
        else:
            response = {p: wait_mean + value for p, value in entry.pairs}
        return BouncerEstimate(qtype, wait_mean, response, entry.slo,
                               entry.cold)

    def _read(self, qtype: str) -> Tuple[bool, HistogramSnapshot, float]:
        """Touch ``qtype``'s backends in the naive walk's order: whether
        the Appendix A fallback applies, the view to use (the general one
        when it does), and until when a re-read returns the same views --
        the earliest publish boundary of the backends read."""
        hist = self._histogram_for(qtype)
        snap = hist.snapshot()
        until = hist.next_publish_due()
        cold = snap.count < self._min_trusted
        if cold:
            snap = self._general.snapshot()
            until = min(until, self._general.next_publish_due())
        return cold, snap, until

    def _entry(self, qtype: str) -> _TypeEntry:
        """The arriving type's Eqs. 3-4 inputs, Appendix A fallback applied.

        Callers compute the Eq. 2 wait *first*: the snapshot touches here
        follow Eq. 2's, the order the naive walk makes them in.  Percentile
        values are memoized per publish epoch.  The entry object is kept
        while its inputs are the very same objects; its horizon is renewed
        either way.
        """
        cold, snap, until = self._read(qtype)
        slo = self._slos.default if cold else self._slos.for_type(qtype)
        values: Optional[List[float]] = None
        if not snap.is_empty:
            stats = self._stat_entry(_GENERAL_KEY if cold else qtype, snap)
            percentiles = slo.percentiles
            values = stats.percentiles.get(percentiles)
            if values is None:
                values = stats.percentiles[percentiles] = snap.percentiles(
                    percentiles)
        entry = self._entries.get(qtype)
        if (entry is None or entry.slo is not slo
                or entry.values is not values or entry.cold != cold):
            entry = self._entries[qtype] = _TypeEntry(
                slo, cold, values, self._mode_any)
        entry.until = until
        entry.version = self._slos.version
        return entry

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

    def invalidate_estimates(self) -> None:
        """Drop all cached estimator state.

        Call after mutating a policy-owned histogram out of band (e.g.
        ``force_swap`` in a test, or :meth:`import_state`); the next
        decision recomputes from the live snapshots.
        """
        self._stat_cache.clear()
        self._entries.clear()
        self._means.clear()
        self._settled.clear()

    # -- the decision (Algorithm 1) ----------------------------------------
    def _decide(self, query: Query) -> AdmissionResult:
        """Algorithm 1: Eq. 2's wait, the arriving type's entry (a reuse
        counts the cache hit re-reading it would have), the verdict."""
        wait_mean = self.estimate_wait_mean()
        qtype = query.qtype
        entry = self._entries.get(qtype)
        if (entry is None or not self._ctx.clock.now() < entry.until
                or entry.version != self._slos.version):
            entry = self._entry(qtype)
        else:
            self.fast_path_stats.cache_hits += 1
        pairs = entry.pairs
        if pairs is None:    # nothing measured: as in estimate()
            response = dict.fromkeys(entry.slo.percentiles, wait_mean)
        else:
            response = {}
            for percentile, value in pairs:
                response[percentile] = wait_mean + value
        if wait_mean > entry.limit:
            return AdmissionResult(Decision.REJECT,
                                   RejectReason.SLO_ESTIMATE, response)
        return AdmissionResult(Decision.ACCEPT, None, response)

    def decide_types(self, qtypes: Sequence[str], out: bytearray) -> None:
        """Algorithm 1 by type name: one Eq. 2 wait, then per query its
        type's entry, reused under :meth:`_decide`'s rule, and one bit
        from ``wait > entry.limit``; :attr:`stats` is tallied for exactly
        the bits appended, even when resolving a type raises.
        Bit-identical to deciding the queries one by one: nothing between
        them moves the clock or the queue."""
        if not qtypes:
            return
        stats = self.fast_path_stats
        stats.batch_calls += 1
        stats.batch_queries += len(qtypes)
        start = len(out)
        append = out.append
        entries = self._entries
        try:
            wait_mean = self.estimate_wait_mean()
            now = self._ctx.clock.now()
            version = self._slos.version
            for qtype in qtypes:
                entry = entries.get(qtype)
                if (entry is None or not now < entry.until
                        or entry.version != version):
                    entry = self._entry(qtype)
                else:
                    stats.cache_hits += 1
                append(0x30 if wait_mean > entry.limit else 0x31)
        finally:
            self.stats.record_bits(qtypes, out[start:],
                                   RejectReason.SLO_ESTIMATE)

    # -- framework hooks ----------------------------------------------------
    def on_completed(self, query: Query, wait_time: float,
                     processing_time: float) -> None:
        """Point 3: record the processing time in the type's histogram.

        Every completion also feeds the general histogram, which backs the
        cold-start fallback (Appendix A).  A dual buffer publishes at a
        touch only once its boundary is due -- which every reuse horizon
        already bounds -- or once a record arms its bootstrap publish: a
        record that does drops the entry and mean read from that backend
        (every one, for the general histogram), so the next read touches
        it where the naive walk would.  A backend is checked only until it
        holds a view it cannot lose (``_settled``).
        """
        qtype = query.qtype
        hist = self._hists.get(qtype)
        if hist is None:
            hist = self._hists[qtype] = self._new_histogram()
        # Both histograms share one layout: one bucket search serves both.
        index = self._index_for(processing_time)
        hist.record_at(index, processing_time)
        general = self._general
        general.record_at(index, processing_time)
        settled = self._settled
        if qtype not in settled:
            if hist.bootstrap_pending:
                self._entries.pop(qtype, None)
                self._means.pop(qtype, None)
            elif self._views_persist and hist.snapshot().count:
                settled.add(qtype)
        if _GENERAL_KEY not in settled:
            if general.bootstrap_pending:
                self._entries.clear()
                self._means.clear()
            elif self._views_persist and general.snapshot().count:
                settled.add(_GENERAL_KEY)
