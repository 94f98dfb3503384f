"""The reference Bouncer that the shipped decision path is held to.

:class:`NaiveBouncerPolicy` is Algorithm 1 with nothing cached: Eq. 2
walks the queue view and reads every queued type's published snapshot on
every decision, the percentile estimates are recomputed from the
arriving type's snapshot every time, and the verdict compares each
constrained percentile's estimate with its target.  It keeps none of
:class:`~repro.core.bouncer.BouncerPolicy`'s per-type reads between
decisions: no Eq. 2 mean and no decision entry is reused until its
publish horizon.  Its decisions, estimates and tallies are what the fast
path must reproduce bit for bit (``tests/test_fast_path.py``,
``tests/test_batch_differential.py``), and its Figure 6 run reproduces the
recorded fingerprint in ``tests/golden/event_engine.json``.

:func:`checked_wait_mean` is the per-estimate cross-check: the policy's
own Eq. 2 against :func:`naive_wait_mean` over the same policy's
histograms, raising on any disagreement.
"""

from typing import Optional

from repro.core.bouncer import BouncerConfig, BouncerPolicy, _TypeEntry
from repro.core.context import HostContext
from repro.core.types import AdmissionResult, Decision, Query, RejectReason


def naive_wait_mean(policy: BouncerPolicy) -> float:
    """Eq. 2 by walking the queue view: the recompute-everything reference."""
    occupancy = policy._ctx.queue.occupancy()
    if not occupancy:
        return 0.0
    general_mean: Optional[float] = None
    total = 0.0
    for qtype, count in occupancy.items():
        snap = policy._histogram_for(qtype).snapshot()
        if snap.count >= policy._min_trusted:
            mean = snap.mean()
        else:
            if general_mean is None:
                general_mean = policy._general.snapshot().mean()
            mean = general_mean
        total += count * mean
    return total / policy._ctx.parallelism


def checked_wait_mean(policy: BouncerPolicy) -> float:
    """``policy.estimate_wait_mean()``, cross-checked against the naive
    walk over the same histograms."""
    wait = policy.estimate_wait_mean()
    naive = naive_wait_mean(policy)
    if naive != wait:
        raise AssertionError(
            f"fast-path Eq. 2 diverged: fast={wait!r} naive={naive!r}")
    return wait


class NaiveBouncerPolicy(BouncerPolicy):
    """Bouncer with every estimate recomputed from the snapshots."""

    def estimate_wait_mean(self) -> float:
        return naive_wait_mean(self)

    def _entry(self, qtype: str) -> _TypeEntry:
        """The arriving type's inputs (Appendix A fallback applied), with
        no memo: a fresh entry and freshly computed percentiles."""
        own = self._histogram_for(qtype).snapshot()
        cold = own.count < self._min_trusted
        if cold:
            snap = self._general.snapshot()
            slo = self._slos.default
        else:
            snap = own
            slo = self._slos.for_type(qtype)
        values = None if snap.is_empty else snap.percentiles(slo.percentiles)
        return _TypeEntry(slo, cold, values, self._mode_any)

    def _decide(self, query: Query) -> AdmissionResult:
        """Algorithm 1 as written: every constrained percentile's estimate
        against its target (``decide_types`` still reads the entry's
        wait limit, so the batch differentials compare the two)."""
        estimate = self.estimate(query.qtype)
        exceeded = constrained = 0
        for percentile, target in estimate.slo.items():
            constrained += 1
            if estimate.response.get(percentile, 0.0) > target:
                exceeded += 1
        if self._mode_any:
            accept = exceeded == 0
        else:
            accept = constrained == 0 or exceeded != constrained
        if accept:
            return AdmissionResult(Decision.ACCEPT, None, estimate.response)
        return AdmissionResult(Decision.REJECT, RejectReason.SLO_ESTIMATE,
                               estimate.response)


def naive_bouncer(slos, **config):
    """Policy factory: :class:`NaiveBouncerPolicy` over ``slos``."""
    def factory(ctx: HostContext) -> NaiveBouncerPolicy:
        return NaiveBouncerPolicy(ctx, BouncerConfig(slos=slos, **config))
    return factory
