"""The paper's contribution: Bouncer, its starvation-avoidance strategies,
the baseline policies it is compared against, and the measurement machinery
they share (histograms, sliding windows, SLOs, the policy framework).

Every public name is loaded from its defining module on first use, so a
process that runs one Bouncer (a gateway worker) loads neither the
baselines nor the related-work policies nor the SLO advisor.
"""

from typing import Any, List

from .._lazy import LazyExports

_EXPORTS = LazyExports(globals(), {
    ".advisor": "SLOClass group_into_classes propose_registry "
                "propose_targets",
    ".baselines.accept_fraction": "AcceptFractionConfig AcceptFractionPolicy",
    ".baselines.max_queue_length": "MaxQueueLengthPolicy",
    ".baselines.max_queue_wait": "MaxQueueWaitTimePolicy",
    ".baselines.queue_cap": "QueueLimitWrapper",
    ".bouncer": "DECISION_ALL DECISION_ANY BouncerConfig BouncerEstimate "
                "BouncerPolicy",
    ".clock": "Clock ManualClock MonotonicClock SleepingClock at_or_after",
    ".context": "HostContext",
    ".dual_buffer": "DualBufferHistogram",
    ".histogram": "BucketLayout HistogramSnapshot LatencyHistogram "
                  "empty_snapshot",
    ".policy": "AdmissionPolicy AlwaysAcceptPolicy AlwaysRejectPolicy "
               "PolicyStats QueueView TypeCounters",
    ".related.gatekeeper": "GatekeeperConfig GatekeeperPolicy",
    ".related.qcop": "QCopConfig QCopPolicy",
    ".sliding_window": "SlidingWindowCounts SlidingWindowStats",
    ".slo": "LatencySLO SLORegistry",
    ".starvation": "AcceptanceAllowancePolicy HelpingTheUnderservedPolicy",
    ".types": "DEFAULT_QUERY_TYPE AdmissionResult Decision Query "
              "RejectReason",
})
__all__ = _EXPORTS.names


def __getattr__(name: str) -> Any:
    return _EXPORTS.load(name)


def __dir__() -> List[str]:
    return _EXPORTS.dir()
