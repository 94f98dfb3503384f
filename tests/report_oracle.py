"""List-based reference for the simulated hosts' sample store.

These are the two stores the hosts kept before they shared
:class:`repro.sim.report.SampleStore`: the single host's per-type Python
lists, whose ALL row pools copies of every type's samples, and the cluster
model's dicts of lists, pooled in sorted type order.  Each keeps only what
touches the samples (no utilization or busy-time accounting).
``tests/test_report_store.py`` checks that the shared store builds the
same rows and attainment, bit for bit, from the same outcomes.
"""

from typing import Dict, List

from repro._stats import mean, percentiles
from repro.sim.report import REPORT_PERCENTILES, TypeStats


class _ListSamples:
    __slots__ = ("waits", "procs", "responses", "rejected", "expired",
                 "errors")

    def __init__(self):
        self.waits: List[float] = []
        self.procs: List[float] = []
        self.responses: List[float] = []
        self.rejected = 0
        self.expired = 0
        self.errors = 0


class ListServerMetrics:
    """The single host's store: types in first-outcome order."""

    def __init__(self):
        self._per_type: Dict[str, _ListSamples] = {}
        self.window = 0

    def _samples(self, qtype):
        samples = self._per_type.get(qtype)
        if samples is None:
            samples = self._per_type[qtype] = _ListSamples()
        return samples

    def reset(self):
        self._per_type.clear()
        self.window += 1

    def record_completion(self, query):
        if query.window != self.window:
            return
        samples = self._samples(query.qtype)
        samples.waits.append(query.wait_time or 0.0)
        samples.procs.append(query.processing_time or 0.0)
        samples.responses.append(query.response_time or 0.0)

    def record_rejection(self, query, result=None):
        self._samples(query.qtype).rejected += 1

    def record_expiration(self, query, wasted_work=0.0):
        if query.window != self.window:
            return
        self._samples(query.qtype).expired += 1

    def record_error(self, query):
        if query.window != self.window:
            return
        self._samples(query.qtype).errors += 1

    def attainment(self, threshold):
        result: Dict[str, float] = {}
        total = 0
        within_total = 0
        for qtype, samples in self._per_type.items():
            within = sum(1 for r in samples.responses if r <= threshold)
            count = len(samples.responses)
            result[qtype] = within / count if count else 0.0
            total += count
            within_total += within
        result["ALL"] = within_total / total if total else 0.0
        return result

    def build_type_stats(self):
        stats = {}
        for qtype, samples in self._per_type.items():
            stats[qtype] = TypeStats(
                qtype=qtype,
                completed=len(samples.responses),
                rejected=samples.rejected,
                expired=samples.expired,
                errors=samples.errors,
                response=percentiles(samples.responses, REPORT_PERCENTILES),
                processing=percentiles(samples.procs, REPORT_PERCENTILES),
                wait=percentiles(samples.waits, REPORT_PERCENTILES),
                response_mean=mean(samples.responses),
                processing_mean=mean(samples.procs),
                wait_mean=mean(samples.waits),
            )
        return stats

    def build_overall_stats(self):
        responses: List[float] = []
        procs: List[float] = []
        waits: List[float] = []
        rejected = expired = errors = 0
        for samples in self._per_type.values():
            responses.extend(samples.responses)
            procs.extend(samples.procs)
            waits.extend(samples.waits)
            rejected += samples.rejected
            expired += samples.expired
            errors += samples.errors
        return TypeStats(
            qtype="ALL",
            completed=len(responses),
            rejected=rejected,
            expired=expired,
            errors=errors,
            response=percentiles(responses, REPORT_PERCENTILES),
            processing=percentiles(procs, REPORT_PERCENTILES),
            wait=percentiles(waits, REPORT_PERCENTILES),
            response_mean=mean(responses),
            processing_mean=mean(procs),
            wait_mean=mean(waits),
        )


class ListClusterMetrics:
    """The cluster model's store: types in sorted order, no waits."""

    def __init__(self):
        self.responses: Dict[str, List[float]] = {}
        self.processing: Dict[str, List[float]] = {}
        self.broker_rejections: Dict[str, int] = {}
        self.shard_rejections: Dict[str, int] = {}
        self.window = 0
        self.degraded = 0

    def reset(self):
        self.responses.clear()
        self.processing.clear()
        self.broker_rejections.clear()
        self.shard_rejections.clear()
        self.window += 1
        self.degraded = 0

    def record_completion(self, query, degraded=False):
        if query.window != self.window:
            return
        if degraded:
            self.degraded += 1
        qtype = query.qtype
        self.responses.setdefault(qtype, []).append(
            query.response_time or 0.0)
        self.processing.setdefault(qtype, []).append(
            query.processing_time or 0.0)

    def record_rejection(self, query, at_broker):
        if query.window != self.window:
            return
        bucket = (self.broker_rejections if at_broker
                  else self.shard_rejections)
        bucket[query.qtype] = bucket.get(query.qtype, 0) + 1

    def attainment(self, threshold):
        out: Dict[str, float] = {}
        total = 0
        within = 0
        for qtype, responses in sorted(self.responses.items()):
            hits = sum(1 for r in responses if r <= threshold)
            out[qtype] = hits / len(responses) if responses else 0.0
            total += len(responses)
            within += hits
        out["ALL"] = within / total if total else 0.0
        return out

    def _measured_types(self):
        return sorted(set(self.responses) | set(self.broker_rejections)
                      | set(self.shard_rejections))

    def build_type_stats(self):
        return {qtype: self._pooled_stats(qtype, [qtype])
                for qtype in self._measured_types()}

    def build_overall_stats(self):
        return self._pooled_stats("ALL", self._measured_types())

    def _pooled_stats(self, name, qtypes):
        responses: List[float] = []
        procs: List[float] = []
        rejected = 0
        for qtype in qtypes:
            responses.extend(self.responses.get(qtype, []))
            procs.extend(self.processing.get(qtype, []))
            rejected += (self.broker_rejections.get(qtype, 0)
                         + self.shard_rejections.get(qtype, 0))
        return TypeStats(
            qtype=name,
            completed=len(responses),
            rejected=rejected,
            response=percentiles(responses, REPORT_PERCENTILES),
            processing=percentiles(procs, REPORT_PERCENTILES),
            response_mean=mean(responses),
            processing_mean=mean(procs),
        )
