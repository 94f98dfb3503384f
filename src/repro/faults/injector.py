"""The runtime half of fault injection: plan -> realized injections.

A :class:`FaultInjector` is handed to one or more hosts (the simulated
server, the threaded runtime server, the cluster model's brokers and
shards).  Hosts consult it at three points:

* **arrival** — :meth:`admission_override` may veto a query before the
  admission policy even runs (blackout / crash / queue drop);
* **dispatch** — :meth:`stalled_until` tells a host its engines are frozen,
  and :meth:`shape_service` / :meth:`should_error` reshape or poison the
  service an engine is about to perform;
* **accounting** — every realized injection lands in :attr:`log` (for
  tests) and in the telemetry registry's ``faults_injected_total`` counter
  (for operators).

Determinism: probabilistic draws come from one RNG *per spec*, seeded from
``(plan.seed, spec index)`` and advanced only when a matching query is
offered while the spec is active — so the realized schedule is a pure
function of the plan and the offered query sequence, independent of which
host asks first.  All methods are thread-safe (the runtime server calls
them from worker threads).
"""

from __future__ import annotations

import random
import threading
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # telemetry imports core only; avoid an import cycle here
    from ..telemetry.hub import Telemetry

from ..core.clock import at_or_after
from ..core.types import AdmissionResult, Query, RejectReason
from .plan import (ADMISSION_KINDS, SERVICE_KINDS, STALL_KINDS, FaultKind,
                   FaultPlan, FaultSpec)

#: One realized injection: (kind, host, qtype, relative time, spec index).
InjectionRecord = Tuple[str, str, str, float, int]


def _spec_seed(plan_seed: int, index: int) -> int:
    """Mix the plan seed with a spec index into an independent stream seed."""
    return (plan_seed * 1_000_003 + index * 7919 + 0x9E3779B9) & 0xFFFFFFFF


class FaultInjector:
    """Realizes a :class:`~repro.faults.plan.FaultPlan` against live hosts.

    Parameters
    ----------
    plan:
        The fault plan to realize.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; every realized
        injection increments ``faults_injected_total`` under the injecting
        host's label.
    epoch:
        Arming instant on the hosts' clock; window times in the plan are
        relative to it.  ``None`` (the default) leaves the injector
        dormant until :meth:`arm` is called — drivers arm at measurement
        start so plan windows align with the measured phase.
    """

    def __init__(self, plan: FaultPlan,
                 telemetry: Optional["Telemetry"] = None,
                 epoch: Optional[float] = None) -> None:
        self.plan = plan
        self._telemetry = telemetry
        self._scoped: Dict[str, "Telemetry"] = {}
        self._epoch = epoch
        self._lock = threading.RLock()
        self._rngs = [random.Random(_spec_seed(plan.seed, idx))
                      for idx in range(len(plan.specs))]
        #: Realized injections, in injection order.
        self.log: List[InjectionRecord] = []
        #: Realized injection counts by fault kind value.
        self.counts: Dict[str, int] = {}

    # -- arming ----------------------------------------------------------
    @property
    def armed(self) -> bool:
        return self._epoch is not None

    @property
    def epoch(self) -> Optional[float]:
        return self._epoch

    def arm(self, now: float) -> None:
        """Set the window origin to ``now`` (first call wins; idempotent)."""
        with self._lock:
            if self._epoch is None:
                self._epoch = float(now)

    def _rel(self, now: float) -> Optional[float]:
        epoch = self._epoch
        if epoch is None:
            return None
        return now - epoch

    # -- bookkeeping -----------------------------------------------------
    def _record(self, spec: FaultSpec, index: int, host: str,
                qtype: str, rel_now: float) -> None:
        kind = spec.kind.value
        self.log.append((kind, host, qtype, round(rel_now, 9), index))
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self._telemetry is not None:
            scoped = self._scoped.get(host)
            if scoped is None:
                scoped = self._telemetry.scoped(host)
                self._scoped[host] = scoped
            scoped.on_fault_injected(kind, qtype)

    def total_injected(self) -> int:
        """Number of realized injections so far."""
        with self._lock:
            return len(self.log)

    def log_json(self) -> str:
        """Canonical JSON of the realized injection log (for byte-equality
        assertions across runs)."""
        import json
        with self._lock:
            return json.dumps(self.log)

    def _active(self, rel_now: float, host: str, qtype: Optional[str],
                kinds: Tuple[FaultKind, ...]
                ) -> Iterator[Tuple[int, FaultSpec]]:
        for index, spec in enumerate(self.plan.specs):
            if (spec.kind in kinds and spec.active_at(rel_now)
                    and spec.matches(host, qtype)):
                yield index, spec

    def _hits(self, index: int, spec: FaultSpec) -> bool:
        """Draw the spec's per-query activation (deterministic stream)."""
        if spec.probability >= 1.0:
            return True
        return self._rngs[index].random() < spec.probability

    # -- host-facing hooks -----------------------------------------------
    def admission_override(self, query: Query, now: float,
                           host: str) -> Optional[AdmissionResult]:
        """A fault verdict for an arriving query, or ``None``.

        Blackout / crash windows refuse everything; queue-drop windows
        refuse probabilistically.  The returned result carries
        :attr:`~repro.core.types.RejectReason.FAULT_INJECTED` so traces and
        reports attribute the rejection to the fault, not the policy.
        """
        with self._lock:
            rel_now = self._rel(now)
            if rel_now is None:
                return None
            for index, spec in self._active(rel_now, host, query.qtype,
                                            ADMISSION_KINDS):
                if self._hits(index, spec):
                    self._record(spec, index, host, query.qtype, rel_now)
                    return AdmissionResult.reject(
                        RejectReason.FAULT_INJECTED)
        return None

    def shape_service(self, base: float, query: Query, now: float,
                      host: str) -> float:
        """Service time after active slowdowns/spikes (``base`` if none)."""
        with self._lock:
            rel_now = self._rel(now)
            if rel_now is None:
                return base
            shaped = base
            for index, spec in self._active(rel_now, host, query.qtype,
                                            SERVICE_KINDS):
                if not self._hits(index, spec):
                    continue
                if spec.kind is FaultKind.SLOWDOWN:
                    shaped *= spec.magnitude
                else:
                    shaped += spec.magnitude
                self._record(spec, index, host, query.qtype, rel_now)
            return shaped

    def should_error(self, query: Query, now: float, host: str) -> bool:
        """True when an active ERROR fault poisons this query's execution."""
        with self._lock:
            rel_now = self._rel(now)
            if rel_now is None:
                return False
            for index, spec in self._active(rel_now, host, query.qtype,
                                            (FaultKind.ERROR,)):
                if self._hits(index, spec):
                    self._record(spec, index, host, query.qtype, rel_now)
                    return True
        return False

    def stalled_until(self, now: float, host: str) -> Optional[float]:
        """Absolute instant the target's engines unfreeze, or ``None``.

        Does not log — a stall is realized when a host actually defers
        work, which the host reports through :meth:`note_stall` (once per
        deferral, keeping the realized log free of polling noise).
        """
        with self._lock:
            rel_now = self._rel(now)
            if rel_now is None:
                return None
            end: Optional[float] = None
            for _, spec in self._active(rel_now, host, None, STALL_KINDS):
                spec_end = spec.end
                if end is None or spec_end > end:
                    end = spec_end
            if end is None:
                return None
            epoch: float = self._epoch  # type: ignore[assignment]
            # ``(epoch + end) - epoch`` can round to a hair *below*
            # ``end``, leaving the spec active at the very instant we
            # told the host to wake up — a host that re-polls at the
            # returned time would re-schedule itself forever at frozen
            # simulated time.
            return at_or_after(epoch, end)

    def note_stall(self, now: float, host: str) -> None:
        """Record that ``host`` deferred dispatch due to an active stall."""
        with self._lock:
            rel_now = self._rel(now)
            if rel_now is None:
                return
            for index, spec in self._active(rel_now, host, None,
                                            STALL_KINDS):
                self._record(spec, index, host, "", rel_now)
                return

    def is_blacked_out(self, now: float, host: str) -> bool:
        """True when a blackout/crash window currently covers ``host``."""
        with self._lock:
            rel_now = self._rel(now)
            if rel_now is None:
                return False
            return any(True for _, spec in self._active(
                rel_now, host, None,
                (FaultKind.BLACKOUT, FaultKind.CRASH)))
