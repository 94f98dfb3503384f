"""Sliding-window counters and moving averages.

Three of the paper's mechanisms run on sliding windows with duration ``D``
and time step ``delta`` where ``D >> delta``:

* the starvation-avoidance strategies track per-query-type accepted and
  received counts (Algorithms 2 and 3) — :class:`SlidingWindowCounts`;
* MaxQWT keeps a moving average of processing times (Eq. 5) —
  :class:`SlidingWindowStats`;
* AcceptFraction keeps moving averages of the incoming QPS and processing
  times (§5.2.3) — also :class:`SlidingWindowStats`.

Both classes keep running totals and subtract expired step-buckets lazily,
so every operation is O(1) amortized — these sit on the per-query critical
path, which the paper is explicit about keeping cheap.  Neither is
synchronized: the host that owns the policy serializes its calls (see
:mod:`repro.core.policy`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Tuple

from ..exceptions import ConfigurationError
from .clock import Clock


def _validate_window(duration: float, step: float) -> None:
    if step <= 0 or duration <= 0:
        raise ConfigurationError("duration and step must be > 0")
    if duration < step:
        raise ConfigurationError(
            f"duration ({duration}) must be >= step ({step})")


class SlidingWindowCounts:
    """Per-key (accepted, received) counts over the trailing window.

    Used by the starvation-avoidance strategies: ``received`` counts every
    query of a type that reached the policy (accepted **and** rejected), and
    ``accepted`` counts the admitted ones, exactly the ``rqc`` and ``aqc``
    of Algorithm 2.
    """

    def __init__(self, clock: Clock, duration: float = 1.0,
                 step: float = 0.01) -> None:
        _validate_window(duration, step)
        self._clock = clock
        self._duration = float(duration)
        self._step = float(step)
        # Each bucket: (start_time, {key: [accepted, received]}).
        self._buckets: Deque[Tuple[float, Dict[str, List[int]]]] = deque()
        self._totals: Dict[str, List[int]] = {}
        start = clock.now()
        self._buckets.append((start, {}))

    @property
    def duration(self) -> float:
        return self._duration

    @property
    def step(self) -> float:
        return self._step

    def record(self, key: str, accepted: bool) -> None:
        """Record one query of type ``key`` and whether it was admitted."""
        self._advance()
        bucket = self._buckets[-1][1]
        cell = bucket.setdefault(key, [0, 0])
        total = self._totals.setdefault(key, [0, 0])
        if accepted:
            cell[0] += 1
            total[0] += 1
        cell[1] += 1
        total[1] += 1

    def accepted_count(self, key: str) -> int:
        """Accepted queries of ``key`` in the window (``aqc``)."""
        self._advance()
        return self._totals.get(key, (0, 0))[0]

    def received_count(self, key: str) -> int:
        """All queries of ``key`` seen in the window (``rqc``)."""
        self._advance()
        return self._totals.get(key, (0, 0))[1]

    def acceptance_ratio(self, key: str) -> float:
        """``aqc / max(rqc, 1)`` for one key (Algorithm 3's ``AR``)."""
        self._advance()
        acc, recv = self._totals.get(key, (0, 0))
        return acc / max(recv, 1)

    def average_acceptance_ratio(self, keys: Iterable[str]) -> float:
        """Mean acceptance ratio across ``keys`` (Algorithm 3's ``AAR``).

        Keys never observed contribute ``0/1 = 0``, matching the
        ``max(GetQueryCount(t), 1)`` guard in the paper's pseudocode.
        """
        self._advance()
        keys = list(keys)
        if not keys:
            return 0.0
        total = 0.0
        for key in keys:
            acc, recv = self._totals.get(key, (0, 0))
            total += acc / max(recv, 1)
        return total / len(keys)

    def observed_keys(self) -> List[str]:
        """Keys with at least one query in the window."""
        self._advance()
        return [key for key, (_, recv) in self._totals.items()
                if recv > 0]

    def _advance(self) -> None:
        now = self._clock.now()
        newest_start = self._buckets[-1][0]
        if now - newest_start >= self._step:
            steps = int((now - newest_start) / self._step)
            self._buckets.append((newest_start + steps * self._step, {}))
        horizon = now - self._duration
        while len(self._buckets) > 1 and self._buckets[0][0] < horizon:
            _, old = self._buckets.popleft()
            for key, (acc, recv) in old.items():
                total = self._totals[key]
                total[0] -= acc
                total[1] -= recv
                if total[1] == 0 and total[0] == 0:
                    del self._totals[key]


class SlidingWindowStats:
    """Windowed sum/count of a metric, exposing mean, rate, and count.

    ``mean()`` gives the moving-average value (MaxQWT's and AcceptFraction's
    ``pt_mavg``); ``rate()`` gives events per second over the window
    (AcceptFraction's ``qps_mavg``).
    """

    def __init__(self, clock: Clock, duration: float = 60.0,
                 step: float = 1.0) -> None:
        _validate_window(duration, step)
        self._clock = clock
        self._duration = float(duration)
        self._step = float(step)
        # Each bucket: [start_time, value_sum, count].
        self._buckets: Deque[List[float]] = deque()
        self._buckets.append([clock.now(), 0.0, 0])
        self._sum = 0.0
        self._count = 0

    @property
    def duration(self) -> float:
        return self._duration

    def add(self, value: float) -> None:
        """Record one observation (e.g. one processing time)."""
        self._advance()
        bucket = self._buckets[-1]
        bucket[1] += value
        bucket[2] += 1
        self._sum += value
        self._count += 1

    def mark(self) -> None:
        """Record an event with no value (rate tracking only)."""
        self.add(0.0)

    def mean(self) -> float:
        """Moving average of the recorded values (0.0 when empty)."""
        self._advance()
        if self._count == 0:
            return 0.0
        return self._sum / self._count

    def count(self) -> int:
        """Number of observations currently inside the window."""
        self._advance()
        return self._count

    def rate(self) -> float:
        """Observations per second over the *effective* window span.

        Before a full window has elapsed the divisor is the elapsed time
        since the window started, so early rates are not underestimated —
        this matters for AcceptFraction's demanded-capacity estimate right
        after startup.
        """
        self._advance()
        now = self._clock.now()
        span = min(self._duration, max(now - self._buckets[0][0],
                                       self._step))
        return self._count / span

    def _advance(self) -> None:
        now = self._clock.now()
        newest_start = self._buckets[-1][0]
        if now - newest_start >= self._step:
            steps = int((now - newest_start) / self._step)
            self._buckets.append([newest_start + steps * self._step, 0.0, 0])
        horizon = now - self._duration
        while len(self._buckets) > 1 and self._buckets[0][0] < horizon:
            old = self._buckets.popleft()
            self._sum -= old[1]
            self._count -= old[2]
