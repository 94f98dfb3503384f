"""Workload modelling: query types, mixes, and arrival processes (§5.3).

The paper's simulation study gives each query type "a fixed percentage
among the generated queries (i.e., its proportion in the query mix), and
its processing times follow a lognormal distribution, which approximates
those of real production queries", with Poisson arrivals ("inter-arrival
times ... generated from an exponential distribution to simulate traffic
burstiness").

:class:`QueryTypeSpec` parameterizes a type's lognormal from its published
mean and median — the two statistics Table 1 reports — which pins down
``(mu, sigma)`` uniquely:  ``median = exp(mu)`` and
``mean = exp(mu + sigma^2 / 2)``.  The resulting p90s land within a few
percent of Table 1's, confirming the paper's distributions are lognormal
fits of this form.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.types import Query
from ..exceptions import ConfigurationError

#: z-score of the 90th percentile of the standard normal.
_Z90 = 1.2815515655446004


class QueryTypeSpec:
    """One query type: its mix share and processing-time distribution.

    All times are seconds.  ``sample`` draws a processing time from the
    type's lognormal using the caller's RNG (so determinism is owned by the
    workload, not the spec).
    """

    __slots__ = ("name", "proportion", "mu", "sigma")

    def __init__(self, name: str, proportion: float, mu: float,
                 sigma: float) -> None:
        if not name:
            raise ConfigurationError("query type name must be non-empty")
        if not 0.0 < proportion <= 1.0:
            raise ConfigurationError(
                f"proportion must be in (0, 1], got {proportion}")
        if sigma < 0:
            raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
        self.name = name
        self.proportion = float(proportion)
        self.mu = float(mu)
        self.sigma = float(sigma)

    @classmethod
    def from_mean_median(cls, name: str, proportion: float, mean: float,
                         median: float) -> "QueryTypeSpec":
        """Fit the lognormal from the published mean and median (Table 1)."""
        if median <= 0 or mean <= 0:
            raise ConfigurationError("mean and median must be > 0")
        if mean < median:
            raise ConfigurationError(
                f"a lognormal's mean ({mean}) cannot be below its median "
                f"({median})")
        mu = math.log(median)
        sigma = math.sqrt(2.0 * (math.log(mean) - mu))
        return cls(name, proportion, mu, sigma)

    @property
    def mean(self) -> float:
        """Analytic mean processing time, ``exp(mu + sigma^2/2)``."""
        return math.exp(self.mu + self.sigma ** 2 / 2.0)

    @property
    def median(self) -> float:
        """Analytic median (p50) processing time, ``exp(mu)``."""
        return math.exp(self.mu)

    @property
    def p90(self) -> float:
        """Analytic 90th-percentile processing time."""
        return math.exp(self.mu + _Z90 * self.sigma)

    def percentile(self, p: float) -> float:
        """Analytic percentile of the lognormal (p in (0, 100))."""
        from statistics import NormalDist
        z = NormalDist().inv_cdf(p / 100.0)
        return math.exp(self.mu + z * self.sigma)

    def sample(self, rng: random.Random) -> float:
        """Draw one processing time."""
        if self.sigma == 0.0:
            return math.exp(self.mu)
        return rng.lognormvariate(self.mu, self.sigma)

    def __repr__(self) -> str:
        return (f"QueryTypeSpec({self.name!r}, {self.proportion:.0%}, "
                f"mean={self.mean * 1000:.2f}ms, "
                f"p50={self.median * 1000:.2f}ms)")


class WorkloadMix:
    """A set of query types with proportions summing to 1.

    Provides the derived quantities the paper's experiment design uses:
    the weighted mean processing time and the full-load traffic rate
    ``QPS_full_load = P / pt_wmean``.
    """

    def __init__(self, types: Sequence[QueryTypeSpec]) -> None:
        if not types:
            raise ConfigurationError("a workload mix needs >= 1 query type")
        names = [spec.name for spec in types]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate query type names: {names}")
        total = sum(spec.proportion for spec in types)
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(
                f"type proportions must sum to 1, got {total}")
        self.types: Tuple[QueryTypeSpec, ...] = tuple(types)
        self._by_name: Dict[str, QueryTypeSpec] = {
            spec.name: spec for spec in types}
        # Cumulative proportions for O(log k) type sampling.
        self._cumulative: List[float] = []
        running = 0.0
        for spec in types:
            running += spec.proportion
            self._cumulative.append(running)
        self._cumulative[-1] = 1.0  # guard against float drift

    def __iter__(self) -> Iterator[QueryTypeSpec]:
        return iter(self.types)

    def __len__(self) -> int:
        return len(self.types)

    def spec(self, name: str) -> QueryTypeSpec:
        """The spec for one query type (KeyError if absent)."""
        return self._by_name[name]

    @property
    def type_names(self) -> Tuple[str, ...]:
        """Query type names in mix order."""
        return tuple(spec.name for spec in self.types)

    @property
    def weighted_mean_pt(self) -> float:
        """``pt_wmean``: mix-weighted mean processing time (seconds)."""
        return sum(spec.proportion * spec.mean for spec in self.types)

    def full_load_qps(self, parallelism: int) -> float:
        """``QPS_full_load = P / pt_wmean`` (§5.3)."""
        if parallelism < 1:
            raise ConfigurationError("parallelism must be >= 1")
        return parallelism / self.weighted_mean_pt

    def sample_type(self, rng: random.Random) -> QueryTypeSpec:
        """Draw a query type according to the mix proportions."""
        idx = bisect_right(self._cumulative, rng.random())
        return self.types[min(idx, len(self.types) - 1)]


class ArrivalSchedule:
    """Open-loop Poisson arrival generator over a workload mix.

    Yields queries with pre-sampled service demands (stored on
    ``Query.payload``), so a policy's decisions cannot perturb the workload
    — every policy in a comparison sees the *identical* arrival sequence
    when given the same seed, mirroring "we subject the policies to the
    same incoming traffic" (§5.3).

    ``burst`` > 1 models clumped traffic (e.g. a frontend flushing a
    request buffer): arrival *instants* follow a Poisson process of rate
    ``rate_qps / burst`` and each instant carries ``burst`` queries with
    identical timestamps, keeping the long-run query rate at ``rate_qps``.
    With ``burst=1`` the RNG draw sequence (gap, type, demand per query) is
    exactly the historical one, so existing seeded runs are unchanged.
    """

    def __init__(self, mix: WorkloadMix, rate_qps: float,
                 seed: Optional[int] = None, start: float = 0.0,
                 burst: int = 1) -> None:
        if rate_qps <= 0:
            raise ConfigurationError(f"rate must be > 0, got {rate_qps}")
        if burst < 1:
            raise ConfigurationError(f"burst must be >= 1, got {burst}")
        self.mix = mix
        self.rate_qps = float(rate_qps)
        self.seed = seed
        self.start = float(start)
        self.burst = int(burst)

    def __iter__(self) -> Iterator[Query]:
        rng = random.Random(self.seed)
        now = self.start
        gap_rate = self.rate_qps / self.burst
        while True:
            now += rng.expovariate(gap_rate)
            for _ in range(self.burst):
                spec = self.mix.sample_type(rng)
                yield Query(qtype=spec.name, arrival_time=now,
                            payload=spec.sample(rng))

    def iter_chunks(self, chunk_size: int = 1024) -> Iterator[List[Query]]:
        """Yield the :meth:`__iter__` stream regrouped into lists.

        Each chunk holds a whole number of bursts (``chunk_size`` rounded
        down to a burst multiple, minimum one burst), so burst groups
        never straddle chunks.  ``run_simulation`` takes its arrivals this
        way rather than one ``next()`` per arrival; what that buys is
        measured in ``docs/performance.md``.
        """
        if chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}")
        per_chunk = max(1, chunk_size // self.burst) * self.burst
        stream = iter(self)
        while True:
            yield list(islice(stream, per_chunk))


def service_time_of(query: Query) -> float:
    """Service demand pre-sampled by an :class:`ArrivalSchedule`."""
    demand = query.payload
    if not isinstance(demand, (int, float)):
        raise ConfigurationError(
            f"query {query.query_id} carries no sampled service time")
    return float(demand)
