"""Latency service level objectives on percentile response times.

The paper configures Bouncer "with strings denoting the query types and for
each type, a latency SLO with the target percentile response times; for
example: ``"Fast": {p50=10ms, p90=90ms}`` ... Note that ``default`` is a
'catch-all' query type" (§3).  :class:`LatencySLO` models one such objective
over an arbitrary set of percentiles (the paper uses p50/p90 but states the
formulation extends to others, e.g. p99 — we support that directly), and
:class:`SLORegistry` maps query types to SLOs with a required default.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from ..exceptions import ConfigurationError
from .types import DEFAULT_QUERY_TYPE


class LatencySLO:
    """Target response times at one or more percentiles, in seconds.

    Examples
    --------
    >>> slo = LatencySLO({50: 0.018, 90: 0.050})
    >>> slo.target(50)
    0.018
    >>> LatencySLO.from_ms(p50=18, p90=50) == slo
    True
    """

    __slots__ = ("_targets", "_percentiles")

    def __init__(self, targets: Mapping[float, float]) -> None:
        if not targets:
            raise ConfigurationError("an SLO needs at least one percentile")
        cleaned: Dict[int, float] = {}
        for percentile, seconds in targets.items():
            p = float(percentile)
            if not 0 < p < 100:
                raise ConfigurationError(
                    f"percentile must be in (0, 100), got {percentile}")
            # Written so that NaN fails it: a NaN target is never exceeded.
            if not seconds > 0:
                raise ConfigurationError(
                    f"SLO target must be positive, got {seconds}s at p{p:g}")
            cleaned[int(p) if p == int(p) else p] = float(seconds)
        ordered = sorted(cleaned.items())
        for (lo_p, lo_t), (hi_p, hi_t) in zip(ordered, ordered[1:]):
            if hi_t < lo_t:
                raise ConfigurationError(
                    f"SLO targets must be non-decreasing in percentile: "
                    f"p{hi_p} target {hi_t}s < p{lo_p} target {lo_t}s")
        self._targets = dict(ordered)
        # Cached: read on every admission decision (immutable thereafter).
        self._percentiles = tuple(self._targets)

    @classmethod
    def from_ms(cls, **targets_ms: float) -> "LatencySLO":
        """Build an SLO from keyword arguments like ``p50=18, p90=50``."""
        parsed = {}
        for name, value in targets_ms.items():
            if not name.startswith("p"):
                raise ConfigurationError(
                    f"expected keywords like p50=..., got {name!r}")
            try:
                percentile = float(name[1:])
            except ValueError:
                raise ConfigurationError(
                    f"expected keywords like p50=..., got {name!r}") from None
            parsed[percentile] = value / 1000.0
        return cls(parsed)

    @property
    def percentiles(self) -> Tuple[float, ...]:
        """The percentiles this SLO constrains, ascending."""
        return self._percentiles

    def target(self, percentile: float) -> float:
        """Target (seconds) at ``percentile``; KeyError if unconstrained."""
        return self._targets[percentile]

    def items(self) -> Iterator[Tuple[float, float]]:
        return iter(self._targets.items())

    def is_met_by(self, response_times: Mapping[float, float]) -> bool:
        """True when measured percentile response times satisfy every target.

        ``response_times`` maps percentile -> measured seconds; percentiles
        missing from the measurement are treated as violations, since an
        unobserved percentile cannot demonstrate compliance.
        """
        for percentile, limit in self._targets.items():
            measured = response_times.get(percentile)
            if measured is None or measured > limit:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LatencySLO)
                and self._targets == other._targets)

    def __hash__(self) -> int:
        return hash(tuple(self._targets.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"p{p:g}={t * 1000:g}ms"
                          for p, t in self._targets.items())
        return f"LatencySLO({inner})"


class SLORegistry:
    """Per-query-type SLOs with a mandatory catch-all default (§3).

    The registry is the policy's complete view of the workload's latency
    requirements.  Looking up an unknown type returns the default SLO, which
    is also how brand-new query types get served before an operator registers
    them (paper Appendix B.2).
    """

    def __init__(self, default: LatencySLO,
                 per_type: Optional[Mapping[str, LatencySLO]] = None) -> None:
        #: Bumped by every :meth:`register`; a policy caching per-type
        #: lookups compares it to know they are still current.
        self.version = 0
        self._default = default
        self._per_type: Dict[str, LatencySLO] = {}
        for qtype, slo in (per_type or {}).items():
            self.register(qtype, slo)

    @classmethod
    def uniform(cls, slo: LatencySLO,
                qtypes: Iterable[str] = ()) -> "SLORegistry":
        """One SLO for every type (the paper's simulation setup, Table 2)."""
        return cls(default=slo, per_type={qtype: slo for qtype in qtypes})

    @property
    def default(self) -> LatencySLO:
        return self._default

    def register(self, qtype: str, slo: LatencySLO) -> None:
        """Add or replace the SLO for a query type."""
        if not qtype:
            raise ConfigurationError("query type must be a non-empty string")
        if qtype == DEFAULT_QUERY_TYPE:
            self._default = slo
        else:
            self._per_type[qtype] = slo
        self.version += 1

    def for_type(self, qtype: str) -> LatencySLO:
        """SLO for ``qtype``, falling back to the default."""
        return self._per_type.get(qtype, self._default)

    def is_registered(self, qtype: str) -> bool:
        """True when ``qtype`` has an explicit (non-default) SLO."""
        return qtype in self._per_type

    def known_types(self) -> Tuple[str, ...]:
        """Explicitly registered types plus the catch-all default."""
        return tuple(self._per_type) + (DEFAULT_QUERY_TYPE,)

    def all_percentiles(self) -> Tuple[float, ...]:
        """Union of percentiles constrained by any registered SLO."""
        seen = set(self._default.percentiles)
        for slo in self._per_type.values():
            seen.update(slo.percentiles)
        return tuple(sorted(seen))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SLORegistry(default={self._default!r}, "
                f"types={sorted(self._per_type)})")
