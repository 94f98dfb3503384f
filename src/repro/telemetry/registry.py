"""Thread-safe metric families with Prometheus text exposition.

:class:`MetricsRegistry` is the process-wide (or host-scoped) container the
telemetry subsystem records into: counters (monotone), gauges (last value),
and log-bucketed histograms reusing the same exponential bucket geometry as
the policies' latency histograms (:class:`~repro.core.histogram
.BucketLayout`).  There is deliberately no dependency on any metrics
library — ``registry.render()`` emits the de-facto text exposition format
(version 0.0.4) that Prometheus, VictoriaMetrics, and ``curl`` all read.

Hot-path cost: recording into a pre-bound child (``family.labels(...)``
cached by the caller) is one lock acquisition and a float add.  Rendering
walks every child and is meant for the scrape path, not the decision path.

Usage::

    registry = MetricsRegistry()
    accepted = registry.counter("accepted_total", "Admitted queries.")
    accepted.labels(qtype="edge").inc()
    print(registry.render())
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.histogram import BucketLayout
from ..exceptions import ConfigurationError

#: Default metric-name prefix.  Distinct from the ``repro_admission``
#: prefix of :func:`~repro.telemetry.hub.render_metrics` so the two
#: renderings can be concatenated into one scrape body without family
#: collisions.
DEFAULT_PREFIX = "repro_telemetry"

#: Default histogram geometry for exposition: coarser than the policies'
#: estimation histograms (4% buckets would emit ~470 ``le`` lines per
#: child), spanning 10µs..100s at ~50% relative growth (~40 buckets).
EXPOSITION_LAYOUT = BucketLayout(min_value=1e-5, max_value=100.0,
                                 growth=1.5)

_LabelKey = Tuple[Tuple[str, str], ...]


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text-format spec.

    Backslash, double-quote, and line-feed must all be escaped; a raw
    newline inside a label value corrupts every line after it.
    """
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def escape_help(text: str) -> str:
    """Escape a ``# HELP`` string (backslash and line-feed only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: _LabelKey, extra: str = "") -> str:
    inner = ",".join(f'{name}="{escape_label_value(value)}"'
                     for name, value in key)
    if extra:
        inner = f"{inner},{extra}" if inner else extra
    return f"{{{inner}}}" if inner else ""


class _Child:
    """One labelled series inside a family."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()


class CounterChild(_Child):
    """A monotonically increasing series."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class GaugeChild(_Child):
    """A series holding the last value set."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class HistogramChild(_Child):
    """A log-bucketed distribution series (cumulative ``le`` rendering)."""

    __slots__ = ("_layout", "_counts", "_count", "_sum")

    def __init__(self, layout: BucketLayout) -> None:
        super().__init__()
        self._layout = layout
        self._counts = [0] * layout.num_buckets
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        if value < 0:
            value = 0.0
        with self._lock:
            self._counts[self._layout.index_for(value)] += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def state(self) -> Tuple[List[int], int, float]:
        """Consistent (bucket counts, count, sum) snapshot for rendering."""
        with self._lock:
            return list(self._counts), self._count, self._sum


class MetricFamily:
    """A named metric plus its labelled children.

    Children are created on first use and cached; callers on a hot path
    should bind ``family.labels(...)`` once and reuse the child.
    """

    def __init__(self, name: str, help_text: str, kind: str,
                 layout: Optional[BucketLayout] = None) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self._layout = layout
        self._children: Dict[_LabelKey, _Child] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: str) -> _Child:
        key = _label_key(labels)
        child = self._children.get(key)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "counter":
                    child = CounterChild()
                elif self.kind == "gauge":
                    child = GaugeChild()
                else:
                    child = HistogramChild(self._layout
                                           or EXPOSITION_LAYOUT)
                self._children[key] = child
            return child

    def children(self) -> Dict[_LabelKey, _Child]:
        with self._lock:
            return dict(self._children)

    def render_into(self, lines: List[str], prefix: str) -> None:
        full = f"{prefix}_{self.name}" if prefix else self.name
        lines.append(f"# HELP {full} {escape_help(self.help)}")
        lines.append(f"# TYPE {full} {self.kind}")
        for key in sorted(self.children()):
            child = self._children[key]
            if isinstance(child, HistogramChild):
                self._render_histogram(lines, full, key, child)
            else:
                lines.append(f"{full}{_format_labels(key)} "
                             f"{child.value:g}")

    @staticmethod
    def _render_histogram(lines: List[str], full: str, key: _LabelKey,
                          child: HistogramChild) -> None:
        counts, count, total = child.state()
        layout = child._layout
        cumulative = 0
        # The last bucket also holds every value clamped at the layout's
        # ``max_value``, so its edge bounds nothing: its count shows only
        # under ``+Inf``.
        for idx, bucket_count in enumerate(counts[:-1]):
            cumulative += bucket_count
            if bucket_count == 0:
                continue  # sparse rendering: only occupied bucket edges
            le = f'le="{layout.upper_bound(idx):g}"'
            lines.append(f"{full}_bucket{_format_labels(key, le)} "
                         f"{cumulative}")
        inf = 'le="+Inf"'
        lines.append(f"{full}_bucket{_format_labels(key, inf)} {count}")
        lines.append(f"{full}_sum{_format_labels(key)} {total:g}")
        lines.append(f"{full}_count{_format_labels(key)} {count}")


class MetricsRegistry:
    """Registry of metric families; get-or-create semantics by name.

    Thread-safe: families may be created and recorded into from any thread
    while another renders.
    """

    def __init__(self, prefix: str = DEFAULT_PREFIX) -> None:
        self.prefix = prefix
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, help_text: str, kind: str,
                       layout: Optional[BucketLayout] = None
                       ) -> MetricFamily:
        if not name:
            raise ConfigurationError("metric name must be non-empty")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, help_text, kind, layout)
                self._families[name] = family
            elif family.kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}, not {kind}")
            return family

    def counter(self, name: str, help_text: str = "") -> MetricFamily:
        """Get or create a counter family."""
        return self._get_or_create(name, help_text, "counter")

    def gauge(self, name: str, help_text: str = "") -> MetricFamily:
        """Get or create a gauge family."""
        return self._get_or_create(name, help_text, "gauge")

    def histogram(self, name: str, help_text: str = "",
                  layout: Optional[BucketLayout] = None) -> MetricFamily:
        """Get or create a histogram family (default exposition layout)."""
        return self._get_or_create(name, help_text, "histogram", layout)

    def families(self) -> Iterable[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    def counter_value(self, name: str, **labels: str) -> float:
        """Read one counter child's value (0.0 when never incremented)."""
        with self._lock:
            family = self._families.get(name)
        if family is None:
            return 0.0
        return family.labels(**labels).value

    def render(self) -> str:
        """Render every family as exposition text (stable ordering)."""
        lines: List[str] = []
        for family in sorted(self.families(), key=lambda f: f.name):
            family.render_into(lines, self.prefix)
        if not lines:
            return ""
        return "\n".join(lines) + "\n"
