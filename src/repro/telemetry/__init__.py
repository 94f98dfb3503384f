"""End-to-end telemetry: metric registry, decision traces, spans, exposition.

The measurement substrate behind the reproduction's serving stack.  Every
host (simulated, threaded runtime, cluster broker/shard) fires the paper's
Figure-1 metric points into a :class:`Telemetry` facade, which maintains

* a thread-safe :class:`MetricsRegistry` (counters, gauges, log-bucketed
  histograms) rendered in the Prometheus text format,
* an optional :class:`DecisionTracer` recording one structured
  :class:`TraceEvent` per sampled query per metric point, exportable as
  JSONL,
* an optional :class:`SpanRecorder` giving every sampled query a full
  lifecycle trace (parent-linked :class:`Span` intervals: admission,
  queue wait, execution, fan-out rounds, retries, hedges, merges),
  exportable as JSONL and as Perfetto-loadable Chrome trace-event JSON,
* an optional :class:`CalibrationTracker` joining each point-1 prediction
  (Eq. 2 ``ewt_mean``, Eq. 3/4 ``ert_p``) to its point-2/3 measurements
  — per-type signed error, APE, rolling SLO attainment, and exclusive
  rejection attribution by Algorithm 1 term, and
* a stdlib :class:`TelemetryHTTPServer` serving ``/metrics``,
  ``/traces``, and ``/spans`` for live scrapes of a running host.

``repro trace-report``, ``repro spans``, and ``repro calibrate-report``
(see :mod:`repro.telemetry.report`, :mod:`repro.telemetry.spans`,
:mod:`repro.telemetry.calibration`) turn the exported data into the
paper-style tables.  Hosts accept ``telemetry=None`` (the default) and
then skip all of this at the cost of one ``is None`` test per metric
point.
"""

from .calibration import (DEFAULT_MAX_PENDING, DEFAULT_WINDOW,
                          CalibrationTracker, TypeCalibrationStats,
                          calibration_from_events,
                          render_calibration_report)
from .http import (CHROME_TRACE_CONTENT_TYPE, METRICS_CONTENT_TYPE,
                   TRACES_CONTENT_TYPE, TelemetryHTTPServer)
from .hub import Telemetry, render_metrics
from .registry import (DEFAULT_PREFIX, EXPOSITION_LAYOUT, MetricFamily,
                       MetricsRegistry, escape_help, escape_label_value)
from .report import (TraceSummary, TypeTraceSummary, render_trace_report,
                     summarize_events, summarize_trace)
from .spans import (DEFAULT_SPAN_CAPACITY, Span, SpanContext, SpanHandle,
                    SpanRecorder, TypeSpanSummary, load_spans_jsonl,
                    parse_spans_jsonl, render_chrome_trace,
                    render_span_report, summarize_spans)
from .tracer import (DEFAULT_CAPACITY, DecisionTracer, TraceEvent,
                     load_jsonl, parse_jsonl)

__all__ = [
    "CHROME_TRACE_CONTENT_TYPE",
    "CalibrationTracker",
    "DEFAULT_CAPACITY",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_PREFIX",
    "DEFAULT_SPAN_CAPACITY",
    "DEFAULT_WINDOW",
    "DecisionTracer",
    "EXPOSITION_LAYOUT",
    "METRICS_CONTENT_TYPE",
    "MetricFamily",
    "MetricsRegistry",
    "Span",
    "SpanContext",
    "SpanHandle",
    "SpanRecorder",
    "TRACES_CONTENT_TYPE",
    "Telemetry",
    "TelemetryHTTPServer",
    "TraceEvent",
    "TraceSummary",
    "TypeCalibrationStats",
    "TypeSpanSummary",
    "TypeTraceSummary",
    "calibration_from_events",
    "escape_help",
    "escape_label_value",
    "load_jsonl",
    "load_spans_jsonl",
    "parse_jsonl",
    "parse_spans_jsonl",
    "render_calibration_report",
    "render_chrome_trace",
    "render_metrics",
    "render_span_report",
    "render_trace_report",
    "summarize_events",
    "summarize_spans",
    "summarize_trace",
]
