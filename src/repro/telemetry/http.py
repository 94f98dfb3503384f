"""Stdlib HTTP exposition: ``/metrics``, ``/traces``, and ``/spans``.

A scrape endpoint for a live host, with no web-framework dependency: a
:class:`~http.server.ThreadingHTTPServer` on a daemon thread, serving

* ``GET /metrics`` — exposition text (Prometheus text format 0.0.4); for
  an :class:`~repro.runtime.server.AdmissionServer` this is a superset of
  :func:`repro.telemetry.render_metrics`.
* ``GET /traces`` — recent decision-trace events as JSONL; ``?limit=N``
  caps the response to the newest N events and ``?qtype=T`` restricts it
  to one query type (filters compose: newest N *of type T*).
* ``GET /spans`` — recent lifecycle spans; the same ``?limit=``/``?qtype=``
  filters, plus ``?format=chrome`` for the Chrome trace-event form that
  Perfetto and ``chrome://tracing`` load directly (default ``jsonl``).
* ``GET /healthz`` — liveness probe.

The server binds ``port=0`` (ephemeral) by default so tests and multi-host
local runs never collide; read the bound port from :attr:`port`.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional, Tuple
from urllib.parse import parse_qs, urlparse

#: Content type of the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
TRACES_CONTENT_TYPE = "application/x-ndjson; charset=utf-8"
CHROME_TRACE_CONTENT_TYPE = "application/json; charset=utf-8"

MetricsFn = Callable[[], str]
#: (limit, qtype) -> JSONL body.
TracesFn = Callable[[Optional[int], Optional[str]], str]
#: (limit, qtype, format) -> body ("jsonl" or "chrome").
SpansFn = Callable[[Optional[int], Optional[str], str], str]


class _Handler(BaseHTTPRequestHandler):
    """Routes scrape requests to the owning server's callbacks."""

    server: "_Server"

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        if parsed.path == "/metrics":
            self._reply(200, METRICS_CONTENT_TYPE,
                        self.server.metrics_fn())
        elif parsed.path == "/traces":
            traces_fn = self.server.traces_fn
            if traces_fn is None:
                self._reply(404, "text/plain; charset=utf-8",
                            "tracing is not enabled on this host\n")
                return
            filters = self._filters(query)
            if filters is None:
                return
            limit, qtype = filters
            self._reply(200, TRACES_CONTENT_TYPE, traces_fn(limit, qtype))
        elif parsed.path == "/spans":
            spans_fn = self.server.spans_fn
            if spans_fn is None:
                self._reply(404, "text/plain; charset=utf-8",
                            "span tracing is not enabled on this host\n")
                return
            filters = self._filters(query)
            if filters is None:
                return
            limit, qtype = filters
            fmt = query.get("format", ["jsonl"])[0]
            if fmt not in ("jsonl", "chrome"):
                self._reply(400, "text/plain; charset=utf-8",
                            f"bad format: {fmt!r} "
                            "(expected jsonl or chrome)\n")
                return
            ctype = (CHROME_TRACE_CONTENT_TYPE if fmt == "chrome"
                     else TRACES_CONTENT_TYPE)
            self._reply(200, ctype, spans_fn(limit, qtype, fmt))
        elif parsed.path == "/healthz":
            self._reply(200, "text/plain; charset=utf-8", "ok\n")
        else:
            self._reply(404, "text/plain; charset=utf-8",
                        "try /metrics, /traces, /spans, or /healthz\n")

    def _filters(self, query: dict
                 ) -> Optional[Tuple[Optional[int], Optional[str]]]:
        """Parse the shared ``?limit=``/``?qtype=`` filters.

        Returns ``None`` after replying 400 on a malformed limit."""
        limit = None
        raw = query.get("limit")
        if raw:
            try:
                limit = max(0, int(raw[0]))
            except ValueError:
                self._reply(400, "text/plain; charset=utf-8",
                            f"bad limit: {raw[0]!r}\n")
                return None
        qtype_raw = query.get("qtype")
        qtype = qtype_raw[0] if qtype_raw else None
        return limit, qtype

    def _reply(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: object) -> None:
        """Silence per-request access logging (scrapes are periodic)."""


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], metrics_fn: MetricsFn,
                 traces_fn: Optional[TracesFn],
                 spans_fn: Optional[SpansFn]) -> None:
        super().__init__(address, _Handler)
        self.metrics_fn = metrics_fn
        self.traces_fn = traces_fn
        self.spans_fn = spans_fn


class TelemetryHTTPServer:
    """Owns the exposition thread for one host.

    Usage::

        exposition = TelemetryHTTPServer(metrics_fn=server.render_metrics)
        exposition.start()
        print(f"scrape me at {exposition.url}/metrics")
        ...
        exposition.stop()
    """

    def __init__(self, metrics_fn: MetricsFn,
                 traces_fn: Optional[TracesFn] = None,
                 spans_fn: Optional[SpansFn] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self._metrics_fn = metrics_fn
        self._traces_fn = traces_fn
        self._spans_fn = spans_fn
        self._host = host
        self._requested_port = port
        self._httpd: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        if self._httpd is None:
            raise RuntimeError("exposition server is not running")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def start(self) -> "TelemetryHTTPServer":
        """Bind and serve on a daemon thread (idempotent)."""
        if self._httpd is not None:
            return self
        self._httpd = _Server((self._host, self._requested_port),
                              self._metrics_fn, self._traces_fn,
                              self._spans_fn)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-telemetry-http-{self.port}", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "TelemetryHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
