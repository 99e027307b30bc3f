"""The live observability plane: HTTP endpoints over a running process.

Batch runs export their trace/metrics *after* the fact (``--trace``,
``--metrics``).  Long-running processes — the ``repro ingest --watch``
daemon, the future ``repro serve`` — need the inverse: a way to look at
a process that has not finished.  :class:`LiveServer` is that window, an
HTTP endpoint bound to an explicit tracer/registry pair, served by the
:mod:`~repro.obs.httpcore` loop on an event loop of its own (a daemon
thread), so a synchronous owner needs no asyncio:

* ``GET /metrics``  — the registry in Prometheus exposition format
  (:func:`~repro.obs.export.prometheus_text`), scrapeable by anything;
* ``GET /healthz``  — liveness JSON: status, pid, uptime, completed-span
  totals, the last completed span, plus caller-supplied health facts
  (the watch daemon publishes ``last_append_day`` here);
* ``GET /vars``     — a full JSON snapshot: counters, gauges, histograms
  (with p50/p99 estimates from the exact bucket ladder), health, and a
  recent-span tail — the feed ``repro top`` renders.

Scrapes read live dicts without locking: registry cells are mutated by
scalar assignment under the GIL, so a scrape may straddle two updates
but never sees torn values — fine for monitoring, by design.

:class:`LatencyRecorder` is the bridge from spans to histograms: a
completion sink (``tracer.add_sink``) that buckets each root span's wall
clock into ``latency.<stage>`` milliseconds, giving ``/metrics`` stage
latency distributions and ``/vars`` their p50/p99 without retaining the
spans themselves.

Everything here is opt-in and owns no global state: construct, ``start``
(ephemeral port supported: ``port=0``), ``stop``.  Nothing in the
pipeline's hot path knows the plane exists.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from typing import Dict, Optional

from .export import prometheus_text
from .httpcore import HTTPServer, Response, json_error
from .metrics import MetricsRegistry, estimate_quantile
from .trace import Span, Tracer

__all__ = ["LiveServer", "LatencyRecorder", "render_top"]

#: Millisecond bucket ladder for stage latencies: the default 1/2/5 run,
#: extended down to sub-millisecond so fast stages still resolve a p50.
LATENCY_BUCKETS_MS = (
    0.1, 0.25, 0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500,
    1000, 2500, 5000, 10000, 25000, 60000,
)


class LatencyRecorder:
    """Span-completion sink bucketing root-span wall time per stage.

    Only *root* path components are bucketed (``ingest/append_day``
    records under ``latency.ingest``): detail spans would double-count
    their parents' time.  Values are milliseconds on the extended 1/2/5
    ladder, so merged histograms and quantile estimates stay exact.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def __call__(self, span: Span) -> None:
        if span.parent_id is not None:
            return
        root = span.name.split("/", 1)[0]
        self.registry.observe(
            f"latency.{root}", span.wall * 1000.0, buckets=LATENCY_BUCKETS_MS
        )


def _histogram_summary(cell) -> dict:
    """One histogram cell as JSON-friendly summary with p50/p99."""
    bounds, counts, total, n = cell
    return {
        "count": n,
        "sum": total,
        "p50": estimate_quantile(cell, 0.50),
        "p99": estimate_quantile(cell, 0.99),
        "buckets": {f"{bound:g}": count
                    for bound, count in zip(bounds, counts)},
        "overflow": counts[-1],
    }


class LiveServer:
    """HTTP endpoint exposing a tracer/registry pair live.

    Bound to explicit objects, not the process-wide runtime state, so a
    test can run several servers side by side.  ``health`` is a caller-
    owned dict merged into ``/healthz`` and ``/vars`` on every request —
    the owner mutates it in place (``health["last_append_day"] = 413``)
    and the next scrape sees it.  ``port=0`` binds an ephemeral port;
    read :attr:`port` / :attr:`url` after :meth:`start`.
    """

    def __init__(
        self,
        tracer: Tracer,
        registry: MetricsRegistry,
        health: Optional[Dict] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        span_tail: int = 20,
    ) -> None:
        self.tracer = tracer
        self.registry = registry
        self.health = health if health is not None else {}
        self.host = host
        self.port = port
        self.span_tail = span_tail
        self.requests = 0
        self._started = time.time()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._http: Optional[HTTPServer] = None

    # --- endpoint payloads -----------------------------------------------------

    def metrics_text(self) -> str:
        return prometheus_text(self.registry)

    def healthz(self) -> dict:
        spans = self.tracer.spans
        last = spans[-1] if spans else None
        payload = {
            "status": "ok",
            "pid": os.getpid(),
            "process": self.tracer.process,
            "uptime_seconds": round(time.time() - self._started, 3),
            "spans_completed": self.tracer.completed_total,
            "last_span": None if last is None else {
                "name": last.name,
                "wall": round(last.wall, 6),
                "start": round(last.start, 6),
            },
        }
        payload.update(self.health)
        return payload

    def vars(self) -> dict:
        registry = self.registry
        return {
            "health": self.healthz(),
            "counters": dict(registry.counters),
            "gauges": dict(registry.gauges),
            "histograms": {
                name: _histogram_summary(cell)
                for name, cell in registry.histograms.items()
            },
            "spans": self.tracer.export_spans(
                since=self.tracer.completed_total - self.span_tail
            ),
        }

    def handle_path(self, path: str) -> "Optional[tuple[bytes, str]]":
        """Route one observability path to ``(body, content_type)``.

        The single routing table behind every mount of the plane: this
        server's own listener, the query plane (``repro.serve.http``)
        and the fleet router call it, so they cannot drift.  Returns
        ``None`` for paths the plane does not own (the caller 404s, or
        falls through to its own routes); exceptions propagate (the
        caller maps them to 500).
        """
        path = path.split("?", 1)[0]
        if path == "/metrics":
            return (
                self.metrics_text().encode(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/healthz":
            return (
                (json.dumps(self.healthz(), default=str) + "\n").encode(),
                "application/json",
            )
        if path == "/vars":
            return (
                (json.dumps(self.vars(), default=str) + "\n").encode(),
                "application/json",
            )
        return None

    async def _respond(self, method: str, target: str) -> Response:
        self.requests += 1
        if method != "GET":
            return json_error(405, f"method not served: {method}")
        routed = self.handle_path(target)
        if routed is None:
            return json_error(404, f"unknown endpoint: {target}")
        return (200, *routed)

    # --- lifecycle -------------------------------------------------------------

    def start(self) -> "LiveServer":
        """Bind and serve on a daemon thread running its own event loop."""
        if self._loop is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-obs-live", daemon=True
        )
        self._thread.start()
        self._http = HTTPServer(self._respond, self.host, self.port)
        try:
            asyncio.run_coroutine_threadsafe(self._http.start(), self._loop).result()
        except BaseException:
            self.stop()
            raise
        self.port = self._http.port
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Shut the listener and its loop down (idempotent)."""
        loop, self._loop = self._loop, None
        if loop is None:
            return
        asyncio.run_coroutine_threadsafe(self._http.stop(), loop).result()
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=2.0)
        loop.close()
        self._thread = self._http = None


def render_top(
    snapshot: dict,
    previous: Optional[dict] = None,
    interval: Optional[float] = None,
) -> str:
    """One ``repro top`` frame from a ``/vars`` snapshot.

    ``previous``/``interval`` (the prior snapshot and the seconds between
    them) turn counters into per-second rates; the first frame shows
    totals only.
    """
    health = snapshot.get("health", {})
    gauges = snapshot.get("gauges", {})
    counters = snapshot.get("counters", {})
    lines = [
        "repro top — {process} (pid {pid})  uptime {uptime:.0f}s  "
        "spans {spans}".format(
            process=health.get("process", "?"),
            pid=health.get("pid", "?"),
            uptime=float(health.get("uptime_seconds", 0.0)),
            spans=health.get("spans_completed", 0),
        ),
    ]
    rss = gauges.get("process.rss_bytes")
    uss = gauges.get("process.uss_bytes")
    cpu = gauges.get("process.cpu_seconds")
    fds = gauges.get("process.open_fds")
    if rss is not None or cpu is not None:
        lines.append(
            "  rss {rss}  uss {uss}  cpu {cpu}  fds {fds}".format(
                rss=_fmt_bytes(rss),
                uss=_fmt_bytes(uss),
                cpu="?" if cpu is None else f"{cpu:.1f}s",
                fds="?" if fds is None else int(fds),
            )
        )
    if "last_append_day" in health:
        lines.append(
            "  last append day {day}  ingested files {files}".format(
                day=health.get("last_append_day"),
                files=health.get("files_ingested", 0),
            )
        )
    if counters:
        lines.append("  counters:")
        base = (previous or {}).get("counters", {})
        for name in sorted(counters):
            value = counters[name]
            row = f"    {name:<36} {value:>14,d}"
            if previous is not None and interval:
                rate = (value - base.get(name, 0)) / interval
                row += f"  {rate:>10,.1f}/s"
            lines.append(row)
    histograms = snapshot.get("histograms", {})
    latency = {
        name: cell for name, cell in histograms.items()
        if name.startswith("latency.")
    }
    if latency:
        lines.append("  stage latency (ms):")
        for name in sorted(latency):
            cell = latency[name]
            p50, p99 = cell.get("p50"), cell.get("p99")
            lines.append(
                "    {name:<36} n={n:<7} p50={p50} p99={p99}".format(
                    name=name[len("latency."):],
                    n=cell.get("count", 0),
                    p50="?" if p50 is None else f"{p50:.2f}",
                    p99="?" if p99 is None else f"{p99:.2f}",
                )
            )
    return "\n".join(lines)


def _fmt_bytes(value: Optional[float]) -> str:
    if value is None:
        return "?"
    scaled = float(value)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if scaled < 1024 or unit == "TiB":
            return f"{scaled:,.1f}{unit}" if unit != "B" else f"{int(scaled)}B"
        scaled /= 1024
    return f"{scaled:,.1f}TiB"
