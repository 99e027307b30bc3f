"""repro.obs — zero-dependency pipeline observability.

Batch layers, all importable from here:

* :mod:`~repro.obs.trace`   — hierarchical spans (wall/CPU, parent
  links, attributes) collected by a per-run :class:`Tracer`;
* :mod:`~repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and histograms, with deterministic cross-process merging and
  :func:`estimate_quantile` over the exact bucket ladder;
* :mod:`~repro.obs.export`  — JSONL trace files, Prometheus-style text,
  the streaming :class:`RotatingJsonlSink`, and the ASCII span tree
  behind ``repro profile``.

Live layers, for long-running processes:

* :mod:`~repro.obs.live`      — :class:`LiveServer` (``/metrics``,
  ``/healthz``, ``/vars`` over HTTP), :class:`LatencyRecorder`,
  and the ``repro top`` frame renderer;
* :mod:`~repro.obs.httpcore`  — the one stdlib asyncio HTTP/1.1 core
  (connection loop and keep-alive client) under the live plane, the
  query plane and the fleet router;
* :mod:`~repro.obs.resources` — ``/proc`` readers and the background
  :class:`ResourceSampler` publishing ``process.*`` gauges.

:mod:`~repro.obs.runtime` holds the process-wide activation switch the
instrumentation points check; off by default, everything is a guarded
no-op.  See ``docs/observability.md`` for naming schemes and schemas.
"""

from .export import (
    RotatingJsonlSink,
    counter_table,
    prometheus_text,
    render_span_tree,
    write_trace,
)
from .live import LatencyRecorder, LiveServer, render_top
from .metrics import MetricsRegistry, estimate_quantile
from .resources import ResourceSampler
from .trace import NULL_SPAN, Span, Tracer

__all__ = [
    "Tracer", "Span", "NULL_SPAN", "MetricsRegistry", "estimate_quantile",
    "write_trace", "prometheus_text", "render_span_tree", "counter_table",
    "RotatingJsonlSink", "LiveServer", "LatencyRecorder", "render_top",
    "ResourceSampler",
]
