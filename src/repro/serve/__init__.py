"""The online query plane: ``repro serve`` / ``repro loadgen``.

The paper's outputs are batch reports; this package answers the same
questions online, over the zero-copy mapped corpus:

* :mod:`repro.serve.engine` — :class:`QueryEngine`, the transport-free
  query core: endpoint payloads, the digest-keyed result LRU, and the
  process-pool fan-out for heavy queries;
* :mod:`repro.serve.http` — :class:`QueryServer`, the query routes
  mounted on the shared HTTP/1.1 core, reusing the live observability
  plane's ``/metrics`` / ``/healthz`` / ``/vars`` routes;
* :mod:`repro.serve.loadgen` — the closed-loop load generator behind
  ``repro loadgen`` and ``benchmarks/bench_perf_serve.py``;
* :mod:`repro.serve.router` — :class:`FleetRouter`, the sharded-fleet
  front tier behind ``repro fleet``: consistent point routing over the
  ``owners.rpo`` sidecar plus exact scatter-gather merges, byte-
  identical to a single server over the whole corpus.

The transport under all three is :mod:`repro.obs.httpcore`: one stdlib
asyncio connection loop and one keep-alive client, shared with the
watch daemon's live plane.
"""

from .engine import QueryEngine, QueryError
from .http import QueryServer
from .loadgen import LoadgenReport, run_loadgen
from .router import FleetRouter, boot_fleet, shutdown_fleet

__all__ = [
    "QueryEngine",
    "QueryError",
    "QueryServer",
    "LoadgenReport",
    "run_loadgen",
    "FleetRouter",
    "boot_fleet",
    "shutdown_fleet",
]
