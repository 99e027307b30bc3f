"""The query plane's routes over :class:`~repro.serve.engine.QueryEngine`.

:class:`QueryServer` mounts one route coroutine, :meth:`_respond`, on
the shared HTTP/1.1 core (:mod:`repro.obs.httpcore`: keep-alive, framing,
400/431 refusals), because the serve workload is thousands of small
concurrent lookups where per-request connection setup would dominate.
The division of labor keeps the event loop unblocked:

* responses already in the engine's LRU are written straight from the
  loop (a dict hit — no executor round trip, no serialization);
* a point-lookup miss on a warm engine (the rule is
  :meth:`QueryEngine.answers_inline`) runs :meth:`QueryEngine.respond`
  on the loop too: a few hundred microseconds of pure Python that a
  thread, under the same GIL, could only delay by a wake-up each way;
* every other miss (the census, seeds, pool-served paths, anything
  before warm-up) runs it on the default thread executor, and heavy
  queries inside it fan out to the engine's process pool — the loop
  keeps serving lookups meanwhile;
* observability paths (``/metrics``, ``/healthz``, ``/vars``) are
  routed through the *same* :meth:`LiveServer.handle_path` table the
  watch daemon's plane and the fleet router use, so they cannot drift.

Every request bumps ``serve.requests`` (exported as
``repro_serve_requests_total``) and lands one sample in the
per-endpoint ``latency.serve.<endpoint>`` histogram family on the live
plane's bucket ladder.  With observability on (``REPRO_OBS=1``), each
request additionally completes one ``serve/<endpoint>`` span carrying
status, response size, and duration attributes — streamed through
whatever sinks the active tracer wears.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

from ..obs import runtime as obs_runtime
from ..obs.httpcore import HTTPServer, Response, json_error
from ..obs.live import LATENCY_BUCKETS_MS, LiveServer
from ..obs.metrics import MetricsRegistry
from .engine import QueryEngine, QueryError

__all__ = ["QueryServer"]

#: Endpoint labels with their own latency family; anything else lands
#: in ``other`` so arbitrary request paths cannot mint new metrics.
_ENDPOINTS = frozenset({
    "cert", "key", "track", "census", "sample", "as", "fleet",
    "metrics", "healthz", "vars",
})


def endpoint_of(target: str) -> str:
    """The bounded endpoint label for one request target."""
    path = target.split("?", 1)[0]
    head = next((part for part in path.split("/") if part), "")
    return head if head in _ENDPOINTS else "other"


def _record_span(
    name: str, started: float, **attributes: "object"
) -> None:
    """Complete one backdated span covering [started, now].

    Request handling suspends at ``await`` points, so a span held open
    across the request would interleave with other requests' spans and
    break the tracer's LIFO stack.  Instead the span is entered and
    exited back-to-back once the response is known, with its start
    rewound to the request's arrival — sinks (the live latency
    recorder, streaming JSONL) see the true duration.
    """
    tracer = obs_runtime.tracer()
    if tracer is None:
        return
    span = tracer.span(name, **attributes)
    span.__enter__()
    span.start = started - tracer.epoch
    span.__exit__(None, None, None)


class QueryServer(HTTPServer):
    """One listening query plane over one engine."""

    def __init__(
        self,
        engine: QueryEngine,
        live: Optional[LiveServer] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(self._respond, host, port)
        self.engine = engine
        self.live = live
        self.registry = (
            live.registry if live is not None else MetricsRegistry()
        )

    async def stop(self) -> None:
        await super().stop()
        self.engine.close()

    async def _respond(self, method: str, target: str) -> Response:
        started = time.perf_counter()
        endpoint = endpoint_of(target)
        self.registry.inc("serve.requests")
        status = 500
        body = b""
        try:
            if method != "GET":
                raise QueryError(405, f"method not served: {method}")
            path = target.split("?", 1)[0]
            if self.live is not None:
                routed = self.live.handle_path(path)
                if routed is not None:
                    status = 200
                    body = routed[0]
                    return (200, *routed)
            body = self.engine.cached(path)
            if body is None:
                if self.engine.answers_inline(path):
                    body = self.engine.respond(path)
                else:
                    body = await asyncio.get_running_loop().run_in_executor(
                        None, self.engine.respond, path
                    )
            status = 200
            return 200, body, "application/json"
        except QueryError as error:
            self.registry.inc("serve.errors")
            status, body, ctype = json_error(error.status, error.message)
            return status, body, ctype
        except Exception as error:  # pragma: no cover - defensive
            self.registry.inc("serve.errors")
            status, body, ctype = json_error(500, str(error))
            return status, body, ctype
        finally:
            self.registry.observe(
                f"latency.serve.{endpoint}",
                (time.perf_counter() - started) * 1000.0,
                buckets=LATENCY_BUCKETS_MS,
            )
            if obs_runtime.enabled():
                _record_span(
                    f"serve/{endpoint}", started,
                    status=status, bytes=len(body),
                )
