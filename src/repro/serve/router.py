"""The sharded-fleet front tier behind ``repro fleet``.

:class:`FleetRouter` fronts K ``repro serve`` shard processes, each
holding one container produced by ``repro split``, and answers every
public endpoint **byte-identically** to a single server over the whole
corpus:

* point lookups (``/cert/<fp>``, ``/key/<spki>/group``) are routed to
  the owning shard through the ``owners.rpo`` sidecar's mapped hash
  tables and proxied verbatim — the first request for a path takes one
  upstream hop, no re-serialization of the body;
* scatter-gather endpoints (``/census``, ``/census/<pop>``,
  ``/track/<ip>``, ``/sample``, ``/as/<asn>/reassignment``) fan out to
  every shard's *fleet-internal* partials (integer counts and
  histograms only) and reconstruct the single-server payload exactly —
  medians re-derived with :class:`~repro.stats.cdf.CDF`'s own index
  expression, fractions as the same integer divisions, issuer ties
  broken by the same smallest-member-fingerprint rule.

A 200 answer of either kind then sits in the router's bounded response
LRU: the shards' bytes are fixed by the digests checked at boot, so a
kept answer keeps answering after its shard dies.  Error answers are
never kept.

Upstream traffic rides per-shard keep-alive connection pools; each hop
lands one sample in that shard's ``latency.router.upstream.shard<i>``
histogram.  A failed hop is a JSON 502 naming the shard, one past
:data:`UPSTREAM_TIMEOUT_S` a 504; a scatter cancels its other hops
before answering either.  ``/healthz`` live-probes every shard
and degrades (without refusing point lookups to surviving shards) when
one is down or hung; ``/metrics`` and ``/vars`` are the live plane's
over the router's registry, so ``repro top`` watches a router too.  At
boot the router re-hashes every shard container against the digests
recorded in ``fleet.json`` and refuses to start over a mismatch — byte
parity is a promise about specific bytes.

The routes mount on the HTTP/1.1 core (:mod:`repro.obs.httpcore`).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import time
from collections import OrderedDict
from queue import Empty
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.tracking import ASAssignmentStats
from ..io.split import FleetManifest, FleetOwners, load_fleet_manifest, verify_fleet
from ..obs.httpcore import HTTPClient, HTTPServer, Response, json_error
from ..obs.live import LATENCY_BUCKETS_MS, LiveServer
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from .engine import (
    REASSIGNMENT_MIN_DEVICES,
    QueryError,
    _format_ip,
    _parse_asn,
    _parse_fingerprint,
    _parse_ip,
    _strided,
)

__all__ = ["FleetRouter", "boot_fleet", "shutdown_fleet"]

#: Seconds one upstream hop may take before the router answers 504.
UPSTREAM_TIMEOUT_S = 30.0

#: /sample's population stride, matching ``QueryEngine.sample``.
_SAMPLE_N = 256


# --- exact merge arithmetic ------------------------------------------------------
#
# Pure functions over the shards' fleet-internal partials.  Every
# expression here mirrors one in the single-server path (CDF.percentile,
# key_sharing, lifetimes, top_issuers, ValidationReport) — same integer
# inputs through the same operations, so the floats cannot differ.

def _histogram_median(histogram: Dict[int, int]) -> int:
    """``CDF.median`` over an integer-valued count histogram.

    The CDF indexes its sorted sample vector at
    ``min(n - 1, int(round(0.5 * (n - 1))))``; walking the histogram in
    key order to that rank selects the identical sample.
    """
    n = sum(histogram.values())
    index = min(n - 1, int(round(0.5 * (n - 1))))
    seen = 0
    for value in sorted(histogram):
        seen += histogram[value]
        if seen > index:
            return value
    raise ValueError("empty histogram has no median")


def merge_population(partials: Sequence[dict]) -> dict:
    """One ``_census_population`` payload from per-shard aggregates."""
    n = sum(partial["n"] for partial in partials)
    if n == 0:
        return {"n": 0}
    validity: Dict[int, int] = {}
    lifetime: Dict[int, int] = {}
    n_single = n_key_shared = n_self = 0
    issuers: Dict[str, List] = {}
    for partial in partials:
        if partial["n"] == 0:
            continue
        for days, count in partial["validity_days"].items():
            validity[int(days)] = validity.get(int(days), 0) + count
        for days, count in partial["lifetime_days"].items():
            lifetime[int(days)] = lifetime.get(int(days), 0) + count
        n_single += partial["n_single_scan"]
        n_key_shared += partial["n_key_shared"]
        n_self += partial["n_self_signed"]
        for label, (count, min_fp) in partial["issuers"].items():
            entry = issuers.get(label)
            if entry is None:
                issuers[label] = [count, min_fp]
            else:
                entry[0] += count
                entry[1] = min(entry[1], min_fp)
    # top_issuers sorts count-descending with a *stable* sort over
    # first-appearance order; the census iterates fingerprints
    # ascending, so first appearance == smallest member fingerprint.
    ranked = sorted(
        issuers.items(), key=lambda item: (-item[1][0], item[1][1])
    )
    return {
        "n": n,
        "validity_median_days": _histogram_median(validity),
        "lifetime_median_days": _histogram_median(lifetime),
        "single_scan_fraction": n_single / n,
        "key_shared_fraction": n_key_shared / n,
        "self_signed_fraction": n_self / n,
        "top_issuers": [
            [label, entry[0]] for label, entry in ranked[:5]
        ],
    }


def merge_census(partials: Sequence[dict], digest: str) -> dict:
    """The whole-corpus ``/census`` payload from shard partials."""
    n_valid = sum(partial["n_valid"] for partial in partials)
    n_invalid = sum(partial["n_invalid"] for partial in partials)
    considered = n_valid + n_invalid
    return {
        "digest": digest,
        "n_certificates": sum(
            partial["n_certificates"] for partial in partials
        ),
        "n_scans": partials[0]["n_scans"],
        "n_observations": sum(
            partial["n_observations"] for partial in partials
        ),
        "considered": considered,
        "invalid_fraction": n_invalid / considered,
        "valid": merge_population(
            [partial["valid"] for partial in partials]
        ),
        "invalid": merge_population(
            [partial["invalid"] for partial in partials]
        ),
    }


def merge_track(ip: int, partials: Sequence[dict]) -> dict:
    """``/track/<ip>`` from per-shard answers.

    Devices are content-addressed and partition-closed (every device's
    certificates share one shard), so concatenation + the same
    ``device_key`` sort the engine applies reproduces its row order.
    """
    rows = [row for partial in partials for row in partial["devices"]]
    rows.sort(key=lambda row: row["device_key"])
    return {"ip": _format_ip(ip), "n_devices": len(rows), "devices": rows}


def merge_sample(partials: Sequence[dict], digest: str) -> dict:
    """``/sample`` from the shards' unstrided ``/fleet/seeds``."""
    fingerprints = sorted(
        {fp for partial in partials for fp in partial["fingerprints"]}
    )
    keys = sorted(
        {key for partial in partials for key in partial["keys"]}
    )
    ips = sorted({ip for partial in partials for ip in partial["ips"]})
    as_devices: Dict[int, int] = {}
    for partial in partials:
        for asn, count in partial["as_devices"].items():
            as_devices[int(asn)] = as_devices.get(int(asn), 0) + count
    asns = sorted(
        asn for asn, count in as_devices.items()
        if count >= REASSIGNMENT_MIN_DEVICES
    )
    return {
        "digest": digest,
        "fingerprints": _strided(fingerprints, _SAMPLE_N),
        "keys": _strided(keys, _SAMPLE_N),
        "ips": [_format_ip(ip) for ip in _strided(ips, _SAMPLE_N)],
        "asns": _strided(asns, _SAMPLE_N),
    }


def merge_as_reassignment(
    asn: int, partials: Sequence[dict], digest: str
) -> dict:
    """``/as/<asn>/reassignment`` from the shards' raw §7.4 counts.

    The summed counts feed the *same* :class:`ASAssignmentStats` the
    engine uses, so thresholds and derived fractions cannot drift.
    """
    stats = ASAssignmentStats(
        asn=asn,
        n_devices=sum(partial["n_devices"] for partial in partials),
        n_static=sum(partial["n_static"] for partial in partials),
        n_fully_dynamic=sum(
            partial["n_fully_dynamic"] for partial in partials
        ),
    )
    if stats.n_devices < REASSIGNMENT_MIN_DEVICES:
        raise QueryError(
            404, f"no tracked-device population for AS {asn}"
        )
    return {
        "asn": asn,
        "digest": digest,
        "n_devices": stats.n_devices,
        "n_static": stats.n_static,
        "n_fully_dynamic": stats.n_fully_dynamic,
        "static_fraction": stats.static_fraction,
        "dynamic_share": stats.dynamic_share,
        "mostly_static": stats.is_mostly_static(),
        "highly_dynamic": stats.is_highly_dynamic,
    }


class _ShardDown(QueryError):
    """An upstream shard failed (502) or outlasted its deadline (504)."""

    def __init__(self, shard: int, status: int, reason: str) -> None:
        super().__init__(status, f"shard {shard} {reason}")


# --- the router ------------------------------------------------------------------

class FleetRouter(HTTPServer):
    """One listening front tier over a booted shard fleet."""

    DEFAULT_RESULT_CACHE = 1024

    def __init__(
        self,
        manifest: FleetManifest,
        shard_urls: Sequence[str],
        host: str = "127.0.0.1",
        port: int = 0,
        result_cache_size: Optional[int] = None,
    ) -> None:
        if len(shard_urls) != manifest.shards:
            raise ValueError(
                f"fleet has {manifest.shards} shards, "
                f"got {len(shard_urls)} shard URLs"
            )
        super().__init__(self._respond, host, port)
        self.manifest = manifest
        self.digest = manifest.parent_digest
        self.owners = FleetOwners(manifest.owners_path)
        self.clients = [HTTPClient(url) for url in shard_urls]
        self.registry = MetricsRegistry()
        self.live = LiveServer(
            Tracer(process="fleet-router"), self.registry,
            health={"role": "fleet-router", "parent_digest": self.digest},
        )
        self._started = time.time()
        self._results: "OrderedDict[str, Tuple[int, bytes]]" = OrderedDict()
        self._result_cache_size = (
            self.DEFAULT_RESULT_CACHE
            if result_cache_size is None else result_cache_size
        )

    @classmethod
    def open(
        cls,
        fleet_dir: Union[str, "object"],
        shard_urls: Sequence[str],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> "FleetRouter":
        """Wire a router over a fleet directory, verifying digests.

        Every shard container is re-hashed against ``fleet.json``
        before a single byte is served: a mismatched shard means the
        byte-parity contract no longer holds, so boot refuses.
        """
        manifest = load_fleet_manifest(fleet_dir)
        verify_fleet(manifest)
        return cls(manifest, shard_urls, host=host, port=port)

    # --- lifecycle -------------------------------------------------------------

    async def stop(self) -> None:
        await super().stop()
        for client in self.clients:
            await client.close()
        self.owners.close()

    # --- upstream --------------------------------------------------------------

    async def _shard_get(self, shard: int, path: str) -> Tuple[int, bytes]:
        started = time.perf_counter()
        # At the deadline the timer cancels this task, and the client
        # closes the connection that cancellation interrupts.  A timer
        # handle costs a fraction of asyncio.wait_for, and
        # asyncio.timeout needs Python 3.11.
        task, expired = asyncio.current_task(), []
        deadline = asyncio.get_running_loop().call_later(
            UPSTREAM_TIMEOUT_S, lambda: expired.append(task.cancel())
        )
        try:
            return await self.clients[shard].get(path)
        except asyncio.CancelledError:
            if not expired:
                raise
            self.registry.inc("router.upstream_errors")
            raise _ShardDown(
                shard, 504, f"timed out after {UPSTREAM_TIMEOUT_S:g}s"
            ) from None
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            self.registry.inc("router.upstream_errors")
            raise _ShardDown(shard, 502, "unavailable") from None
        finally:
            deadline.cancel()
            self.registry.observe(
                f"latency.router.upstream.shard{shard}",
                (time.perf_counter() - started) * 1000.0,
                buckets=LATENCY_BUCKETS_MS,
            )

    async def _scatter(self, path: str) -> List[dict]:
        """``path`` on every shard; parsed JSON bodies, shard order.

        On the first failed hop the others are cancelled and awaited, so
        their connections are closed before the error is answered rather
        than pooled by a hop that lands after it.
        """
        hops = [
            asyncio.ensure_future(self._shard_get(shard, path))
            for shard in range(len(self.clients))
        ]
        try:
            results = await asyncio.gather(*hops)
        except BaseException:
            for hop in hops:
                hop.cancel()
            await asyncio.gather(*hops, return_exceptions=True)
            raise
        partials = []
        for shard, (status, body) in enumerate(results):
            if status != 200:
                raise QueryError(
                    502, f"shard {shard} failed {path}: HTTP {status}"
                )
            partials.append(json.loads(body))
        return partials

    # --- routing ---------------------------------------------------------------

    async def _proxy_cert(self, path: str, hex_text: str) -> Tuple[int, bytes]:
        fingerprint = _parse_fingerprint(hex_text)
        shard = self.owners.owner_of_cert(fingerprint)
        return await self._shard_get(shard, path)

    async def _proxy_key(self, path: str, hex_text: str) -> Tuple[int, bytes]:
        try:
            spki = bytes.fromhex(hex_text)
        except ValueError:
            spki = b""
        # A malformed or unknown key id 404s with the same body on any
        # shard; route it by the fallback hash for determinism.
        shard = (
            self.owners.owner_of_key(spki)
            if len(spki) == 32 else hash_fallback(hex_text, len(self.clients))
        )
        return await self._shard_get(shard, path)

    def _serialize(self, payload: dict) -> bytes:
        # Identical to QueryEngine._store's framing — parity includes
        # the trailing newline and the sorted keys.
        return (json.dumps(payload, sort_keys=True) + "\n").encode()

    async def respond(self, path: str) -> Tuple[int, bytes]:
        """Route one query path; returns (status, body)."""
        cached = self._results.get(path)
        if cached is not None:
            self._results.move_to_end(path)
            return cached
        parts = [part for part in path.split("/") if part]
        if len(parts) == 2 and parts[0] == "cert":
            return self._remember(
                path, await self._proxy_cert(path, parts[1])
            )
        if len(parts) == 3 and parts[0] == "key" and parts[2] == "group":
            return self._remember(
                path, await self._proxy_key(path, parts[1])
            )
        if len(parts) == 2 and parts[0] == "track":
            ip = _parse_ip(parts[1])
            payload = merge_track(ip, await self._scatter(path))
        elif parts == ["census"]:
            payload = merge_census(
                await self._scatter("/fleet/census"), self.digest
            )
        elif len(parts) == 2 and parts[0] == "census" \
                and parts[1] in ("valid", "invalid"):
            partials = await self._scatter("/fleet/census")
            payload = merge_population(
                [partial[parts[1]] for partial in partials]
            )
            payload["population"] = parts[1]
            payload["digest"] = self.digest
        elif parts == ["sample"]:
            payload = merge_sample(
                await self._scatter("/fleet/seeds"), self.digest
            )
        elif len(parts) == 3 and parts[0] == "as" \
                and parts[2] == "reassignment":
            asn = _parse_asn(parts[1])
            payload = merge_as_reassignment(
                asn, await self._scatter(f"/fleet/as/{asn}"), self.digest
            )
        else:
            raise QueryError(404, f"unknown query path: {path}")
        return self._remember(path, (200, self._serialize(payload)))

    def _remember(
        self, path: str, result: Tuple[int, bytes]
    ) -> Tuple[int, bytes]:
        """Keep a 200 answer in the response LRU; return ``result``.

        Error answers (a shard's 404) are never kept, so a failure stays
        loud; a 502 or 504 raises before it gets here, so a reply that
        lands after its deadline is never served.
        """
        if result[0] == 200:
            self._results[path] = result
            if len(self._results) > self._result_cache_size:
                self._results.popitem(last=False)
        return result

    # --- router-owned endpoints -------------------------------------------------

    async def healthz(self) -> Tuple[int, bytes]:
        """Live shard probe; degraded (not dead) on a down shard."""
        async def probe(shard: int) -> bool:
            try:
                status, _ = await self._shard_get(shard, "/healthz")
                return status == 200
            except _ShardDown:
                return False

        alive = await asyncio.gather(
            *(probe(shard) for shard in range(len(self.clients)))
        )
        payload = {
            "status": "ok" if all(alive) else "degraded",
            "role": "fleet-router",
            "parent_digest": self.digest,
            "uptime_seconds": round(time.time() - self._started, 3),
            "shards": [
                {
                    "shard": shard,
                    "url": self.clients[shard].url,
                    "ok": ok,
                }
                for shard, ok in enumerate(alive)
            ],
        }
        status = 200 if all(alive) else 503
        return status, (json.dumps(payload) + "\n").encode()

    # --- protocol ---------------------------------------------------------------

    async def _respond(self, method: str, target: str) -> Response:
        started = time.perf_counter()
        self.registry.inc("router.requests")
        try:
            if method != "GET":
                raise QueryError(405, f"method not served: {method}")
            path = target.split("?", 1)[0]
            if path == "/healthz":
                status, body = await self.healthz()
                return status, body, "application/json"
            routed = self.live.handle_path(path)
            if routed is not None:
                return (200, *routed)
            status, body = await self.respond(path)
            return status, body, "application/json"
        except QueryError as error:
            self.registry.inc("router.errors")
            return json_error(error.status, error.message)
        except Exception as error:  # pragma: no cover - defensive
            self.registry.inc("router.errors")
            return json_error(500, str(error))
        finally:
            self.registry.observe(
                "latency.router",
                (time.perf_counter() - started) * 1000.0,
                buckets=LATENCY_BUCKETS_MS,
            )


def hash_fallback(text: str, shards: int) -> int:
    """Deterministic shard choice for ids that fail to parse."""
    digest = 0
    for byte in text.encode("utf-8", "replace"):
        digest = (digest * 131 + byte) & 0xFFFFFFFF
    return digest % shards


# --- fleet boot (shard server processes) -----------------------------------------

def _shard_server_main(
    corpus: str,
    environment: str,
    cache_dir: Optional[str],
    workers: int,
    shard: int,
    queue,
) -> None:
    """One shard server process: warm, announce the URL, serve.

    Wired like ``repro serve``: a live plane fronts ``/metrics`` /
    ``/healthz`` / ``/vars`` on the same listener, so the router's
    health probes and the fleet's per-shard request counters work.
    """
    from ..obs import LatencyRecorder, LiveServer, MetricsRegistry, Tracer
    from ..obs import runtime as obs_runtime
    from .engine import QueryEngine
    from .http import QueryServer

    trace = Tracer(process=f"serve-shard{shard}")
    metrics = MetricsRegistry()
    trace.add_sink(LatencyRecorder(metrics))
    with obs_runtime.activated(trace, metrics):
        engine = QueryEngine.open(
            corpus, environment, cache_dir=cache_dir, workers=workers
        )
        engine.warm()
        health = {"shard": shard, "digest": engine.digest}
        live = LiveServer(trace, metrics, health=health)

        async def main() -> None:
            server = QueryServer(engine, live=live)
            await server.start()
            queue.put((shard, server.url))
            await server.serve_forever()

        try:
            asyncio.run(main())
        except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
            pass
        finally:
            engine.close()


def boot_fleet(
    manifest: FleetManifest,
    environment: Union[str, "object"],
    cache_dir: Optional[str] = None,
    workers: int = 1,
    timeout: float = 600.0,
) -> Tuple[List[multiprocessing.Process], List[str]]:
    """Start one warmed server process per shard; returns (procs, urls).

    Fails as soon as a shard exits before announcing its URL, naming the
    shard and its exit code, or when ``timeout`` passes; either way the
    other shards are shut down first.
    """
    context = multiprocessing.get_context("spawn")
    queue = context.Queue()
    processes = []
    for info in manifest.shard_infos:
        process = context.Process(
            target=_shard_server_main,
            args=(
                str(info.path), str(environment), cache_dir, workers,
                info.index, queue,
            ),
            daemon=True,
        )
        process.start()
        processes.append(process)
    urls: Dict[int, str] = {}
    deadline = time.monotonic() + timeout
    try:
        while len(urls) < len(processes):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("fleet shards did not boot in time")
            try:
                shard, url = queue.get(timeout=min(remaining, 0.5))
            except Empty:
                # Nothing announced meanwhile: a shard that has exited
                # never will.
                for info, process in zip(manifest.shard_infos, processes):
                    if info.index not in urls \
                            and process.exitcode is not None:
                        raise RuntimeError(
                            f"fleet shard {info.index} ({info.path.name}) "
                            f"exited with code {process.exitcode} before "
                            "it served"
                        )
                continue
            urls[shard] = url
    except BaseException:
        shutdown_fleet(processes)
        raise
    return processes, [urls[shard] for shard in sorted(urls)]


def shutdown_fleet(processes: Sequence[multiprocessing.Process]) -> None:
    """Terminate and reap shard server processes."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=10.0)
