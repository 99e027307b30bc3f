"""The closed-loop load generator behind ``repro loadgen``.

Drives a running query plane with N concurrent keep-alive connections,
each issuing its share of a mixed workload back-to-back, and reports
wall-clock throughput plus the client-side latency distribution.  The
workload is seeded from the server's own ``/sample`` endpoint, so the
generator needs nothing but a URL — the fingerprints, key ids, and
addresses it queries are real members of the served corpus.

Each connection is one :class:`~repro.obs.httpcore.HTTPClient`, the
core's keep-alive client (which reconnects once if the server drops the
connection).  Nearest-rank percentiles over the full latency vector, no
sketching — a bench harness should gate on exact numbers.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.httpcore import HTTPClient

__all__ = ["LoadgenReport", "build_workload", "run_loadgen"]

#: Default endpoint weights: lookup-dominated, like a monitoring fleet
#: resolving certificates it just observed, with a trickle of tracking
#: and census traffic.
DEFAULT_MIX = {"cert": 8, "track": 2, "key": 1, "census": 1}


@dataclass(frozen=True)
class LoadgenReport:
    """One load run's outcome."""

    requests: int
    errors: int
    seconds: float
    qps: float
    p50_ms: float
    p99_ms: float
    max_ms: float
    by_status: Dict[int, int]
    #: Route label → {requests, p50_ms, p99_ms, max_ms}: the client-side
    #: latency distribution per endpoint, so a bench can attribute tail
    #: latency to scatter-gather routes vs point lookups.
    by_endpoint: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"{self.requests} requests in {self.seconds:.2f}s  "
            f"({self.qps:,.0f} qps, {self.errors} errors)",
            f"latency p50 {self.p50_ms:.2f}ms  p99 {self.p99_ms:.2f}ms  "
            f"max {self.max_ms:.2f}ms",
        ]
        for route in sorted(self.by_endpoint):
            stats = self.by_endpoint[route]
            lines.append(
                f"  {route:<10} {stats['requests']:>7.0f} req  "
                f"p50 {stats['p50_ms']:.2f}ms  p99 {stats['p99_ms']:.2f}ms  "
                f"max {stats['max_ms']:.2f}ms"
            )
        return "\n".join(lines)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[rank]


def build_workload(
    sample: dict,
    requests: int,
    mix: Optional[Dict[str, int]] = None,
    seed: int = 2016,
) -> List[str]:
    """Expand a ``/sample`` payload into a shuffled request path list."""
    mix = dict(DEFAULT_MIX if mix is None else mix)
    pools = {
        "cert": [f"/cert/{fp}" for fp in sample.get("fingerprints", [])],
        "track": [f"/track/{ip}" for ip in sample.get("ips", [])],
        "key": [f"/key/{key}/group" for key in sample.get("keys", [])],
        "census": ["/census", "/census/valid", "/census/invalid"],
        "as": [
            f"/as/{asn}/reassignment" for asn in sample.get("asns", [])
        ],
    }
    weighted: List[Tuple[str, List[str]]] = [
        (kind, pool) for kind, pool in pools.items()
        if mix.get(kind, 0) > 0 and pool
    ]
    if not weighted:
        raise ValueError("workload mix selects no populated endpoint")
    total_weight = sum(mix[kind] for kind, _ in weighted)
    paths: List[str] = []
    for kind, pool in weighted:
        share = max(1, round(requests * mix[kind] / total_weight))
        paths.extend(pool[index % len(pool)] for index in range(share))
    paths = paths[:requests]
    random.Random(seed).shuffle(paths)
    return paths


def _route_of(path: str) -> str:
    """The route label of one request path (its first segment)."""
    head = next((part for part in path.split("/") if part), "")
    return head or "root"


async def _drive(
    url: str,
    paths: Sequence[str],
    concurrency: int,
) -> Tuple[List[float], Dict[int, int], int, Dict[str, List[float]]]:
    latencies: List[float] = []
    by_status: Dict[int, int] = {}
    per_route: Dict[str, List[float]] = {}
    errors = 0
    shares = [
        list(paths[offset::concurrency]) for offset in range(concurrency)
    ]

    async def worker(share: Sequence[str]) -> None:
        nonlocal errors
        client = HTTPClient(url)
        try:
            for path in share:
                started = perf_counter()
                status, _ = await client.get(path)
                elapsed = (perf_counter() - started) * 1000.0
                latencies.append(elapsed)
                per_route.setdefault(_route_of(path), []).append(elapsed)
                by_status[status] = by_status.get(status, 0) + 1
                if status >= 400:
                    errors += 1
        finally:
            await client.close()

    await asyncio.gather(*(worker(share) for share in shares))
    return latencies, by_status, errors, per_route


async def run_loadgen_async(
    url: str,
    requests: int = 2000,
    concurrency: int = 16,
    mix: Optional[Dict[str, int]] = None,
    seed: int = 2016,
    paths: Optional[Sequence[str]] = None,
) -> LoadgenReport:
    if paths is None:
        client = HTTPClient(url)
        try:
            status, body = await client.get("/sample")
        finally:
            await client.close()
        if status != 200:
            raise RuntimeError(f"/sample returned HTTP {status}")
        paths = build_workload(json.loads(body), requests, mix, seed)
    started = perf_counter()
    latencies, by_status, errors, per_route = await _drive(
        url, paths, concurrency
    )
    seconds = perf_counter() - started
    latencies.sort()
    by_endpoint: Dict[str, Dict[str, float]] = {}
    for route, values in per_route.items():
        values.sort()
        by_endpoint[route] = {
            "requests": len(values),
            "p50_ms": _percentile(values, 0.50),
            "p99_ms": _percentile(values, 0.99),
            "max_ms": values[-1],
        }
    return LoadgenReport(
        requests=len(latencies),
        errors=errors,
        seconds=seconds,
        qps=len(latencies) / seconds if seconds else 0.0,
        p50_ms=_percentile(latencies, 0.50),
        p99_ms=_percentile(latencies, 0.99),
        max_ms=latencies[-1] if latencies else 0.0,
        by_status=by_status,
        by_endpoint=by_endpoint,
    )


def run_loadgen(
    url: str,
    requests: int = 2000,
    concurrency: int = 16,
    mix: Optional[Dict[str, int]] = None,
    seed: int = 2016,
    paths: Optional[Sequence[str]] = None,
) -> LoadgenReport:
    """Synchronous wrapper: drive ``url`` and return the report."""
    return asyncio.run(run_loadgen_async(
        url, requests=requests, concurrency=concurrency,
        mix=mix, seed=seed, paths=paths,
    ))
