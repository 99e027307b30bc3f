"""The online query plane at paper scale: latency, throughput, fan-out.

The PR 9 acceptance bench: ``repro serve`` over the paper-scale corpus
must answer point lookups with p50 < 5 ms and p99 < 50 ms, sustain
>= 5,000 queries/second of mixed traffic, and scale heavy queries
(census slices over thousands of certificates) to >= 2x single-worker
throughput with a 4-worker process pool.  Every gate is asserted before
any result file is written, so a failing run leaves ``BENCH_perf.json``
untouched.  Writes the ``serve`` section of ``results/BENCH_perf.json``
and ``results/perf_serve.txt``.

Measurement shape (closed-loop, Little's law): latency is gated at low
concurrency — 4 in-flight requests cannot hide queueing delay behind
pipelining — while throughput is gated at 32 connections across two
client loops, where per-request latency is allowed to grow as long as
the plane drains the aggregate load.  The load generator is the real
``repro loadgen`` engine, seeded from the server's own ``/sample``.
"""

import asyncio
import gc
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from bench_perf_substrates import _update_bench_json
from repro.io import AnalysisEnvironment, save_dataset, save_environment
from repro.serve import QueryEngine, QueryServer, run_loadgen
from repro.serve.loadgen import build_workload

GATE_P50_MS = 5.0
GATE_P99_MS = 50.0
GATE_QPS = 5000.0
GATE_POOL_SPEEDUP = 2.0


def _pool_gate() -> float | None:
    """The fan-out gate, scaled to the machine's real parallelism.

    Four workers can only multiply throughput up to the core count: on
    >= 4 cores the full 2x gate applies; on 2-3 cores the gate degrades
    proportionally (2 cores -> 1.0x, i.e. the pool must at least not
    lose to in-process execution once IPC overhead is paid).  On a
    single core there is no parallelism for the pool to exploit and
    IPC overhead makes serial-vs-pooled a coin flip, so the speedup is
    recorded but not gated (None).  The measured core count is stamped
    into the results, so a cross-machine diff can tell gate scaling
    from a real regression.
    """
    cpus = os.cpu_count() or 1
    if cpus < 2:
        return None
    return GATE_POOL_SPEEDUP if cpus >= 4 else max(1.0, cpus / 2.0)

#: Client loops driving the throughput run.  One asyncio loop saturates
#: around the server's own single-loop ceiling; two clients make the
#: server, not the generator, the measured bottleneck.
CLIENTS = 2


def _multi_client(url, paths, concurrency, clients=CLIENTS):
    """Aggregate qps over ``clients`` parallel loadgen loops."""
    shares = [list(paths[offset::clients]) for offset in range(clients)]
    reports = [None] * clients

    def run(position):
        reports[position] = run_loadgen(
            url, paths=shares[position],
            concurrency=max(1, concurrency // clients),
        )

    threads = [
        threading.Thread(target=run, args=(position,))
        for position in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    requests = sum(report.requests for report in reports)
    errors = sum(report.errors for report in reports)
    return requests / wall, requests, errors, wall


def test_perf_serve(paper_synthetic, results_dir, record_result, tmp_path):
    corpus = tmp_path / "corpus.rpz"
    environment = tmp_path / "env.rpe"
    cache_dir = tmp_path / "cache"
    save_dataset(paper_synthetic.scans, corpus)
    save_environment(
        AnalysisEnvironment.of_world(paper_synthetic.world), environment
    )

    engine = QueryEngine.open(
        corpus, environment, cache_dir=str(cache_dir)
    )
    gc.collect()
    started = time.perf_counter()
    engine.warm()
    warm_seconds = time.perf_counter() - started

    loop = asyncio.new_event_loop()
    threading.Thread(target=loop.run_forever, daemon=True).start()
    server = QueryServer(engine)
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(timeout=60)

    sample = json.loads(engine.respond("/sample"))
    n_certs = len(engine.dataset.certificates)
    n_rows = engine.dataset.n_observations

    # --- point-lookup latency at low concurrency -----------------------------
    latency_paths = build_workload(sample, 4000, {"cert": 1}, seed=1)
    run_loadgen(server.url, paths=latency_paths[:512], concurrency=4)
    gc.collect()
    latency = run_loadgen(server.url, paths=latency_paths, concurrency=4)

    # --- mixed-traffic throughput at high concurrency ------------------------
    mixed_paths = build_workload(sample, 16000, None, seed=2)
    run_loadgen(server.url, paths=mixed_paths[:1024], concurrency=8)
    gc.collect()
    qps, thr_requests, thr_errors, thr_wall = _multi_client(
        server.url, mixed_paths, concurrency=32
    )

    asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=60)
    loop.call_soon_threadsafe(loop.stop)

    # --- heavy-query fan-out: 4 pool workers vs in-process -------------------
    # census_slice() below the response cache recomputes per call, so
    # every timed request is real work over the invalid population.
    heavy_rounds = 12
    engine.census_slice("invalid")  # prime kernel + DER memos
    gc.collect()
    started = time.perf_counter()
    for _ in range(heavy_rounds):
        engine.census_slice("invalid")
    single_qps = heavy_rounds / (time.perf_counter() - started)

    pooled = QueryEngine.open(
        corpus, environment, workers=4, cache_dir=str(cache_dir)
    )
    pooled.warm()
    with ThreadPoolExecutor(max_workers=4) as drivers:
        # Prime: spins up the pool and warms each worker's memos.
        list(drivers.map(
            lambda _: pooled.census_slice("invalid"), range(4)
        ))
        gc.collect()
        started = time.perf_counter()
        list(drivers.map(
            lambda _: pooled.census_slice("invalid"), range(heavy_rounds)
        ))
        multi_qps = heavy_rounds / (time.perf_counter() - started)
    pooled.close()
    pool_speedup = multi_qps / single_qps

    # --- gates, before anything is written -----------------------------------
    assert latency.errors == 0 and thr_errors == 0
    assert latency.p50_ms < GATE_P50_MS, latency
    assert latency.p99_ms < GATE_P99_MS, latency
    assert qps >= GATE_QPS, (qps, thr_requests, thr_wall)
    pool_gate = _pool_gate()
    if pool_gate is not None:
        assert pool_speedup >= pool_gate, (single_qps, multi_qps, pool_gate)

    lines = [
        f"corpus: {n_certs} certificates, {n_rows} observations; "
        f"warm-up {warm_seconds:.2f}s",
        "",
        f"{'measurement':<34} {'value':>12}",
        f"{'lookup p50 (conc 4)':<34} {latency.p50_ms:>10.3f}ms",
        f"{'lookup p99 (conc 4)':<34} {latency.p99_ms:>10.3f}ms",
        f"{'lookup max (conc 4)':<34} {latency.max_ms:>10.3f}ms",
        f"{'mixed qps (conc 32, 2 clients)':<34} {qps:>12,.0f}",
        f"{'heavy qps, 1 worker':<34} {single_qps:>12.2f}",
        f"{'heavy qps, 4 workers':<34} {multi_qps:>12.2f}",
        "",
        f"gates: p50 < {GATE_P50_MS:.0f}ms, p99 < {GATE_P99_MS:.0f}ms, "
        f"qps >= {GATE_QPS:,.0f}, pool >= "
        + (f"{pool_gate:.1f}x" if pool_gate is not None else "(ungated)")
        + f" on {os.cpu_count()} core(s) (measured {pool_speedup:.2f}x) — "
        "all passed",
    ]
    record_result("\n".join(lines), name="perf_serve")
    _update_bench_json(results_dir, {
        "serve": {
            "certificates": n_certs,
            "observations": n_rows,
            "warm_seconds": round(warm_seconds, 3),
            "lookup": {
                "concurrency": 4,
                "requests": latency.requests,
                "p50_ms": round(latency.p50_ms, 3),
                "p99_ms": round(latency.p99_ms, 3),
                "max_ms": round(latency.max_ms, 3),
            },
            "throughput": {
                "concurrency": 32,
                "clients": CLIENTS,
                "requests": thr_requests,
                "qps": round(qps, 1),
            },
            "fanout": {
                "heavy_query": "census_slice(invalid)",
                "single_worker_qps": round(single_qps, 2),
                "four_worker_qps": round(multi_qps, 2),
                "speedup": round(pool_speedup, 2),
                "gate": round(pool_gate, 2) if pool_gate is not None else None,
                "cores": os.cpu_count(),
            },
        },
    })
