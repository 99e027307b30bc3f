"""The sharded serve fleet at paper scale: parity first, then throughput.

The PR 10 acceptance bench: ``repro split`` partitions the paper-scale
corpus into a K=4 fleet, each shard boots as a real ``repro serve``
process, and the :class:`FleetRouter` front tier must (a) answer every
sampled endpoint — point lookups, scatter-gather merges, and error
paths — **byte-identically** to a single server over the whole corpus,
and (b) sustain mixed-traffic throughput at >= 1.5x the single server
on a 4-core machine (the gate scales with the measured core count; on
one core the speedup is recorded but not gated, because four shard
processes cannot out-run one server without parallelism to spend).

The parity gate is the load-bearing one: a fleet that is fast but
drifts from the single-server answer is silently wrong, so parity is
asserted before any throughput number is even measured, and every gate
is asserted before the result file is written.  Writes the ``fleet``
section of ``results/BENCH_perf.json`` and ``results/perf_fleet.txt``.
"""

import asyncio
import gc
import json
import os
import threading
import time
import urllib.error
import urllib.request

from bench_perf_serve import CLIENTS, _multi_client
from bench_perf_substrates import _update_bench_json
from repro.io import (
    AnalysisEnvironment,
    save_dataset,
    save_environment,
    split_corpus,
    verify_fleet,
)
from repro.serve import (
    FleetRouter,
    QueryEngine,
    QueryServer,
    boot_fleet,
    shutdown_fleet,
)
from repro.serve.loadgen import build_workload

SHARDS = 4
GATE_FLEET_SPEEDUP = 1.5


def _fleet_gate() -> float | None:
    """The fleet throughput gate, scaled to real parallelism.

    Four shard processes plus a router can only beat one server when
    there are cores to run them on: >= 4 cores takes the full 1.5x
    gate; 2-3 cores degrade proportionally down to 1.0x (the fleet
    must at least not lose once routing overhead is paid); a single
    core records the speedup without gating it.
    """
    cpus = os.cpu_count() or 1
    if cpus < 2:
        return None
    return min(GATE_FLEET_SPEEDUP, max(1.0, cpus / 2.67))


def _get(url, path):
    try:
        with urllib.request.urlopen(url + path, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _parity_paths(sample):
    paths = ["/census", "/census/valid", "/census/invalid", "/sample"]
    paths += [f"/cert/{fp}" for fp in sample["fingerprints"][:40]]
    paths += [f"/key/{key}/group" for key in sample["keys"][:40]]
    paths += [f"/track/{ip}" for ip in sample["ips"][:40]]
    paths += [f"/as/{asn}/reassignment" for asn in sample["asns"][:10]]
    paths += [
        "/cert/nothex",
        "/cert/" + "00" * 32,
        "/key/feedbeef/group",
        "/track/not-an-ip",
        "/as/notanas/reassignment",
        "/certainly/not/served",
    ]
    return paths


def test_perf_fleet(paper_synthetic, results_dir, record_result, tmp_path):
    corpus = tmp_path / "corpus.rpz"
    environment = tmp_path / "env.rpe"
    cache_dir = tmp_path / "cache"
    fleet_dir = tmp_path / "fleet"
    save_dataset(paper_synthetic.scans, corpus)
    save_environment(
        AnalysisEnvironment.of_world(paper_synthetic.world), environment
    )

    # --- split: O(bytes) shard emission off one warmed analysis --------------
    gc.collect()
    started = time.perf_counter()
    manifest = split_corpus(
        corpus, environment, fleet_dir,
        shards=SHARDS, cache_dir=str(cache_dir),
    )
    split_seconds = time.perf_counter() - started
    verify_fleet(manifest)

    # --- single-server baseline over the whole corpus ------------------------
    engine = QueryEngine.open(corpus, environment, cache_dir=str(cache_dir))
    engine.warm()
    n_certs = len(engine.dataset.certificates)
    n_rows = engine.dataset.n_observations

    loop = asyncio.new_event_loop()
    threading.Thread(target=loop.run_forever, daemon=True).start()
    single = QueryServer(engine)
    asyncio.run_coroutine_threadsafe(single.start(), loop).result(timeout=60)

    # --- the fleet: one serve process per shard, router in front -------------
    started = time.perf_counter()
    processes, shard_urls = boot_fleet(
        manifest, environment, cache_dir=str(cache_dir)
    )
    router = FleetRouter.open(fleet_dir, shard_urls)
    asyncio.run_coroutine_threadsafe(router.start(), loop).result(timeout=60)
    boot_seconds = time.perf_counter() - started

    try:
        status, body = _get(router.url, "/healthz")
        assert status == 200, body

        # --- parity gate: byte-identical answers, errors included ------------
        sample = json.loads(engine.respond("/sample"))
        paths = _parity_paths(sample)
        mismatches = [
            path for path in paths
            if _get(router.url, path) != _get(single.url, path)
        ]
        assert not mismatches, mismatches

        # --- mixed-traffic throughput: fleet vs single server ----------------
        mixed = build_workload(sample, 16000, None, seed=3)
        _multi_client(single.url, mixed[:1024], concurrency=8)
        gc.collect()
        single_qps, _, single_errors, _ = _multi_client(
            single.url, mixed, concurrency=32
        )
        _multi_client(router.url, mixed[:1024], concurrency=8)
        gc.collect()
        fleet_qps, fleet_requests, fleet_errors, _ = _multi_client(
            router.url, mixed, concurrency=32
        )
        speedup = fleet_qps / single_qps

        # --- gates, before anything is written --------------------------------
        assert single_errors == 0 and fleet_errors == 0
        gate = _fleet_gate()
        if gate is not None:
            assert speedup >= gate, (single_qps, fleet_qps, gate)
    finally:
        asyncio.run_coroutine_threadsafe(router.stop(), loop).result(
            timeout=60
        )
        asyncio.run_coroutine_threadsafe(single.stop(), loop).result(
            timeout=60
        )
        loop.call_soon_threadsafe(loop.stop)
        shutdown_fleet(processes)
        engine.close()

    shard_certs = [info.n_certificates for info in manifest.shard_infos]
    lines = [
        f"corpus: {n_certs} certificates, {n_rows} observations; "
        f"split into {SHARDS} shards in {split_seconds:.2f}s "
        f"({'/'.join(str(n) for n in shard_certs)} certs), "
        f"fleet boot {boot_seconds:.2f}s",
        "",
        f"{'measurement':<34} {'value':>12}",
        f"{'parity paths checked':<34} {len(paths):>12}",
        f"{'mixed qps, single server':<34} {single_qps:>12,.0f}",
        f"{'mixed qps, {}-shard fleet'.format(SHARDS):<34} "
        f"{fleet_qps:>12,.0f}",
        "",
        f"gates: parity 0 mismatches, fleet >= "
        + (f"{gate:.2f}x" if gate is not None else "(ungated)")
        + f" on {os.cpu_count()} core(s) (measured {speedup:.2f}x) — "
        "all passed",
    ]
    record_result("\n".join(lines), name="perf_fleet")
    _update_bench_json(results_dir, {
        "fleet": {
            "shards": SHARDS,
            "certificates": n_certs,
            "observations": n_rows,
            "shard_certificates": shard_certs,
            "split_seconds": round(split_seconds, 3),
            "boot_seconds": round(boot_seconds, 3),
            "parity": {
                "paths": len(paths),
                "mismatches": 0,
            },
            "throughput": {
                "concurrency": 32,
                "clients": CLIENTS,
                "requests": fleet_requests,
                "single_qps": round(single_qps, 1),
                "fleet_qps": round(fleet_qps, 1),
                "speedup": round(speedup, 2),
                "gate": round(gate, 2) if gate is not None else None,
                "cores": os.cpu_count(),
            },
        },
    })
