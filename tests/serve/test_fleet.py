"""The sharded fleet: split determinism, standalone shards, byte parity.

The contract under test is the strongest one the router makes: every
public endpoint answered through the K-shard fleet is **byte-identical**
to the single server over the whole corpus — including 4xx bodies.
"""

import asyncio
import json
import shutil
import socket
import time

import pytest

import repro.serve.router as router_module
from repro.cli import main
from repro.io import (
    FleetOwners,
    load_dataset,
    load_fleet_manifest,
    split_corpus,
    verify_fleet,
)
from repro.io.backends import MappedBackend
from repro.obs.httpcore import HTTPServer, json_error
from repro.obs.live import LiveServer, render_top
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve import FleetRouter, QueryEngine, QueryServer

from .conftest import SHARDS, http_get as _get, run_on as _start


async def _pending_hops():
    """The router's upstream hops still running on the loop."""
    return [
        task for task in asyncio.all_tasks()
        if task.get_coro().__qualname__ == "FleetRouter._shard_get"
    ]


@pytest.fixture(scope="module")
def single_server(engine, loop):
    server = QueryServer(engine)
    _start(loop, server.start())
    yield server
    _start(loop, server.stop())


@pytest.fixture(scope="module")
def shard_servers(fleet, serve_paths, loop):
    servers = []
    for info in fleet.shard_infos:
        shard_engine = QueryEngine.open(
            info.path, serve_paths["environment"],
            cache_dir=str(serve_paths["cache"]),
        )
        shard_engine.warm()
        live = LiveServer(
            Tracer(process=f"shard{info.index}"), MetricsRegistry()
        )
        server = QueryServer(shard_engine, live=live)
        _start(loop, server.start())
        servers.append(server)
    yield servers
    for server in servers:
        _start(loop, server.stop())


@pytest.fixture(scope="module")
def router(fleet, shard_servers, loop):
    router = FleetRouter.open(
        fleet.directory, [server.url for server in shard_servers]
    )
    _start(loop, router.start())
    yield router
    _start(loop, router.stop())


@pytest.fixture(scope="module")
def fingerprint_of_shard(fleet, serve_paths):
    """Shard index -> the smallest fingerprint that shard owns."""
    owners = FleetOwners(fleet.owners_path)
    try:
        by_owner = {}
        for fingerprint in sorted(
            load_dataset(serve_paths["corpus"]).certificates
        ):
            by_owner.setdefault(owners.owner_of_cert(fingerprint), fingerprint)
    finally:
        owners.close()
    return by_owner


class TestSplit:
    def test_split_is_deterministic(self, fleet, serve_paths,
                                    tmp_path_factory):
        again = split_corpus(
            serve_paths["corpus"], serve_paths["environment"],
            tmp_path_factory.mktemp("fleet-again"),
            shards=SHARDS, cache_dir=str(serve_paths["cache"]),
        )
        assert [info.digest for info in again.shard_infos] == \
            [info.digest for info in fleet.shard_infos]
        assert again.parent_digest == fleet.parent_digest
        assert again.link_plan == fleet.link_plan

    def test_shards_are_standalone_mapped_corpora(self, fleet, serve_paths):
        parent = load_dataset(serve_paths["corpus"])
        seen = set()
        observations = 0
        for info in fleet.shard_infos:
            dataset = load_dataset(info.path)
            assert isinstance(dataset.backend, MappedBackend)
            shard_fps = set(dataset.certificates)
            assert not (shard_fps & seen)  # disjoint partition
            seen |= shard_fps
            assert len(dataset.scans) == len(parent.scans)
            observations += dataset.n_observations
        assert seen == set(parent.certificates)
        assert observations == parent.n_observations

    def test_owners_sidecar_routes_to_the_holding_shard(self, fleet,
                                                        serve_paths):
        owners = FleetOwners(fleet.owners_path)
        try:
            members = [
                set(load_dataset(info.path).certificates)
                for info in fleet.shard_infos
            ]
            for fingerprint in load_dataset(serve_paths["corpus"]).certificates:
                shard = owners.owner_of_cert(fingerprint)
                assert fingerprint in members[shard]
        finally:
            owners.close()

    def test_manifest_round_trips(self, fleet):
        manifest = load_fleet_manifest(fleet.directory)
        assert manifest.shards == SHARDS
        assert manifest.parent_digest == fleet.parent_digest
        verify_fleet(manifest)


class TestRouterParity:
    def test_every_endpoint_matches_the_single_server_bytes(
        self, router, single_server, engine
    ):
        sample = json.loads(engine.respond("/sample"))
        paths = ["/census", "/census/valid", "/census/invalid", "/sample"]
        paths += [f"/cert/{fp}" for fp in sample["fingerprints"][:20]]
        paths += [f"/key/{key}/group" for key in sample["keys"][:20]]
        paths += [f"/track/{ip}" for ip in sample["ips"][:20]]
        paths += [
            f"/as/{asn}/reassignment" for asn in sample["asns"][:10]
        ]
        # Error paths must match byte-for-byte too.
        paths += [
            "/cert/nothex",
            "/cert/" + "00" * 32,
            "/key/feedbeef/group",
            "/track/not-an-ip",
            "/as/notanas/reassignment",
            "/as/64999/reassignment",
            "/certainly/not/served",
        ]
        for path in paths:
            single = _get(single_server.url, path)
            fleet = _get(router.url, path)
            assert fleet == single, path

    def test_healthz_reports_every_shard(self, router):
        status, body = _get(router.url, "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert [entry["ok"] for entry in payload["shards"]] == \
            [True] * SHARDS

    def test_metrics_exports_upstream_histograms(self, router):
        _get(router.url, "/census")
        status, body = _get(router.url, "/metrics")
        assert status == 200
        text = body.decode()
        assert "repro_router_requests_total" in text
        for shard in range(SHARDS):
            assert f"repro_latency_router_upstream_shard{shard}" in text

    def test_vars_feeds_repro_top(self, router):
        _get(router.url, "/census")
        status, body = _get(router.url, "/vars")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["counters"]["router.requests"] >= 1
        assert snapshot["health"]["role"] == "fleet-router"
        frame = render_top(snapshot)
        assert "repro top — fleet-router" in frame
        assert "router.requests" in frame
        assert "router.upstream.shard0" in frame


class TestRouterFailureModes:
    @pytest.fixture()
    def degraded_router(self, fleet, shard_servers, loop):
        """Shard 0 live, shard 1 pointing at a port nobody listens on."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead = f"http://127.0.0.1:{probe.getsockname()[1]}"
        router = FleetRouter.open(
            fleet.directory, [shard_servers[0].url, dead]
        )
        _start(loop, router.start())
        yield router
        _start(loop, router.stop())

    def test_dead_shard_degrades_health(self, degraded_router):
        status, body = _get(degraded_router.url, "/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert payload["shards"][1]["ok"] is False

    def test_live_shard_lookups_keep_answering(
        self, degraded_router, fingerprint_of_shard, engine
    ):
        live_fp, dead_fp = fingerprint_of_shard[0], fingerprint_of_shard[1]
        status, body = _get(degraded_router.url, f"/cert/{live_fp.hex()}")
        assert status == 200
        assert body == engine.respond(f"/cert/{live_fp.hex()}")
        status, body = _get(degraded_router.url, f"/cert/{dead_fp.hex()}")
        assert status == 502
        assert "unavailable" in json.loads(body)["error"]

    def test_scatter_endpoints_fail_loud_not_wrong(self, degraded_router):
        # A census over half the corpus would be silently wrong; the
        # router must refuse rather than merge a partial fleet.
        status, body = _get(degraded_router.url, "/census")
        assert status == 502
        assert "error" in json.loads(body)

    def test_failed_scatter_cancels_its_other_hops(self, fleet, loop):
        """A 502 leaves no hop behind to pool its connection later."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead = f"http://127.0.0.1:{probe.getsockname()[1]}"
        with socket.socket() as hung:
            hung.bind(("127.0.0.1", 0))
            hung.listen(64)
            router = FleetRouter.open(
                fleet.directory,
                [dead, f"http://127.0.0.1:{hung.getsockname()[1]}"],
            )
            _start(loop, router.start())
            try:
                status, body = _get(router.url, "/census")
                pending = _start(loop, _pending_hops())
            finally:
                _start(loop, router.stop())
        assert status == 502
        assert json.loads(body)["error"] == "shard 0 unavailable"
        assert pending == []

    @pytest.fixture()
    def hung_router(self, fleet, shard_servers, loop, monkeypatch):
        """Shard 0 live, shard 1 a listener that accepts and never answers."""
        monkeypatch.setattr(router_module, "UPSTREAM_TIMEOUT_S", 0.3)
        with socket.socket() as hung:
            hung.bind(("127.0.0.1", 0))
            hung.listen(64)
            router = FleetRouter.open(
                fleet.directory,
                [shard_servers[0].url,
                 f"http://127.0.0.1:{hung.getsockname()[1]}"],
            )
            _start(loop, router.start())
            yield router
            _start(loop, router.stop())

    def test_hung_shard_times_out_504(
        self, hung_router, fingerprint_of_shard, engine
    ):
        live_fp, hung_fp = fingerprint_of_shard[0], fingerprint_of_shard[1]
        status, body = _get(hung_router.url, f"/cert/{hung_fp.hex()}")
        assert status == 504
        assert json.loads(body)["error"] == "shard 1 timed out after 0.3s"
        assert hung_router.registry.counters["router.upstream_errors"] == 1
        # A scatter over the hung shard times out too; live lookups answer.
        assert _get(hung_router.url, "/census")[0] == 504
        path = f"/cert/{live_fp.hex()}"
        assert _get(hung_router.url, path) == (200, engine.respond(path))

    def test_hung_shard_degrades_health(self, hung_router):
        status, body = _get(hung_router.url, "/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert [entry["ok"] for entry in payload["shards"]] == [True, False]

    def test_timed_out_connection_is_never_reused(
        self, fleet, fingerprint_of_shard, loop, monkeypatch
    ):
        """A reply that lands after the deadline answers no later request."""
        monkeypatch.setattr(router_module, "UPSTREAM_TIMEOUT_S", 0.2)
        replies = iter([b"late", b"fresh"])

        async def shard_route(method, target):
            body = next(replies)
            if body == b"late":
                await asyncio.sleep(0.6)
            return 200, body, "application/json"

        shard = HTTPServer(shard_route)
        _start(loop, shard.start())
        router = FleetRouter.open(fleet.directory, [shard.url] * SHARDS)
        _start(loop, router.start())
        path = f"/cert/{fingerprint_of_shard[0].hex()}"
        try:
            first = _get(router.url, path)
            time.sleep(0.6)  # the late reply is written meanwhile
            second = _get(router.url, path)
        finally:
            _start(loop, router.stop())
            _start(loop, shard.stop())
        assert first[0] == 504
        assert second == (200, b"fresh")

    def test_point_answers_are_kept_and_errors_are_not(
        self, fleet, fingerprint_of_shard, loop
    ):
        """A repeated 200 takes one upstream hop; a 404 takes one each time."""
        found = f"/cert/{fingerprint_of_shard[0].hex()}"
        missing = "/cert/" + "00" * 32
        hops = []

        async def shard_route(method, target):
            hops.append(target)
            if target == found:
                return 200, b"kept", "application/json"
            return json_error(404, "unknown certificate")

        shard = HTTPServer(shard_route)
        _start(loop, shard.start())
        router = FleetRouter.open(fleet.directory, [shard.url] * SHARDS)
        _start(loop, router.start())
        try:
            answers = [_get(router.url, found) for _ in range(2)]
            misses = [_get(router.url, missing) for _ in range(2)]
        finally:
            _start(loop, router.stop())
            _start(loop, shard.stop())
        assert answers == [(200, b"kept")] * 2
        assert [status for status, _ in misses] == [404, 404]
        assert hops == [found, missing, missing]

    def test_digest_mismatch_is_rejected_at_boot(
        self, fleet, shard_servers, tmp_path
    ):
        clone = tmp_path / "tampered"
        shutil.copytree(fleet.directory, clone)
        victim = clone / fleet.shard_infos[0].path.name
        blob = bytearray(victim.read_bytes())
        blob[100] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="digest mismatch"):
            FleetRouter.open(
                clone, [server.url for server in shard_servers]
            )


class TestBootFleet:
    def test_a_shard_that_dies_before_serving_fails_the_boot(
        self, fleet, serve_paths, tmp_path
    ):
        """The boot names the dead shard at once; it does not wait out
        its timeout while the other shard serves."""
        clone = tmp_path / "fleet"
        shutil.copytree(fleet.directory, clone)
        victim = clone / fleet.shard_infos[1].path.name
        victim.write_bytes(victim.read_bytes()[:victim.stat().st_size // 2])
        with pytest.raises(
            RuntimeError,
            match=r"^fleet shard 1 \(shard-01\.rpz\) exited with code 1 ",
        ):
            router_module.boot_fleet(
                load_fleet_manifest(clone), serve_paths["environment"],
                timeout=300,
            )


class TestFleetCommand:
    def test_router_publishes_resource_gauges(
        self, fleet, serve_paths, shard_servers, monkeypatch
    ):
        """``repro fleet`` samples the router's process like ``repro serve``."""
        routers = []

        class Recorded(FleetRouter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                routers.append(self)

        urls = [server.url for server in shard_servers]
        monkeypatch.setattr(router_module, "FleetRouter", Recorded)
        monkeypatch.setattr(
            router_module, "boot_fleet", lambda *args, **kwargs: ([], urls)
        )
        code = main([
            "fleet", str(serve_paths["corpus"]),
            "--environment", str(serve_paths["environment"]),
            "--fleet-dir", str(fleet.directory), "--shards", str(SHARDS),
            "--max-seconds", "0.1",
        ])
        assert code == 0
        assert len(routers) == 1
        assert routers[0].registry.gauges["process.rss_bytes"] > 0
