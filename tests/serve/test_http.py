"""End-to-end tests for the asyncio query plane and the load generator."""

import asyncio
import contextlib
import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.live import LiveServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve import QueryEngine, QueryServer, run_loadgen
from repro.serve.loadgen import DEFAULT_MIX, LoadgenReport, build_workload

from .conftest import http_get, run_on


def _get(server, path):
    return http_get(server.url, path)


class _CountingExecutor(ThreadPoolExecutor):
    """A default executor that counts the calls handed to it."""

    def __init__(self) -> None:
        super().__init__(max_workers=4)
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1  # run_in_executor submits from the loop thread
        return super().submit(fn, *args, **kwargs)


@pytest.fixture(scope="module")
def executor(loop):
    """The servers' loop's default executor, installed before any use."""
    counting = _CountingExecutor()

    async def install():
        asyncio.get_running_loop().set_default_executor(counting)

    run_on(loop, install())
    return counting


@pytest.fixture(scope="module")
def server(engine, loop, executor):
    live = LiveServer(
        Tracer(process="serve-test"),
        MetricsRegistry(),
        health={"corpus": "tiny"},
    )
    server = QueryServer(engine, live=live)
    run_on(loop, server.start())
    yield server
    run_on(loop, server.stop())


class TestTransportParity:
    def test_every_endpoint_matches_the_engine(self, server, engine):
        sample = json.loads(engine.respond("/sample"))
        paths = ["/census", "/census/valid", "/census/invalid", "/sample"]
        paths += [f"/cert/{fp}" for fp in sample["fingerprints"][:5]]
        paths += [f"/key/{key}/group" for key in sample["keys"][:5]]
        paths += [f"/track/{ip}" for ip in sample["ips"][:5]]
        paths += [f"/as/{asn}/reassignment" for asn in sample["asns"][:5]]
        for path in paths:
            status, body = _get(server, path)
            assert status == 200, path
            assert body == engine.respond(path), path

    def test_unknown_path_is_json_404(self, server):
        status, body = _get(server, "/certainly/not/served")
        assert status == 404
        assert "error" in json.loads(body)

    def test_malformed_fingerprint_is_json_400(self, server):
        status, body = _get(server, "/cert/nothex")
        assert status == 400
        assert "error" in json.loads(body)

    def test_non_get_is_405(self, server):
        request = urllib.request.Request(
            server.url + "/census", data=b"{}", method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                status = response.status
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 405


class TestObservabilityPlane:
    def test_metrics_exports_serve_counters(self, server):
        _get(server, "/census")
        _get(server, "/metrics")  # seed the metrics endpoint's own family
        status, body = _get(server, "/metrics")
        assert status == 200
        text = body.decode()
        assert "repro_serve_requests_total" in text
        # Latency splits into one histogram family per endpoint.
        assert "repro_latency_serve_census_bucket" in text
        assert "repro_latency_serve_metrics_bucket" in text

    def test_healthz_carries_owner_health(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["corpus"] == "tiny"
        assert payload["uptime_seconds"] > 0

    def test_concurrent_scrapes_under_load(self, server, engine):
        """/metrics stays coherent while the query plane is saturated."""
        sample = json.loads(engine.respond("/sample"))
        paths = build_workload(sample, 300, DEFAULT_MIX, seed=7)
        scrapes = []

        def scrape():
            for _ in range(10):
                status, body = _get(server, "/metrics")
                scrapes.append((status, body))

        scrapers = [threading.Thread(target=scrape) for _ in range(3)]
        for thread in scrapers:
            thread.start()
        report = run_loadgen(server.url, concurrency=8, paths=paths)
        for thread in scrapers:
            thread.join(timeout=30)
        assert report.errors == 0
        assert len(scrapes) == 30
        for status, body in scrapes:
            assert status == 200
            assert b"repro_serve_requests_total" in body


class TestLoadgen:
    def test_build_workload_is_seeded_and_mixed(self, engine):
        sample = json.loads(engine.respond("/sample"))
        first = build_workload(sample, 100, seed=11)
        assert first == build_workload(sample, 100, seed=11)
        assert first != build_workload(sample, 100, seed=12)
        assert len(first) == 100
        kinds = {path.split("/")[1] for path in first}
        assert {"cert", "track", "key", "census"} <= kinds

    def test_empty_mix_is_rejected(self, engine):
        sample = json.loads(engine.respond("/sample"))
        with pytest.raises(ValueError):
            build_workload(sample, 10, {"cert": 0})

    def test_end_to_end_run_is_clean(self, server):
        report = run_loadgen(server.url, requests=200, concurrency=8)
        assert isinstance(report, LoadgenReport)
        assert report.requests == 200
        assert report.errors == 0
        assert report.by_status == {200: 200}
        assert 0.0 < report.p50_ms <= report.p99_ms <= report.max_ms
        assert report.qps > 0
        assert "qps" in report.render()

    def test_report_breaks_latency_down_by_endpoint(self, server):
        report = run_loadgen(server.url, requests=200, concurrency=8)
        assert report.by_endpoint
        assert sum(
            row["requests"] for row in report.by_endpoint.values()
        ) == report.requests
        for endpoint, row in report.by_endpoint.items():
            assert endpoint in {"cert", "key", "track", "census", "as"}
            assert 0.0 < row["p50_ms"] <= row["p99_ms"]


def _open(serve_paths, workers=1):
    return QueryEngine.open(
        serve_paths["corpus"], serve_paths["environment"],
        cache_dir=str(serve_paths["cache"]), workers=workers,
    )


@contextlib.contextmanager
def _serving(loop, engine):
    """``engine`` behind a server on ``loop``; stopping closes the engine."""
    server = QueryServer(engine)
    run_on(loop, server.start())
    try:
        yield server
    finally:
        run_on(loop, server.stop())


class TestDispatch:
    """Which response-LRU misses run on the loop, which in the executor."""

    @pytest.fixture(scope="class")
    def warm(self, serve_paths, loop, executor):
        with _serving(loop, _open(serve_paths).warm()) as server:
            yield server

    @pytest.fixture(scope="class")
    def sample(self, engine):
        return json.loads(engine.respond("/sample"))

    @staticmethod
    def _miss(executor, server, path):
        """``(executor submissions, (status, body))`` of one GET of a miss."""
        assert server.engine.cached(path) is None, path
        before = executor.submitted
        answer = _get(server, path)
        return executor.submitted - before, answer

    def test_point_lookup_misses_skip_the_executor(
        self, warm, executor, engine, sample
    ):
        paths = [f"/cert/{fp}" for fp in sample["fingerprints"][:3]]
        paths += [f"/track/{ip}" for ip in sample["ips"][:3]]
        paths += [f"/key/{key}/group" for key in sample["keys"][:3]]
        paths += [f"/as/{asn}/reassignment" for asn in sample["asns"][:2]]
        paths += [f"/fleet/as/{asn}" for asn in sample["asns"][:2]]
        for path in paths:
            answer = (200, engine.respond(path))
            assert self._miss(executor, warm, path) == (0, answer), path
        unknown = "/cert/" + "00" * 32
        submitted, (status, _) = self._miss(executor, warm, unknown)
        assert (submitted, status) == (0, 404)

    def test_population_queries_use_the_executor(
        self, warm, executor, engine
    ):
        for path in ("/census", "/sample"):
            answer = (200, engine.respond(path))
            assert self._miss(executor, warm, path) == (1, answer), path

    def test_pool_served_lookups_use_the_executor(
        self, serve_paths, loop, executor, engine, sample
    ):
        with _serving(loop, _open(serve_paths, workers=2).warm()) as pooled:
            key = f"/key/{sample['keys'][0]}/group"
            cert = f"/cert/{sample['fingerprints'][0]}"
            assert self._miss(executor, pooled, key) == \
                (1, (200, engine.respond(key)))
            assert self._miss(executor, pooled, cert) == \
                (0, (200, engine.respond(cert)))

    def test_unwarmed_engine_uses_the_executor(
        self, serve_paths, loop, executor, engine, sample
    ):
        first, second = (f"/track/{ip}" for ip in sample["ips"][:2])
        with _serving(loop, _open(serve_paths)) as cold:
            assert self._miss(executor, cold, first) == \
                (1, (200, engine.respond(first)))
            # Answering /track warmed the engine: now it stays on the loop.
            assert self._miss(executor, cold, second) == \
                (0, (200, engine.respond(second)))

    def test_lookups_answer_while_a_census_is_held(
        self, warm, engine, sample, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()
        census_slice = warm.engine.census_slice

        def held(population):
            entered.set()
            release.wait(timeout=60)
            return census_slice(population)

        monkeypatch.setattr(warm.engine, "census_slice", held)
        held_answers = []
        census = threading.Thread(
            target=lambda: held_answers.append(_get(warm, "/census/valid"))
        )
        census.start()
        try:
            assert entered.wait(timeout=30)
            path = f"/cert/{sample['fingerprints'][-1]}"
            assert _get(warm, path) == (200, engine.respond(path))
        finally:
            release.set()
            census.join(timeout=30)
        assert not census.is_alive()
        assert held_answers == [(200, engine.respond("/census/valid"))]
