"""Shared serve fixtures: one saved corpus + environment, one warmed engine.

The engine under test is wired over the *saved* container (mapped
backend, artifact cache), while the parity oracle is an independent
:class:`~repro.study.Study` over a separately loaded dataset — the two
share no object state, so any agreement is earned.

Servers under test run on the ``loop`` fixture's event loop, on a
daemon thread; tests drive them over real sockets (:func:`http_get`)
and start or stop them with :func:`run_on`.
"""

import asyncio
import threading
import urllib.error
import urllib.request

import pytest

from repro.io import (
    AnalysisEnvironment,
    load_dataset,
    save_dataset,
    save_environment,
    split_corpus,
)
from repro.serve import QueryEngine
from repro.study import Study

#: Shards in the test fleet.
SHARDS = 2


@pytest.fixture(scope="session")
def serve_paths(tmp_path_factory, tiny_synthetic):
    directory = tmp_path_factory.mktemp("serve")
    corpus = directory / "corpus.rpz"
    environment = directory / "env.rpe"
    save_dataset(tiny_synthetic.scans, corpus)
    save_environment(
        AnalysisEnvironment.of_world(tiny_synthetic.world), environment
    )
    return {
        "corpus": corpus,
        "environment": environment,
        "cache": directory / "cache",
    }


@pytest.fixture(scope="session")
def engine(serve_paths):
    engine = QueryEngine.open(
        serve_paths["corpus"], serve_paths["environment"],
        cache_dir=str(serve_paths["cache"]),
    )
    engine.warm()
    yield engine
    engine.close()


@pytest.fixture(scope="session")
def oracle(serve_paths, tiny_synthetic):
    """An independent Study over the same saved corpus."""
    world = tiny_synthetic.world
    return Study(
        dataset=load_dataset(serve_paths["corpus"]),
        trust_store=world.trust_store,
        as_of=world.routing.origin_as,
        registry=world.registry,
    )


@pytest.fixture(scope="session")
def fleet(serve_paths, tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet")
    return split_corpus(
        serve_paths["corpus"], serve_paths["environment"], out,
        shards=SHARDS, cache_dir=str(serve_paths["cache"]),
    )


@pytest.fixture(scope="module")
def loop():
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    yield loop
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=5)
    loop.close()


def run_on(loop, coro):
    """Run ``coro`` on ``loop`` from the test thread; its result."""
    return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout=60)


def http_get(url, path):
    """One GET: ``(status, body)``, for error statuses too."""
    try:
        with urllib.request.urlopen(url + path, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()
