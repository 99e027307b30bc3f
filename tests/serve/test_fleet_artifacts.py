"""Warm fleet set-up: ``repro split`` writes each shard's artifact bundle.

Split over a warm parent cache parses no certificate, and every shard
bundle it writes is byte-identical to the one the shard stores when it
boots cold over an empty cache — so a shard opened after the split loads
its kernels and verdicts and parses nothing either.  Two worlds carry
the comparison: the tiny synthetic world and a small one that collects
TLS handshakes.
"""

import filecmp
import shutil

import pytest

from repro.datasets.synthetic import generate
from repro.internet.population import WorldConfig
from repro.io import (
    AnalysisEnvironment,
    ArtifactCache,
    save_dataset,
    save_environment,
    split_corpus,
)
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve import QueryEngine

HANDSHAKE_WORLD = WorldConfig(
    seed=11, n_devices=40, n_websites=10, n_generic_access=10,
    n_enterprise=3, n_hosting=3, unused_roots=0,
)


@pytest.fixture(scope="module", params=["tiny", "handshakes"])
def world(request, tmp_path_factory):
    """(corpus, environment, warm parent cache) of one saved world."""
    if request.param == "tiny":
        synthetic = request.getfixturevalue("tiny_synthetic")
    else:
        synthetic = generate(
            HANDSHAKE_WORLD, scan_stride=8, collect_handshakes=True
        )
    directory = tmp_path_factory.mktemp(f"world-{request.param}")
    corpus = directory / "corpus.rpz"
    environment = directory / "env.rpe"
    save_dataset(synthetic.scans, corpus)
    save_environment(
        AnalysisEnvironment.of_world(synthetic.world), environment
    )
    cache = directory / "cache"
    QueryEngine.open(corpus, environment, cache_dir=str(cache)).warm().close()
    return corpus, environment, cache


def _counted(action):
    """Run ``action`` under a fresh registry; its counters."""
    registry = MetricsRegistry()
    with obs_runtime.activated(Tracer(), registry):
        action()
    return registry.counters


def _split(world, out, shards, with_cache=True):
    """Split ``world`` into ``out`` over a copy of its warm cache."""
    corpus, environment, parent_cache = world
    cache = out / "cache"
    shutil.copytree(parent_cache, cache)
    manifest = split_corpus(
        corpus, environment, out / "fleet", shards=shards,
        cache_dir=str(cache) if with_cache else None,
    )
    return manifest, cache


@pytest.mark.parametrize("shards", [2, 3])
def test_split_writes_the_bundle_a_cold_shard_stores(world, shards, tmp_path):
    environment = world[1]
    manifest, cache = _split(world, tmp_path, shards)
    for info in manifest.shard_infos:
        cold = tmp_path / f"cold-{info.index}"
        QueryEngine.open(
            info.path, environment, cache_dir=str(cold)
        ).warm().close()
        written = ArtifactCache(cache).path_for(info.digest)
        stored = ArtifactCache(cold).path_for(info.digest)
        assert filecmp.cmp(written, stored, shallow=False), info.index


def test_split_over_a_warm_parent_parses_no_certificate(world, tmp_path):
    counters = _counted(lambda: _split(world, tmp_path, 2))
    assert counters.get("io.der_parse_total", 0) == 0
    assert counters["artifacts.hit"] == 2


def test_a_shard_opened_after_the_split_boots_warm(world, tmp_path):
    environment = world[1]
    manifest, cache = _split(world, tmp_path, 2)
    for info in manifest.shard_infos:
        def boot():
            engine = QueryEngine.open(
                info.path, environment, cache_dir=str(cache)
            ).warm()
            engine.respond("/fleet/census")
            engine.close()

        counters = _counted(boot)
        assert counters["artifacts.hit"] == 2, info.index
        assert counters.get("artifacts.miss", 0) == 0, info.index
        assert counters.get("io.der_parse_total", 0) == 0, info.index


def test_a_cold_shard_stores_its_verdicts_for_the_next_boot(world, tmp_path):
    environment = world[1]
    manifest, cache = _split(world, tmp_path, 2, with_cache=False)
    # Without a cache the split writes shards, owners and manifest only.
    assert sorted(path.suffix for path in manifest.directory.iterdir()) == \
        [".json", ".rpo", ".rpz", ".rpz"]
    info = manifest.shard_infos[0]
    assert not ArtifactCache(cache).path_for(info.digest).exists()

    def boot():
        QueryEngine.open(
            info.path, environment, cache_dir=str(cache)
        ).warm().close()

    assert _counted(boot)["artifacts.miss"] == 2
    counters = _counted(boot)
    assert counters["artifacts.hit"] == 2
    assert counters.get("artifacts.miss", 0) == 0
