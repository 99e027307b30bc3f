"""Warm fleet set-up: ``repro split`` writes each shard's artifact files.

Split over a warm parent cache parses no certificate and runs no Table 6,
and every shard section file it writes is byte-identical to the one the
shard stores when it boots cold over an empty cache — so a shard opened after
the split loads its kernels, verdicts and tracking state and parses
nothing either.  Two worlds carry the comparison: the tiny synthetic
world and a small one that collects TLS handshakes.
"""

import filecmp
import json
import shutil

import pytest

from repro.datasets.synthetic import generate
from repro.internet.population import WorldConfig
from repro.io import (
    AnalysisEnvironment,
    ArtifactCache,
    load_dataset,
    load_environment,
    read_shard_fleet,
    save_dataset,
    save_environment,
    split_corpus,
)
from repro.io.artifacts import SECTIONS
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve import QueryEngine
from repro.serve.engine import _format_ip
from repro.x509.certificate import Certificate

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
        for section in SECTIONS:
            written = ArtifactCache(cache).path_for(info.digest, section)
            stored = ArtifactCache(cold).path_for(info.digest, section)
            assert filecmp.cmp(written, stored, shallow=False), \
                (info.index, section)


def test_split_over_a_warm_parent_parses_no_certificate(world, tmp_path):
    counters = _counted(lambda: _split(world, tmp_path, 2))
    assert counters.get("io.der_parse_total", 0) == 0
    # The parent's kernels, verdicts and tracking state: no Table 6.
    assert counters["artifacts.hit"] == 3
    assert counters.get("pipeline.features_evaluated", 0) == 0


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
        assert counters["artifacts.hit"] == 3, info.index
        assert counters.get("artifacts.miss", 0) == 0, info.index
        assert counters.get("io.der_parse_total", 0) == 0, info.index


def test_a_cold_shard_stores_its_verdicts_for_the_next_boot(world, tmp_path):
    environment = world[1]
    manifest, cache = _split(world, tmp_path, 2, with_cache=False)
    # Without a cache the split writes shards, owners and manifest only.
    assert sorted(path.suffix for path in manifest.directory.iterdir()) == \
        [".json", ".rpo", ".rpz", ".rpz"]
    info = manifest.shard_infos[0]
    assert not list(cache.glob(f"{info.digest}.*"))

    def boot():
        QueryEngine.open(
            info.path, environment, cache_dir=str(cache)
        ).warm().close()

    assert _counted(boot)["artifacts.miss"] == 3
    counters = _counted(boot)
    assert counters["artifacts.hit"] == 3
    assert counters.get("artifacts.miss", 0) == 0


def test_a_warm_shard_boot_parses_no_ca(world, tmp_path, monkeypatch):
    """The shard's off-shard CAs and its verdicts' stored extras are
    keyed and checked by hashing their DER: opening the shard and
    loading its bundle parse none of them."""
    trust_store = load_environment(world[1]).trust_store
    manifest, cache = _split(world, tmp_path, 2)
    parses = []
    original = Certificate.from_der.__func__

    def counting(cls, der):
        parses.append(der)
        return original(cls, der)

    for info in manifest.shard_infos:
        dataset = load_dataset(info.path)
        monkeypatch.setattr(Certificate, "from_der", classmethod(counting))
        fleet, extras = read_shard_fleet(info.path)
        loaded = ArtifactCache(cache).load(
            dataset, trust_store=trust_store,
            extra_fingerprints=extras.fingerprints,
        )
        monkeypatch.undo()
        assert fleet is not None and len(extras.fingerprints) == len(extras)
        assert loaded.kernels and loaded.validation is not None
        assert parses == [], info.index
        # Hashing the DER names the same certificates parsing it does.
        assert list(extras.fingerprints) == [ca.fingerprint for ca in extras]


def test_loaded_state_answers_like_a_computed_one(world, tmp_path):
    """Every endpoint answers the same bytes whether the tracking state
    was loaded from a bundle or computed: the whole corpus, and each
    shard of a split over the split-written bundles."""
    corpus, environment, parent_cache = world

    def paths_of(engine):
        seeds = json.loads(engine.respond("/fleet/seeds"))
        sample = json.loads(engine.respond("/sample"))
        return (
            ["/census", "/sample", "/fleet/census", "/fleet/seeds"]
            + [f"/key/{key}/group" for key in seeds["keys"]]
            + [f"/track/{_format_ip(ip)}" for ip in seeds["ips"]]
            + [f"/fleet/as/{asn}" for asn in seeds["as_devices"]]
            + [f"/as/{asn}/reassignment" for asn in sample["asns"]]
        )

    def assert_same_answers(path, cache_dir):
        loaded = QueryEngine.open(path, environment, cache_dir=cache_dir)
        counters = _counted(loaded.warm)
        assert counters["artifacts.hit"] == 3
        computed = QueryEngine.open(path, environment).warm()
        for query in paths_of(computed):
            assert loaded.respond(query) == computed.respond(query), query
        loaded.close()
        computed.close()

    assert_same_answers(corpus, str(parent_cache))
    manifest, cache = _split(world, tmp_path, 2)
    for info in manifest.shard_infos:
        assert_same_answers(info.path, str(cache))
