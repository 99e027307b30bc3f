"""O(day) incremental ingestion: delta appends and delta-merged kernels.

The acceptance surface of the append path: a container grown by
:func:`repro.io.store.append_shards` must be *bitwise identical* to a
full from-scratch rebuild that included the appended day(s) — and every
kernel delta-merged through the ``extended`` constructors (CSR index,
interval arrays, feature matrix) must be bitwise identical to a cold
build over the grown corpus.  The lineage-aware artifact cache must
serve an appended corpus from its base's artifacts and persist a
``.rpa`` byte-identical to a cold store.
"""

import pickle

import pytest

from repro.internet.population import WorldConfig, build_world
from repro.io import load_dataset
from repro.io.artifacts import ArtifactCache
from repro.io.encoding import SegmentError
from repro.io.store import StreamingDatasetWriter, append_shards
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.scanner.campaign import ScanCampaign
from repro.scanner.columns import CertIntervals, RowDelta
from repro.scanner.dataset import ScanDataset
from repro.scanner.engine import ScanEngine

CONFIG = WorldConfig(
    seed=23, n_devices=60, n_websites=18, n_generic_access=12,
    n_enterprise=4, n_hosting=3, unused_roots=2,
)

#: Six scan days; "beta" only scans every other one, so appended days
#: exercise both the one-shard and two-shard cases.
DAYS = tuple(CONFIG.start_day + offset for offset in range(100, 148, 8))


def _schedule(campaigns):
    return sorted(
        ((day, campaign) for campaign in campaigns for day in campaign.scan_days),
        key=lambda task: (task[0], task[1].name),
    )


def _write(world, campaigns, path, days, collect_handshakes=False):
    """Write the corpus covering exactly ``days`` (a fresh engine).

    Per-day RNG streams are keyed by (world seed, campaign, day), so an
    engine that scans only a subset of the schedule emits shards — and a
    certificate store — identical to the corresponding slice of a full
    run.  This is the regime real incremental ingestion lives in: the
    base corpus knows nothing about days it has not scanned.
    """
    engine = ScanEngine(world, collect_handshakes=collect_handshakes)
    writer = StreamingDatasetWriter(path)
    for day, campaign in _schedule(campaigns):
        if day in days:
            writer.add_shard(engine.run_shard(campaign, day))
    return writer.close(engine.certificate_store)


def _day_shards(world, campaigns, days, collect_handshakes=False):
    """Scan only ``days``; return their shards plus the day certificates."""
    engine = ScanEngine(world, collect_handshakes=collect_handshakes)
    shards = [
        engine.run_shard(campaign, day)
        for day, campaign in _schedule(campaigns) if day in days
    ]
    return shards, dict(engine.certificate_store)


@pytest.fixture(scope="module")
def world():
    return build_world(CONFIG)


@pytest.fixture(scope="module")
def campaigns():
    return (ScanCampaign("alpha", DAYS), ScanCampaign("beta", DAYS[::2]))


@pytest.fixture(scope="module")
def corpus(world, campaigns, tmp_path_factory):
    """Full corpus, base corpus missing the last day, and its tail."""
    directory = tmp_path_factory.mktemp("ingest")
    full = directory / "full.rpz"
    base = directory / "base.rpz"
    full_digest = _write(world, campaigns, full, set(DAYS))
    _write(world, campaigns, base, set(DAYS[:-1]))
    tail, certificates = _day_shards(world, campaigns, {DAYS[-1]})
    return {
        "dir": directory, "full": full, "base": base,
        "full_digest": full_digest, "tail": tail,
        "certificates": certificates,
    }


@pytest.fixture()
def metrics():
    registry = MetricsRegistry()
    obs_runtime.activate(metrics=registry)
    try:
        yield registry
    finally:
        obs_runtime.deactivate()


class TestAppendBytes:
    def test_append_one_day_bitwise_identical(self, corpus, tmp_path, metrics):
        grown = tmp_path / "grown.rpz"
        result = append_shards(
            corpus["base"], corpus["tail"], corpus["certificates"], grown
        )
        assert grown.read_bytes() == corpus["full"].read_bytes()
        assert result.digest == corpus["full_digest"]
        assert result.new_days == (DAYS[-1],)
        assert result.bytes_reused > 0
        assert metrics.counters["ingest.days"] == 1
        assert metrics.counters["ingest.rows"] == (
            result.n_observations - result.base_observations
        )

    def test_three_day_chain_bitwise_identical(
        self, world, campaigns, tmp_path
    ):
        full = tmp_path / "full.rpz"
        base = tmp_path / "day0.rpz"
        _write(world, campaigns, full, set(DAYS))
        _write(world, campaigns, base, set(DAYS[:-3]))
        current = base
        for chain_step, day in enumerate(DAYS[-3:]):
            shards, day_certs = _day_shards(world, campaigns, {day})
            grown = tmp_path / f"day{chain_step + 1}.rpz"
            append_shards(current, shards, day_certs, grown)
            current = grown
        assert current.read_bytes() == full.read_bytes()

    def test_handshake_corpus_appends_bitwise(
        self, world, campaigns, tmp_path
    ):
        full = tmp_path / "full.rpz"
        base = tmp_path / "base.rpz"
        _write(world, campaigns, full, set(DAYS), collect_handshakes=True)
        _write(
            world, campaigns, base, set(DAYS[:-1]), collect_handshakes=True
        )
        tail, certificates = _day_shards(
            world, campaigns, {DAYS[-1]}, collect_handshakes=True
        )
        grown = tmp_path / "grown.rpz"
        append_shards(base, tail, certificates, grown)
        assert grown.read_bytes() == full.read_bytes()

    def test_out_of_order_day_rejected(self, corpus, tmp_path):
        # The full corpus already contains the tail's day: appending it
        # again does not sort after the last (day, source) key.
        with pytest.raises(ValueError, match="strictly increasing"):
            append_shards(
                corpus["full"], corpus["tail"], corpus["certificates"],
                tmp_path / "bad.rpz",
            )
        assert not (tmp_path / "bad.rpz").exists()

    def test_missing_der_rejected(self, corpus, tmp_path):
        base = load_dataset(corpus["base"])
        new_fps = {
            fingerprint
            for shard in corpus["tail"]
            for fingerprint in shard.fingerprints
        } - set(base.columns.fingerprints)
        assert new_fps, "tail day must introduce at least one certificate"
        with pytest.raises(ValueError, match="missing certificate DER"):
            append_shards(
                corpus["base"], corpus["tail"], {}, tmp_path / "bad.rpz"
            )
        assert not (tmp_path / "bad.rpz").exists()

    def test_legacy_archive_rejected(self, corpus, tmp_path):
        import zipfile

        legacy = tmp_path / "legacy.rpz"
        with zipfile.ZipFile(legacy, "w") as archive:
            archive.writestr("manifest.json", '{"format": 2}')
        with pytest.raises(SegmentError, match="format 1 or 2"):
            append_shards(
                legacy, corpus["tail"], corpus["certificates"],
                tmp_path / "bad.rpz",
            )


def _assert_kernels_bitwise_equal(grown, cold):
    index, cold_index = grown._observation_index, cold.index
    assert memoryview(index._offsets).tobytes() == \
        memoryview(cold_index._offsets).tobytes()
    assert memoryview(index._order).tobytes() == \
        memoryview(cold_index._order).tobytes()
    intervals, cold_intervals = grown._intervals, cold.intervals
    for name in CertIntervals.__slots__:
        assert memoryview(getattr(intervals, name)).tobytes() == \
            memoryview(getattr(cold_intervals, name)).tobytes()
    matrix, cold_matrix = grown._feature_matrix, cold.feature_matrix
    assert matrix.fingerprints == cold_matrix.fingerprints
    assert matrix.values == cold_matrix.values
    # Interned value tables must also *pickle* identically (the .rpa
    # encoding), which pins down memoized object sharing.
    assert pickle.dumps(matrix.values, 4) == pickle.dumps(cold_matrix.values, 4)
    for feature, column in matrix.raw_ids.items():
        assert column.tobytes() == cold_matrix.raw_ids[feature].tobytes()
    for feature, column in matrix.linkable_ids.items():
        assert column.tobytes() == cold_matrix.linkable_ids[feature].tobytes()
    assert matrix.self_signed.tobytes() == cold_matrix.self_signed.tobytes()


class TestExtendedKernels:
    def test_extend_from_shard_matches_cold_build(self, corpus, tmp_path):
        base = load_dataset(corpus["base"])
        base.index, base.intervals, base.feature_matrix  # build all kernels
        grown = base.extend_from_shard(
            corpus["tail"], corpus["certificates"], tmp_path / "grown.rpz"
        )
        cold = load_dataset(tmp_path / "grown.rpz")
        _assert_kernels_bitwise_equal(grown, cold)

    def test_extend_with_workers_matches_serial(self, corpus, tmp_path):
        base = load_dataset(corpus["base"])
        base.index, base.intervals, base.feature_matrix
        serial = base.extend_from_shard(
            corpus["tail"], corpus["certificates"], tmp_path / "serial.rpz"
        )
        fanned = base.extend_from_shard(
            corpus["tail"], corpus["certificates"], tmp_path / "fanned.rpz",
            workers=4,
        )
        assert (tmp_path / "serial.rpz").read_bytes() == \
            (tmp_path / "fanned.rpz").read_bytes()
        for left, right in (
            (serial._feature_matrix, fanned._feature_matrix),
        ):
            assert left.values == right.values
            assert pickle.dumps(left.values, 4) == pickle.dumps(right.values, 4)
            for feature, column in left.raw_ids.items():
                assert column.tobytes() == right.raw_ids[feature].tobytes()

    def test_self_signed_column_over_a_three_day_chain(
        self, world, campaigns, tmp_path
    ):
        # Each append checks self-signatures for the new certificates
        # only and copies every base row's flag.
        _write(world, campaigns, tmp_path / "base.rpz", set(DAYS[:-3]))
        grown = load_dataset(tmp_path / "base.rpz")
        grown.index, grown.intervals, grown.feature_matrix
        for day in DAYS[-3:]:
            shards, day_certs = _day_shards(world, campaigns, {day})
            grown = grown.extend_from_shard(
                shards, day_certs, tmp_path / f"day{day}.rpz"
            )
            matrix = grown._feature_matrix
            assert len(matrix.self_signed) == len(grown.certificates)
            for fingerprint, certificate in grown.certificates.items():
                assert matrix.self_signed[matrix.rows[fingerprint]] == \
                    certificate.is_self_signed()
        cold = load_dataset(tmp_path / f"day{DAYS[-1]}.rpz")
        _assert_kernels_bitwise_equal(grown, cold)

    def test_extend_requires_mapped_dataset(self, corpus, tmp_path):
        base = load_dataset(corpus["base"])
        in_memory = ScanDataset(list(base.scans), dict(base.certificates))
        with pytest.raises(ValueError, match="mapped"):
            in_memory.extend_from_shard(
                corpus["tail"], corpus["certificates"], tmp_path / "x.rpz"
            )

    def test_row_delta_validates_base(self, corpus):
        grown = load_dataset(corpus["full"])
        with pytest.raises(ValueError, match="beyond the corpus end"):
            RowDelta(grown.columns, len(grown.columns) + 1, 0)
        with pytest.raises(ValueError, match="certificate table"):
            RowDelta(
                grown.columns, 0, len(grown.columns.fingerprints) + 1
            )


class TestCacheLineage:
    def test_extended_load_and_rpa_byte_parity(
        self, corpus, tmp_path, metrics
    ):
        cache = ArtifactCache(tmp_path / "cache")
        base = load_dataset(corpus["base"])
        base.index, base.intervals, base.feature_matrix
        cache.store(base)
        base.extend_from_shard(
            corpus["tail"], corpus["certificates"], tmp_path / "grown.rpz",
            cache=cache,
        )

        fresh = load_dataset(tmp_path / "grown.rpz")
        loaded = cache.load(fresh)
        assert loaded.kernels
        assert metrics.counters["artifacts.extended"] == 1
        digest = fresh.corpus_digest()
        assert cache.path_for(digest).exists()

        # The persisted artifact is byte-identical to a cold store.
        cold_cache = ArtifactCache(tmp_path / "cold")
        cold = load_dataset(tmp_path / "grown.rpz")
        cold.index, cold.intervals, cold.feature_matrix
        cold_cache.store(cold)
        assert cache.path_for(digest).read_bytes() == \
            cold_cache.path_for(digest).read_bytes()

        # And a second load is a plain hit, not another merge.
        again = cache.load(load_dataset(tmp_path / "grown.rpz"))
        assert again.kernels
        assert metrics.counters["artifacts.hit"] == 1

    def test_chain_walks_to_nearest_cached_ancestor(
        self, world, campaigns, tmp_path, metrics
    ):
        cache = ArtifactCache(tmp_path / "cache")
        base_path = tmp_path / "day0.rpz"
        _write(world, campaigns, base_path, set(DAYS[:-2]))
        base = load_dataset(base_path)
        base.index, base.intervals, base.feature_matrix
        cache.store(base)
        shards, day_certs = _day_shards(world, campaigns, {DAYS[-2]})
        mid = base.extend_from_shard(
            shards, day_certs, tmp_path / "day1.rpz", cache=cache,
        )
        shards, day_certs = _day_shards(world, campaigns, {DAYS[-1]})
        mid.extend_from_shard(
            shards, day_certs, tmp_path / "day2.rpz", cache=cache,
        )
        # Only day0's artifact exists; day2's lineage chain must reach
        # back to it (its direct base, day1, was never stored).
        fresh = load_dataset(tmp_path / "day2.rpz")
        loaded = cache.load(fresh)
        assert loaded.kernels
        assert metrics.counters["artifacts.extended"] == 1
        cold = load_dataset(tmp_path / "day2.rpz")
        _assert_kernels_bitwise_equal(fresh, cold)

    def test_corrupt_base_artifact_falls_back_to_miss(
        self, corpus, tmp_path, metrics
    ):
        cache = ArtifactCache(tmp_path / "cache")
        base = load_dataset(corpus["base"])
        base.index, base.intervals, base.feature_matrix
        cache.store(base)
        base.extend_from_shard(
            corpus["tail"], corpus["certificates"], tmp_path / "grown.rpz",
            cache=cache,
        )
        artifact = cache.path_for(base.corpus_digest())
        artifact.write_bytes(artifact.read_bytes()[: 1 << 12])
        loaded = cache.load(load_dataset(tmp_path / "grown.rpz"))
        assert not loaded.kernels
        assert metrics.counters["artifacts.invalidated"] == 1

    def test_corrupt_lineage_sidecar_reads_as_miss(self, corpus, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.record_lineage("aa" * 32, "bb" * 32)
        cache._lineage_path().write_text("{not json")
        assert cache._read_lineage() == {}
        base = load_dataset(corpus["base"])
        loaded = cache.load(base)
        assert not loaded.kernels


class TestCompaction:
    """`ArtifactCache.compact`: flatten a delta chain into a direct hit."""

    def _chain(self, world, campaigns, tmp_path, cache):
        """base(store) -> day1 -> day2, artifacts only at the base."""
        base_path = tmp_path / "day0.rpz"
        _write(world, campaigns, base_path, set(DAYS[:-2]))
        base = load_dataset(base_path)
        base.index, base.intervals, base.feature_matrix
        cache.store(base)
        shards, day_certs = _day_shards(world, campaigns, {DAYS[-2]})
        mid = base.extend_from_shard(
            shards, day_certs, tmp_path / "day1.rpz", cache=cache,
        )
        shards, day_certs = _day_shards(world, campaigns, {DAYS[-1]})
        mid.extend_from_shard(
            shards, day_certs, tmp_path / "day2.rpz", cache=cache,
        )
        return tmp_path / "day2.rpz"

    def test_compact_flattens_and_prunes_lineage(
        self, world, campaigns, tmp_path, metrics
    ):
        import json as json_module

        cache = ArtifactCache(tmp_path / "cache")
        grown_path = self._chain(world, campaigns, tmp_path, cache)
        fresh = load_dataset(grown_path)
        digest = fresh.corpus_digest()
        assert cache.chain_length(digest) == 2

        path = cache.compact(fresh)
        assert path == cache.path_for(digest)
        assert path.exists()
        assert "kernels" in cache.status(digest)["sections"]
        assert cache.chain_length(digest) == 0
        lineage = json_module.loads(
            (tmp_path / "cache" / "lineage.json").read_text()
        )
        assert digest not in lineage
        assert not lineage  # every chained ancestor entry pruned too
        assert metrics.counters["artifacts.compacted"] == 1

        # A flat corpus compacts as a no-op.
        assert cache.compact(load_dataset(grown_path)) == path
        assert metrics.counters["artifacts.compacted"] == 1

        # And the next load is a direct hit, no chain walk.
        loaded = cache.load(load_dataset(grown_path))
        assert loaded.kernels
        assert metrics.counters["artifacts.hit"] >= 1

    def test_compact_cold_builds_missing_kernels(
        self, world, campaigns, tmp_path
    ):
        corpus_path = tmp_path / "flat.rpz"
        _write(world, campaigns, corpus_path, set(DAYS[:-2]))
        cache = ArtifactCache(tmp_path / "cache")
        fresh = load_dataset(corpus_path)
        path = cache.compact(fresh)
        assert path is not None and path.exists()
        assert "kernels" in cache.status(fresh.corpus_digest())["sections"]

    def test_future_appends_restart_the_chain(
        self, world, campaigns, tmp_path
    ):
        cache = ArtifactCache(tmp_path / "cache")
        base_path = tmp_path / "day0.rpz"
        _write(world, campaigns, base_path, set(DAYS[:-1]))
        base = load_dataset(base_path)
        base_digest = base.corpus_digest()
        cache.compact(base)
        shards, day_certs = _day_shards(world, campaigns, {DAYS[-1]})
        base.extend_from_shard(
            shards, day_certs, tmp_path / "day1.rpz", cache=cache,
        )
        grown = load_dataset(tmp_path / "day1.rpz")
        digest = grown.corpus_digest()
        assert cache.chain_length(digest) == 1
        entry = cache._read_lineage()[digest]
        assert entry["base"] == base_digest
        assert entry["chain"] == [base_digest]
