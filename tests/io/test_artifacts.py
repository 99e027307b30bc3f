"""Tests for the content-addressed artifact cache (repro.io.artifacts)."""

import pickle

import repro.io.artifacts as artifacts_mod
from repro.core.kernels import FeatureMatrix
from repro.io import ArtifactCache, load_dataset, save_dataset
from repro.io.artifacts import columns_digest
from repro.io.encoding import SegmentReader
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.scanner.columns import ObservationColumns
from repro.scanner.dataset import ScanDataset
from repro.scanner.records import Observation, Scan
from repro.study import Study
from repro.x509.truststore import TrustStore

from ..oracles.kernels import naive_classify, naive_validation_results


def fresh_dataset(tiny_synthetic) -> ScanDataset:
    """A new ScanDataset over the shared tiny corpus (nothing built)."""
    source = tiny_synthetic.scans
    return ScanDataset(list(source.scans), dict(source.certificates))


def make_study(tiny_synthetic, dataset, cache) -> Study:
    world = tiny_synthetic.world
    return Study(
        dataset=dataset,
        trust_store=world.trust_store,
        as_of=world.routing.origin_as,
        registry=world.registry,
        cache=cache,
        observe=True,
    )


def artifact_counters(study: Study) -> dict:
    return {
        key: value
        for key, value in study.metrics.counters.items()
        if key.startswith("artifacts.")
    }


class TestCacheHitMiss:
    def test_cold_miss_then_warm_hit(self, tiny_synthetic, tmp_path):
        cache = ArtifactCache(tmp_path)
        cold = make_study(tiny_synthetic, fresh_dataset(tiny_synthetic), cache)
        cold_dedup = cold.dedup()
        assert artifact_counters(cold) == {"artifacts.miss": 2}
        assert "kernels" in cold.stage_timings
        assert "validation" in cold.stage_timings

        warm = make_study(tiny_synthetic, fresh_dataset(tiny_synthetic), cache)
        warm_dedup = warm.dedup()
        assert artifact_counters(warm) == {"artifacts.hit": 2}
        # A cache hit reports the load stage; the skipped stages do not
        # exist at all (no phantom zero-duration spans).
        assert "artifacts.load" in warm.stage_timings
        assert "kernels" not in warm.stage_timings
        assert "validation" not in warm.stage_timings

        assert warm.validation().results == cold.validation().results
        assert warm.validation().invalid == cold.validation().invalid
        assert warm_dedup.unique == cold_dedup.unique
        for name in ("first_scan", "last_scan", "n_scans", "max_ips", "min_ips"):
            assert getattr(warm.dataset.intervals, name) == \
                getattr(cold.dataset.intervals, name)
        cold_matrix = cold.dataset.feature_matrix
        warm_matrix = warm.dataset.feature_matrix
        assert warm_matrix.fingerprints == cold_matrix.fingerprints
        for feature in cold_matrix.raw_ids:
            assert warm_matrix.raw_ids[feature] == cold_matrix.raw_ids[feature]
            assert warm_matrix.linkable_ids[feature] == \
                cold_matrix.linkable_ids[feature]

    def test_corpus_mutation_changes_digest_and_misses(
        self, tiny_synthetic, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        original = fresh_dataset(tiny_synthetic)
        study = make_study(tiny_synthetic, original, cache)
        study.dedup()

        scans = list(original.scans)
        first = scans[0]
        observations = list(first.observations)
        victim = observations[0]
        observations[0] = Observation(
            ip=victim.ip ^ 1,
            fingerprint=victim.fingerprint,
            entity=victim.entity,
            handshake=victim.handshake,
        )
        scans[0] = Scan(
            day=first.day, source=first.source, observations=observations
        )
        mutated = ScanDataset(scans, dict(original.certificates))
        assert mutated.corpus_digest() != original.corpus_digest()

        warm = make_study(tiny_synthetic, mutated, cache)
        warm.kernels()
        assert warm.metrics.counters.get("artifacts.miss", 0) >= 1
        assert warm.metrics.counters.get("artifacts.hit", 0) == 0

    def test_trust_store_change_is_validation_miss(
        self, tiny_synthetic, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        make_study(tiny_synthetic, fresh_dataset(tiny_synthetic), cache).dedup()

        dataset = fresh_dataset(tiny_synthetic)
        smaller = TrustStore(list(tiny_synthetic.world.trust_store)[:-1])
        registry = MetricsRegistry()
        with obs_runtime.activated(Tracer(), registry):
            loaded = cache.load(dataset, trust_store=smaller)
        assert loaded.kernels
        assert loaded.validation is None
        assert registry.counters.get("artifacts.hit") == 1
        assert registry.counters.get("artifacts.miss") == 1


class TestInvalidation:
    def test_schema_bump_invalidates(self, tiny_synthetic, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        make_study(tiny_synthetic, fresh_dataset(tiny_synthetic), cache).dedup()
        monkeypatch.setattr(
            artifacts_mod, "ARTIFACT_SCHEMA", artifacts_mod.ARTIFACT_SCHEMA + 1
        )
        dataset = fresh_dataset(tiny_synthetic)
        registry = MetricsRegistry()
        with obs_runtime.activated(Tracer(), registry):
            loaded = cache.load(
                dataset, trust_store=tiny_synthetic.world.trust_store
            )
        assert not loaded.kernels and loaded.validation is None
        assert registry.counters.get("artifacts.invalidated") == 2

    def test_truncated_artifact_falls_back_to_rebuild(
        self, tiny_synthetic, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        cold = make_study(tiny_synthetic, fresh_dataset(tiny_synthetic), cache)
        cold_dedup = cold.dedup()
        path = cache.path_for(cold.dataset.corpus_digest())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])

        warm = make_study(tiny_synthetic, fresh_dataset(tiny_synthetic), cache)
        warm_dedup = warm.dedup()  # must complete via rebuild
        assert warm_dedup.unique == cold_dedup.unique
        assert warm.metrics.counters.get("artifacts.invalidated") == 2
        assert "kernels" in warm.stage_timings

    def test_corrupt_member_invalidates_only_that_section(
        self, tiny_synthetic, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        cold = make_study(tiny_synthetic, fresh_dataset(tiny_synthetic), cache)
        cold.dedup()
        path = cache.path_for(cold.dataset.corpus_digest())
        # Overwrite the feature-matrix pickle segment in place (same
        # length, so the manifest stays valid): only the kernels section
        # should invalidate.
        entry = SegmentReader(path).entry("matrix.values")
        blob = bytearray(path.read_bytes())
        garbage = b"not a pickle"
        blob[entry["offset"]:entry["offset"] + len(garbage)] = garbage
        path.write_bytes(bytes(blob))

        dataset = fresh_dataset(tiny_synthetic)
        registry = MetricsRegistry()
        with obs_runtime.activated(Tracer(), registry):
            loaded = cache.load(
                dataset, trust_store=tiny_synthetic.world.trust_store
            )
        assert not loaded.kernels
        assert loaded.validation is not None
        assert registry.counters.get("artifacts.invalidated") == 1
        assert registry.counters.get("artifacts.hit") == 1


    def test_unknown_chain_fingerprint_invalidates_at_load(
        self, tiny_synthetic, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        cold = make_study(tiny_synthetic, fresh_dataset(tiny_synthetic), cache)
        cold.dedup()
        path = cache.path_for(cold.dataset.corpus_digest())
        # Point the first chain link at a certificate nobody holds: the
        # load must reject the section, not a later verdict read.
        entry = SegmentReader(path).entry("val.chain_fps")
        blob = bytearray(path.read_bytes())
        blob[entry["offset"]:entry["offset"] + 32] = b"\xee" * 32
        path.write_bytes(bytes(blob))

        registry = MetricsRegistry()
        with obs_runtime.activated(Tracer(), registry):
            loaded = cache.load(
                fresh_dataset(tiny_synthetic),
                trust_store=tiny_synthetic.world.trust_store,
            )
        assert loaded.kernels
        assert loaded.validation is None
        assert registry.counters.get("artifacts.invalidated") == 1
        assert registry.counters.get("artifacts.hit") == 1


class TestShardedBuilds:
    def test_sharded_columns_bitwise_equal_serial(self, tiny_synthetic):
        scans = tiny_synthetic.scans.scans
        serial = ObservationColumns.from_scans(scans)
        sharded = ObservationColumns.from_scans(scans, workers=4)
        for name in ("scan_idx", "ip", "cert_id", "entity_id", "handshake_id"):
            assert getattr(serial, name) == getattr(sharded, name), name
        assert serial.fingerprints == sharded.fingerprints
        assert serial.fingerprint_ids == sharded.fingerprint_ids
        assert serial.entities == sharded.entities
        assert serial.handshakes == sharded.handshakes

    def test_sharded_matrix_bitwise_equal_serial(self, tiny_synthetic):
        certificates = tiny_synthetic.scans.certificates
        serial = FeatureMatrix.from_certificates(certificates)
        sharded = FeatureMatrix.from_certificates(certificates, workers=4)
        assert serial.fingerprints == sharded.fingerprints
        assert serial.rows == sharded.rows
        assert serial.values == sharded.values
        for feature in serial.raw_ids:
            assert serial.raw_ids[feature] == sharded.raw_ids[feature]
            assert serial.linkable_ids[feature] == sharded.linkable_ids[feature]

    def test_digest_identical_serial_vs_sharded(self, tiny_synthetic):
        serial = fresh_dataset(tiny_synthetic)
        sharded = fresh_dataset(tiny_synthetic)
        assert serial.corpus_digest(workers=1) == sharded.corpus_digest(workers=4)


class TestParityAndRemap:
    def test_warm_cache_matches_oracles(self, tiny_synthetic, tmp_path):
        cache = ArtifactCache(tmp_path)
        make_study(tiny_synthetic, fresh_dataset(tiny_synthetic), cache).dedup()
        warm = make_study(tiny_synthetic, fresh_dataset(tiny_synthetic), cache)
        # Verdicts and kernels come from the artifact; the oracles
        # recompute both from scratch.
        dedup = warm.dedup()
        assert artifact_counters(warm) == {"artifacts.hit": 2}
        assert warm.validation().results == naive_validation_results(
            warm.dataset, tiny_synthetic.world.trust_store
        )
        assert dedup == naive_classify(warm.dataset, warm.invalid)

    def test_loaded_report_pickles(self, tiny_synthetic, tmp_path):
        cache = ArtifactCache(tmp_path)
        built = make_study(
            tiny_synthetic, fresh_dataset(tiny_synthetic), cache
        ).validation()
        loaded = make_study(
            tiny_synthetic, fresh_dataset(tiny_synthetic), cache
        ).validation()
        assert not isinstance(loaded.results, dict)  # decodes on read
        assert pickle.loads(pickle.dumps(loaded)) == built
        assert loaded == built

    def test_matrix_rows_remap_to_loader_cert_order(
        self, tiny_synthetic, tmp_path
    ):
        # Store under one certificate-dict order, load into another: the
        # canonical digest matches (it hashes the sorted fingerprint
        # set), and rows must be permuted to the loader's order.
        cache = ArtifactCache(tmp_path)
        writer = fresh_dataset(tiny_synthetic)
        writer.index
        writer.intervals
        writer.feature_matrix
        cache.store(writer)

        reordered = dict(
            sorted(tiny_synthetic.scans.certificates.items(), reverse=True)
        )
        reader = ScanDataset(list(tiny_synthetic.scans.scans), reordered)
        assert reader.corpus_digest() == writer.corpus_digest()
        loaded = cache.load(reader)
        assert loaded.kernels
        matrix = reader.feature_matrix
        assert matrix.fingerprints == list(reordered)
        expected = writer.feature_matrix
        for feature in expected.raw_ids:
            for fingerprint in reordered:
                assert matrix.raw_value(feature, fingerprint) == \
                    expected.raw_value(feature, fingerprint)


class TestArchiveAndStatus:
    def test_archive_digest_stable_and_roundtrip(self, tiny_synthetic, tmp_path):
        corpus = tmp_path / "corpus.rpz"
        save_dataset(tiny_synthetic.scans, corpus)
        first = load_dataset(corpus)
        second = load_dataset(corpus)
        assert first.corpus_digest() == second.corpus_digest()

        cache = ArtifactCache(tmp_path / "cache")
        study = make_study(tiny_synthetic, first, cache)
        study.kernels()
        warm = make_study(tiny_synthetic, second, cache)
        warm.kernels()
        assert warm.metrics.counters.get("artifacts.hit") == 1

    def test_canonical_digest_matches_archive_column_order(
        self, tiny_synthetic, tmp_path
    ):
        # The archive's *file* digest keys its artifacts, but the
        # canonical columnar digest of the loaded corpus equals the
        # in-memory one: artifact payloads are portable across orders.
        corpus = tmp_path / "corpus.rpz"
        save_dataset(tiny_synthetic.scans, corpus)
        loaded = load_dataset(corpus)
        canonical = columns_digest(
            loaded.build_columns(),
            [(scan.day, scan.source) for scan in loaded.scans],
            loaded.certificates,
        )
        assert canonical == fresh_dataset(tiny_synthetic).corpus_digest()

    def test_status_reports_sections(self, tiny_synthetic, tmp_path):
        cache = ArtifactCache(tmp_path)
        dataset = fresh_dataset(tiny_synthetic)
        digest = dataset.corpus_digest()
        assert cache.status(digest)["cached"] is False

        study = make_study(tiny_synthetic, dataset, cache)
        study.dedup()
        status = cache.status(digest)
        assert status["cached"] is True
        assert status["schema"] == artifacts_mod.ARTIFACT_SCHEMA
        assert status["sections"] == ["kernels", "validation"]
        assert status["path"].endswith(f"{digest}.rpa")

    def test_store_preserves_existing_sections(self, tiny_synthetic, tmp_path):
        cache = ArtifactCache(tmp_path)
        # First store only validation (kernels not built yet) ...
        first = make_study(tiny_synthetic, fresh_dataset(tiny_synthetic), cache)
        first.validation()
        digest = first.dataset.corpus_digest()
        assert cache.status(digest)["sections"] == ["validation"]
        # ... then a kernels-only store must keep the validation section.
        writer = fresh_dataset(tiny_synthetic)
        writer.index
        writer.intervals
        writer.feature_matrix
        cache.store(writer)
        assert cache.status(digest)["sections"] == ["kernels", "validation"]

    def test_store_without_artifacts_writes_nothing(
        self, tiny_synthetic, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        assert cache.store(fresh_dataset(tiny_synthetic)) is None
        assert not list(tmp_path.glob("*.rpa"))


class TestDigestEncoding:
    def test_digest_covers_certificate_content(self, tiny_synthetic):
        dataset = fresh_dataset(tiny_synthetic)
        fewer = dict(dataset.certificates)
        fewer.pop(next(iter(fewer)))
        other = ScanDataset(list(dataset.scans), fewer)
        assert other.corpus_digest() != dataset.corpus_digest()

    def test_digest_covers_scan_metadata(self, tiny_synthetic):
        dataset = fresh_dataset(tiny_synthetic)
        scans = list(dataset.scans)
        first = scans[0]
        scans[0] = Scan(
            day=first.day + 1000, source=first.source,
            observations=first.observations,
        )
        other = ScanDataset(scans, dict(dataset.certificates))
        assert other.corpus_digest() != dataset.corpus_digest()


class TestLineageTruncation:
    """The 64-entry lineage cap: counted, warned once, chain bounded."""

    def test_cap_increments_counter_and_warns_once(self, tmp_path, monkeypatch):
        import json
        import warnings

        monkeypatch.setattr(artifacts_mod, "_LINEAGE_MAX_CHAIN", 3)
        monkeypatch.setattr(artifacts_mod, "_LINEAGE_WARNED", False)
        registry = MetricsRegistry()
        obs_runtime.activate(metrics=registry)
        try:
            cache = ArtifactCache(tmp_path / "cache")
            digests = [f"d{i}" for i in range(7)]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for base, digest in zip(digests, digests[1:]):
                    cache.record_lineage(digest, base)
        finally:
            obs_runtime.deactivate()
        # Chains grow 1, 2, 3, then overflow by one on each later append.
        assert registry.counters["artifacts.lineage_truncated"] == 3
        lineage_warnings = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        # One audible heads-up per process, not one per append.
        assert len(lineage_warnings) == 1
        assert "capped" in str(lineage_warnings[0].message)
        assert "cold rebuild" in str(lineage_warnings[0].message)
        lineage = json.loads(
            (tmp_path / "cache" / "lineage.json").read_text()
        )
        # Every stored chain stays within the cap, newest ancestors kept.
        assert all(len(entry["chain"]) <= 3 for entry in lineage.values())
        assert lineage["d6"]["chain"] == ["d3", "d4", "d5"]
        assert lineage["d6"]["base"] == "d5"

    def test_under_cap_records_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(artifacts_mod, "_LINEAGE_WARNED", False)
        registry = MetricsRegistry()
        obs_runtime.activate(metrics=registry)
        try:
            cache = ArtifactCache(tmp_path / "cache")
            cache.record_lineage("d1", "d0")
            cache.record_lineage("d2", "d1")
        finally:
            obs_runtime.deactivate()
        assert "artifacts.lineage_truncated" not in registry.counters
        assert artifacts_mod._LINEAGE_WARNED is False

    def test_self_lineage_is_noop(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.record_lineage("same", "same")
        assert not (tmp_path / "cache" / "lineage.json").exists()
