"""Tests for the content-addressed artifact cache (repro.io.artifacts)."""

import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import repro
import repro.core.kernels as kernels_mod
import repro.io.artifacts as artifacts_mod
from repro.core.kernels import FeatureMatrix
from repro.core.validation import validate_dataset
from repro.datasets.synthetic import generate
from repro.internet.population import WorldConfig
from repro.io import (
    AnalysisEnvironment,
    ArtifactCache,
    load_dataset,
    save_dataset,
    save_environment,
)
from repro.io.artifacts import SECTIONS, columns_digest
from repro.io.encoding import SegmentReader, SegmentWriter
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.scanner.columns import ObservationColumns
from repro.scanner.dataset import ScanDataset
from repro.scanner.records import Observation, Scan
from repro.serve import QueryEngine
from repro.study import Study
from repro.x509.truststore import TrustStore

from ..oracles.kernels import naive_classify, naive_validation_results

#: A second world, to decode before the tiny corpus.
OTHER_WORLD = WorldConfig(
    seed=11, n_devices=40, n_websites=10, n_generic_access=10,
    n_enterprise=3, n_hosting=3, unused_roots=0,
)

@pytest.fixture(scope="module")
def saved(tmp_path_factory, tiny_synthetic):
    """(corpus, environment) of the tiny world, saved."""
    directory = tmp_path_factory.mktemp("artifacts-saved")
    corpus = directory / "corpus.rpz"
    environment = directory / "env.rpe"
    save_dataset(tiny_synthetic.scans, corpus)
    save_environment(
        AnalysisEnvironment.of_world(tiny_synthetic.world), environment
    )
    return corpus, environment


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
        # dedup() reads the kernels and verdicts: the tracking state is
        # never asked for.
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
        digest = cold.dataset.corpus_digest()
        for section in ("kernels", "validation"):
            path = cache.path_for(digest, section)
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
        path = cache.path_for(cold.dataset.corpus_digest(), "kernels")
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
        path = cache.path_for(cold.dataset.corpus_digest(), "validation")
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


class TestVerdictKey:
    """Verdicts are keyed on the trust store and the extra intermediates."""

    def test_same_extras_hit_other_or_no_extras_miss(
        self, tiny_synthetic, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        trust_store = tiny_synthetic.world.trust_store
        dataset = fresh_dataset(tiny_synthetic)
        dataset.index, dataset.intervals, dataset.feature_matrix
        extras = sorted(dataset.certificates)[:3]
        cache.store(
            dataset, validation=validate_dataset(dataset, trust_store),
            trust_store=trust_store, extra_fingerprints=extras,
        )
        outcomes = {}
        for label, wanted in (
            ("same", extras[::-1]), ("other", extras[:2]), ("none", ()),
        ):
            registry = MetricsRegistry()
            with obs_runtime.activated(Tracer(), registry):
                loaded = cache.load(
                    fresh_dataset(tiny_synthetic), trust_store=trust_store,
                    extra_fingerprints=wanted,
                )
            assert loaded.kernels
            outcomes[label] = (
                loaded.validation is not None,
                registry.counters.get("artifacts.hit", 0),
                registry.counters.get("artifacts.miss", 0),
            )
        assert outcomes == {
            "same": (True, 2, 0),
            "other": (False, 1, 1),
            "none": (False, 1, 1),
        }

    def test_study_with_extras_stores_and_reloads_its_verdicts(
        self, tiny_synthetic, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        world = tiny_synthetic.world
        cas = [
            certificate
            for certificate in tiny_synthetic.scans.certificates.values()
            if certificate.is_ca
        ][:2]
        assert cas

        def study(extras):
            return Study(
                dataset=fresh_dataset(tiny_synthetic),
                trust_store=world.trust_store,
                as_of=world.routing.origin_as, cache=cache,
                extra_intermediates=extras, observe=True,
            )

        cold = study(cas)
        cold.dedup()
        warm = study(cas)
        assert warm.validation().results == cold.validation().results
        assert artifact_counters(warm) == {"artifacts.hit": 2}
        assert "validation" not in warm.stage_timings
        plain = study(())
        plain.validation()
        assert artifact_counters(plain) == {
            "artifacts.hit": 1, "artifacts.miss": 1,
        }
        assert "validation" in plain.stage_timings


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
        assert pickle.dumps(serial.values) == pickle.dumps(sharded.values)
        for feature in serial.raw_ids:
            assert serial.raw_ids[feature] == sharded.raw_ids[feature]
            assert serial.linkable_ids[feature] == sharded.linkable_ids[feature]

    def test_digest_identical_serial_vs_sharded(self, tiny_synthetic):
        serial = fresh_dataset(tiny_synthetic)
        sharded = fresh_dataset(tiny_synthetic)
        assert serial.corpus_digest(workers=1) == sharded.corpus_digest(workers=4)


class TestCanonicalValueTables:
    """``matrix.values`` pickles as a function of its values alone."""

    def test_unshared_tables_pickle_like_a_fresh_build(self, tiny_synthetic):
        matrix = FeatureMatrix.from_certificates(
            tiny_synthetic.scans.certificates
        )
        # Every value unpickled on its own: no object shared anywhere.
        copies = {
            feature: [pickle.loads(pickle.dumps(value)) for value in table]
            for feature, table in matrix.values.items()
        }
        assert pickle.dumps(copies) != pickle.dumps(matrix.values)
        kernels_mod._canonicalize(copies)
        assert copies == matrix.values
        assert pickle.dumps(copies) == pickle.dumps(matrix.values)

    def test_kernels_file_does_not_depend_on_decode_history(
        self, saved, tmp_path
    ):
        """The kernels file this process stores after decoding another
        corpus (filling every decode memo) is the one a fresh
        interpreter stores."""
        other = tmp_path / "other.rpz"
        save_dataset(generate(OTHER_WORLD, scan_stride=8).scans, other)
        assert len(load_dataset(other).feature_matrix) > 0
        dataset = load_dataset(saved[0])
        dataset.index, dataset.intervals, dataset.feature_matrix
        ArtifactCache(tmp_path / "here").store(dataset)
        package_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        script = (
            "import sys;"
            "from repro.io import ArtifactCache, load_dataset;"
            "dataset = load_dataset(sys.argv[1]);"
            "dataset.index, dataset.intervals, dataset.feature_matrix;"
            "ArtifactCache(sys.argv[2]).store(dataset)"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(saved[0]),
             str(tmp_path / "fresh")],
            capture_output=True, text=True,
            env={
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": os.pathsep.join(
                    [package_root, os.environ.get("PYTHONPATH", "")]
                ).rstrip(os.pathsep),
            },
        )
        assert result.returncode == 0, result.stderr
        digest = dataset.corpus_digest()
        here = ArtifactCache(tmp_path / "here").path_for(digest, "kernels")
        fresh = ArtifactCache(tmp_path / "fresh").path_for(digest, "kernels")
        assert here.read_bytes() == fresh.read_bytes()


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
        assert cache.status(digest) == {
            "digest": digest, "path": str(tmp_path), "cached": False,
            "sections": [], "schema": None,
        }
        # A schema-5 bundle is no hit, but its schema is reported.
        bundle = tmp_path / f"{digest}.rpa"
        writer = SegmentWriter(bundle, meta={
            "kind": "artifacts", "schema": 5, "digest": digest,
        })
        writer.add_bytes("val.status_ids", b"\0")
        writer.close()
        status = cache.status(digest)
        assert status["cached"] is False
        assert status["schema"] == 5

        study = make_study(tiny_synthetic, dataset, cache)
        study.dedup()
        status = cache.status(digest)
        assert status["cached"] is True
        assert status["schema"] == artifacts_mod.ARTIFACT_SCHEMA
        assert status["sections"] == ["kernels", "validation"]
        assert status["path"] == str(tmp_path)
        # Writing the digest's section files deleted the bundle.
        assert not bundle.exists()

    def test_a_store_touches_no_other_section_file(
        self, tiny_synthetic, tmp_path
    ):
        def stats(digest, sections):
            return {
                section: (
                    cache.path_for(digest, section).read_bytes(),
                    cache.path_for(digest, section).stat().st_ino,
                    cache.path_for(digest, section).stat().st_mtime_ns,
                )
                for section in sections
            }

        cache = ArtifactCache(tmp_path)
        # First store only validation (kernels not built yet) ...
        first = make_study(tiny_synthetic, fresh_dataset(tiny_synthetic), cache)
        first.validation()
        digest = first.dataset.corpus_digest()
        assert cache.status(digest)["sections"] == ["validation"]
        before = stats(digest, ["validation"])
        # ... then a kernels-only store, by another cache over the same
        # directory, leaves the verdicts' file as it was ...
        writer = fresh_dataset(tiny_synthetic)
        writer.index
        writer.intervals
        writer.feature_matrix
        ArtifactCache(tmp_path).store(writer)
        assert cache.status(digest)["sections"] == ["kernels", "validation"]
        assert stats(digest, ["validation"]) == before
        # ... and so does a study that loads both and stores only its
        # tracking state.
        before = stats(digest, ["kernels", "validation"])
        make_study(
            tiny_synthetic, fresh_dataset(tiny_synthetic),
            ArtifactCache(tmp_path),
        ).tracking()
        assert cache.status(digest)["sections"] == list(SECTIONS)
        assert stats(digest, ["kernels", "validation"]) == before

    def test_a_cold_engine_writes_each_section_once_and_a_warm_one_none(
        self, saved, tmp_path, monkeypatch
    ):
        written = []

        class Recording(SegmentWriter):
            def __init__(self, path, *args, **kwargs):
                written.append(pathlib.Path(path).name.split(".tmp-")[0])
                super().__init__(path, *args, **kwargs)

        def files():
            return {
                path.name: (path.read_bytes(), path.stat().st_mtime_ns)
                for path in tmp_path.iterdir()
            }

        monkeypatch.setattr(artifacts_mod, "SegmentWriter", Recording)
        cold = QueryEngine.open(*saved, cache_dir=str(tmp_path)).warm()
        cold.close()
        expected = sorted(
            f"{cold.digest}.{section}.rpa" for section in SECTIONS
        )
        assert sorted(written) == expected
        before = files()
        assert sorted(before) == expected

        written.clear()
        registry = MetricsRegistry()
        with obs_runtime.activated(Tracer(), registry):
            QueryEngine.open(*saved, cache_dir=str(tmp_path)).warm().close()
        assert registry.counters["artifacts.hit"] == 3
        assert written == []
        assert files() == before

    def test_a_warm_study_loads_every_section_in_one_stage(
        self, tiny_synthetic, tmp_path
    ):
        make_study(
            tiny_synthetic, fresh_dataset(tiny_synthetic),
            ArtifactCache(tmp_path),
        ).tracking()
        warm = make_study(
            tiny_synthetic, fresh_dataset(tiny_synthetic),
            ArtifactCache(tmp_path),
        )
        at_load_end = []
        warm.trace.add_sink(
            lambda span: span.name == "artifacts.load"
            and at_load_end.append(artifact_counters(warm))
        )
        warm.tracking()
        loads = [
            span for span in warm.trace.spans if span.name == "artifacts.load"
        ]
        assert len(loads) == 1
        assert at_load_end == [{"artifacts.hit": 3}]
        assert artifact_counters(warm) == {"artifacts.hit": 3}

    def test_a_warm_tracked_devices_loads_only_the_tracking_section(
        self, tiny_synthetic, tmp_path
    ):
        cold = make_study(
            tiny_synthetic, fresh_dataset(tiny_synthetic),
            ArtifactCache(tmp_path),
        )
        cold.tracking()
        warm = make_study(
            tiny_synthetic, fresh_dataset(tiny_synthetic),
            ArtifactCache(tmp_path),
        )
        assert warm.tracked_devices() == cold.tracked_devices()
        # The devices come whole from the tracking section: no kernel
        # is mapped and no verdict decoded.
        assert artifact_counters(warm) == {"artifacts.hit": 1}
        assert warm.dataset.kernel_state[1:] == (None, None, None)
        # A later stage that reads the kernels asks for them (and the
        # verdicts) in a stage of its own.
        warm.dedup()
        assert artifact_counters(warm) == {"artifacts.hit": 3}
        assert len([
            span for span in warm.trace.spans if span.name == "artifacts.load"
        ]) == 2

    def test_stage_timings_sum_repeated_stages(self, tiny_synthetic, tmp_path):
        study = make_study(
            tiny_synthetic, fresh_dataset(tiny_synthetic),
            ArtifactCache(tmp_path),
        )
        study.tracking()
        stores = [
            span.wall for span in study.trace.spans
            if span.name == "artifacts.store"
        ]
        assert len(stores) >= 2
        assert study.stage_timings["artifacts.store"] == pytest.approx(
            sum(stores)
        )

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
