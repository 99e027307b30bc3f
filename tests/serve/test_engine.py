"""Server-vs-batch parity: every endpoint equals the direct pipeline answer."""

import json
import random
import shutil

import pytest

from repro.core.features import Feature
from repro.core.kernels import fused_group_consistency
from repro.core.linking import link_on_feature
from repro.core.tracking import summarize_as_assignment
from repro.io import ARTIFACT_SCHEMA, ArtifactCache
from repro.io.artifacts import SECTIONS
from repro.io.encoding import SegmentReader, SegmentWriter
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve import QueryEngine, QueryError
from repro.serve.engine import _format_ip, _parse_ip

from ..oracles.census import (
    naive_key_sharing,
    naive_lifetimes,
    naive_self_signed_fraction,
    naive_top_issuers,
    naive_validity_periods,
)


def _payload(engine, path):
    return json.loads(engine.respond(path))


class TestAddressCodec:
    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            value = rng.randrange(1 << 32)
            assert _parse_ip(_format_ip(value)) == value

    def test_rejects_garbage(self):
        for text in ("10.0.0", "1.2.3.999", "certainly-not", ""):
            with pytest.raises(QueryError) as err:
                _parse_ip(text)
            assert err.value.status == 400


class TestCertParity:
    def test_random_fingerprints_match_dataset(self, engine, oracle):
        validation = oracle.validation()
        population = sorted(validation.results)
        rng = random.Random(2016)
        for fingerprint in rng.sample(population, 50):
            payload = _payload(engine, f"/cert/{fingerprint.hex()}")
            certificate = oracle.dataset.certificate(fingerprint)
            appearances = oracle.dataset.appearances(fingerprint)
            assert payload["fingerprint"] == fingerprint.hex()
            assert payload["subject_cn"] == certificate.subject_cn
            assert payload["issuer_cn"] == certificate.issuer_cn
            assert payload["spki"] == \
                certificate.public_key.fingerprint.hex()
            assert payload["validity_period_days"] == \
                certificate.validity_period_days
            assert payload["self_signed"] == certificate.is_self_signed()
            assert payload["status"] == \
                validation.results[fingerprint].status.value
            assert payload["invalid"] == (fingerprint in validation.invalid)
            assert payload["n_appearances"] == len(appearances)
            assert payload["n_ips"] == len({ip for _, ip in appearances})
            if appearances:
                first, last = oracle.dataset.first_last_day(fingerprint)
                assert payload["first_day"] == first
                assert payload["last_day"] == last
                assert payload["lifetime_days"] == \
                    oracle.dataset.lifetime_days(fingerprint)

    def test_unknown_fingerprint_is_404(self, engine):
        with pytest.raises(QueryError) as err:
            engine.respond("/cert/" + "00" * 32)
        assert err.value.status == 404

    def test_malformed_fingerprint_is_400(self, engine):
        for bogus in ("zz" * 32, "abcd"):
            with pytest.raises(QueryError) as err:
                engine.respond(f"/cert/{bogus}")
            assert err.value.status == 400


class TestKeyGroupParity:
    def test_groups_match_link_on_feature(self, engine, oracle):
        result = link_on_feature(
            oracle.dataset, list(oracle.unique_invalid), Feature.PUBLIC_KEY
        )
        assert result.groups, "tiny corpus should link key groups"
        rng = random.Random(2016)
        for group in rng.sample(result.groups, min(20, len(result.groups))):
            spki = oracle.dataset.certificate(
                group.fingerprints[0]
            ).public_key.fingerprint.hex()
            payload = _payload(engine, f"/key/{spki}/group")
            assert payload["size"] == len(group.fingerprints)
            assert payload["fingerprints"] == [
                fingerprint.hex()
                for fingerprint in
                group.fingerprints[:QueryEngine.MAX_LISTED]
            ]
            ip, p24, p16, asn = fused_group_consistency(
                oracle.dataset, list(group.fingerprints), oracle.as_of
            )
            assert payload["consistency"] == pytest.approx({
                "ip": ip, "prefix24": p24, "prefix16": p16, "as": asn,
            })

    def test_unknown_key_is_404(self, engine):
        with pytest.raises(QueryError) as err:
            engine.respond("/key/" + "11" * 32 + "/group")
        assert err.value.status == 404


class TestTrackParity:
    def test_random_ips_match_tracked_devices(self, engine, oracle):
        devices = oracle.tracked_devices()
        sighted = sorted({
            ip for device in devices for _, _, ip in device.sightings
        })
        rng = random.Random(2016)
        for ip in rng.sample(sighted, min(30, len(sighted))):
            payload = _payload(engine, f"/track/{_format_ip(ip)}")
            expected = [
                device for device in devices
                if any(s_ip == ip for _, _, s_ip in device.sightings)
            ]
            assert payload["n_devices"] == len(expected)
            by_key = {row["device_key"]: row for row in payload["devices"]}
            for device in expected:
                row = by_key[device.device_key]
                assert row["n_fingerprints"] == len(device.fingerprints)
                assert row["first_day"] == device.first_day
                assert row["last_day"] == device.last_day
                assert row["span_days"] == device.span_days
                assert row["trackable"] == device.is_trackable()

    def test_unsighted_ip_answers_empty(self, engine, oracle):
        devices = oracle.tracked_devices()
        sighted = {
            ip for device in devices for _, _, ip in device.sightings
        }
        unseen = next(
            value for value in range(1, 1 << 32) if value not in sighted
        )
        payload = _payload(engine, f"/track/{_format_ip(unseen)}")
        assert payload == {
            "ip": _format_ip(unseen), "n_devices": 0, "devices": [],
        }


class TestCensusParity:
    def test_headline_numbers_match_oracles(self, engine, oracle):
        # The oracle Study shares the census code under test, so the
        # per-certificate census oracles carry the comparison.
        validation = oracle.validation()
        payload = _payload(engine, "/census")
        assert payload["considered"] == validation.considered
        assert payload["invalid_fraction"] == \
            pytest.approx(validation.invalid_fraction)
        for name, population in (
            ("valid", sorted(validation.valid)),
            ("invalid", sorted(validation.invalid)),
        ):
            stats = payload[name]
            assert stats["n"] == len(population)
            assert stats["validity_median_days"] == pytest.approx(
                naive_validity_periods(oracle.dataset, population).median
            )
            lifetime = naive_lifetimes(oracle.dataset, population)
            assert stats["lifetime_median_days"] == \
                pytest.approx(lifetime.median_days)
            assert stats["single_scan_fraction"] == \
                pytest.approx(lifetime.single_scan_fraction)
            assert stats["key_shared_fraction"] == pytest.approx(
                naive_key_sharing(oracle.dataset, population).shared_fraction
            )
            assert stats["self_signed_fraction"] == pytest.approx(
                naive_self_signed_fraction(oracle.dataset, population)
            )
            assert stats["top_issuers"] == [
                [issuer, count] for issuer, count in
                naive_top_issuers(oracle.dataset, population)
            ]

    def test_slice_equals_full_census_section(self, engine):
        census = _payload(engine, "/census")
        for name in ("valid", "invalid"):
            piece = _payload(engine, f"/census/{name}")
            expected = dict(census[name])
            expected.update(population=name, digest=census["digest"])
            assert piece == expected


def _copy_segments(reader, writer, drop=()):
    """Copy every segment of ``reader`` whose name starts with no
    ``drop`` entry, raw, into ``writer``."""
    for name in reader.names():
        if not name.startswith(tuple(drop)):
            writer.add_raw(name, (reader.raw(name),), reader.entry(name))


def _rewrite_artifact(path, schema=None, drop=()):
    """Rewrite an artifact in place under another schema or without the
    segments whose names start with a ``drop`` entry, copying every
    other segment's raw bytes."""
    reader = SegmentReader(path)
    meta = dict(reader.meta)
    if schema is not None:
        meta["schema"] = schema
    tmp = path.with_name(path.name + ".tmp")
    writer = SegmentWriter(tmp, meta=meta)
    _copy_segments(reader, writer, drop)
    writer.close()
    reader.close()
    tmp.replace(path)


def _bundle_sections(cache, digest):
    """Merge ``digest``'s section files into the one ``<digest>.rpa``
    bundle a schema-5 build wrote, and delete them."""
    bundle = cache.root / f"{digest}.rpa"
    writer = SegmentWriter(bundle, meta={
        "kind": "artifacts", "schema": 5, "digest": digest,
        "byteorder": "little", "sections": list(SECTIONS),
    })
    for section in SECTIONS:
        path = cache.path_for(digest, section)
        reader = SegmentReader(path)
        _copy_segments(reader, writer)
        reader.close()
        path.unlink()
    writer.close()
    return bundle


#: Section files under an older schema (None: the current one) that
#: lack the segments whose names start with the given prefixes; a
#: section left with no segment has no file.  The ``schema-5`` case is
#: the one-file bundle every build before schema 6 wrote instead.
OLD_BUNDLES = {
    "schema-2": (2, ("matrix.self_signed", "matrix.is_ca", "track.")),
    "no-self-signed-column": (None, ("matrix.self_signed",)),
    "schema-3": (3, ("matrix.is_ca", "track.")),
    "no-is-ca-column": (None, ("matrix.is_ca",)),
    "schema-4": (4, ("track.",)),
    "schema-5": (5, ()),
}


class TestWarmBoot:
    """A boot over a warm cache answers the census without parsing."""

    def _open(self, serve_paths, cache_dir):
        return QueryEngine.open(
            serve_paths["corpus"], serve_paths["environment"],
            cache_dir=str(cache_dir),
        )

    def test_warm_boot_parses_no_certificate(self, serve_paths, engine):
        registry = MetricsRegistry()
        with obs_runtime.activated(Tracer(), registry):
            booted = self._open(serve_paths, serve_paths["cache"]).warm()
            sample = json.loads(booted.respond("/sample"))
            validation = booted.study.validation()
            paths = ["/census", "/census/valid", "/census/invalid"] + [
                f"/key/{key}/group" for key in sample["keys"][:3]
            ] + [
                f"/cert/{min(population).hex()}"
                for population in (validation.valid, validation.invalid)
            ]
            for path in paths:
                assert booted.respond(path) == engine.respond(path)
            unknown = "/cert/" + "00" * 32
            errors = []
            for answering in (booted, engine):
                with pytest.raises(QueryError) as err:
                    answering.respond(unknown)
                errors.append((err.value.status, err.value.message))
            assert errors[0] == errors[1]
            assert registry.counters.get("io.der_parse_total", 0) == 0
            # Kernels, verdicts and the tracking state all loaded.
            assert registry.counters["artifacts.hit"] == 3
            assert "pipeline" not in booted.study.stage_timings

            # Reading a verdict itself parses at most its own chain.
            fingerprint = min(validation.valid)
            chain = validation.results[fingerprint].chain
            assert chain
            assert 1 <= registry.counters["io.der_parse_total"] <= len(chain)
        booted.close()

    def test_cold_boot_parses_each_certificate_once(
        self, serve_paths, tmp_path
    ):
        # Chain validation and the feature matrix read the same parsed
        # certificate, so an empty cache costs one parse per certificate.
        registry = MetricsRegistry()
        with obs_runtime.activated(Tracer(), registry):
            booted = self._open(serve_paths, tmp_path / "cold").warm()
            booted.respond("/census")
            certificates = len(booted.study.dataset.certificates)
        booted.close()
        assert registry.counters["artifacts.miss"] == 3
        assert registry.counters["io.der_parse_total"] == certificates

    @pytest.mark.parametrize("damage", list(OLD_BUNDLES))
    def test_old_bundle_is_rebuilt(self, serve_paths, engine, tmp_path, damage):
        cache_dir = tmp_path / "cache"
        shutil.copytree(serve_paths["cache"], cache_dir)
        cache = ArtifactCache(cache_dir)
        schema, dropped = OLD_BUNDLES[damage]
        damaged = 0
        if schema == 5:
            bundle = _bundle_sections(cache, engine.digest)
        else:
            for section in SECTIONS:
                path = cache.path_for(engine.digest, section)
                names = SegmentReader(path).names()
                if all(name.startswith(dropped) for name in names):
                    path.unlink()
                elif schema is not None \
                        or any(name.startswith(dropped) for name in names):
                    _rewrite_artifact(path, schema=schema, drop=dropped)
                    damaged += 1
        assert damaged == (1 if schema is None else 0 if schema == 5 else 2)
        registry = MetricsRegistry()
        with obs_runtime.activated(Tracer(), registry):
            rebuilt = self._open(serve_paths, cache_dir)
            assert rebuilt.respond("/census") == engine.respond("/census")
            rebuilt.warm()
        rebuilt.close()
        assert registry.counters.get("artifacts.invalidated", 0) == damaged
        if schema == 5:
            # The bundle is never opened: every section misses, and the
            # first section file written for the digest deletes it.
            assert registry.counters["artifacts.miss"] == 3
            assert not bundle.exists()
        names = []
        for section in SECTIONS:
            reader = SegmentReader(cache.path_for(engine.digest, section))
            assert reader.meta["schema"] == ARTIFACT_SCHEMA
            assert reader.meta["section"] == section
            names += reader.names()
        assert all(
            any(name.startswith(prefix) for name in names)
            for prefix in dropped
        )


class TestResultCache:
    def test_hot_responses_are_cached_bytes(self, engine):
        path = "/census"
        engine.respond(path)
        assert engine.cached(path) is not None
        assert engine.respond(path) == engine.cached(path)

    def test_cache_is_keyed_by_corpus_digest(self, engine):
        path = "/census"
        engine.respond(path)
        real = engine.digest
        try:
            engine.digest = "different-corpus"
            assert engine.cached(path) is None
        finally:
            engine.digest = real
        assert engine.cached(path) is not None

    def test_cache_is_bounded(self, serve_paths):
        small = QueryEngine.open(
            serve_paths["corpus"], serve_paths["environment"],
            cache_dir=str(serve_paths["cache"]), result_cache_size=2,
        )
        sample = json.loads(small.respond("/sample"))
        for fingerprint in sample["fingerprints"][:4]:
            small.respond(f"/cert/{fingerprint}")
        cached = sum(
            small.cached(f"/cert/{fingerprint}") is not None
            for fingerprint in sample["fingerprints"][:4]
        )
        assert cached <= 2
        small.close()


class TestASReassignmentParity:
    def test_summaries_match_tracking_oracle(self, engine, oracle):
        from repro.serve.engine import REASSIGNMENT_MIN_DEVICES

        stats_by_as = summarize_as_assignment(
            oracle.tracked_devices(), oracle.as_of
        )
        served = {
            asn: stats for asn, stats in stats_by_as.items()
            if stats.n_devices >= REASSIGNMENT_MIN_DEVICES
        }
        assert served, "tiny corpus must seed at least one servable AS"
        for asn, stats in served.items():
            payload = _payload(engine, f"/as/{asn}/reassignment")
            assert payload["asn"] == asn
            assert payload["n_devices"] == stats.n_devices
            assert payload["n_static"] == stats.n_static
            assert payload["n_fully_dynamic"] == stats.n_fully_dynamic
            assert payload["static_fraction"] == stats.static_fraction
            assert payload["dynamic_share"] == stats.dynamic_share
            assert payload["mostly_static"] == stats.is_mostly_static()
            assert payload["highly_dynamic"] == stats.is_highly_dynamic

    def test_thin_population_is_404(self, engine, oracle):
        from repro.serve.engine import REASSIGNMENT_MIN_DEVICES

        stats_by_as = summarize_as_assignment(
            oracle.tracked_devices(), oracle.as_of
        )
        thin = [
            asn for asn, stats in stats_by_as.items()
            if stats.n_devices < REASSIGNMENT_MIN_DEVICES
        ]
        unseen = next(
            value for value in range(64999, 66000)
            if value not in stats_by_as
        )
        for asn in thin + [unseen]:
            with pytest.raises(QueryError) as err:
                engine.respond(f"/as/{asn}/reassignment")
            assert err.value.status == 404

    def test_malformed_asn_is_400(self, engine):
        for text in ("notanas", "-5", "1.5"):
            with pytest.raises(QueryError) as err:
                engine.respond(f"/as/{text}/reassignment")
            assert err.value.status == 400


class TestSample:
    def test_sample_is_deterministic_and_resolvable(self, engine):
        first = _payload(engine, "/sample")
        assert first == _payload(engine, "/sample")
        assert first["fingerprints"] and first["keys"] and first["ips"]
        engine.respond(f"/cert/{first['fingerprints'][0]}")
        engine.respond(f"/key/{first['keys'][0]}/group")
        engine.respond(f"/track/{first['ips'][0]}")

    def test_unknown_path_is_404(self, engine):
        for path in ("/", "/nope", "/cert", "/key/aa/groups", "/census/x"):
            with pytest.raises(QueryError) as err:
                engine.respond(path)
            assert err.value.status == 404


class TestPoolParity:
    def test_pooled_heavy_queries_match_serial(self, serve_paths, engine):
        pooled = QueryEngine.open(
            serve_paths["corpus"], serve_paths["environment"],
            workers=2, cache_dir=str(serve_paths["cache"]),
        )
        pooled.warm()
        try:
            assert pooled.pool is not None
            assert pooled.respond("/census") == engine.respond("/census")
            sample = json.loads(engine.respond("/sample"))
            for key in sample["keys"][:3]:
                assert pooled.respond(f"/key/{key}/group") == \
                    engine.respond(f"/key/{key}/group")
        finally:
            pooled.close()
