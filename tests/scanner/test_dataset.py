"""Tests for the columnar ScanDataset core and its observation index.

The index-backed lookups must return byte-identical results to the naive
row-path implementations they replaced; the naive versions live here as
reference oracles.
"""

import pytest

from repro.scanner.columns import ObservationColumns, ObservationIndex
from repro.scanner.dataset import ScanDataset
from repro.scanner.records import Observation, Scan
from repro.tls.handshake import HandshakeRecord

from ..core.helpers import DAY0, make_cert
from ..oracles.rows import verify_index_parity


# --- naive row-path oracles (the pre-columnar implementations) -----------------

def naive_appearances(dataset, fingerprint):
    sightings = []
    for scan_idx, scan in enumerate(dataset.scans):
        for obs in scan.observations:
            if obs.fingerprint == fingerprint:
                sightings.append((scan_idx, obs.ip))
    return sightings


def naive_handshake_of(dataset, fingerprint):
    for scan in dataset.scans:
        for obs in scan.observations:
            if obs.fingerprint == fingerprint and obs.handshake is not None:
                return obs.handshake
    return None


def naive_entities_of(dataset, fingerprint):
    entities = set()
    for scan in dataset.scans:
        for obs in scan.observations:
            if obs.fingerprint == fingerprint and obs.entity:
                entities.add(obs.entity)
    return entities


def handshake_corpus():
    """A hand-built corpus exercising handshakes, entities, duplicates."""
    cert_a = make_cert(cn="a", key_seed=1)
    cert_b = make_cert(cn="b", key_seed=2)
    cert_c = make_cert(cn="c", key_seed=3)
    hs_x = HandshakeRecord(version=0x0303, cipher=0xC013, tcp_window=29200, ip_ttl=64)
    hs_y = HandshakeRecord(version=0x0301, cipher=0x002F, tcp_window=14600, ip_ttl=255)
    scans = [
        Scan(day=DAY0, source="umich", observations=[
            Observation(10, cert_a.fingerprint, "device:1"),
            Observation(11, cert_a.fingerprint, "device:2", hs_x),
            Observation(20, cert_b.fingerprint, "", hs_y),
        ]),
        Scan(day=DAY0 + 7, source="umich", observations=[
            Observation(12, cert_a.fingerprint, "device:1", hs_y),
            Observation(20, cert_b.fingerprint, "website:5"),
        ]),
        Scan(day=DAY0 + 7, source="rapid7", observations=[
            Observation(13, cert_a.fingerprint),
        ]),
    ]
    certificates = {c.fingerprint: c for c in (cert_a, cert_b, cert_c)}
    return ScanDataset(scans, certificates), cert_a, cert_b, cert_c


class TestIndexMatchesNaive:
    """Satellite regression: index lookups == the naive implementations."""

    def test_handshake_of_matches_naive(self):
        dataset, *certs = handshake_corpus()
        for cert in certs:
            assert dataset.handshake_of(cert.fingerprint) == naive_handshake_of(
                dataset, cert.fingerprint
            )

    def test_entities_of_matches_naive(self):
        dataset, *certs = handshake_corpus()
        for cert in certs:
            assert dataset.entities_of(cert.fingerprint) == naive_entities_of(
                dataset, cert.fingerprint
            )

    def test_appearances_match_naive(self):
        dataset, *certs = handshake_corpus()
        for cert in certs:
            assert dataset.appearances(cert.fingerprint) == naive_appearances(
                dataset, cert.fingerprint
            )

    def test_unknown_fingerprint(self):
        dataset, *_ = handshake_corpus()
        missing = b"\x00" * 32
        assert dataset.appearances(missing) == []
        assert dataset.handshake_of(missing) is None
        assert dataset.entities_of(missing) == set()
        with pytest.raises(KeyError):
            dataset.first_last_day(missing)

    def test_whole_corpus_on_seeded_world(self, tiny_synthetic):
        dataset = tiny_synthetic.scans
        for fingerprint in list(dataset.certificates)[:50]:
            assert dataset.handshake_of(fingerprint) == naive_handshake_of(
                dataset, fingerprint
            )
            assert dataset.entities_of(fingerprint) == naive_entities_of(
                dataset, fingerprint
            )
            assert dataset.appearances(fingerprint) == naive_appearances(
                dataset, fingerprint
            )


class TestColumnarParity:
    def test_verify_index_parity_on_seeded_world(self, tiny_synthetic):
        # The oracle's parity checker walks *every* certificate.
        verify_index_parity(tiny_synthetic.scans)

    def test_columns_round_trip_rows(self):
        dataset, *_ = handshake_corpus()
        columns = dataset.columns
        position = 0
        for scan in dataset.scans:
            for obs in scan.observations:
                assert columns.observation_at(position) == obs
                position += 1
        assert position == len(columns)

    def test_index_positions_are_contiguous_and_complete(self):
        dataset, *_ = handshake_corpus()
        index = ObservationIndex(dataset.columns)
        seen = []
        for cert_id in range(len(dataset.columns.fingerprints)):
            seen.extend(index.positions(cert_id))
        assert sorted(seen) == list(range(len(dataset.columns)))


class TestColumnsStandalone:
    def test_interning_tables(self):
        dataset, cert_a, cert_b, _ = handshake_corpus()
        columns = ObservationColumns.from_scans(dataset.scans)
        assert columns.fingerprints[0] == cert_a.fingerprint
        assert columns.entities[0] == ""
        assert len(columns.handshakes) == 2  # hs_x and hs_y interned once
        assert len(columns) == dataset.n_observations

    def test_sighting_count(self):
        dataset, cert_a, cert_b, cert_c = handshake_corpus()
        index = dataset.index
        ids = dataset.columns.fingerprint_ids
        assert index.sighting_count(ids[cert_a.fingerprint]) == 4
        assert index.sighting_count(ids[cert_b.fingerprint]) == 2
        assert cert_c.fingerprint not in ids


class TestParallelCollection:
    def test_collect_workers_identical(self):
        from repro.internet.population import WorldConfig, build_world
        from repro.scanner.campaign import ScanCampaign

        config = WorldConfig(
            seed=11, n_devices=40, n_websites=10, n_generic_access=10,
            n_enterprise=3, n_hosting=3, unused_roots=0,
        )
        world = build_world(config)
        days = tuple(config.start_day + offset for offset in range(100, 120, 4))
        campaign = ScanCampaign("par", days)
        serial = ScanDataset.collect(world, [campaign])
        fanned = ScanDataset.collect(world, [campaign], workers=2)
        assert len(serial.scans) == len(fanned.scans)
        for left, right in zip(serial.scans, fanned.scans):
            assert left.observations == right.observations
        assert list(serial.certificates) == list(fanned.certificates)
