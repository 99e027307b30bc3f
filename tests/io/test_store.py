"""Tests for corpus serialization."""

import json
import zipfile

import pytest

from repro.io.encoding import SegmentError, SegmentReader, SegmentWriter
from repro.io.store import (
    FORMAT_VERSION,
    load_dataset,
    read_manifest,
    save_dataset,
)
from repro.scanner.dataset import ScanDataset
from repro.scanner.records import Observation, Scan
from repro.tls.handshake import HandshakeRecord

from ..core.helpers import DAY0, make_cert, make_dataset


def small_dataset():
    a = make_cert(cn="a", key_seed=1)
    b = make_cert(cn="b", key_seed=2, sans=("x.example",), crl=("http://crl/1",))
    return make_dataset(
        [
            (DAY0, "umich", [(100, a), (200, b)]),
            (DAY0 + 7, "rapid7", [(101, a)]),
        ]
    )


class TestRoundTrip:
    def test_basic(self, tmp_path):
        dataset = small_dataset()
        path = tmp_path / "corpus.rpz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert len(loaded.scans) == len(dataset.scans)
        assert set(loaded.certificates) == set(dataset.certificates)
        for original, restored in zip(dataset.scans, loaded.scans):
            assert restored.day == original.day
            assert restored.source == original.source
            assert restored.observations == original.observations

    def test_certificates_reparse_identically(self, tmp_path):
        dataset = small_dataset()
        path = tmp_path / "corpus.rpz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        for fingerprint, cert in dataset.certificates.items():
            restored = loaded.certificates[fingerprint]
            assert restored == cert
            assert restored.to_der() == cert.to_der()

    def test_handshakes_survive(self, tmp_path):
        cert = make_cert(cn="hs", key_seed=3)
        handshake = HandshakeRecord(version=0x0303, cipher=0xC013,
                                    tcp_window=29200, ip_ttl=64)
        scan = Scan(
            day=DAY0, source="test",
            observations=[Observation(1, cert.fingerprint, "device:7", handshake)],
        )
        dataset = ScanDataset([scan], {cert.fingerprint: cert})
        path = tmp_path / "hs.rpz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        obs = loaded.scans[0].observations[0]
        assert obs.handshake == handshake
        assert obs.entity == "device:7"

    def test_entities_survive(self, tmp_path):
        cert = make_cert(cn="e", key_seed=4)
        scan = Scan(
            day=DAY0, source="test",
            observations=[Observation(1, cert.fingerprint, "device:42")],
        )
        dataset = ScanDataset([scan], {cert.fingerprint: cert})
        path = tmp_path / "e.rpz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.entities_of(cert.fingerprint) == {"device:42"}

    def test_synthetic_round_trip(self, tmp_path, tiny_synthetic, tiny_study):
        path = tmp_path / "tiny.rpz"
        save_dataset(tiny_synthetic.scans, path)
        loaded = load_dataset(path)
        assert loaded.n_observations == tiny_synthetic.scans.n_observations
        # Analyses produce identical results on the restored corpus.
        from repro.core.validation import validate_dataset

        report = validate_dataset(loaded, tiny_synthetic.world.trust_store)
        assert report.invalid == tiny_study.invalid


class TestFormat:
    def test_manifest_contents(self, tmp_path):
        dataset = small_dataset()
        path = tmp_path / "m.rpz"
        save_dataset(dataset, path)
        manifest = read_manifest(path)
        assert manifest["format"] == FORMAT_VERSION
        assert manifest["n_scans"] == 2
        assert manifest["n_certificates"] == 2
        assert manifest["n_observations"] == 3

    def test_der_blobs_standalone_parseable(self, tmp_path):
        import struct

        from repro.x509.certificate import Certificate

        dataset = small_dataset()
        path = tmp_path / "der.rpz"
        save_dataset(dataset, path)
        # The certificates segment holds length-prefixed DER records:
        # parseable without this library.
        blob = bytes(SegmentReader(path).raw("certificates.der"))
        (first_len,) = struct.unpack_from(">I", blob, 0)
        cert = Certificate.from_der(blob[4:4 + first_len])
        assert cert.fingerprint in dataset.certificates

    def test_segment_alignment(self, tmp_path):
        dataset = small_dataset()
        path = tmp_path / "align.rpz"
        save_dataset(dataset, path)
        reader = SegmentReader(path)
        for name in reader.names():
            assert reader.entry(name)["offset"] % 16 == 0, name

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.rpz"
        SegmentWriter(path, meta={"kind": "corpus"}, format=99).close()
        with pytest.raises(SegmentError, match="format=99"):
            load_dataset(path)

    @pytest.mark.parametrize("format", [1, 2])
    def test_retired_zip_formats_rejected_at_open(self, tmp_path, format):
        path = tmp_path / f"v{format}.rpz"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("manifest.json", json.dumps({"format": format}))
            archive.writestr("certificates.der", b"")
            archive.writestr("scans.jsonl", "")
        for open_ in (load_dataset, read_manifest):
            with pytest.raises(SegmentError, match="repro generate"):
                open_(path)

    def test_overwrite(self, tmp_path):
        dataset = small_dataset()
        path = tmp_path / "o.rpz"
        save_dataset(dataset, path)
        save_dataset(dataset, path)  # second write must not raise
        assert load_dataset(path).n_observations == 3

    def test_empty_scans_round_trip(self, tmp_path):
        cert = make_cert(cn="lonely", key_seed=9)
        dataset = ScanDataset(
            [
                Scan(day=DAY0, source="umich", observations=[]),
                Scan(day=DAY0 + 7, source="rapid7", observations=[]),
            ],
            {cert.fingerprint: cert},
        )
        path = tmp_path / "empty.rpz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert [scan.day for scan in loaded.scans] == [DAY0, DAY0 + 7]
        assert loaded.n_observations == 0
        # Unobserved certificates still travel with the corpus.
        assert cert.fingerprint in loaded.certificates
        assert loaded.appearances(cert.fingerprint) == []

    @staticmethod
    def _replace_manifest(path, text):
        """Overwrite the container's manifest bytes in place."""
        blob = bytearray(path.read_bytes())
        offset, length = (
            int.from_bytes(blob[-24 + 8 * index:-16 + 8 * index], "little")
            for index in range(2)
        )
        blob[offset:offset + length] = text.ljust(length).encode()
        path.write_bytes(bytes(blob))

    def test_corrupt_manifest_rejected(self, tmp_path):
        path = tmp_path / "corrupt.rpz"
        save_dataset(small_dataset(), path)
        self._replace_manifest(path, "{not json at all")
        with pytest.raises(SegmentError, match="manifest"):
            load_dataset(path)

    def test_non_object_manifest_rejected(self, tmp_path):
        path = tmp_path / "list.rpz"
        save_dataset(small_dataset(), path)
        self._replace_manifest(path, "[1, 2, 3]")
        with pytest.raises(SegmentError, match="manifest"):
            load_dataset(path)
