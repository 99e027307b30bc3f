"""Tests for the pluggable dataset backends."""

import pytest

from repro.io import save_dataset
from repro.io.backends import (
    DatasetBackend,
    InMemoryBackend,
    LazyCertificates,
    MappedBackend,
)
from repro.io.encoding import (
    FP_HASH_SEGMENT,
    SegmentError,
    SegmentReader,
    SegmentWriter,
)
from repro.io.store import load_dataset, read_manifest
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.scanner.dataset import ScanDataset

from ..core.helpers import DAY0, make_cert, make_dataset


def corpus():
    cert_a = make_cert(cn="a", key_seed=1)
    cert_b = make_cert(cn="b", key_seed=2, sans=("x.example",))
    return make_dataset(
        [
            (DAY0, "umich", [(100, cert_a), (200, cert_b)]),
            (DAY0 + 7, "rapid7", [(101, cert_a)]),
        ]
    )


class TestProtocol:
    def test_backends_satisfy_protocol(self, tmp_path):
        dataset = corpus()
        path = tmp_path / "c.rpz"
        save_dataset(dataset, path)
        assert isinstance(InMemoryBackend.from_dataset(dataset), DatasetBackend)
        assert isinstance(MappedBackend(path), DatasetBackend)


class TestInMemoryBackend:
    def test_round_trip(self):
        dataset = corpus()
        rebuilt = ScanDataset.from_backend(InMemoryBackend.from_dataset(dataset))
        assert len(rebuilt.scans) == len(dataset.scans)
        for left, right in zip(dataset.scans, rebuilt.scans):
            assert left.day == right.day
            assert left.source == right.source
            assert left.observations == right.observations
        assert set(rebuilt.certificates) == set(dataset.certificates)

    def test_describe(self):
        backend = InMemoryBackend.from_dataset(corpus())
        info = backend.describe()
        assert info["n_scans"] == 2
        assert info["n_observations"] == 3
        assert info["n_certificates"] == 2

    def test_columnar_storage_is_compact(self):
        # The backend holds columns + metadata, not row objects.
        backend = InMemoryBackend.from_dataset(corpus())
        assert len(backend.columns) == 3
        assert [meta[2:] for meta in backend.scan_meta] == [(0, 2), (2, 3)]

    def test_analyses_identical_through_backend(self, tiny_synthetic):
        dataset = tiny_synthetic.scans
        rebuilt = ScanDataset.from_backend(InMemoryBackend.from_dataset(dataset))
        from repro.core.validation import validate_dataset

        direct = validate_dataset(dataset, tiny_synthetic.world.trust_store)
        routed = validate_dataset(rebuilt, tiny_synthetic.world.trust_store)
        assert direct.invalid == routed.invalid
        assert direct.valid == routed.valid


class TestMappedBackend:
    def test_round_trip(self, tmp_path):
        dataset = corpus()
        path = tmp_path / "c.rpz"
        save_dataset(dataset, path)
        rebuilt = ScanDataset.from_backend(MappedBackend(path))
        for left, right in zip(dataset.scans, rebuilt.scans):
            assert left.observations == right.observations
        assert set(rebuilt.certificates) == set(dataset.certificates)

    def test_describe_reads_only_manifest(self, tmp_path):
        dataset = corpus()
        path = tmp_path / "c.rpz"
        save_dataset(dataset, path)
        info = MappedBackend(path).describe()
        assert info["format"] == 3
        assert info["n_observations"] == 3

    def test_piecemeal_loads(self, tmp_path):
        dataset = corpus()
        path = tmp_path / "c.rpz"
        save_dataset(dataset, path)
        backend = MappedBackend(path)
        assert set(backend.load_certificates()) == set(dataset.certificates)
        assert len(backend.load_scans()) == 2


@pytest.fixture()
def metrics():
    registry = MetricsRegistry()
    obs_runtime.activate(metrics=registry)
    try:
        yield registry
    finally:
        obs_runtime.deactivate()


@pytest.fixture()
def mapped(tmp_path):
    dataset = corpus()
    path = tmp_path / "mapped.rpz"
    save_dataset(dataset, path)
    return dataset, path


def _strip_hash_segment(src, dst):
    """Rewrite a container without ``cert_hash`` (a pre-segment corpus)."""
    reader = SegmentReader(src)
    writer = SegmentWriter(dst, meta=dict(reader.meta))
    for name in reader.names():
        if name == FP_HASH_SEGMENT:
            continue
        entry = reader.entry(name)
        writer.add_chunks(
            name, (reader.raw(name),), kind=entry["kind"],
            typecode=entry.get("typecode"), stride=entry.get("stride"),
        )
    writer.close()


class TestLazyCertificates:
    def test_saved_containers_carry_the_hash_segment(self, mapped):
        _, path = mapped
        assert FP_HASH_SEGMENT in SegmentReader(path)

    def test_lookups_use_the_persisted_hash_index(self, mapped):
        dataset, path = mapped
        certs = MappedBackend(path).load_certificates()
        for fingerprint, expected in dataset.certificates.items():
            assert certs[fingerprint].subject_cn == expected.subject_cn
        assert certs._hash is not None

    def test_parse_memo_counts_actual_parses_only(self, mapped, metrics):
        dataset, path = mapped
        certs = MappedBackend(path).load_certificates()
        fingerprints = list(dataset.certificates)
        for fingerprint in fingerprints:
            certs[fingerprint]
        assert metrics.counters["io.der_parse_total"] == len(fingerprints)
        for fingerprint in fingerprints * 3:
            certs[fingerprint]
        assert metrics.counters["io.der_parse_total"] == len(fingerprints)

    def test_memo_is_bounded_and_evicts_lru(self, mapped, metrics):
        _, path = mapped
        certs = LazyCertificates(SegmentReader(path), cache_size=1)
        first, second = list(certs)[:2]
        certs[first]
        certs[second]  # evicts first
        certs[second]  # hit
        certs[first]   # reparse
        assert metrics.counters["io.der_parse_total"] == 3

    def test_missing_and_malformed_keys(self, mapped):
        _, path = mapped
        certs = MappedBackend(path).load_certificates()
        with pytest.raises(KeyError):
            certs[b"\x00" * 32]
        assert b"\x00" * 32 not in certs
        assert "not-bytes" not in certs

    def test_containers_without_the_segment_fail_at_open(
        self, mapped, tmp_path
    ):
        _, path = mapped
        legacy = tmp_path / "legacy.rpz"
        _strip_hash_segment(path, legacy)
        assert FP_HASH_SEGMENT not in SegmentReader(legacy)
        for open_ in (MappedBackend, load_dataset, read_manifest):
            with pytest.raises(SegmentError, match=FP_HASH_SEGMENT):
                open_(legacy)
