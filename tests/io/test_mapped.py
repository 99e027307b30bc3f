"""Zero-copy mapped datasets: parity, laziness, pickling, fan-out.

The acceptance surface of the format 3 substrate: a mapped dataset must
be observationally identical to a materialized one, stay lazy until
queried, and ship to workers by path.
"""

import pickle

import pytest

from repro.io import MappedBackend, load_dataset, save_dataset
from repro.io.backends import LazyCertificates
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.scanner.dataset import ScanDataset
from repro.scanner.shards import columns_equal
from repro.study import Study


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory, tiny_synthetic):
    """The tiny corpus saved as a format 3 container, plus its digest."""
    directory = tmp_path_factory.mktemp("mapped")
    v3 = directory / "native.rpz"
    digest = save_dataset(tiny_synthetic.scans, v3)
    return v3, digest


@pytest.fixture()
def metrics():
    """A process-wide metrics registry active for the duration of a test."""
    registry = MetricsRegistry()
    obs_runtime.activate(metrics=registry)
    try:
        yield registry
    finally:
        obs_runtime.deactivate()


class TestMappedParity:
    def test_mapped_columns_bitwise_equal_materialized(
        self, corpus_paths, tiny_synthetic
    ):
        v3, _ = corpus_paths
        mapped = load_dataset(v3)
        assert mapped.columns.is_mapped
        assert columns_equal(mapped.columns, tiny_synthetic.scans.columns)
        # The escape hatch copies everything out of the map, bit-for-bit.
        mapped.materialize()
        assert not mapped.columns.is_mapped
        assert columns_equal(mapped.columns, tiny_synthetic.scans.columns)

    def test_mapped_rows_equal_original(self, corpus_paths, tiny_synthetic):
        v3, _ = corpus_paths
        mapped = load_dataset(v3)
        for left, right in zip(mapped.scans, tiny_synthetic.scans.scans):
            assert left.day == right.day
            assert left.source == right.source
            assert list(left.observations) == list(right.observations)

    def test_corpus_digest_matches_writer(self, corpus_paths):
        v3, digest = corpus_paths
        assert load_dataset(v3).corpus_digest() == digest

    def test_materialized_resave_equals_native(
        self, corpus_paths, tmp_path, tiny_synthetic
    ):
        v3, digest = corpus_paths
        # The materializing path copies every column and certificate
        # out of the map...
        materialized = load_dataset(v3).materialize()
        assert not materialized.columns.is_mapped
        assert isinstance(materialized.certificates, dict)
        assert columns_equal(
            materialized.columns, tiny_synthetic.scans.columns
        )
        # ...and re-saving it reproduces the container bitwise.
        resaved = tmp_path / "resaved.rpz"
        assert save_dataset(materialized, resaved) == digest
        assert resaved.read_bytes() == v3.read_bytes()


class TestLaziness:
    def test_open_is_lazy_and_counted(self, corpus_paths, metrics):
        v3, _ = corpus_paths
        dataset = load_dataset(v3)
        assert metrics.counters.get("io.mmap_open_total", 0) == 1
        # Opening copies out only the small interning/meta tables — the
        # data columns and DER blob stay in the map.
        opened = metrics.counters.get("io.bytes_materialized", 0)
        assert opened < v3.stat().st_size / 10
        assert dataset.n_observations > 0

    def test_materialize_counts_bytes(self, corpus_paths, metrics):
        v3, _ = corpus_paths
        dataset = load_dataset(v3)
        baseline = metrics.counters.get("io.bytes_materialized", 0)
        dataset.columns.materialize()
        copied = metrics.counters.get("io.bytes_materialized", 0) - baseline
        # At least the five integer columns were copied out of the map.
        assert copied >= 5 * 4 * dataset.n_observations

    def test_column_reads_do_not_materialize(self, corpus_paths, metrics):
        v3, _ = corpus_paths
        dataset = load_dataset(v3)
        baseline = metrics.counters.get("io.bytes_materialized", 0)
        ips = dataset.columns.ip
        assert len({ips[i] for i in range(len(ips))}) > 1
        assert metrics.counters.get("io.bytes_materialized", 0) == baseline


class TestLazyCertificates:
    def test_mapping_protocol(self, corpus_paths, tiny_synthetic):
        v3, _ = corpus_paths
        dataset = load_dataset(v3)
        certs = dataset.certificates
        assert isinstance(certs, LazyCertificates)
        originals = tiny_synthetic.scans.certificates
        assert len(certs) == len(originals)
        assert set(certs) == set(originals)
        some = next(iter(originals))
        assert some in certs
        assert b"\x00" * 32 not in certs
        with pytest.raises(KeyError):
            certs[b"\x00" * 32]

    def test_on_demand_parse_matches_original(
        self, corpus_paths, tiny_synthetic
    ):
        v3, _ = corpus_paths
        certs = load_dataset(v3).certificates
        for fingerprint, original in tiny_synthetic.scans.certificates.items():
            parsed = certs[fingerprint]
            assert parsed.fingerprint == fingerprint
            assert parsed.to_der() == original.to_der()


class TestPickling:
    def test_mapped_dataset_pickles_by_path(self, corpus_paths):
        v3, digest = corpus_paths
        dataset = load_dataset(v3)
        blob = pickle.dumps(dataset)
        # The columns travel as a path, not by value: the pickle must be
        # far smaller than the container it references.
        assert len(blob) < v3.stat().st_size / 4
        clone = pickle.loads(blob)
        assert clone.columns.is_mapped
        assert columns_equal(clone.columns, dataset.columns)
        assert clone.corpus_digest() == digest

    def test_pickled_clone_ships_built_kernels(self, corpus_paths):
        v3, _ = corpus_paths
        dataset = load_dataset(v3)
        fingerprint = next(iter(dataset.certificates))
        appearances = dataset.appearances(fingerprint)  # builds the index
        clone = pickle.loads(pickle.dumps(dataset))
        assert clone.appearances(fingerprint) == appearances


class TestWorkerFanOut:
    def test_serial_vs_workers_identical(self, corpus_paths, tiny_synthetic):
        v3, _ = corpus_paths
        world = tiny_synthetic.world

        def build(workers):
            return Study(
                dataset=ScanDataset.from_backend(MappedBackend(v3)),
                trust_store=world.trust_store,
                as_of=world.routing.origin_as,
                registry=world.registry,
                workers=workers,
            )

        serial = build(1)
        fanned = build(4)
        assert serial.invalid == fanned.invalid
        assert serial.dedup().unique == fanned.dedup().unique
        base = serial.feature_evaluations()
        routed = fanned.feature_evaluations()
        assert list(base) == list(routed)
        for feature in base:
            assert base[feature].total_linked == routed[feature].total_linked
            assert {g.fingerprints for g in base[feature].result.groups} == {
                g.fingerprints for g in routed[feature].result.groups
            }
        assert {g.fingerprints for g in serial.pipeline().groups} == {
            g.fingerprints for g in fanned.pipeline().groups
        }


class TestBackendDispatch:
    def test_load_dataset_picks_mapped_backend(self, corpus_paths):
        v3, _ = corpus_paths
        assert isinstance(load_dataset(v3).backend, MappedBackend)


class TestMutationGuards:
    """Mapped columns are read-only; mutators must say so by name."""

    def test_append_on_mapped_columns_raises(self, corpus_paths):
        from repro.scanner.records import Observation

        v3, _ = corpus_paths
        columns = load_dataset(v3).columns
        observation = Observation(
            ip=1, fingerprint=b"\xaa" * 32, entity="site:x", handshake=None
        )
        with pytest.raises(TypeError, match=r"materialize\(\)"):
            columns.append(0, observation, entity_ids={}, handshake_ids={})

    def test_intern_new_fingerprint_on_mapped_table_raises(self, corpus_paths):
        v3, _ = corpus_paths
        columns = load_dataset(v3).columns
        # Known fingerprints still resolve (read path stays open)...
        known = columns.fingerprints[0]
        assert columns.intern_fingerprint(known) == 0
        # ...but growing the mapped table is refused by name.
        with pytest.raises(TypeError, match=r"materialize\(\)"):
            columns.intern_fingerprint(b"\xbb" * 32)

    def test_materialize_reopens_mutation(self, corpus_paths):
        v3, _ = corpus_paths
        columns = load_dataset(v3).columns.materialize()
        before = len(columns.fingerprints)
        assert columns.intern_fingerprint(b"\xbb" * 32) == before
