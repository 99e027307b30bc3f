"""Tests for direct-to-columnar shard generation and the streaming writer.

The shard path must be *bitwise* interchangeable with the row emitter
kept in ``tests/oracles/rows.py``: same observations in the same order,
same interning tables, same certificate-store order, and — for the
streaming corpus writer — the same archive bytes as an in-memory build.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.synthetic import generate, generate_streamed
from repro.internet.population import WorldConfig, build_world
from repro.io import InMemoryBackend, MappedBackend, load_dataset, save_dataset
from repro.scanner.campaign import ScanCampaign
from repro.scanner.columns import ObservationColumns
from repro.scanner.dataset import ScanDataset
from repro.scanner.engine import ScanEngine
from repro.scanner.records import Observation, Scan
from repro.scanner.shards import (
    LazyObservations,
    columns_equal,
    finalize_shard,
    merge_shards,
    shard_scan,
)
from repro.tls.handshake import HandshakeRecord

from ..oracles.rows import RowEngine, collect_rows, verify_generation_parity

SMALL_CONFIG = WorldConfig(
    seed=11, n_devices=40, n_websites=10, n_generic_access=10,
    n_enterprise=3, n_hosting=3, unused_roots=0,
)


@pytest.fixture(scope="module")
def small_world():
    return build_world(SMALL_CONFIG)


@pytest.fixture(scope="module")
def small_campaign():
    days = tuple(
        SMALL_CONFIG.start_day + offset for offset in range(100, 140, 8)
    )
    return ScanCampaign("par", days)


class TestFinalizeShard:
    def test_sort_renumber_and_drop(self):
        fingerprints = [bytes([value]) * 32 for value in range(3)]
        entities = ["", "site:a", "site:b"]  # site:b never referenced
        handshakes = [
            HandshakeRecord(version=0x0303, cipher=0xC013,
                            tcp_window=29200, ip_ttl=64),
            HandshakeRecord(version=0x0301, cipher=0x002F,
                            tcp_window=14600, ip_ttl=255),
        ]
        # Generation-order rows: (ip, cert, entity, handshake), with two
        # spare preallocated slots past count=4.
        ip = array("I", [20, 10, 20, 10, 0, 0])
        cert_id = array("I", [1, 0, 0, 0, 0, 0])
        entity_id = array("I", [1, 0, 1, 0, 0, 0])
        handshake_id = array("i", [-1, 1, 0, -1, 0, 0])
        shard = finalize_shard(
            5, "umich", 4, ip, cert_id, entity_id, handshake_id,
            fingerprints, entities, handshakes,
        )
        # Stable (ip, fingerprint) sort: rows 1, 3 tie on (10, fp0) and
        # keep generation order; then (20, fp0), then (20, fp1).
        assert list(shard.ip) == [10, 10, 20, 20]
        # Tables renumbered to first appearance over the *sorted* rows;
        # fp2 and "site:b" were never referenced and drop out.
        assert shard.fingerprints == [fingerprints[0], fingerprints[1]]
        assert shard.entities == ["", "site:a"]
        assert shard.handshakes == [handshakes[1], handshakes[0]]
        assert list(shard.cert_id) == [0, 0, 0, 1]
        assert list(shard.entity_id) == [0, 0, 1, 1]
        assert list(shard.handshake_id) == [0, -1, 1, -1]

    def test_rehydration_matches_rows(self):
        fingerprints = [b"\xaa" * 32]
        handshakes = [
            HandshakeRecord(version=0x0303, cipher=0xC013,
                            tcp_window=29200, ip_ttl=64),
        ]
        shard = finalize_shard(
            3, "rapid7", 2,
            array("I", [9, 4]), array("I", [0, 0]), array("I", [0, 0]),
            array("i", [-1, 0]), fingerprints, [""], handshakes,
        )
        assert shard.observation_at(0) == Observation(
            4, fingerprints[0], "", handshakes[0]
        )
        assert shard.observation_at(1) == Observation(9, fingerprints[0])

    def test_pickle_round_trip(self, small_world, small_campaign):
        import pickle

        engine = ScanEngine(small_world)
        shard = engine.run_shard(small_campaign, small_campaign.scan_days[0])
        clone = pickle.loads(pickle.dumps(shard))
        assert shard_scan(clone).observations == shard_scan(shard).observations
        assert clone.fingerprints == shard.fingerprints


class TestLazyObservations:
    @pytest.fixture(scope="class")
    def lazy_and_rows(self, small_world, small_campaign):
        day = small_campaign.scan_days[0]
        engine = ScanEngine(small_world)
        lazy = shard_scan(engine.run_shard(small_campaign, day)).observations
        rows = RowEngine(small_world).row_observations(small_campaign, day)
        return lazy, rows

    def test_sequence_protocol(self, lazy_and_rows):
        lazy, rows = lazy_and_rows
        assert isinstance(lazy, LazyObservations)
        assert len(lazy) == len(rows) > 0
        assert lazy[0] == rows[0]
        assert lazy[-1] == rows[-1]
        assert lazy[2:7] == rows[2:7]
        assert list(lazy) == rows
        assert rows[0] in lazy

    def test_equality_both_ways(self, lazy_and_rows):
        lazy, rows = lazy_and_rows
        assert lazy == rows and rows == lazy  # reflected list equality
        assert lazy == tuple(rows)
        shorter = rows[:-1]
        assert lazy != shorter
        mutated = list(rows)
        mutated[0] = mutated[0]._replace(ip=mutated[0].ip ^ 1)
        assert lazy != mutated
        assert lazy != "not a sequence"

    def test_unhashable_like_a_list(self, lazy_and_rows):
        lazy, _ = lazy_and_rows
        with pytest.raises(TypeError):
            hash(lazy)

    def test_distinct_helpers_match_rows(self, lazy_and_rows):
        lazy, rows = lazy_and_rows
        assert lazy.distinct_ips() == {obs.ip for obs in rows}
        assert lazy.distinct_fingerprints() == {
            obs.fingerprint for obs in rows
        }


class TestScanMemoization:
    def test_ips_and_fingerprints_cached(self, small_world, small_campaign):
        engine = ScanEngine(small_world)
        scan = engine.run(small_campaign, small_campaign.scan_days[0])
        ips = scan.ips()
        fingerprints = scan.fingerprints()
        assert scan.ips() is ips  # memoized
        assert scan.fingerprints() is fingerprints
        assert ips == {obs.ip for obs in scan.observations}
        assert fingerprints == {obs.fingerprint for obs in scan.observations}

    def test_cached_on_plain_row_scans_too(self):
        observations = [
            Observation(1, b"\x01" * 32),
            Observation(2, b"\x01" * 32, "device:1"),
        ]
        scan = Scan(day=0, source="umich", observations=observations)
        assert scan.ips() == {1, 2}
        assert scan.ips() is scan.ips()
        assert scan.fingerprints() == {b"\x01" * 32}


class TestRowColumnarParity:
    """The tentpole invariant: shard generation == row generation, bitwise."""

    @pytest.fixture(scope="class")
    def both_paths(self, small_world, small_campaign):
        columnar = ScanDataset.collect(small_world, [small_campaign])
        rows = collect_rows(small_world, [small_campaign])
        return columnar, rows

    def test_scans_identical(self, both_paths):
        columnar, rows = both_paths
        assert [(s.day, s.source) for s in columnar.scans] == \
            [(s.day, s.source) for s in rows.scans]
        for lazy_scan, row_scan in zip(columnar.scans, rows.scans):
            assert lazy_scan.observations == row_scan.observations

    def test_certificate_store_order_identical(self, both_paths):
        columnar, rows = both_paths
        assert list(columnar.certificates) == list(rows.certificates)

    def test_merged_columns_match_row_columnarization(self, both_paths):
        columnar, rows = both_paths
        reference = ObservationColumns.from_scans(rows.scans)
        assert columns_equal(columnar.columns, reference)

    def test_collect_adopts_merged_columns(self, both_paths):
        # Satellite fix: no second columnarization pass — the dataset
        # owns the merged columns from the start.
        columnar, _ = both_paths
        assert columnar._columns is not None
        assert columnar.columns is columnar._columns
        assert columnar.build_columns() is columnar._columns

    def test_backend_adopts_columns_zero_copy(self, both_paths):
        columnar, _ = both_paths
        backend = InMemoryBackend.from_dataset(columnar)
        assert backend.columns is columnar._columns

    def test_handshake_parity(self, small_world, small_campaign):
        columnar = ScanDataset.collect(
            small_world, [small_campaign], collect_handshakes=True
        )
        rows = collect_rows(
            small_world, [small_campaign], collect_handshakes=True
        )
        for lazy_scan, row_scan in zip(columnar.scans, rows.scans):
            assert lazy_scan.observations == row_scan.observations
        assert any(
            obs.handshake is not None
            for scan in columnar.scans for obs in scan.observations
        )
        assert columns_equal(
            columnar.columns, ObservationColumns.from_scans(rows.scans)
        )

    def test_workers_identical_columns(self, small_world, small_campaign):
        serial = ScanDataset.collect(small_world, [small_campaign])
        fanned = ScanDataset.collect(
            small_world, [small_campaign], workers=4
        )
        assert columns_equal(serial.columns, fanned.columns)
        assert list(serial.certificates) == list(fanned.certificates)

    @pytest.mark.parametrize("handshakes", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_generation_matches_row_oracle(
        self, small_world, small_campaign, handshakes, workers
    ):
        dataset = ScanDataset.collect(
            small_world, [small_campaign],
            collect_handshakes=handshakes, workers=workers,
        )
        assert dataset.n_observations > 0
        verify_generation_parity(
            dataset, small_world, [small_campaign], handshakes
        )


class TestStreamingWriter:
    """Shard-streamed archives must be bitwise-identical to in-memory ones."""

    @pytest.fixture(scope="class")
    def streamed_and_memory(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("streamed")
        receipt = generate_streamed(
            SMALL_CONFIG, directory / "streamed.rpz", scan_stride=8
        )
        built = generate(SMALL_CONFIG, scan_stride=8)
        memory_path = directory / "memory.rpz"
        memory_digest = save_dataset(built.scans, memory_path)
        return receipt, built, memory_path, memory_digest

    def test_bitwise_identical_to_in_memory_build(self, streamed_and_memory):
        receipt, _, memory_path, memory_digest = streamed_and_memory
        assert receipt.digest == memory_digest
        assert receipt.path.read_bytes() == memory_path.read_bytes()

    def test_incremental_digest_matches_file_hash(self, streamed_and_memory):
        receipt, *_ = streamed_and_memory
        assert MappedBackend(receipt.path).corpus_digest() == receipt.digest

    def test_receipt_counts(self, streamed_and_memory):
        receipt, built, *_ = streamed_and_memory
        assert receipt.n_scans == len(built.scans.scans)
        assert receipt.n_observations == built.scans.n_observations
        assert receipt.n_certificates == len(built.scans.certificates)

    def test_round_trip_load(self, streamed_and_memory):
        receipt, built, *_ = streamed_and_memory
        loaded = load_dataset(receipt.path)
        assert len(loaded.scans) == len(built.scans.scans)
        for loaded_scan, scan in zip(loaded.scans, built.scans.scans):
            assert (loaded_scan.day, loaded_scan.source) == (scan.day, scan.source)
            assert loaded_scan.observations == scan.observations
        # Archive order is canonical (observed first, extras sorted), so
        # compare contents, not insertion order.
        assert set(loaded.certificates) == set(built.scans.certificates)

    def test_workers_stream_identical(self, streamed_and_memory, tmp_path):
        receipt, *_ = streamed_and_memory
        fanned = generate_streamed(
            SMALL_CONFIG, tmp_path / "fanned.rpz", scan_stride=8, workers=3
        )
        assert fanned.digest == receipt.digest
        assert fanned.path.read_bytes() == receipt.path.read_bytes()

    def test_handshake_stream_identical(self, tmp_path):
        receipt = generate_streamed(
            SMALL_CONFIG, tmp_path / "hs.rpz",
            scan_stride=8, collect_handshakes=True,
        )
        built = generate(SMALL_CONFIG, scan_stride=8, collect_handshakes=True)
        digest = save_dataset(built.scans, tmp_path / "hs-memory.rpz")
        assert receipt.digest == digest

    def test_abort_cleans_spool(self, tmp_path):
        from repro.io.store import StreamingDatasetWriter

        path = tmp_path / "aborted.rpz"
        writer = StreamingDatasetWriter(path)
        writer.abort()
        assert not path.exists()
        assert not list(tmp_path.iterdir())


class TestRechunkedMergeProperty:
    """Chunk-boundary invariance of shard interning (hypothesis).

    The incremental-ingestion invariant in its purest form: interning
    shard tables in local-id order, shard by shard, reproduces the
    global serial first-appearance order *no matter where the stream is
    cut*.  ``merge_shards`` over arbitrary chunks of a day stream,
    recombined with ``ObservationColumns._merge_shards``, must be
    bitwise-identical to one one-shot merge — under any hash seed.
    """

    _DAY_SHARDS = None

    @classmethod
    def _day_shards(cls):
        if cls._DAY_SHARDS is None:
            world = build_world(SMALL_CONFIG)
            engine = ScanEngine(world)
            days = tuple(
                SMALL_CONFIG.start_day + offset
                for offset in range(100, 148, 8)
            )
            campaigns = (
                ScanCampaign("alpha", days), ScanCampaign("beta", days[::2]),
            )
            schedule = sorted(
                ((day, campaign)
                 for campaign in campaigns for day in campaign.scan_days),
                key=lambda task: (task[0], task[1].name),
            )
            cls._DAY_SHARDS = tuple(
                engine.run_shard(campaign, day) for day, campaign in schedule
            )
        return cls._DAY_SHARDS

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_rechunk_is_bitwise_identical(self, data):
        shards = self._day_shards()
        cuts = data.draw(
            st.sets(st.integers(1, len(shards) - 1)),
            label="chunk boundaries",
        )
        bounds = [0, *sorted(cuts), len(shards)]
        one_shot, scan_meta = merge_shards(shards)
        assert [(day, source) for day, source, _, _ in scan_meta] == \
            [(shard.day, shard.source) for shard in shards]
        chunks = []
        for start, stop in zip(bounds, bounds[1:]):
            chunk, _ = merge_shards(shards[start:stop])
            # merge_shards numbers scans from 0 within each call; restore
            # the global scan index before recombining.
            chunk.scan_idx = array(
                "I", (index + start for index in chunk.scan_idx)
            )
            chunks.append(chunk)
        merged = ObservationColumns._merge_shards(chunks)
        assert columns_equal(merged, one_shot)
