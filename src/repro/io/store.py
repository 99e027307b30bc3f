"""Scan-corpus serialization.

The paper published its code and data (securepki.org); this module is the
equivalent facility: a :class:`~repro.scanner.dataset.ScanDataset` round-
trips through a single ``.rpz`` file.

**Format 3** — the only corpus format read or written — is the
mmap-native segment container of :mod:`repro.io.encoding`: the five
observation columns, the interning tables, the per-scan metadata, and
the certificate blob each live in one fixed-stride little-endian
segment, described by a JSON manifest at the tail of the file.  Opening
a corpus is O(1) — read the trailer, parse the manifest, ``mmap`` the
file — and every column is consumed in place as a ``memoryview`` over
the map, so N processes analyzing the same corpus share one physical
copy through the page cache.  ``certificates.der`` keeps a
standalone-parseable record encoding (4-byte big-endian length + raw
X.509 DER), with a parallel offset segment for O(1) per-certificate
access; certificates are parsed lazily, on first use.  A file that is
not an intact corpus container (including a ZIP archive of the retired
formats 1 and 2) fails at open with a
:class:`~repro.io.encoding.SegmentError`.

DER is the ground-truth encoding: every certificate read re-parses
through :meth:`Certificate.from_der`, so a stored corpus exercises
exactly the same parse path a real scan corpus would.
"""

from __future__ import annotations

import pathlib
from array import array
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from ..obs import runtime as obs
from ..scanner.dataset import ScanDataset
from ..scanner.shards import ScanShard, certificate_order
from ..tls.handshake import HandshakeRecord
from ..x509.certificate import Certificate
from .backends import MappedBackend, open_corpus
from .encoding import (
    FP_HASH_SEGMENT,
    SegmentReader,
    SegmentWriter,
    as_array,
    build_fingerprint_hash,
    iter_der_records,
    le_bytes,
    pack_der_record,
    pack_fingerprints,
    unpack_fingerprints,
)

__all__ = [
    "save_dataset",
    "load_dataset",
    "read_manifest",
    "append_shards",
    "AppendResult",
    "StreamingDatasetWriter",
    "FORMAT_VERSION",
    "ShardDrop",
    "write_shard_drop",
    "read_shard_drop",
]

FORMAT_VERSION = 3

#: The four spooled observation columns (scan_idx regenerates at close).
_SPOOLED = (("ip", "I"), ("cert_id", "I"), ("entity_id", "I"),
            ("handshake_id", "i"))


# ---------------------------------------------------------------------------
# Writing (always format 3)
# ---------------------------------------------------------------------------

class StreamingDatasetWriter:
    """Incremental ``.rpz`` writer: shards in, container + digest out.

    Feed per-day :class:`~repro.scanner.shards.ScanShard` columns with
    :meth:`add_shard` in (day, source) order; each shard is re-interned
    against the writer's global tables (replaying exactly the corpus
    first-appearance order an in-memory merge produces) and its column
    bytes are spooled to per-column temp files next to the target — peak
    memory stays O(largest shard) + O(interning tables), never
    O(corpus).  :meth:`close` assembles the final format 3 container
    through the hashing :class:`~repro.io.encoding.SegmentWriter` and
    returns the corpus digest, which equals both
    ``MappedBackend(path).corpus_digest()`` and the digest of a
    :func:`save_dataset` write of the same corpus, byte for byte.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self._spools = {
            name: open(self._spool_path(name), "wb")
            for name, _ in _SPOOLED
        }
        self._fingerprint_ids: dict[bytes, int] = {}
        self._fingerprints: list[bytes] = []
        self._entity_ids: dict[str, int] = {"": 0}
        self._entities: list[str] = [""]
        self._handshake_ids: dict[HandshakeRecord, int] = {}
        self._handshakes: list[HandshakeRecord] = []
        self._scan_days: list[int] = []
        self._scan_sources: list[str] = []
        self._scan_counts: list[int] = []
        self.n_scans = 0
        self.n_observations = 0
        self.digest: "str | None" = None

    def _spool_path(self, name: str) -> pathlib.Path:
        return self.path.with_name(f"{self.path.name}.{name}.tmp")

    # --- feeding ---------------------------------------------------------------

    def add_shard(self, shard: ScanShard) -> None:
        """Intern one day shard's tables and spool its columns."""
        cert_map = [
            self._intern(self._fingerprint_ids, self._fingerprints, fingerprint)
            for fingerprint in shard.fingerprints
        ]
        entity_map = [
            self._intern(self._entity_ids, self._entities, tag)
            for tag in shard.entities
        ]
        handshake_map = [
            self._intern(self._handshake_ids, self._handshakes, record)
            for record in shard.handshakes
        ]
        self._append_scan(
            shard.day,
            shard.source,
            shard.ip,
            array("I", map(cert_map.__getitem__, shard.cert_id)),
            array("I", map(entity_map.__getitem__, shard.entity_id)),
            array("i", (
                handshake_map[handshake_id] if handshake_id >= 0 else -1
                for handshake_id in shard.handshake_id
            )),
        )
        obs.inc("scanner.shards_streamed")

    @staticmethod
    def _intern(ids: dict, table: list, value) -> int:
        interned = ids.get(value)
        if interned is None:
            interned = ids[value] = len(table)
            table.append(value)
        return interned

    def _adopt_tables(self, fingerprints, entities, handshakes) -> None:
        """Seed the writer tables from already-merged corpus columns.

        Only valid on a fresh writer; :func:`save_dataset` uses this so
        global column ids can be spooled as-is.
        """
        assert not self.n_scans and not self._fingerprints
        self._fingerprints = list(fingerprints)
        self._fingerprint_ids = {
            fingerprint: index
            for index, fingerprint in enumerate(self._fingerprints)
        }
        self._entities = list(entities)
        self._entity_ids = {
            tag: index for index, tag in enumerate(self._entities)
        }
        self._handshakes = list(handshakes)
        self._handshake_ids = {
            record: index for index, record in enumerate(self._handshakes)
        }

    def _append_scan(self, day, source, ip, cert, entity, handshake) -> None:
        """Spool one scan's columns (already in global ids)."""
        self._spools["ip"].write(le_bytes(ip))
        self._spools["cert_id"].write(le_bytes(cert))
        self._spools["entity_id"].write(le_bytes(entity))
        self._spools["handshake_id"].write(le_bytes(handshake))
        self._scan_days.append(day)
        self._scan_sources.append(source)
        self._scan_counts.append(len(ip))
        self.n_scans += 1
        self.n_observations += len(ip)

    # --- finishing -------------------------------------------------------------

    def _scan_idx_chunks(self):
        """Generate the scan_idx column from the per-scan counts."""
        for scan_index, count in enumerate(self._scan_counts):
            if count:
                yield le_bytes(array("I", (scan_index,)) * count)

    def close(self, certificates: Mapping[bytes, Certificate]) -> str:
        """Assemble the container and return its corpus digest."""
        with obs.span("corpus/stream_close", scans=self.n_scans):
            try:
                for spool in self._spools.values():
                    spool.close()
                order = certificate_order(self._fingerprints, certificates)
                writer = SegmentWriter(
                    self.path,
                    meta={
                        "kind": "corpus",
                        "n_scans": self.n_scans,
                        "n_certificates": len(certificates),
                        "n_observations": self.n_observations,
                    },
                    format=FORMAT_VERSION,
                )
                try:
                    writer.add_chunks(
                        "scan_idx", self._scan_idx_chunks(),
                        kind="array", typecode="I",
                    )
                    for name, typecode in _SPOOLED:
                        with open(self._spool_path(name), "rb") as spool:
                            writer.add_stream(
                                name, spool, kind="array", typecode=typecode
                            )
                    writer.add_bytes(
                        "fingerprints",
                        pack_fingerprints(self._fingerprints), stride=32,
                    )
                    writer.add_json("entities", self._entities)
                    writer.add_json(
                        "handshakes",
                        [list(record) for record in self._handshakes],
                    )
                    writer.add_array(
                        "scan_days", array("i", self._scan_days)
                    )
                    writer.add_json("scan_sources", self._scan_sources)
                    bounds = array("Q", (0,))
                    for count in self._scan_counts:
                        bounds.append(bounds[-1] + count)
                    writer.add_array("scan_bounds", bounds)
                    writer.add_bytes(
                        "cert_order", pack_fingerprints(order), stride=32
                    )
                    offsets = array("Q", (0,))

                    def der_chunks():
                        for fingerprint in order:
                            record = pack_der_record(
                                certificates[fingerprint].to_der()
                            )
                            offsets.append(offsets[-1] + len(record))
                            yield record

                    writer.add_chunks("certificates.der", der_chunks())
                    writer.add_array("cert_offsets", offsets)
                    writer.add_array(
                        FP_HASH_SEGMENT, build_fingerprint_hash(order)
                    )
                    self.digest = writer.close()
                except BaseException:
                    writer.abort()
                    raise
            finally:
                for name, _ in _SPOOLED:
                    self._spool_path(name).unlink(missing_ok=True)
        return self.digest

    def abort(self) -> None:
        """Discard the spools without writing a container."""
        for spool in self._spools.values():
            spool.close()
        for name, _ in _SPOOLED:
            self._spool_path(name).unlink(missing_ok=True)


def save_dataset(dataset: ScanDataset, path: Union[str, pathlib.Path]) -> str:
    """Write the corpus to one format 3 ``.rpz`` container (overwrites).

    Runs on the same :class:`StreamingDatasetWriter` machinery the
    shard-streaming generation path uses — same segment order, same
    incremental digest — so an in-memory build and a streamed build of
    the same corpus produce byte-identical containers.  Columns are
    spooled scan-by-scan and certificates stream record-by-record, so
    peak memory stays O(one scan), not O(corpus).  Returns the
    container's corpus digest.
    """
    columns = dataset.columns
    writer = StreamingDatasetWriter(path)
    try:
        writer._adopt_tables(
            columns.fingerprints, columns.entities, columns.handshakes
        )
        position = 0
        for scan in dataset.scans:
            end = position + len(scan)
            writer._append_scan(
                scan.day,
                scan.source,
                columns.ip[position:end],
                columns.cert_id[position:end],
                columns.entity_id[position:end],
                columns.handshake_id[position:end],
            )
            position = end
    except BaseException:
        writer.abort()
        raise
    return writer.close(dataset.certificates)


# ---------------------------------------------------------------------------
# Incremental ingestion (O(day) corpus appends)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppendResult:
    """What one :func:`append_shards` call did."""

    #: The grown container.
    path: pathlib.Path
    #: Its corpus digest (equals ``file_digest(path)``).
    digest: str
    #: Scan count / row count / observed-certificate-table size of the
    #: base container — the delta boundary for the ``extended`` kernels.
    base_scans: int
    base_observations: int
    base_observed_certs: int
    #: Grown totals (match the new container's manifest meta).
    n_scans: int
    n_observations: int
    n_certificates: int
    #: Distinct scan days this append introduced, in order.
    new_days: tuple
    #: Base bytes re-emitted as raw copies (never decoded or re-encoded).
    bytes_reused: int


def append_shards(
    base: Union[str, pathlib.Path],
    shards: Union[ScanShard, Sequence[ScanShard]],
    certificates: Mapping[bytes, Certificate],
    path: Union[str, pathlib.Path],
) -> AppendResult:
    """Grow a format 3 corpus by one or more appended scan shards.

    The O(day) ingestion path: the base container is opened O(1)
    (trailer + manifest), each shard's day-local tables are re-interned
    against the base tables — replaying exactly the global
    first-appearance order :class:`StreamingDatasetWriter` would produce
    had the shard been streamed into the original build — and the grown
    container is emitted by **raw-copying** the unchanged byte ranges
    (the five column segments, the fingerprint table, the observed
    certificate order, and every retained DER record) and appending only
    the delta tail.  Small metadata segments (interning tables, scan
    metadata) are re-encoded from the grown values.  The result is
    byte-identical to a from-scratch build over the grown corpus, so its
    digest — and every artifact keyed by it — is append-path-invariant.

    Shards must arrive in strictly increasing ``(day, source)`` order
    and sort after the base's last scan; anything else raises
    ``ValueError`` (out-of-order ingestion would reorder the corpus and
    break append invariance).  ``certificates`` must cover every
    appended certificate not already in the base (a fresh
    ``ScanEngine.certificate_store`` for the day suffices; entries whose
    fingerprint the base already holds are raw-copied from the base).
    """
    if isinstance(shards, ScanShard):
        shards = [shards]
    else:
        shards = list(shards)
    if not shards:
        raise ValueError("nothing to append")
    base_path = pathlib.Path(base)
    path = pathlib.Path(path)
    reader = open_corpus(base_path)
    meta = reader.meta
    new_days = tuple(dict.fromkeys(shard.day for shard in shards))
    with obs.span("ingest/append_day", shards=len(shards),
                  days=len(new_days)):
        result = _append_shards(reader, shards, certificates, path)
    obs.inc("ingest.days", len(new_days))
    obs.inc("ingest.rows", result.n_observations - result.base_observations)
    obs.inc("ingest.certs",
            result.n_certificates - meta["n_certificates"])
    obs.inc("ingest.bytes_reused", result.bytes_reused)
    return result


def _append_shards(
    reader: SegmentReader,
    shards: "list[ScanShard]",
    certificates: Mapping[bytes, Certificate],
    path: pathlib.Path,
) -> AppendResult:
    meta = reader.meta
    base_scans = meta["n_scans"]
    base_rows = meta["n_observations"]

    # --- base tables (small: interning tables + per-scan metadata) -----------
    fp_blob = reader.raw("fingerprints")
    fingerprints = unpack_fingerprints(fp_blob)
    base_observed = len(fingerprints)
    fingerprint_ids = {fp: i for i, fp in enumerate(fingerprints)}
    entities = reader.json("entities")
    entity_ids = {tag: i for i, tag in enumerate(entities)}
    handshakes = [
        HandshakeRecord(*record) for record in reader.json("handshakes")
    ]
    handshake_ids = {record: i for i, record in enumerate(handshakes)}
    scan_days = list(reader.array("scan_days"))
    scan_sources = reader.json("scan_sources")

    # --- ordering guard ------------------------------------------------------
    last = (scan_days[-1], scan_sources[-1]) if scan_days else None
    for shard in shards:
        key = (shard.day, shard.source)
        if last is not None and key <= last:
            raise ValueError(
                f"appended scan {key!r} does not sort after {last!r}; "
                "shards must arrive in strictly increasing (day, source) "
                "order"
            )
        last = key

    # --- replay the global interning order over the delta --------------------
    intern = StreamingDatasetWriter._intern
    remapped = []
    new_rows = 0
    for shard in shards:
        cert_map = [
            intern(fingerprint_ids, fingerprints, fingerprint)
            for fingerprint in shard.fingerprints
        ]
        entity_map = [
            intern(entity_ids, entities, tag) for tag in shard.entities
        ]
        handshake_map = [
            intern(handshake_ids, handshakes, record)
            for record in shard.handshakes
        ]
        remapped.append((
            shard.ip,
            array("I", map(cert_map.__getitem__, shard.cert_id)),
            array("I", map(entity_map.__getitem__, shard.entity_id)),
            array("i", (
                handshake_map[handshake_id] if handshake_id >= 0 else -1
                for handshake_id in shard.handshake_id
            )),
        ))
        new_rows += len(shard.ip)
        scan_days.append(shard.day)
        scan_sources.append(shard.source)

    # --- grown certificate order ---------------------------------------------
    # Equivalent to certificate_order(fingerprints, base ∪ certificates)
    # without materializing the union: the base order already ends with
    # its never-observed extras sorted, so the grown extras are those
    # plus the never-before-seen appended certificates (a C-level keys
    # difference), minus anything the delta just observed.
    base_order = unpack_fingerprints(reader.raw("cert_order"))
    base_position = {fp: i for i, fp in enumerate(base_order)}
    extra = certificates.keys() - base_position.keys()
    extra.update(base_order[base_observed:])
    extra.difference_update(fingerprints[base_observed:])
    order = list(fingerprints) + sorted(extra)
    base_offsets = reader.array("cert_offsets")
    der_blob = reader.raw("certificates.der")

    writer = SegmentWriter(
        path,
        meta={
            "kind": "corpus",
            "n_scans": base_scans + len(shards),
            "n_certificates": len(order),
            "n_observations": base_rows + new_rows,
        },
        format=FORMAT_VERSION,
    )
    reused = 0
    try:
        base_scan_idx = reader.raw("scan_idx")

        def scan_idx_chunks():
            yield base_scan_idx
            for offset, (ip, _, _, _) in enumerate(remapped):
                if len(ip):
                    yield le_bytes(array("I", (base_scans + offset,)) * len(ip))

        writer.add_chunks(
            "scan_idx", scan_idx_chunks(), kind="array", typecode="I"
        )
        reused += len(base_scan_idx)
        for slot, (name, typecode) in enumerate(_SPOOLED):
            base_column = reader.raw(name)

            def column_chunks(base_column=base_column, slot=slot):
                yield base_column
                for columns in remapped:
                    yield le_bytes(columns[slot])

            writer.add_chunks(
                name, column_chunks(), kind="array", typecode=typecode
            )
            reused += len(base_column)
        writer.add_chunks(
            "fingerprints",
            (fp_blob, pack_fingerprints(fingerprints[base_observed:])),
            kind="bytes", stride=32,
        )
        reused += len(fp_blob)
        writer.add_json("entities", entities)
        writer.add_json(
            "handshakes", [list(record) for record in handshakes]
        )
        writer.add_array("scan_days", array("i", scan_days))
        writer.add_json("scan_sources", scan_sources)
        bounds = array("Q", reader.array("scan_bounds"))
        for ip, _, _, _ in remapped:
            bounds.append(bounds[-1] + len(ip))
        writer.add_array("scan_bounds", bounds)
        writer.add_chunks(
            "cert_order",
            (fp_blob,
             pack_fingerprints(fingerprints[base_observed:]),
             pack_fingerprints(order[len(fingerprints):])),
            kind="bytes", stride=32,
        )
        reused += len(fp_blob)
        prefix_end = base_offsets[base_observed]
        offsets = array("Q", base_offsets[:base_observed + 1])

        def der_chunks():
            nonlocal reused
            if prefix_end:
                yield der_blob[:prefix_end]
                reused += prefix_end
            for fingerprint in order[base_observed:]:
                position = base_position.get(fingerprint)
                if position is not None:
                    record = der_blob[
                        base_offsets[position]:base_offsets[position + 1]
                    ]
                    reused += len(record)
                else:
                    cert = certificates.get(fingerprint)
                    if cert is None:
                        raise ValueError(
                            "missing certificate DER for appended "
                            f"fingerprint {fingerprint.hex()}"
                        )
                    record = pack_der_record(cert.to_der())
                offsets.append(offsets[-1] + len(record))
                yield record

        writer.add_chunks("certificates.der", der_chunks())
        writer.add_array("cert_offsets", offsets)
        # Rebuilt from the grown order, never copied: the table is a pure
        # function of the fingerprint sequence, so this emission is
        # byte-identical to a from-scratch build's.
        writer.add_array(FP_HASH_SEGMENT, build_fingerprint_hash(order))
        digest = writer.close()
    except BaseException:
        writer.abort()
        raise
    return AppendResult(
        path=path,
        digest=digest,
        base_scans=base_scans,
        base_observations=base_rows,
        base_observed_certs=base_observed,
        n_scans=base_scans + len(shards),
        n_observations=base_rows + new_rows,
        n_certificates=len(order),
        new_days=tuple(dict.fromkeys(
            day for day in scan_days[base_scans:]
        )),
        bytes_reused=reused,
    )


# ---------------------------------------------------------------------------
# Shard drop files (the watch daemon's wire format)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardDrop:
    """One day's scan shards read back from a drop file."""

    #: The scan day every shard in the file belongs to.
    day: int
    #: The day's shards, in (day, source) order.
    shards: tuple
    #: fingerprint → :class:`Certificate` covering every shard sighting.
    certificates: dict


def write_shard_drop(
    shards: Union[ScanShard, Sequence[ScanShard]],
    certificates: Mapping[bytes, Certificate],
    path: Union[str, pathlib.Path],
) -> str:
    """Write one day's shards as a portable format 3 drop file (``.rps``).

    The hand-off unit between a scan producer and the ``repro ingest
    --watch`` daemon: everything :func:`append_shards` needs for one day
    — the day's :class:`~repro.scanner.shards.ScanShard` columns plus the
    DER of every certificate they sight — in a single self-describing
    container.  Shards must all share one day and arrive in source
    order; ``certificates`` must cover every shard fingerprint.

    The file is assembled next to ``path`` and moved into place with one
    atomic rename, so a polling watcher never observes a partial drop.
    Returns the container digest.
    """
    if isinstance(shards, ScanShard):
        shards = [shards]
    else:
        shards = list(shards)
    if not shards:
        raise ValueError("nothing to drop")
    day = shards[0].day
    if any(shard.day != day for shard in shards):
        raise ValueError("a shard drop holds exactly one day")
    sources = [shard.source for shard in shards]
    if sources != sorted(sources) or len(set(sources)) != len(sources):
        raise ValueError("shards must be in strictly increasing source order")
    needed = []
    seen = set()
    for shard in shards:
        for fingerprint in shard.fingerprints:
            if fingerprint not in seen:
                seen.add(fingerprint)
                needed.append(fingerprint)
    missing = [fp for fp in needed if fp not in certificates]
    if missing:
        raise ValueError(
            f"missing certificate DER for {len(missing)} drop "
            f"fingerprint(s), first {missing[0].hex()}"
        )
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    writer = SegmentWriter(
        tmp,
        meta={
            "kind": "shard-drop",
            "day": day,
            "shards": [
                {"source": shard.source, "n": len(shard)} for shard in shards
            ],
            "n_certificates": len(needed),
        },
        format=FORMAT_VERSION,
    )
    try:
        for index, shard in enumerate(shards):
            prefix = f"s{index}."
            writer.add_array(prefix + "ip", shard.ip)
            writer.add_array(prefix + "cert_id", shard.cert_id)
            writer.add_array(prefix + "entity_id", shard.entity_id)
            writer.add_array(prefix + "handshake_id", shard.handshake_id)
            writer.add_bytes(
                prefix + "fingerprints",
                pack_fingerprints(shard.fingerprints), stride=32,
            )
            writer.add_json(prefix + "entities", shard.entities)
            writer.add_json(
                prefix + "handshakes",
                [list(record) for record in shard.handshakes],
            )
        writer.add_bytes(
            "cert_fingerprints", pack_fingerprints(needed), stride=32
        )
        offsets = array("Q", (0,))

        def der_chunks():
            for fingerprint in needed:
                record = pack_der_record(certificates[fingerprint].to_der())
                offsets.append(offsets[-1] + len(record))
                yield record

        writer.add_chunks("certificates.der", der_chunks())
        writer.add_array("cert_offsets", offsets)
        digest = writer.close()
    except BaseException:
        writer.abort()
        raise
    tmp.replace(path)
    obs.inc("ingest.drops_written")
    return digest


def read_shard_drop(path: Union[str, pathlib.Path]) -> ShardDrop:
    """Load a :func:`write_shard_drop` file back into shards + DER.

    Columns are materialized (a drop is consumed once, not queried in
    place), certificates re-parsed through ``Certificate.from_der`` —
    the same ground-truth path every stored corpus takes.
    """
    reader = SegmentReader(path)
    try:
        meta = reader.meta
        if reader.format != FORMAT_VERSION or meta.get("kind") != "shard-drop":
            raise ValueError(f"not a shard drop container: {path}")
        day = meta["day"]
        shards = []
        for index, entry in enumerate(meta["shards"]):
            prefix = f"s{index}."
            shards.append(ScanShard(
                day,
                entry["source"],
                as_array(reader.array(prefix + "ip")),
                as_array(reader.array(prefix + "cert_id")),
                as_array(reader.array(prefix + "entity_id")),
                as_array(reader.array(prefix + "handshake_id")),
                unpack_fingerprints(reader.raw(prefix + "fingerprints")),
                list(reader.json(prefix + "entities")),
                [
                    HandshakeRecord(*record)
                    for record in reader.json(prefix + "handshakes")
                ],
            ))
        fingerprints = unpack_fingerprints(reader.raw("cert_fingerprints"))
        certificates = {
            fingerprint: Certificate.from_der(der)
            for fingerprint, der in zip(
                fingerprints, iter_der_records(reader.raw("certificates.der"))
            )
        }
    finally:
        reader.close()
    return ShardDrop(day=day, shards=tuple(shards), certificates=certificates)


# ---------------------------------------------------------------------------
# Reading (O(1) mapped opens)
# ---------------------------------------------------------------------------

def load_dataset(path: Union[str, pathlib.Path]) -> ScanDataset:
    """Open a format 3 corpus container, mapped.

    O(1): columns are ``memoryview``s over an ``mmap``, certificates
    parse lazily.  Anything but an intact corpus container raises
    :class:`~repro.io.encoding.SegmentError` here, at open.
    """
    return ScanDataset.from_backend(MappedBackend(path))


def read_manifest(path: Union[str, pathlib.Path]) -> dict:
    """A corpus' format and manifest meta, O(1) (trailer + manifest)."""
    reader = open_corpus(path)
    manifest = {"format": reader.format}
    manifest.update({
        key: value for key, value in reader.meta.items() if key != "kind"
    })
    return manifest
