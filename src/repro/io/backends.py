"""Pluggable corpus-storage backends.

The analysis API (:class:`~repro.scanner.dataset.ScanDataset` and
everything in ``repro.core``) is deliberately separated from *where the
corpus lives*.  A :class:`DatasetBackend` is anything that can produce
the row scans and the certificate table; ``ScanDataset.from_backend``
materializes the analysis view on top.

Two backends ship:

* :class:`InMemoryBackend` — holds the corpus **columnar**
  (:class:`~repro.scanner.columns.ObservationColumns` plus per-scan
  metadata) and rehydrates row ``Scan`` objects on demand; this is what a
  freshly scanned corpus lives in;
* :class:`MappedBackend` — zero-copy view over a format 3 container:
  open is O(1), columns are ``memoryview``s over one shared ``mmap``,
  certificates parse lazily on first access, and pickling ships only
  the *path* — pool workers re-map the file and share physical pages
  through the OS page cache instead of each holding a private copy.

Format 3 is the only corpus format read: :func:`open_corpus` validates
the trailer, manifest, kind, and segment set at open, and anything else
(a retired format 1/2 ZIP archive, junk, a truncated file, a container
without the ``cert_hash`` lookup segment) raises
:class:`~repro.io.encoding.SegmentError` there, never on first query.
"""

from __future__ import annotations

import pathlib
from collections import OrderedDict
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from ..obs import runtime as obs
from ..scanner.columns import ObservationColumns
from ..scanner.records import Scan
from ..tls.handshake import HandshakeRecord
from ..x509.asn1 import DERError
from ..x509.certificate import Certificate
from .encoding import (
    FP_HASH_SEGMENT,
    SegmentError,
    SegmentReader,
    fingerprint_hash_find,
    unpack_fingerprints,
)

__all__ = [
    "DatasetBackend",
    "InMemoryBackend",
    "MappedBackend",
    "LazyCertificates",
    "open_corpus",
]

#: Byte length of the big-endian record length prefix inside
#: ``certificates.der`` (see :func:`repro.io.encoding.pack_der_record`).
_DER_PREFIX = 4

#: Every segment a format 3 corpus container holds.
_CORPUS_SEGMENTS = (
    "scan_idx", "ip", "cert_id", "entity_id", "handshake_id",
    "fingerprints", "entities", "handshakes", "scan_days", "scan_sources",
    "scan_bounds", "cert_order", "certificates.der", "cert_offsets",
    FP_HASH_SEGMENT,
)

#: Leading bytes of a ZIP archive: the retired corpus formats 1 and 2.
_ZIP_MAGIC = b"PK\x03\x04"


def open_corpus(path: Union[str, pathlib.Path]) -> SegmentReader:
    """Open a format 3 corpus container, validated, in O(1).

    Reads the trailer and manifest only (no ``mmap`` yet) and checks the
    container kind, format, and segment set, so every structural defect
    surfaces here as one :class:`SegmentError` naming the file — a
    missing path included.
    """
    path = pathlib.Path(path)
    try:
        reader = SegmentReader(path)
    except FileNotFoundError:
        raise SegmentError(f"{path}: no such file") from None
    except SegmentError:
        with open(path, "rb") as handle:
            if handle.read(len(_ZIP_MAGIC)) == _ZIP_MAGIC:
                raise SegmentError(
                    f"{path}: a ZIP archive (corpus format 1 or 2); those "
                    "formats are no longer read, regenerate the corpus "
                    "with `repro generate`"
                ) from None
        raise
    kind = reader.meta.get("kind")
    if kind != "corpus" or reader.format != 3:
        raise SegmentError(
            f"{path}: not a format 3 corpus container "
            f"(kind={kind!r}, format={reader.format!r})"
        )
    missing = [name for name in _CORPUS_SEGMENTS if name not in reader]
    if missing:
        raise SegmentError(
            f"{path}: corpus container lacks segment(s) {', '.join(missing)}"
        )
    return reader


@runtime_checkable
class DatasetBackend(Protocol):
    """Anything that can supply a scan corpus to the analysis layer."""

    def load_scans(self) -> Sequence[Scan]:
        """The corpus' scans (row view), in (day, source) order."""
        ...

    def load_certificates(self) -> Mapping[bytes, Certificate]:
        """fingerprint → certificate for every certificate in the corpus."""
        ...

    def describe(self) -> dict:
        """Cheap corpus statistics (no full load required)."""
        ...


class InMemoryBackend:
    """Columnar in-memory corpus storage.

    Observations live in one :class:`ObservationColumns`; scans are kept
    only as (day, source, start, end) metadata over the contiguous
    per-scan column ranges and rehydrated to rows on request.
    """

    def __init__(
        self,
        columns: ObservationColumns,
        scan_meta: Sequence[tuple[int, str, int, int]],
        certificates: Mapping[bytes, Certificate],
    ) -> None:
        self.columns = columns
        #: (day, source, first observation position, one-past-last).
        self.scan_meta = list(scan_meta)
        self.certificates = dict(certificates)
        self._corpus_digest: Optional[str] = None

    @classmethod
    def from_scans(
        cls,
        scans: Sequence[Scan],
        certificates: Mapping[bytes, Certificate],
    ) -> "InMemoryBackend":
        """Columnarize a row corpus (scans must already be day-sorted)."""
        columns = ObservationColumns.from_scans(scans)
        meta: List[tuple[int, str, int, int]] = []
        position = 0
        for scan in scans:
            meta.append((scan.day, scan.source, position, position + len(scan)))
            position += len(scan)
        return cls(columns, meta, certificates)

    @classmethod
    def from_dataset(cls, dataset) -> "InMemoryBackend":
        """Columnarize an existing :class:`ScanDataset`.

        A dataset that already holds merged columns (the columnar
        generation path, or a cache hit) is adopted zero-copy instead of
        being re-interned from rows.
        """
        columns = getattr(dataset, "_columns", None)
        if columns is not None:
            meta: List[tuple[int, str, int, int]] = []
            position = 0
            for scan in dataset.scans:
                meta.append(
                    (scan.day, scan.source, position, position + len(scan))
                )
                position += len(scan)
            return cls(columns, meta, dataset.certificates)
        return cls.from_scans(dataset.scans, dataset.certificates)

    def load_scans(self) -> List[Scan]:
        return [
            Scan(
                day=day,
                source=source,
                observations=[
                    self.columns.observation_at(position)
                    for position in range(start, end)
                ],
            )
            for day, source, start, end in self.scan_meta
        ]

    def load_certificates(self) -> Dict[bytes, Certificate]:
        return dict(self.certificates)

    def corpus_digest(self) -> str:
        """Canonical content digest over the columnar corpus.

        Cheap (one hash pass over the already-interned columns) and
        equal to the canonical digest a backend-less
        :class:`~repro.scanner.dataset.ScanDataset` computes for the
        same corpus, so artifacts stored either way are shared.
        """
        if self._corpus_digest is None:
            from .artifacts import columns_digest

            self._corpus_digest = columns_digest(
                self.columns,
                [(day, source) for day, source, _, _ in self.scan_meta],
                self.certificates,
            )
        return self._corpus_digest

    def describe(self) -> dict:
        return {
            "backend": "memory",
            "n_scans": len(self.scan_meta),
            "n_certificates": len(self.certificates),
            "n_observations": len(self.columns),
        }


class LazyCertificates(Mapping):
    """fingerprint → :class:`Certificate` over a mapped container.

    Lookup is O(1) via the persisted ``cert_hash`` open-addressing
    segment (probed directly against the mapped ``cert_order`` bytes —
    no per-key Python objects are ever built).  Each certificate's DER
    parses on first ``[]`` access (O(1) via the parallel
    ``cert_offsets`` segment) and lands in a **bounded** LRU memo, so a
    serve workload hammering a hot set parses each certificate once
    (``io.der_parse_total`` counts actual parses) while a full-corpus
    sweep cannot grow memory without bound.  Nothing is parsed at
    construction, which is what keeps a mapped corpus open O(1).  A
    record that does not decode raises one :class:`SegmentError` naming
    the file and the certificate, at that first access.
    """

    #: Default bound on the decoded-certificate memo (entries).  At
    #: ~2–10 KiB per decoded certificate this caps the memo around a
    #: few hundred MiB worst case — far below the corpus itself.
    DEFAULT_CACHE_SIZE = 65536

    def __init__(
        self,
        reader: SegmentReader,
        cache_size: Optional[int] = None,
    ) -> None:
        self._reader = reader
        self._order: "Optional[list[bytes]]" = None
        self._offsets = None
        self._fp_blob = None
        self._hash = None
        self._cache: "OrderedDict[bytes, Certificate]" = OrderedDict()
        self._cache_size = (
            self.DEFAULT_CACHE_SIZE if cache_size is None else cache_size
        )

    def fingerprints(self) -> "list[bytes]":
        """Every certificate fingerprint, in canonical stored order."""
        if self._order is None:
            self._order = unpack_fingerprints(
                self._reader.bytes("cert_order", materialize=True)
            )
        return self._order

    def _row_of(self, fingerprint: bytes) -> Optional[int]:
        """``cert_order`` row for a fingerprint, or ``None`` if absent."""
        if self._hash is None:
            self._fp_blob = self._reader.raw("cert_order")
            self._hash = self._reader.array(FP_HASH_SEGMENT)
        return fingerprint_hash_find(self._hash, self._fp_blob, fingerprint)

    def __len__(self) -> int:
        return self._reader.meta["n_certificates"]

    def __iter__(self):
        return iter(self.fingerprints())

    def __contains__(self, fingerprint) -> bool:
        if not isinstance(fingerprint, bytes):
            return False
        return self._row_of(fingerprint) is not None

    def __getitem__(self, fingerprint: bytes) -> Certificate:
        certificate = self._cache.get(fingerprint)
        if certificate is not None:
            self._cache.move_to_end(fingerprint)
            return certificate
        row = (
            self._row_of(fingerprint)
            if isinstance(fingerprint, bytes) else None
        )
        if row is None:
            raise KeyError(fingerprint)
        if self._offsets is None:
            self._offsets = self._reader.array("cert_offsets")
        blob = self._reader.raw("certificates.der")
        start = self._offsets[row] + _DER_PREFIX
        end = self._offsets[row + 1]
        der = bytes(blob[start:end])
        obs.inc("io.bytes_materialized", len(der))
        obs.inc("io.der_parse_total")
        try:
            certificate = Certificate.from_der(der)
        except DERError as error:
            raise SegmentError(
                f"{self._reader.path}: certificate "
                f"{fingerprint.hex()[:16]}: {error}"
            ) from None
        self._cache[fingerprint] = certificate
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return certificate


class MappedBackend:
    """Zero-copy corpus view over one format 3 ``.rpz`` container.

    Opening reads the trailer + manifest only; the file is ``mmap``ed on
    first data access and every observation column is consumed in place
    as a little-endian ``memoryview`` over the map.  Pickling ships the
    path, not the data: a pool worker's unpickle re-maps the same file,
    so N workers share one physical copy through the page cache.
    """

    #: Marks this backend as path-shippable / memoryview-backed for
    #: :meth:`ScanDataset.from_backend` and dataset pickling.
    mapped = True

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        #: The validated container reader (manifest parsed at open,
        #: file mapped lazily on first data access).
        self.reader = open_corpus(self.path)
        self._columns: Optional[ObservationColumns] = None
        self._scan_meta: "Optional[list[tuple[int, str, int, int]]]" = None
        self._certificates: Optional[LazyCertificates] = None
        self._corpus_digest: Optional[str] = None

    @property
    def columns(self) -> ObservationColumns:
        """The mapped columnar view (built once, columns page lazily)."""
        if self._columns is None:
            reader = self.reader
            self._columns = ObservationColumns.from_segments(
                reader.array("scan_idx"),
                reader.array("ip"),
                reader.array("cert_id"),
                reader.array("entity_id"),
                reader.array("handshake_id"),
                fp_blob=reader.bytes("fingerprints"),
                entities=reader.json("entities"),
                handshakes=[
                    HandshakeRecord(*row)
                    for row in reader.json("handshakes")
                ],
                source=reader,
            )
        return self._columns

    @property
    def scan_meta(self) -> "list[tuple[int, str, int, int]]":
        """(day, source, start, end) per scan, from the metadata segments."""
        if self._scan_meta is None:
            reader = self.reader
            days = reader.array("scan_days")
            sources = reader.json("scan_sources")
            bounds = reader.array("scan_bounds")
            self._scan_meta = [
                (days[index], sources[index],
                 bounds[index], bounds[index + 1])
                for index in range(len(sources))
            ]
        return self._scan_meta

    def load_scans(self) -> List[Scan]:
        from ..scanner.shards import scans_over_columns

        return scans_over_columns(self.columns, self.scan_meta)

    def load_certificates(self) -> LazyCertificates:
        if self._certificates is None:
            self._certificates = LazyCertificates(self.reader)
        return self._certificates

    def corpus_digest(self) -> str:
        """Streaming SHA-256 over the container's bytes (nothing parsed).

        Equal to the digest :class:`~repro.io.store.StreamingDatasetWriter`
        computed while writing the file, so artifacts cached against a
        streamed write are found again on a mapped open.  Reads the file
        through ordinary buffered I/O — no column segment is mapped or
        materialized (``io.bytes_materialized`` stays 0), which keeps
        ``repro info`` and lineage lookups O(file bytes) with zero
        decode work.
        """
        if self._corpus_digest is None:
            from .artifacts import file_digest

            self._corpus_digest = file_digest(self.path)
        return self._corpus_digest

    def describe(self) -> dict:
        reader = self.reader
        info = {"backend": "mapped", "format": reader.format}
        info.update({
            key: value for key, value in reader.meta.items()
            if key != "kind"
        })
        info["segments"] = reader.sizes()
        return info

    # Pickling ships the path only: the receiving process re-maps the
    # container, sharing physical pages instead of copying columns.

    def __getstate__(self) -> dict:
        return {"path": self.path}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["path"])
