"""Format 3: the shared segment-container encoding.

One fixed little-endian layout backs both ``.rpz`` corpora and ``.rpa``
artifact section files (and consolidates the byte-packing helpers that
``store.py``, ``artifacts.py``, and ``scanner/shards.py`` each used to
carry privately):

* an 8-byte magic header;
* a sequence of **segments**, each padded so its payload starts on a
  16-byte boundary — every fixed-stride segment can therefore be viewed
  in place as an aligned ``memoryview`` cast over an ``mmap`` of the
  file, with zero copies on little-endian hosts;
* a JSON **manifest** describing the segments (name, kind, offset,
  length, and for arrays the typecode);
* a fixed 24-byte **trailer** holding the manifest's offset and length
  plus an end magic.

The trailer-last layout (the zip-central-directory trick) is what makes
both halves of the design work: a writer can stream segments of unknown
length straight to disk and only then write the manifest, while a reader
needs exactly one ``seek`` to the trailer plus one small read to know
everything about the file — opening is O(1) in the corpus size, and the
column bytes page in lazily through the OS page cache when (and only
when) a query touches them.

Segment kinds:

* ``array``  — a homogeneous little-endian integer column (``typecode``
  as in :mod:`array`); read back zero-copy as a ``memoryview`` cast;
* ``bytes``  — an opaque blob, optionally with a fixed ``stride`` (e.g.
  32-byte certificate fingerprints); read back as a ``memoryview``;
* ``json``   — a small JSON payload (tables, metadata);
* ``pickle`` — an irregular payload that does not round-trip through
  JSON (feature-matrix value tables, trust-root DER maps).

Writers hash every byte as it is written (salted exactly like
:func:`repro.io.artifacts.file_digest`), so the digest of a streamed
write equals the digest a later reader derives from the file.

Observability: every ``mmap`` of a container bumps
``io.mmap_open_total``; every materialization of mapped bytes into
process-local objects (arrays, fingerprint lists, JSON/pickle payloads)
adds the byte count to ``io.bytes_materialized``.  A mapped open that
answers a query without reading the whole file shows a
``bytes_materialized`` far below the file size — the CI mmap smoke
asserts exactly that.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import pathlib
import pickle
import struct
import sys
from array import array
from typing import IO, Iterable, Optional, Sequence, Union

from ..obs import runtime as obs

__all__ = [
    "CONTAINER_MAGIC",
    "DIGEST_META",
    "DIGEST_SCAN",
    "FP_HASH_SEGMENT",
    "FP_LEN",
    "SegmentError",
    "SegmentReader",
    "SegmentWriter",
    "as_array",
    "build_fingerprint_hash",
    "fingerprint_hash_find",
    "is_segment_container",
    "iter_der_records",
    "le_bytes",
    "le_view",
    "pack_der_record",
    "pack_fingerprints",
    "pack_sort_key",
    "read_container_meta",
    "typecode_of",
    "unpack_array",
    "unpack_fingerprints",
]

#: First 8 bytes of every segment container.
CONTAINER_MAGIC = b"RPSEG03\n"

#: Last 8 bytes of the trailer.
_END_MAGIC = b"RPSEND3\n"

#: (manifest offset, manifest length, end magic).
_TRAILER = struct.Struct("<QQ8s")

#: Segment payloads start on this boundary, so any sane typecode's
#: memoryview cast over the mapped file is aligned.
_ALIGN = 16

#: Salt matching :func:`repro.io.artifacts.file_digest`: the digest a
#: streaming write computes incrementally equals the digest a reader
#: re-derives from the file bytes.
_DIGEST_SALT = b"repro-archive/1\n"

#: Writer slice size for large buffers (see ``SegmentWriter._write``).
_WRITE_CHUNK = 1 << 20

#: SHA-256 fingerprints are always 32 bytes; fingerprint sequences
#: serialize as one flat blob sliced on decode.
FP_LEN = 32

#: 4-byte big-endian length prefix of the standalone-parseable DER
#: records inside ``certificates.der`` (unchanged from format 1/2, so
#: the blob stays readable without this library).
_DER_LENGTH = struct.Struct(">I")

#: Big-endian u32 — the (ip, fingerprint) shard sort key prefix.
_BE_U32 = struct.Struct(">I")

#: Little-endian (n_scans, n_certificates) header of the in-memory
#: corpus digest (:func:`repro.io.artifacts.columns_digest`).
DIGEST_META = struct.Struct("<II")

#: Little-endian (day, source length) per-scan line of the same digest.
DIGEST_SCAN = struct.Struct("<iI")


class SegmentError(ValueError):
    """A container failed structural validation."""


# ---------------------------------------------------------------------------
# Little-endian packing helpers (the consolidated former triplicates)
# ---------------------------------------------------------------------------

def typecode_of(column) -> str:
    """The :mod:`array` typecode of an array or a cast memoryview."""
    code = getattr(column, "typecode", None)
    if code is not None:
        return code
    return column.format


def le_bytes(column) -> bytes:
    """A column's raw bytes, little-endian regardless of the host.

    Accepts ``array``, ``memoryview`` (as produced by a mapped read),
    ``bytes``, or any int sequence (converted through ``array('I')``
    semantics is the caller's job — sequences must already be arrays).
    """
    if isinstance(column, (bytes, bytearray)):
        return bytes(column)
    if isinstance(column, memoryview):
        # Mapped views are stored little-endian already.
        return column.tobytes()
    if sys.byteorder == "little":
        return column.tobytes()
    swapped = array(column.typecode, column)
    swapped.byteswap()
    return swapped.tobytes()


def le_view(column):
    """Zero-copy little-endian view for hashing (copies only on BE hosts)."""
    if isinstance(column, (bytes, bytearray, memoryview)):
        return column
    if sys.byteorder == "little":
        return memoryview(column)
    return le_bytes(column)


def unpack_array(typecode: str, blob) -> array:
    """Rebuild a host-order array from little-endian bytes."""
    column = array(typecode)
    column.frombytes(blob)
    if sys.byteorder != "little":
        column.byteswap()
    return column


def as_array(column) -> array:
    """Materialize a (possibly mapped) column into a process-local array.

    A plain ``array`` passes through untouched; a ``memoryview`` is
    copied out (bumping ``io.bytes_materialized``).  Mapped views are
    little-endian by construction, so the copy is a straight
    ``frombytes`` on LE hosts and a byteswap on BE ones.
    """
    if isinstance(column, array):
        return column
    materialized = unpack_array(typecode_of(column), column.cast("B"))
    obs.inc("io.bytes_materialized", column.nbytes)
    return materialized


def pack_fingerprints(fingerprints: Sequence[bytes]) -> bytes:
    """A fingerprint sequence as one flat 32-byte-stride blob."""
    blob = b"".join(fingerprints)
    if len(blob) != FP_LEN * len(fingerprints):
        raise ValueError("non-canonical fingerprint length")
    return blob


def unpack_fingerprints(blob) -> list[bytes]:
    """Slice a flat fingerprint blob back into 32-byte values."""
    if len(blob) % FP_LEN:
        raise ValueError("fingerprint blob not a digest-size multiple")
    blob = bytes(blob)
    return [blob[base:base + FP_LEN] for base in range(0, len(blob), FP_LEN)]


def pack_der_record(der: bytes) -> bytes:
    """One standalone-parseable certificate record (BE length + DER)."""
    return _DER_LENGTH.pack(len(der)) + der


def iter_der_records(blob) -> Iterable[bytes]:
    """Yield the DER payloads of a length-prefixed certificate blob."""
    view = memoryview(blob)
    offset = 0
    while offset < len(view):
        (length,) = _DER_LENGTH.unpack_from(view, offset)
        offset += _DER_LENGTH.size
        yield bytes(view[offset:offset + length])
        offset += length


def pack_sort_key(ip: int, fingerprint: bytes) -> bytes:
    """The canonical (big-endian ip, fingerprint) shard sort key."""
    return _BE_U32.pack(ip) + fingerprint


# ---------------------------------------------------------------------------
# Fingerprint hash-index segment (O(1) fingerprint → row over the map)
# ---------------------------------------------------------------------------

#: Segment name of the persisted fingerprint → ``cert_order`` row index.
FP_HASH_SEGMENT = "cert_hash"

#: Minimum slot count of a hash-index table (keeps the mask math valid
#: for empty and near-empty corpora).
_FP_HASH_MIN_SLOTS = 8


def _fp_hash_slots(count: int) -> int:
    """Slot count for ``count`` fingerprints: power of two, load ≤ 0.5."""
    slots = _FP_HASH_MIN_SLOTS
    while slots < 2 * count:
        slots <<= 1
    return slots


def build_fingerprint_hash(fingerprints: Sequence[bytes]) -> array:
    """The persisted fingerprint hash index as a little-endian u32 table.

    An open-addressing table over ``cert_order``: each slot holds
    ``row + 1`` (0 marks an empty slot), the home slot is the first
    8 bytes of the fingerprint (SHA-256 output is already uniform) masked
    to the power-of-two table size, and collisions probe linearly.  Rows
    insert in order, so the table is a pure function of the fingerprint
    sequence — a delta-append that replays the same grown order emits a
    byte-identical segment to a from-scratch build, preserving the
    append-path-invariant container digest.
    """
    slots = _fp_hash_slots(len(fingerprints))
    mask = slots - 1
    table = array("I", bytes(4 * slots))
    for row, fingerprint in enumerate(fingerprints):
        slot = int.from_bytes(fingerprint[:8], "little") & mask
        while table[slot]:
            slot = (slot + 1) & mask
        table[slot] = row + 1
    return table


def fingerprint_hash_find(table, fp_blob, fingerprint: bytes):
    """Probe a hash-index table for a fingerprint's ``cert_order`` row.

    ``table`` is the (mapped) u32 slot table, ``fp_blob`` the raw
    32-byte-stride ``cert_order`` bytes; returns the row, or ``None``
    when the fingerprint is not in the corpus.  O(1) expected — each
    probe pages in only the one 32-byte fingerprint it compares against.
    """
    mask = len(table) - 1
    slot = int.from_bytes(fingerprint[:8], "little") & mask
    while True:
        stored = table[slot]
        if not stored:
            return None
        row = stored - 1
        base = row * FP_LEN
        if fp_blob[base:base + FP_LEN] == fingerprint:
            return row
        slot = (slot + 1) & mask


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

class SegmentWriter:
    """Streaming container writer: segments in, file + digest out.

    Segments are written in call order, each padded to the 16-byte
    alignment boundary; :meth:`close` appends the manifest and trailer
    and returns the container's digest (equal to
    :func:`~repro.io.artifacts.file_digest` over the finished file).
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        meta: Optional[dict] = None,
        format: int = 3,
    ) -> None:
        self.path = pathlib.Path(path)
        self.meta = dict(meta or {})
        self.format = format
        self._raw: Optional[IO[bytes]] = open(self.path, "wb")
        self._digest = hashlib.sha256(_DIGEST_SALT)
        self._position = 0
        self._segments: list[dict] = []
        self._names: set[str] = set()
        self._write(CONTAINER_MAGIC)

    # --- low-level -------------------------------------------------------------

    def _write(self, data) -> None:
        # Large buffers (the delta-append path raw-copies whole base
        # segments as single memoryviews) go out in 1 MiB slices: same
        # bytes and digest, measurably better filesystem throughput
        # than one giant write.
        size = len(data)
        if size > _WRITE_CHUNK:
            view = memoryview(data)
            for offset in range(0, size, _WRITE_CHUNK):
                piece = view[offset:offset + _WRITE_CHUNK]
                self._digest.update(piece)
                self._raw.write(piece)
        else:
            self._digest.update(data)
            self._raw.write(data)
        self._position += size

    def _align(self) -> None:
        pad = -self._position % _ALIGN
        if pad:
            self._write(b"\x00" * pad)

    def _begin(self, name: str, kind: str, **extra) -> dict:
        if self._raw is None:
            raise SegmentError("writer already closed")
        if name in self._names:
            raise SegmentError(f"duplicate segment {name!r}")
        self._names.add(name)
        self._align()
        entry = {"name": name, "kind": kind, "offset": self._position,
                 "length": 0}
        entry.update({key: value for key, value in extra.items()
                      if value is not None})
        self._segments.append(entry)
        return entry

    # --- segment feeders -------------------------------------------------------

    def add_chunks(
        self, name: str, chunks: Iterable, kind: str = "bytes", **extra
    ) -> None:
        """Stream one segment from an iterable of byte chunks."""
        entry = self._begin(name, kind, **extra)
        start = self._position
        for chunk in chunks:
            self._write(chunk)
        entry["length"] = self._position - start

    def add_bytes(self, name: str, data, stride: Optional[int] = None) -> None:
        self.add_chunks(name, (le_view(data),), kind="bytes", stride=stride)

    def add_array(self, name: str, column) -> None:
        self.add_chunks(
            name, (le_view(le_bytes(column)),), kind="array",
            typecode=typecode_of(column),
        )

    def add_json(self, name: str, payload) -> None:
        encoded = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        self.add_chunks(name, (encoded,), kind="json")

    def add_pickle(self, name: str, payload) -> None:
        encoded = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self.add_chunks(name, (encoded,), kind="pickle")

    def add_raw(self, name: str, chunks: Iterable, entry: dict) -> None:
        """Raw-copy one segment under another container's manifest entry.

        ``entry`` is a :meth:`SegmentReader.entry` dict; its kind and
        extra keys (typecode, stride) carry over verbatim while offset
        and length are re-derived from the bytes actually written —
        ``chunks`` may be the source segment whole, or any re-sliced
        subset of it (the corpus splitter copies per-certificate DER
        ranges this way without decoding them).
        """
        extra = {
            key: value for key, value in entry.items()
            if key not in ("name", "kind", "offset", "length")
        }
        self.add_chunks(name, chunks, kind=entry["kind"], **extra)

    def add_stream(
        self, name: str, handle: IO[bytes], kind: str = "bytes",
        chunk_size: int = 1 << 20, **extra,
    ) -> None:
        """Stream one segment from an open binary file (e.g. a spool)."""
        def chunks():
            while True:
                chunk = handle.read(chunk_size)
                if not chunk:
                    return
                yield chunk
        self.add_chunks(name, chunks(), kind=kind, **extra)

    # --- finishing -------------------------------------------------------------

    def close(self) -> str:
        """Write manifest + trailer; return the container digest."""
        if self._raw is None:
            raise SegmentError("writer already closed")
        self._align()
        manifest = {
            "format": self.format,
            "meta": self.meta,
            "segments": self._segments,
        }
        encoded = json.dumps(manifest, separators=(",", ":"),
                             sort_keys=True).encode("utf-8")
        manifest_offset = self._position
        self._write(encoded)
        self._write(_TRAILER.pack(manifest_offset, len(encoded), _END_MAGIC))
        self._raw.close()
        self._raw = None
        return self._digest.hexdigest()

    def abort(self) -> None:
        """Close and remove a partially written container."""
        if self._raw is not None:
            self._raw.close()
            self._raw = None
        self.path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

def is_segment_container(path: Union[str, pathlib.Path]) -> bool:
    """True when the file starts with the format 3 container magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(CONTAINER_MAGIC)) == CONTAINER_MAGIC
    except OSError:
        return False


class SegmentReader:
    """Mapped container reader.

    Construction reads the trailer and manifest only — O(1) in the file
    size, no ``mmap`` yet.  The file is mapped on the first data access
    (bumping ``io.mmap_open_total``); ``array``/``bytes`` reads return
    zero-copy ``memoryview``s over the map on little-endian hosts, so
    column bytes page in lazily as queries touch them.

    :attr:`bytes_materialized` counts this reader's own decoded bytes
    (the per-reader slice of the global ``io.bytes_materialized``
    counter), so the live plane's :class:`~repro.obs.resources
    .ResourceSampler` can attribute paging per watched container.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self._mmap: Optional[mmap.mmap] = None
        self._view: Optional[memoryview] = None
        #: Bytes this reader has decoded out of the map (copies only —
        #: zero-copy ``memoryview`` reads stay at zero, by design).
        self.bytes_materialized = 0
        with open(self.path, "rb") as handle:
            head = handle.read(len(CONTAINER_MAGIC))
            if head != CONTAINER_MAGIC:
                raise self._error("not a segment container")
            handle.seek(0, 2)
            size = handle.tell()
            if size < len(CONTAINER_MAGIC) + _TRAILER.size:
                raise self._error("container truncated: no trailer")
            handle.seek(size - _TRAILER.size)
            offset, length, end = _TRAILER.unpack(handle.read(_TRAILER.size))
            if end != _END_MAGIC:
                raise self._error("container truncated: bad end magic")
            if offset + length + _TRAILER.size != size:
                raise self._error("container corrupt: trailer bounds")
            handle.seek(offset)
            try:
                manifest = json.loads(handle.read(length))
            except ValueError as error:
                raise self._error(
                    f"container manifest is not valid JSON ({error})"
                )
        if not isinstance(manifest, dict) \
                or not isinstance(manifest.get("segments"), list):
            raise self._error("container manifest malformed")
        self.format = manifest.get("format")
        self.meta: dict = manifest.get("meta") or {}
        self._size = size
        self._segments = {
            entry["name"]: entry for entry in manifest["segments"]
        }
        for entry in self._segments.values():
            if entry["offset"] + entry["length"] > size - _TRAILER.size:
                raise self._error(
                    f"container corrupt: segment {entry['name']!r} "
                    f"out of bounds"
                )

    def _error(self, reason: str) -> SegmentError:
        """A structural failure of this file, as ``<path>: <reason>``."""
        return SegmentError(f"{self.path}: {reason}")

    # --- mapping ---------------------------------------------------------------

    def _map(self) -> memoryview:
        if self._view is None:
            with open(self.path, "rb") as handle:
                self._mmap = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            self._view = memoryview(self._mmap)
            obs.inc("io.mmap_open_total")
        return self._view

    def close(self) -> None:
        if self._view is not None:
            self._view.release()
            self._view = None
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None

    # --- introspection ---------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._segments

    def names(self) -> list[str]:
        return list(self._segments)

    def entry(self, name: str) -> dict:
        try:
            return self._segments[name]
        except KeyError:
            raise SegmentError(f"container has no segment {name!r}")

    def sizes(self) -> dict[str, int]:
        """name → payload byte length, straight from the manifest."""
        return {name: entry["length"]
                for name, entry in self._segments.items()}

    @property
    def file_size(self) -> int:
        return self._size

    # --- data access -----------------------------------------------------------

    def _materialized(self, nbytes: int) -> None:
        """Count decoded bytes, globally and against this reader."""
        self.bytes_materialized += nbytes
        obs.inc("io.bytes_materialized", nbytes)

    def raw(self, name: str) -> memoryview:
        """The segment's raw mapped bytes (zero-copy)."""
        entry = self.entry(name)
        view = self._map()
        return view[entry["offset"]:entry["offset"] + entry["length"]]

    def array(self, name: str):
        """An array segment, zero-copy where the host allows.

        Little-endian hosts get a ``memoryview`` cast over the map
        (lazy paging, no copy); big-endian hosts materialize a swapped
        ``array`` (counted in ``io.bytes_materialized``).
        """
        entry = self.entry(name)
        if entry["kind"] != "array":
            raise SegmentError(f"segment {name!r} is not an array")
        raw = self.raw(name)
        if sys.byteorder == "little":
            return raw.cast(entry["typecode"])
        column = unpack_array(entry["typecode"], raw)
        self._materialized(entry["length"])
        return column

    def bytes(self, name: str, materialize: bool = False):
        """A bytes segment: mapped view, or a real ``bytes`` copy."""
        raw = self.raw(name)
        if not materialize:
            return raw
        self._materialized(len(raw))
        return bytes(raw)

    def json(self, name: str):
        entry = self.entry(name)
        if entry["kind"] != "json":
            raise SegmentError(f"segment {name!r} is not JSON")
        raw = self.raw(name)
        self._materialized(len(raw))
        return json.loads(bytes(raw))

    def pickle(self, name: str):
        entry = self.entry(name)
        if entry["kind"] != "pickle":
            raise SegmentError(f"segment {name!r} is not a pickle")
        raw = self.raw(name)
        self._materialized(len(raw))
        return pickle.loads(raw)


def read_container_meta(path: Union[str, pathlib.Path]) -> dict:
    """A container's format + meta + per-segment sizes, O(1) in file size."""
    reader = SegmentReader(path)
    return {
        "format": reader.format,
        "meta": dict(reader.meta),
        "segments": reader.sizes(),
    }
