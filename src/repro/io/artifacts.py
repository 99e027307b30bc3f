"""Content-addressed persistence of derived analysis artifacts.

PR 2 made the §6 linking consumers array-native, which left the *builds*
— column interning, the CSR observation index, the interval arrays, the
feature matrix, and the §4.2 chain walks — as the dominant cost of every
run over the same immutable corpus.  This module is the warm path: an
:class:`ArtifactCache` persists those derived artifacts, keyed by a
**streaming corpus digest**, so a warm :class:`~repro.study.Study` run
loads them in O(1) and skips the kernel builds and the chain walks
entirely.

Digest scheme (the cache key):

* file-backed corpora (:class:`~repro.io.backends.MappedBackend`) hash
  the corpus **file bytes** (SHA-256, streamed in chunks — the ``.rpz``
  is the corpus' identity, nothing needs parsing);
* in-memory corpora hash a **canonical columnar encoding**: per-scan
  (day, source) metadata, the five observation columns as little-endian
  bytes, the interning tables, and the sorted fingerprint list of the
  certificate table.  Fingerprints are SHA-256 over DER, so certificate
  *content* is covered transitively.

Both schemes are independent of ``PYTHONHASHSEED`` and of the platform
byte order (columns are serialized little-endian everywhere).

File layout — each section is its own format 3 segment container
(:mod:`repro.io.encoding`, the encoding ``.rpz`` corpora use),
``<digest>.<section>.rpa``, whose manifest meta names the ``section``
and the ``key`` it was stored under:

* ``kernels`` (key: the corpus digest) — ``columns.*``, the five
  observation columns and interning tables (a loader whose dataset is
  already columnar, or mapped, never touches these bytes — they
  dominate the file); ``index.*`` / ``intervals.*``, the CSR index and
  interval arrays; ``matrix.*``, the feature matrix (interned value
  tables as one pickle segment, id columns and the ``int8`` self-signed
  and CA columns as arrays), which is all the §5 census reads;
* ``validation`` (key: :func:`verdict_key`, a digest of the trust store
  and of the extra intermediates the verdicts were computed with) —
  ``val.*``, per-certificate verdicts, columnar: interned status/detail
  tables, per-record id columns, a flat chain-fingerprint blob with
  per-record lengths, plus the DER of chain members that are not corpus
  certificates (roots, and a shard's off-shard CAs);
* ``tracking`` (key: :func:`tracking_key`) — ``track.*``, the §6.3–§7
  state the query plane reads (:class:`~repro.core.tracking
  .TrackingState`): the link plan, the tracked devices (rosters and
  sightings), the public-key groups and each device's §7.4 outcome,
  with a SHA-256 over its own segments.

A section file is written once: a store writes each section it is
handed that this cache has not read intact or written under the same
key, through a temp file and ``os.replace``, and reads or copies no
other file.  ``repro split`` writes each shard's files itself
(:meth:`ArtifactCache.store_shard`): the matrix restricted from the
parent's, the verdicts copied from the parent's verdict columns and the
tracking state restricted from the parent's, so a shard boots warm
without parsing a certificate or recomputing a device.

A warm load **maps** the containers: fixed-stride segments come back as
``memoryview``s over the shared ``mmap`` (the ``artifacts/map`` span),
so adopting cached kernels costs O(1) and the bytes page in as queries
touch them.  Only the feature-matrix columns are copied out (they
must survive pickling into pool workers).  Verdicts decode on read: a
load builds the valid / invalid / disregarded sets from the status
column and checks every record, but a :class:`VerifyResult` — and the
certificates of its chain — is built only when a caller reads it, so a
warm load parses no corpus certificate.

Any failure to read, decode, or sanity-check a section file —
truncation, a schema bump, a digest mismatch, a pre-format-3 ZIP
artifact — degrades to a rebuild of that section, never to an error;
counters ``artifacts.hit`` / ``miss`` / ``invalidated`` / ``extended``
(one per requested section) record which way each load went.

Delta-chain lineage (PR 7): a ``lineage.json`` sidecar maps each
appended corpus digest to ``{"base": ..., "chain": [...]}`` — the
``(base_digest, delta_chain)`` cache key of incremental ingestion.  A
kernels load that misses on the exact digest walks the chain for the
nearest cached ancestor, delta-merges its kernels over the appended
rows (the ``artifacts/extend`` span, counter ``artifacts.extended``),
and persists the result so the next load is a direct hit.  The ``.rpa``
files themselves stay purely content-addressed and byte-identical to
cold builds; only the sidecar knows about ancestry, and any corruption
in it or in an ancestor artifact degrades to a full rebuild.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import warnings
from array import array
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from ..obs import runtime as obs
from ..scanner.columns import (
    COLUMN_TYPECODES,
    CertIntervals,
    ObservationColumns,
    ObservationIndex,
    RowDelta,
)
from ..tls.handshake import HandshakeRecord
from ..x509.certificate import Certificate
from ..x509.chain import VerifyResult, VerifyStatus
from .encoding import (
    DIGEST_META,
    DIGEST_SCAN,
    FP_LEN,
    SegmentReader,
    SegmentWriter,
    as_array,
    le_bytes,
    le_view,
    pack_fingerprints,
    read_container_meta,
    unpack_fingerprints,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.tracking import TrackingState
    from ..core.validation import ValidationReport
    from ..scanner.dataset import ScanDataset
    from ..x509.truststore import TrustStore

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactCache",
    "LoadedArtifacts",
    "SECTIONS",
    "columns_digest",
    "file_digest",
    "tracking_key",
    "verdict_key",
]

#: Bump on any change to the artifact payload encoding; older files are
#: invalidated (fall back to a rebuild), never misread.  Schema 1 was
#: the pre-mmap ZIP-of-pickles layout; schema 2 lacked the
#: ``matrix.self_signed`` column; schema 3 lacked ``matrix.is_ca`` and
#: keyed verdicts on the trust store alone; schema 4 lacked the
#: ``tracking`` section; schema 5 kept every section in one
#: ``<digest>.rpa`` bundle that each store rewrote whole.
ARTIFACT_SCHEMA = 6

#: A corpus's artifact sections, in load order; each is stored in its
#: own ``<digest>.<section>.rpa`` file.
SECTIONS = ("kernels", "validation", "tracking")

#: Streaming chunk size for archive-byte digests.
_CHUNK = 1 << 20

#: The tracking section's segments in write order; ``track.sha256``
#: covers all of them.
_TRACK_SEGMENTS = (
    "track.plan", "track.roster_lens", "track.rosters",
    "track.sighting_lens", "track.sighting_scans", "track.sighting_ips",
    "track.home_as", "track.outcome_flags", "track.key_spkis",
    "track.key_lens", "track.key_members",
)

#: Sidecar recording which corpus digests are delta-appends of which
#: bases — the ``(base_digest, delta_chain)`` keying of warm loads.
_LINEAGE_NAME = "lineage.json"

#: Longest ancestor chain a lineage-aware load will consider.
_LINEAGE_MAX_CHAIN = 64

#: One-time-per-process latch for the lineage-truncation warning (the
#: watch daemon appends a day at a time; warning on every append past
#: the cap would drown the log with the same fact).
_LINEAGE_WARNED = False


def _warn_lineage_truncated(length: int) -> None:
    global _LINEAGE_WARNED
    if _LINEAGE_WARNED:
        return
    _LINEAGE_WARNED = True
    warnings.warn(
        f"artifact lineage chain reached {length} entries and was capped "
        f"at {_LINEAGE_MAX_CHAIN}; ancestors past the cap can no longer "
        "warm-load descendants (cache falls back to cold rebuilds). "
        "Persist a fresh artifact for the current corpus to reset the "
        "chain.",
        RuntimeWarning,
        stacklevel=3,
    )


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def file_digest(path: Union[str, pathlib.Path]) -> str:
    """Streaming SHA-256 over a corpus archive's bytes.

    For format 3 containers this equals the digest the writer computed
    incrementally while streaming the file.
    """
    digest = hashlib.sha256(b"repro-archive/1\n")
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def columns_digest(
    columns: ObservationColumns,
    scan_meta: Sequence[tuple[int, str]],
    certificates: Mapping[bytes, Certificate],
) -> str:
    """Canonical digest of an in-memory corpus.

    Hashes the (day, source) scan metadata, every observation column as
    little-endian bytes, the interning tables, and the **sorted** full
    certificate-fingerprint list (covering unobserved certificates, and
    making the digest independent of certificate-dict insertion order).
    """
    digest = hashlib.sha256(b"repro-corpus/1\n")
    digest.update(DIGEST_META.pack(len(scan_meta), len(certificates)))
    for day, source in scan_meta:
        encoded = source.encode("utf-8")
        digest.update(DIGEST_SCAN.pack(day, len(encoded)))
        digest.update(encoded)
    for column in (columns.scan_idx, columns.ip, columns.cert_id,
                   columns.entity_id, columns.handshake_id):
        digest.update(le_view(column))
    digest.update(b"".join(columns.fingerprints))
    digest.update(json.dumps(columns.entities, separators=(",", ":")).encode())
    digest.update(
        json.dumps(
            [list(record) for record in columns.handshakes],
            separators=(",", ":"),
        ).encode()
    )
    digest.update(b"".join(sorted(certificates)))
    return digest.hexdigest()


def verdict_key(
    trust_store: "TrustStore", extra_fingerprints: Iterable[bytes] = ()
) -> str:
    """What verdicts depend on besides the corpus: SHA-256 over the
    sorted root fingerprints of the trust store and the sorted
    fingerprints of the extra intermediates pooled into chain building
    (a shard's off-shard CAs; none for a whole corpus).

    Gates only the ``validation`` section — the kernel artifacts are pure
    functions of the corpus and stay loadable under any trust store.
    """
    roots = sorted(root.fingerprint for root in trust_store)
    extras = sorted(set(extra_fingerprints))
    digest = hashlib.sha256(b"repro-trust/2\n")
    digest.update(DIGEST_META.pack(len(roots), len(extras)))
    for fingerprint in roots + extras:
        digest.update(fingerprint)
    return digest.hexdigest()


def tracking_key(
    verdicts: str, as_of, link_plan: Optional[Sequence] = None
) -> Optional[str]:
    """What the tracking section depends on besides the corpus: the
    :func:`verdict_key` of the verdicts the devices were derived from,
    the :meth:`~repro.net.bgp.RoutingHistory.digest` of the routing
    history ``as_of`` reads (link order and §7.4 outcomes depend on it)
    and the pinned link plan (None: the plan was derived from Table 6).

    None when ``as_of`` is not a routing history's ``origin_as``: with
    no history to digest, the section is neither loaded nor stored.
    """
    from ..net.bgp import RoutingHistory

    history = getattr(as_of, "__self__", None)
    if not isinstance(history, RoutingHistory) \
            or as_of != history.origin_as:
        return None
    plan = None if link_plan is None else [
        feature.value for feature in link_plan
    ]
    digest = hashlib.sha256(b"repro-tracking/1\n")
    digest.update(
        json.dumps([verdicts, history.digest(), plan]).encode("utf-8")
    )
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Section encoders (writer-side)
# ---------------------------------------------------------------------------

def _write_kernels(
    writer: SegmentWriter,
    columns: ObservationColumns,
    index: ObservationIndex,
    intervals: CertIntervals,
    matrix,
) -> None:
    from ..core.features import Feature

    for name, _ in COLUMN_TYPECODES:
        writer.add_array(f"columns.{name}", getattr(columns, name))
    writer.add_bytes(
        "columns.fingerprints",
        pack_fingerprints(columns.fingerprints), stride=FP_LEN,
    )
    writer.add_json("columns.entities", list(columns.entities))
    writer.add_json(
        "columns.handshakes",
        [list(record) for record in columns.handshakes],
    )
    writer.add_array("index.offsets", index._offsets)
    writer.add_array("index.order", index._order)
    for name in CertIntervals.__slots__:
        writer.add_array(f"intervals.{name}", getattr(intervals, name))
    writer.add_bytes(
        "matrix.fingerprints",
        pack_fingerprints(matrix.fingerprints), stride=FP_LEN,
    )
    writer.add_pickle(
        "matrix.values",
        {feature.name: list(matrix.values[feature]) for feature in Feature},
    )
    for feature in Feature:
        writer.add_array(f"matrix.raw.{feature.name}", matrix.raw_ids[feature])
    writer.add_array(
        "matrix.cn_linkable", matrix.linkable_ids[Feature.COMMON_NAME]
    )
    writer.add_array("matrix.self_signed", matrix.self_signed)
    writer.add_array("matrix.is_ca", matrix.is_ca)


def _report_verdicts(report: "ValidationReport"):
    """A computed report's verdicts as ``(fingerprint, status, detail,
    chain fingerprints)`` rows, and the DER of any chain member."""
    links: dict[bytes, Certificate] = {}

    def rows():
        for fingerprint, result in report.results.items():
            for link in result.chain:
                links.setdefault(link.fingerprint, link)
            yield (
                fingerprint, result.status.value, result.detail,
                [link.fingerprint for link in result.chain],
            )

    return rows(), lambda fingerprint: links[fingerprint].to_der()


def _copied_verdicts(
    reader: SegmentReader,
    fingerprints: Sequence[bytes],
    corpus_der: Callable[[bytes], bytes],
):
    """The verdicts of ``fingerprints`` as rows read from a validation
    section's columns, and the DER of any chain member: the section's
    stored extras, else ``corpus_der``.  Decodes no verdict."""
    stored = unpack_fingerprints(
        reader.bytes("val.fingerprints", materialize=True)
    )
    row_of = {fingerprint: row for row, fingerprint in enumerate(stored)}
    statuses = reader.json("val.statuses")
    details = reader.json("val.details")
    status_ids = reader.array("val.status_ids")
    detail_ids = reader.array("val.detail_ids")
    starts = [0, *accumulate(reader.array("val.chain_lens"))]
    chain_fps = unpack_fingerprints(
        reader.bytes("val.chain_fps", materialize=True)
    )
    extras = reader.pickle("val.extra")

    def rows():
        for fingerprint in fingerprints:
            row = row_of[fingerprint]
            yield (
                fingerprint, statuses[status_ids[row]],
                details[detail_ids[row]],
                chain_fps[starts[row]:starts[row + 1]],
            )

    def der_of(fingerprint: bytes) -> bytes:
        der = extras.get(fingerprint)
        return der if der is not None else corpus_der(fingerprint)

    return rows(), der_of


def _write_verdicts(
    writer: SegmentWriter,
    rows,
    der_of: Callable[[bytes], bytes],
    certificates: Mapping[bytes, Certificate],
) -> None:
    """Columnar verdict encoding: the distinct (status, detail) space is
    tiny (a handful of failure classes), so per-certificate state is two
    id columns plus a flat chain-fingerprint blob with per-record
    lengths — not tens of thousands of record tuples.  Status and detail
    tables intern in first-appearance order, and chain members outside
    ``certificates`` keep their DER, in first-appearance order too."""
    statuses: list[str] = []
    status_ids: dict[str, int] = {}
    details: list[str] = []
    detail_ids: dict[str, int] = {}
    fingerprints: list[bytes] = []
    record_status = array("B")
    record_detail = array("I")
    chain_lens = array("B")
    chain_fps: list[bytes] = []
    extra_der: dict[bytes, bytes] = {}
    for fingerprint, status, detail, chain in rows:
        fingerprints.append(fingerprint)
        status_id = status_ids.setdefault(status, len(statuses))
        if status_id == len(statuses):
            statuses.append(status)
        detail_id = detail_ids.setdefault(detail, len(details))
        if detail_id == len(details):
            details.append(detail)
        record_status.append(status_id)
        record_detail.append(detail_id)
        chain_lens.append(len(chain))
        for link in chain:
            chain_fps.append(link)
            if link not in certificates and link not in extra_der:
                extra_der[link] = der_of(link)
    writer.add_bytes(
        "val.fingerprints", pack_fingerprints(fingerprints), stride=FP_LEN
    )
    writer.add_json("val.statuses", statuses)
    writer.add_json("val.details", details)
    writer.add_array("val.status_ids", record_status)
    writer.add_array("val.detail_ids", record_detail)
    writer.add_array("val.chain_lens", chain_lens)
    writer.add_bytes(
        "val.chain_fps", pack_fingerprints(chain_fps), stride=FP_LEN
    )
    writer.add_pickle("val.extra", extra_der)


def _write_tracking(writer: SegmentWriter, state: "TrackingState") -> None:
    """Columnar tracking state: per-device roster and sighting lengths
    over flat fingerprint, scan-index and address columns (a sighting's
    day is its scan's), the §7.4 outcome as a home-AS column (-1: none)
    and a flag byte (bit 0 static, bit 1 fully dynamic), and the key
    groups as SPKIs with per-group lengths over a flat roster blob.
    Devices and groups keep the state's order (device key, SPKI), so the
    bytes do not depend on ``PYTHONHASHSEED``."""
    roster_lens, sighting_lens = array("I"), array("I")
    scans, ips = array("I"), array("I")
    rosters: list[bytes] = []
    for device in state.devices:
        roster_lens.append(len(device.fingerprints))
        rosters.extend(device.fingerprints)
        sighting_lens.append(len(device.sightings))
        for scan, _, ip in device.sightings:
            scans.append(scan)
            ips.append(ip)
    home_as, flags = array("q"), array("B")
    for outcome in state.outcomes:
        if outcome is None:
            home_as.append(-1)
            flags.append(0)
        else:
            home_as.append(outcome[0])
            flags.append(outcome[1] | outcome[2] << 1)
    key_lens = array("I", (len(roster) for roster in state.key_groups.values()))
    members = [fp for roster in state.key_groups.values() for fp in roster]

    def json_bytes(payload) -> bytes:
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")

    def fingerprints(values) -> tuple:
        return ("bytes", pack_fingerprints(values), {"stride": FP_LEN})

    def column(values) -> tuple:
        return ("array", le_bytes(values), {"typecode": values.typecode})

    segments = dict(zip(_TRACK_SEGMENTS, (
        ("json", json_bytes([feature.value for feature in state.link_plan]),
         {}),
        column(roster_lens), fingerprints(rosters),
        column(sighting_lens), column(scans), column(ips),
        column(home_as), column(flags),
        fingerprints([bytes.fromhex(spki) for spki in state.key_groups]),
        column(key_lens), fingerprints(members),
    )))
    check = hashlib.sha256()
    for name, (kind, payload, extra) in segments.items():
        check.update(payload)
        writer.add_chunks(name, (payload,), kind=kind, **extra)
    writer.add_json("track.sha256", check.hexdigest())


# ---------------------------------------------------------------------------
# Section decoders (reader-side, mapped)
# ---------------------------------------------------------------------------

def _decode_columns(reader: SegmentReader) -> ObservationColumns:
    """Mapped columns over the artifact container (zero-copy)."""
    return ObservationColumns.from_segments(
        reader.array("columns.scan_idx"),
        reader.array("columns.ip"),
        reader.array("columns.cert_id"),
        reader.array("columns.entity_id"),
        reader.array("columns.handshake_id"),
        fp_blob=reader.bytes("columns.fingerprints"),
        entities=reader.json("columns.entities"),
        handshakes=[
            HandshakeRecord(*record)
            for record in reader.json("columns.handshakes")
        ],
        source=reader,
    )


def _decode_index(
    columns: ObservationColumns, reader: SegmentReader
) -> ObservationIndex:
    index = ObservationIndex.__new__(ObservationIndex)
    index.columns = columns
    index._offsets = reader.array("index.offsets")
    index._order = reader.array("index.order")
    if len(index._offsets) != len(columns.fingerprints) + 1 \
            or len(index._order) != len(columns):
        raise ValueError("artifact index shape mismatch")
    return index


def _fingerprint_prefix_matches(
    columns: ObservationColumns, base_fp
) -> bool:
    """True when the grown corpus' interning order starts with the base's.

    Delta appends preserve the base fingerprint table as a strict
    prefix; anything else means the lineage sidecar is stale for this
    corpus and the merge must not be trusted.
    """
    blob = columns._fp_blob
    if blob is not None:
        return bytes(blob[: len(base_fp)]) == bytes(base_fp)
    prefix = columns.fingerprints[: len(base_fp) // FP_LEN]
    return b"".join(prefix) == bytes(base_fp)


def _decode_intervals(reader: SegmentReader, n_certs: int) -> CertIntervals:
    intervals = CertIntervals.__new__(CertIntervals)
    for name in CertIntervals.__slots__:
        column = reader.array(f"intervals.{name}")
        if len(column) != n_certs:
            raise ValueError("artifact intervals shape mismatch")
        setattr(intervals, name, column)
    return intervals


def _decode_matrix(
    reader: SegmentReader, certificates: Mapping[bytes, Certificate]
):
    """Rebuild the feature matrix, re-ordering rows to the loader's
    certificate order when it differs from the writer's (the digest pins
    the certificate *set*, not the dict insertion order).  The id
    columns are materialized — unlike the observation columns they must
    survive pickling into pool workers."""
    from ..core.features import Feature
    from ..core.kernels import FeatureMatrix

    stored = unpack_fingerprints(
        reader.bytes("matrix.fingerprints", materialize=True)
    )
    wanted = list(certificates)
    raw = {
        feature: as_array(reader.array(f"matrix.raw.{feature.name}"))
        for feature in Feature
    }
    cn_linkable = as_array(reader.array("matrix.cn_linkable"))
    self_signed = as_array(reader.array("matrix.self_signed"))
    is_ca = as_array(reader.array("matrix.is_ca"))
    if stored != wanted:
        if sorted(stored) != sorted(wanted):
            raise ValueError("artifact certificate set mismatch")
        stored_row = {fp: row for row, fp in enumerate(stored)}
        perm = [stored_row[fp] for fp in wanted]
        raw = {
            feature: array("i", (column[row] for row in perm))
            for feature, column in raw.items()
        }
        cn_linkable = array("i", (cn_linkable[row] for row in perm))
        self_signed = array("b", (self_signed[row] for row in perm))
        is_ca = array("b", (is_ca[row] for row in perm))
    for column in (*raw.values(), cn_linkable, self_signed, is_ca):
        if len(column) != len(wanted):
            raise ValueError("artifact matrix shape mismatch")
    values = reader.pickle("matrix.values")
    matrix = FeatureMatrix()
    matrix.fingerprints = wanted
    matrix.rows = {fp: row for row, fp in enumerate(wanted)}
    matrix.values = {feature: values[feature.name] for feature in Feature}
    matrix.raw_ids = raw
    matrix.linkable_ids = dict(raw)
    matrix.linkable_ids[Feature.COMMON_NAME] = cn_linkable
    matrix.self_signed = self_signed
    matrix.is_ca = is_ca
    return matrix


def _decode_kernels(reader: SegmentReader, dataset: "ScanDataset") -> bool:
    """Map the stored kernels and adopt them onto ``dataset``; True."""
    with obs.span("artifacts/map"):
        # The columns group dominates the file; a dataset that is
        # already columnar never touches those bytes.
        columns = dataset._columns
        if columns is None:
            columns = _decode_columns(reader)
        index = _decode_index(columns, reader)
        intervals = _decode_intervals(reader, len(columns.fingerprints))
        matrix = _decode_matrix(reader, dataset.certificates)
    dataset.adopt_kernels(
        columns=columns, index=index, intervals=intervals, matrix=matrix,
    )
    return True


class _CachedVerdicts(Mapping):
    """fingerprint → :class:`VerifyResult` over an artifact's verdict
    columns, each verdict decoded on first read.

    Membership, length and iteration (in stored order) read the
    fingerprint column alone, and :meth:`status_of` the status column.
    Reading a verdict builds it, resolving its chain's certificates
    (corpus certificates parse then, through the dataset's lazy table),
    and memoizes it.  Read-only, and pickles as a plain dict of every
    verdict.
    """

    def __init__(
        self, fingerprints, statuses, details, status_ids, detail_ids,
        chain_starts, chain_fps, resolve,
    ) -> None:
        self._fingerprints = fingerprints
        self._rows = {fp: row for row, fp in enumerate(fingerprints)}
        self._statuses = statuses
        self._details = details
        self._status_ids = status_ids
        self._detail_ids = detail_ids
        self._chain_starts = chain_starts
        self._chain_fps = chain_fps
        self._resolve = resolve
        self._decoded: dict = {}

    def __len__(self) -> int:
        return len(self._fingerprints)

    def __iter__(self):
        return iter(self._fingerprints)

    def __contains__(self, fingerprint) -> bool:
        return fingerprint in self._rows

    def __getitem__(self, fingerprint: bytes) -> VerifyResult:
        result = self._decoded.get(fingerprint)
        if result is None:
            result = self._decoded[fingerprint] = self._decode(
                self._rows[fingerprint]
            )
        return result

    def status_of(self, fingerprint: bytes) -> VerifyStatus:
        """One verdict's status, read without decoding the verdict."""
        return self._statuses[self._status_ids[self._rows[fingerprint]]]

    def _decode(self, row: int) -> VerifyResult:
        start, end = self._chain_starts[row], self._chain_starts[row + 1]
        return VerifyResult(
            status=self._statuses[self._status_ids[row]],
            chain=tuple(
                self._resolve(fp) for fp in self._chain_fps[start:end]
            ),
            detail=self._details[self._detail_ids[row]],
        )

    def __reduce__(self):
        return dict, (dict(self.items()),)


def _decode_validation(
    reader: SegmentReader,
    dataset: "ScanDataset",
    trust_store: "TrustStore",
) -> "ValidationReport":
    """The stored verdicts as a report whose ``results`` decode on read.

    The valid / invalid / disregarded sets are built here, and every
    check that can reject the section runs here too, so a corrupt one is
    ``invalidated`` at load rather than failing a later query: column
    shapes and id ranges, the chain blob length, set equality with the
    corpus, every chain fingerprint naming a corpus certificate, a
    trust-store root or a stored extra, and the extras (a handful of
    CA DERs) hashing to their fingerprints.  An extra parses only when
    a verdict whose chain names it is read.
    """
    from ..core.validation import ValidationReport

    certificates = dataset.certificates
    roots = {root.fingerprint: root for root in trust_store}
    extras = reader.pickle("val.extra")
    for fingerprint, der in extras.items():
        if hashlib.sha256(der).digest() != fingerprint:
            raise ValueError("artifact validation extra mismatch")
    parsed: dict[bytes, Certificate] = {}

    def resolve(fingerprint: bytes) -> Certificate:
        certificate = certificates.get(fingerprint) \
            or roots.get(fingerprint) or parsed.get(fingerprint)
        if certificate is None:
            certificate = parsed[fingerprint] = Certificate.from_der(
                extras[fingerprint]
            )
        return certificate

    status_table = [VerifyStatus(value) for value in reader.json("val.statuses")]
    details = reader.json("val.details")
    fingerprints = unpack_fingerprints(
        reader.bytes("val.fingerprints", materialize=True)
    )
    status_ids = reader.array("val.status_ids")
    detail_ids = reader.array("val.detail_ids")
    chain_lens = reader.array("val.chain_lens")
    chain_fps = unpack_fingerprints(
        reader.bytes("val.chain_fps", materialize=True)
    )
    if not (len(fingerprints) == len(status_ids) == len(detail_ids)
            == len(chain_lens)):
        raise ValueError("artifact validation shape mismatch")
    if max(status_ids, default=-1) >= len(status_table) \
            or max(detail_ids, default=-1) >= len(details):
        raise ValueError("artifact validation id out of range")
    # Which report bucket each status lands in (``is_valid`` and the
    # disregarded set are pure functions of the status).
    valid: set[bytes] = set()
    invalid: set[bytes] = set()
    disregarded: set[bytes] = set()
    buckets = [
        disregarded if status is VerifyStatus.MALFORMED
        else (valid if status.is_valid else invalid)
        for status in status_table
    ]
    chain_starts = array("I", [0])
    position = 0
    for fingerprint, status_id, length in zip(
        fingerprints, status_ids, chain_lens
    ):
        buckets[status_id].add(fingerprint)
        position += length
        chain_starts.append(position)
    if position != len(chain_fps):
        raise ValueError("artifact validation chain blob mismatch")
    if set(fingerprints) != set(certificates):
        raise ValueError("artifact validation set mismatch")
    for fingerprint in set(chain_fps):
        if fingerprint not in certificates and fingerprint not in roots \
                and fingerprint not in extras:
            raise ValueError("artifact validation chain names an unknown "
                             "certificate")
    results = _CachedVerdicts(
        fingerprints, status_table, details, status_ids, detail_ids,
        chain_starts, chain_fps, resolve,
    )
    return ValidationReport(
        results=results, valid=valid, invalid=invalid, disregarded=disregarded
    )


def _decode_tracking(
    reader: SegmentReader, dataset: "ScanDataset"
) -> "TrackingState":
    """The stored tracking state.  ``track.sha256`` is checked over
    every segment of the section first, so a flipped byte or a truncated
    segment raises here, as do column shapes that disagree."""
    from ..core.features import Feature
    from ..core.tracking import TrackedDevice, TrackingState, device_key

    check = hashlib.sha256()
    for name in _TRACK_SEGMENTS:
        check.update(reader.raw(name))
    if check.hexdigest() != reader.json("track.sha256"):
        raise ValueError("artifact tracking checksum mismatch")
    roster_lens = reader.array("track.roster_lens")
    rosters = unpack_fingerprints(
        reader.bytes("track.rosters", materialize=True)
    )
    sighting_lens = reader.array("track.sighting_lens")
    scans = reader.array("track.sighting_scans")
    ips = reader.array("track.sighting_ips")
    home_as = reader.array("track.home_as")
    flags = reader.array("track.outcome_flags")
    key_lens = reader.array("track.key_lens")
    members = unpack_fingerprints(
        reader.bytes("track.key_members", materialize=True)
    )
    spkis = unpack_fingerprints(
        reader.bytes("track.key_spkis", materialize=True)
    )
    n_devices = len(roster_lens)
    if not (len(sighting_lens) == len(home_as) == len(flags) == n_devices
            and sum(roster_lens) == len(rosters)
            and sum(sighting_lens) == len(scans) == len(ips)
            and len(key_lens) == len(spkis)
            and sum(key_lens) == len(members)):
        raise ValueError("artifact tracking shape mismatch")
    days = [scan.day for scan in dataset.scans]
    if max(scans, default=-1) >= len(days):
        raise ValueError("artifact tracking scan out of range")
    sightings = list(zip(scans, [days[scan] for scan in scans], ips))
    devices = []
    roster_at = sighting_at = 0
    for n_roster, n_sightings in zip(roster_lens, sighting_lens):
        roster = tuple(rosters[roster_at:roster_at + n_roster])
        devices.append(TrackedDevice(
            device_key(roster), roster,
            tuple(sightings[sighting_at:sighting_at + n_sightings]),
        ))
        roster_at += n_roster
        sighting_at += n_sightings
    member_iter = iter(members)
    return TrackingState(
        link_plan=tuple(
            Feature(name) for name in reader.json("track.plan")
        ),
        devices=devices,
        key_groups={
            spki.hex(): tuple(islice(member_iter, length))
            for spki, length in zip(spkis, key_lens)
        },
        outcomes=[
            None if asn < 0 else (asn, bool(flag & 1), bool(flag & 2))
            for asn, flag in zip(home_as, flags)
        ],
    )


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------

@dataclass
class LoadedArtifacts:
    """What one :meth:`ArtifactCache.load` satisfied."""

    #: True when columns, index, intervals, and matrix were all installed.
    kernels: bool = False
    #: The reconstructed §4.2 report, when requested and present.
    validation: Optional["ValidationReport"] = None
    #: The stored §6.3–§7 tracking state, when requested and present.
    tracking: Optional["TrackingState"] = None


class ArtifactCache:
    """Content-addressed on-disk cache of derived analysis artifacts."""

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        #: (digest, section) → key of every section file this cache has
        #: read (a hit) or written; a later store of the same section
        #: under the same key writes nothing.  A section that failed to
        #: load, or missed, is dropped.
        self._intact: dict[tuple[str, str], str] = {}

    def path_for(self, digest: str, section: str) -> pathlib.Path:
        return self.root / f"{digest}.{section}.rpa"

    # --- read ----------------------------------------------------------------

    def load(
        self,
        dataset: "ScanDataset",
        trust_store: Optional["TrustStore"] = None,
        workers: int = 1,
        extra_fingerprints: Iterable[bytes] = (),
        tracking: Optional[str] = None,
        kernels: bool = True,
    ) -> LoadedArtifacts:
        """Install the cached artifacts asked for that the corpus digest
        matches, reading no other section file.

        With ``kernels`` (the default), kernels (columns + index +
        intervals + matrix) are adopted onto ``dataset`` as **mapped**
        views over their section file (the ``artifacts/map`` span); the
        validation report is returned when ``trust_store`` is given and
        the stored verdicts were produced under the same
        :func:`verdict_key` — the same trust store and the same extra
        intermediates (``extra_fingerprints``, the fingerprints of the
        CAs pooled into chain building on top of the corpus's own); the
        tracking state when ``tracking`` — a :func:`tracking_key` — is
        given and matches the stored one.
        Every requested section bumps exactly one of ``artifacts.hit`` /
        ``miss`` / ``invalidated`` (or ``extended``): no file, or one
        stored under another key, is a miss; any read, checksum or
        decode failure — including a pre-format-3 ZIP artifact — counts
        as invalidated and falls back to a rebuild.
        """
        loaded = LoadedArtifacts()
        digest = dataset.corpus_digest(workers=workers)
        if kernels and self.path_for(digest, "kernels").exists():
            loaded.kernels = self._load_section(
                digest, "kernels", digest,
                lambda reader: _decode_kernels(reader, dataset),
            ) is not None
        elif kernels:
            # No kernels for this exact corpus — but if the corpus is a
            # recorded delta-append of a cached base, one delta-merge
            # over the base's kernels serves it (and is persisted, so
            # the next load is a direct hit).  Verdicts and the tracking
            # state are never delta-merged: appended certificates can
            # complete chains that were incomplete in the base.
            outcome = self._load_extended(dataset, digest, workers)
            loaded.kernels = outcome == "extended"
            obs.inc(f"artifacts.{outcome}")
        if trust_store is not None:
            loaded.validation = self._load_section(
                digest, "validation",
                verdict_key(trust_store, extra_fingerprints),
                lambda reader: _decode_validation(
                    reader, dataset, trust_store
                ),
            )
        if tracking is not None:
            loaded.tracking = self._load_section(
                digest, "tracking", tracking,
                lambda reader: _decode_tracking(reader, dataset),
            )
        return loaded

    def _load_section(
        self, digest: str, section: str, key: str,
        decode: Callable[[SegmentReader], object],
    ):
        """``decode`` of ``digest``'s ``section`` file stored under
        ``key``, or None; counts the outcome and remembers a hit."""
        try:
            reader = self._open_section(digest, section)
            if reader is not None and reader.meta.get("key") != key:
                reader = None  # the same corpus under another key
            value = None if reader is None else decode(reader)
        except Exception:
            self._count(digest, section, "invalidated")
            return None
        if reader is None:
            self._count(digest, section, "miss")
            return None
        self._count(digest, section, "hit", key)
        return value

    def _open_section(
        self, digest: str, section: str
    ) -> Optional[SegmentReader]:
        """A reader over ``digest``'s ``section`` file, or None when there
        is none.  Raises unless the file is a current-schema container
        of that section of that corpus; the caller checks its key."""
        path = self.path_for(digest, section)
        if not path.exists():
            return None
        reader = SegmentReader(path)
        meta = reader.meta
        if meta.get("kind") != "artifacts" \
                or meta.get("schema") != ARTIFACT_SCHEMA:
            raise ValueError(
                f"artifact schema {meta.get('schema')!r} != "
                f"{ARTIFACT_SCHEMA}"
            )
        if meta.get("digest") != digest or meta.get("section") != section:
            raise ValueError("artifact digest or section mismatch")
        return reader

    def _count(
        self, digest: str, section: str, outcome: str,
        key: Optional[str] = None,
    ) -> None:
        """Count one section's load; remember it intact on a hit."""
        obs.inc(f"artifacts.{outcome}")
        if outcome == "hit":
            self._intact[(digest, section)] = key
        else:
            self._intact.pop((digest, section), None)

    # --- lineage (delta-chain warm loads) --------------------------------------

    def _lineage_path(self) -> pathlib.Path:
        return self.root / _LINEAGE_NAME

    def _read_lineage(self) -> dict:
        """The lineage sidecar, tolerantly: corruption reads as empty."""
        try:
            data = json.loads(self._lineage_path().read_text())
        except Exception:
            return {}
        return data if isinstance(data, dict) else {}

    def record_lineage(self, digest: str, base_digest: str) -> None:
        """Record that ``digest`` is ``base_digest`` plus one delta append.

        The sidecar keys warm loads by ``(base_digest, delta_chain)``:
        artifact files stay purely content-addressed
        (``<digest>.<section>.rpa``, byte-identical to a cold build's),
        while the lineage map lets a kernels load for a digest with no
        kernels file walk its ancestor chain,
        delta-merge the nearest cached base, and persist the result.
        Appends chain: day N+2 records day N+1 as base and inherits its
        chain, so any cached ancestor can serve any descendant.
        """
        if digest == base_digest:
            return
        lineage = self._read_lineage()
        base_entry = lineage.get(base_digest) or {}
        chain = [
            entry for entry in base_entry.get("chain") or []
            if isinstance(entry, str)
        ]
        chain.append(base_digest)
        if len(chain) > _LINEAGE_MAX_CHAIN:
            # Ancestors past the cap can no longer warm-load descendants;
            # the cache silently degrading to cold rebuilds is worth one
            # audible heads-up per process.
            obs.inc("artifacts.lineage_truncated",
                    len(chain) - _LINEAGE_MAX_CHAIN)
            _warn_lineage_truncated(len(chain))
        lineage[digest] = {
            "base": base_digest, "chain": chain[-_LINEAGE_MAX_CHAIN:],
        }
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self._lineage_path().with_name(
            f"{_LINEAGE_NAME}.tmp-{os.getpid()}"
        )
        tmp.write_text(json.dumps(lineage, indent=2, sort_keys=True))
        os.replace(tmp, self._lineage_path())

    def chain_length(self, digest: str) -> int:
        """Recorded delta ancestors behind ``digest`` (0 = flat/unknown)."""
        entry = self._read_lineage().get(digest)
        if not isinstance(entry, dict):
            return 0
        return len([
            ancestor for ancestor in entry.get("chain") or []
            if isinstance(ancestor, str)
        ])

    def compact(
        self, dataset: "ScanDataset", workers: int = 1
    ) -> Optional[pathlib.Path]:
        """Consolidate ``dataset``'s delta chain into one flat artifact.

        Guarantees a direct-hit ``kernels`` section file exists for the
        dataset's digest — warm-loading through the lineage
        chain first, building cold only what is still missing — then
        drops the digest's lineage entry and every ancestor entry it
        chains through.  Future appends restart their chain at this
        digest, so a long-running ingest loop that compacts every N
        days never approaches the 64-ancestor cap.  Returns the kernels
        file's path; on failure to persist, the lineage is left
        untouched and None is returned.  A dataset that is already
        flat (no lineage entry, artifact present) is a no-op.
        """
        digest = dataset.corpus_digest(workers=workers)
        entry = self._read_lineage().get(digest)
        if "kernels" not in self.status(digest)["sections"]:
            if None in dataset.kernel_state:
                # A successful warm load through the chain persists the
                # flat artifact itself; cold-build any kernel it could
                # not serve before storing.
                self.load(dataset, workers=workers)
            dataset.build_columns(workers=workers)
            dataset.index
            dataset.intervals
            dataset.build_feature_matrix(workers=workers)
            if "kernels" not in self.status(digest)["sections"] \
                    and self.store(dataset, workers=workers) is None:
                return None
        if not isinstance(entry, dict):
            return self.path_for(digest, "kernels")
        stale = {digest}
        base = entry.get("base")
        if isinstance(base, str):
            stale.add(base)
        stale.update(
            ancestor for ancestor in entry.get("chain") or []
            if isinstance(ancestor, str)
        )
        lineage = {
            key: value for key, value in self._read_lineage().items()
            if key not in stale
        }
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self._lineage_path().with_name(
            f"{_LINEAGE_NAME}.tmp-{os.getpid()}"
        )
        tmp.write_text(json.dumps(lineage, indent=2, sort_keys=True))
        os.replace(tmp, self._lineage_path())
        obs.inc("artifacts.compacted")
        return self.path_for(digest, "kernels")

    def _load_extended(self, dataset, digest: str, workers: int) -> str:
        """Serve a digest with no artifact by delta-merging an ancestor's.

        Returns the counter the kernels section should bump:
        ``"extended"`` on success, ``"miss"`` when there is no usable
        lineage, ``"invalidated"`` when an ancestor artifact exists but
        fails to decode, sanity-check, or merge (the corruption → full
        rebuild fallback).
        """
        columns = dataset._columns
        if columns is None:
            # Without the grown columns there is no delta to splice.
            return "miss"
        entry = self._read_lineage().get(digest)
        if not isinstance(entry, dict):
            return "miss"
        candidates = [entry.get("base"),
                      *reversed(entry.get("chain") or [])]
        base_digest = None
        seen: set = set()
        for candidate in candidates:
            if not isinstance(candidate, str) or candidate in seen:
                continue
            seen.add(candidate)
            if self.path_for(candidate, "kernels").exists():
                base_digest = candidate
                break
        if base_digest is None:
            return "miss"
        try:
            with obs.span("artifacts/extend", base=base_digest[:12]):
                reader = self._open_section(base_digest, "kernels")
                if reader is None:
                    raise ValueError("lineage base artifact unusable")
                base_rows = reader.meta.get("n_observations")
                if not isinstance(base_rows, int) \
                        or base_rows > len(columns):
                    raise ValueError("lineage base shape mismatch")
                base_index = ObservationIndex.__new__(ObservationIndex)
                base_index.columns = None
                base_index._offsets = reader.array("index.offsets")
                base_index._order = reader.array("index.order")
                base_certs = len(base_index._offsets) - 1
                if len(base_index._order) != base_rows \
                        or base_certs > len(columns.fingerprints):
                    raise ValueError("lineage base shape mismatch")
                base_fp = reader.raw("columns.fingerprints")
                if len(base_fp) != FP_LEN * base_certs \
                        or not _fingerprint_prefix_matches(columns, base_fp):
                    raise ValueError("lineage base fingerprint mismatch")
                base_intervals = _decode_intervals(reader, base_certs)
                stored = unpack_fingerprints(
                    reader.bytes("matrix.fingerprints", materialize=True)
                )
                base_matrix = _decode_matrix(reader, dict.fromkeys(stored))
                from ..core.kernels import FeatureMatrix

                delta = RowDelta(columns, base_rows, base_certs)
                index = ObservationIndex.extended(base_index, delta)
                intervals = CertIntervals.extended(base_intervals, delta)
                matrix = FeatureMatrix.extended(
                    base_matrix, dataset.certificates, workers=workers
                )
        except Exception:
            return "invalidated"
        dataset.adopt_kernels(
            columns=columns, index=index, intervals=intervals, matrix=matrix
        )
        try:
            # Persist so the next load of this digest is a direct hit.
            self.store(dataset, workers=workers)
        except Exception:
            pass
        return "extended"

    # --- write ---------------------------------------------------------------

    def store(
        self,
        dataset: "ScanDataset",
        validation: Optional["ValidationReport"] = None,
        trust_store: Optional["TrustStore"] = None,
        workers: int = 1,
        extra_fingerprints: Iterable[bytes] = (),
        tracking: Optional[tuple[str, "TrackingState"]] = None,
    ) -> Optional[list[pathlib.Path]]:
        """Persist whatever artifacts ``dataset`` currently holds.

        The kernels section is written only when all four kernels are
        built; the validation section only when both ``validation`` and
        ``trust_store`` are given, keyed by :func:`verdict_key` over
        ``trust_store`` and ``extra_fingerprints``; the tracking section
        when ``tracking`` — a ``(key, state)`` pair, the key a
        :func:`tracking_key` — is given.  Each goes to its own file,
        replaced atomically, so a partial writer never corrupts a
        reader; a section this cache read intact or wrote under the
        same key is not written again, and no other file is read or
        touched.  Returns the section files of this call, or None when
        there was nothing to persist.
        """
        verdicts = None
        if validation is not None and trust_store is not None:
            verdicts = (
                verdict_key(trust_store, extra_fingerprints),
                *_report_verdicts(validation),
            )
        return self._write(dataset, verdicts, workers, tracking)

    def store_shard(
        self,
        shard: "ScanDataset",
        parent_matrix,
        parent_digest: str,
        trust_store: "TrustStore",
        extra_fingerprints: Iterable[bytes],
        parent_der: Callable[[bytes], bytes],
        tracking: Optional[tuple[str, "TrackingState"]] = None,
    ) -> Optional[list[pathlib.Path]]:
        """Persist the section files of a ``repro split`` shard,
        byte-identical to the ones the shard stores when it boots cold,
        parsing nothing.

        The index and intervals build over the shard's mapped columns;
        the matrix is ``parent_matrix`` restricted to the shard's
        certificates (``FeatureMatrix.extended`` extracts nothing for a
        subset).  The verdicts are copied from the parent's verdict
        columns in the shard's certificate order, keyed on
        ``extra_fingerprints`` — the off-shard CAs the shard pools into
        chain building — as the shard's study keys them; chain members
        outside the shard keep their DER, from the parent's stored
        extras or ``parent_der`` (fingerprint → DER in the parent
        corpus).  A shard's verdicts are the parent's: two issuer
        candidates that both verify a certificate share a key, hence a
        shard, so a shard pooling every off-shard CA builds the parent's
        chains.  Without parent verdicts under ``trust_store`` they are
        not written.  ``tracking`` is the shard's ``(key, state)``: the
        parent's state restricted to the shard, keyed as the shard's
        study keys it.
        """
        from ..core.kernels import FeatureMatrix

        shard.build_columns()
        shard.index, shard.intervals
        shard.adopt_kernels(
            matrix=FeatureMatrix.extended(parent_matrix, shard.certificates)
        )
        verdicts = None
        try:
            parent = self._open_section(parent_digest, "validation")
        except Exception:
            parent = None
        if parent is not None \
                and parent.meta.get("key") == verdict_key(trust_store):
            verdicts = (
                verdict_key(trust_store, extra_fingerprints),
                *_copied_verdicts(
                    parent, list(shard.certificates), parent_der
                ),
            )
        return self._write(shard, verdicts, 1, tracking)

    def _write(
        self, dataset: "ScanDataset", verdicts, workers: int,
        tracking: Optional[tuple[str, "TrackingState"]] = None,
    ) -> Optional[list[pathlib.Path]]:
        """Write a file for each section handed in — the kernels
        ``dataset`` holds, ``verdicts`` (``(key, rows, der_of)`` for
        :func:`_write_verdicts`, or None), ``tracking`` (``(key,
        state)``, or None) — unless this cache holds it intact under
        the same key.  A schema-5 ``<digest>.rpa`` bundle, which no
        reader opens, is deleted once a section file of the digest is
        written."""
        digest = dataset.corpus_digest(workers=workers)
        columns, index, intervals, matrix = dataset.kernel_state
        encoders: dict[str, tuple[str, Callable[[SegmentWriter], None]]] = {}
        if None not in (columns, index, intervals, matrix):
            encoders["kernels"] = (digest, lambda writer: _write_kernels(
                writer, columns, index, intervals, matrix
            ))
        if verdicts is not None:
            encoders["validation"] = (verdicts[0], lambda writer: (
                _write_verdicts(writer, *verdicts[1:], dataset.certificates)
            ))
        if tracking is not None:
            encoders["tracking"] = (tracking[0], lambda writer: (
                _write_tracking(writer, tracking[1])
            ))
        if not encoders:
            return None
        self.root.mkdir(parents=True, exist_ok=True)
        for section, (key, encode) in encoders.items():
            if self._intact.get((digest, section)) == key:
                continue
            meta = {
                "kind": "artifacts",
                "schema": ARTIFACT_SCHEMA,
                "section": section,
                "digest": digest,
                "key": key,
                "byteorder": "little",
                "n_certificates": len(dataset.certificates),
            }
            if section == "kernels":
                meta["n_observations"] = len(columns)
            path = self.path_for(digest, section)
            tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
            writer = SegmentWriter(tmp, meta=meta)
            try:
                encode(writer)
                writer.close()
                os.replace(tmp, path)
            except BaseException:
                writer.abort()
                raise
            self._intact[(digest, section)] = key
            (self.root / f"{digest}.rpa").unlink(missing_ok=True)
        return [self.path_for(digest, section) for section in encoders]

    # --- introspection (``repro info``) ---------------------------------------

    def status(self, digest: str) -> dict:
        """Cheap cache-status summary for one corpus digest, read from
        the manifests of its files under :attr:`root` (``path``): the
        sections stored at the current schema, else the schema of an
        outdated file — a section file or a schema-5 ``<digest>.rpa``
        bundle — when there is one."""
        sections, schema = [], None
        candidates = [
            (section, self.path_for(digest, section)) for section in SECTIONS
        ]
        candidates.append((None, self.root / f"{digest}.rpa"))
        for section, path in candidates:
            if not path.exists():
                continue
            try:
                meta = read_container_meta(path)["meta"]
            except Exception:
                continue
            if meta.get("kind") != "artifacts" \
                    or meta.get("digest") != digest:
                continue
            if meta.get("schema") == ARTIFACT_SCHEMA \
                    and meta.get("section") == section:
                sections.append(section)
            elif schema is None:
                schema = meta.get("schema")
        return {
            "digest": digest,
            "path": str(self.root),
            "cached": bool(sections),
            "sections": sections,
            "schema": ARTIFACT_SCHEMA if sections else schema,
        }
