"""Content-addressed persistence of derived analysis artifacts.

PR 2 made the §6 linking consumers array-native, which left the *builds*
— column interning, the CSR observation index, the interval arrays, the
feature matrix, and the §4.2 chain walks — as the dominant cost of every
run over the same immutable corpus.  This module is the warm path: an
:class:`ArtifactCache` persists those derived artifacts in one ``.rpa``
file per corpus, keyed by a **streaming corpus digest**, so a warm
:class:`~repro.study.Study` run loads them in O(1) and skips the kernel
builds and the chain walks entirely.

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

File layout — ``<digest>.rpa`` is a format 3 segment container
(:mod:`repro.io.encoding`), the same encoding ``.rpz`` corpora use.
Segment groups:

* ``columns.*``   — the five observation columns and interning tables.
  Kept as their own group because a loader whose dataset is already
  columnar (or mapped) never touches these bytes — they dominate the
  artifact;
* ``index.*`` / ``intervals.*`` — the CSR index and interval arrays;
* ``matrix.*``    — the feature matrix (interned value tables as one
  pickle segment, id columns and the ``int8`` self-signed column as
  arrays), which is all the §5 census reads;
* ``val.*``       — per-certificate verdicts, columnar: interned
  status/detail tables, per-record id columns, a flat chain-fingerprint
  blob with per-record lengths, plus the DER of chain members that are
  not corpus certificates (roots), gated by a digest of the trust store.

A warm load **maps** the container: fixed-stride segments come back as
``memoryview``s over the shared ``mmap`` (the ``artifacts/map`` span),
so adopting cached kernels costs O(1) and the bytes page in as queries
touch them.  Only the feature-matrix columns are copied out (they
must survive pickling into pool workers).  Verdicts decode on read: a
load builds the valid / invalid / disregarded sets from the status
column and checks every record, but a :class:`VerifyResult` — and the
certificates of its chain — is built only when a caller reads it, so a
warm load parses no corpus certificate.

Any failure to read, decode, or sanity-check an artifact — truncation,
a schema bump, a digest mismatch, a pre-format-3 ZIP artifact — degrades
to a rebuild, never to an error; counters ``artifacts.hit`` / ``miss`` /
``invalidated`` / ``extended`` (one per requested section) record which
way each load went.

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
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

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
    le_view,
    pack_fingerprints,
    read_container_meta,
    unpack_fingerprints,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.validation import ValidationReport
    from ..scanner.dataset import ScanDataset
    from ..x509.truststore import TrustStore

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactCache",
    "LoadedArtifacts",
    "columns_digest",
    "file_digest",
    "trust_store_digest",
]

#: Bump on any change to the artifact payload encoding; older files are
#: invalidated (fall back to a rebuild), never misread.  Schema 1 was
#: the pre-mmap ZIP-of-pickles layout; schema 2 lacked the
#: ``matrix.self_signed`` column.
ARTIFACT_SCHEMA = 3

#: Streaming chunk size for archive-byte digests.
_CHUNK = 1 << 20

#: Segment-name prefixes of each manifest section.
_SECTION_PREFIXES = {
    "kernels": ("columns.", "index.", "intervals.", "matrix."),
    "validation": ("val.",),
}

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


def trust_store_digest(trust_store: "TrustStore") -> str:
    """Digest of a trust store: SHA-256 over its sorted root fingerprints.

    Gates only the ``validation`` section — the kernel artifacts are pure
    functions of the corpus and stay loadable under any trust store.
    """
    digest = hashlib.sha256(b"repro-trust/1\n")
    for fingerprint in sorted(root.fingerprint for root in trust_store):
        digest.update(fingerprint)
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


def _write_validation(
    writer: SegmentWriter,
    report: "ValidationReport",
    dataset: "ScanDataset",
    trust_store: "TrustStore",
) -> None:
    """Columnar verdict encoding: the distinct (status, detail) space is
    tiny (a handful of failure classes), so per-certificate state is two
    id columns plus a flat chain-fingerprint blob with per-record
    lengths — not tens of thousands of record tuples."""
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
    for fingerprint, result in report.results.items():
        fingerprints.append(fingerprint)
        status_id = status_ids.setdefault(result.status.value, len(statuses))
        if status_id == len(statuses):
            statuses.append(result.status.value)
        detail_id = detail_ids.setdefault(result.detail, len(details))
        if detail_id == len(details):
            details.append(result.detail)
        record_status.append(status_id)
        record_detail.append(detail_id)
        chain_lens.append(len(result.chain))
        for link in result.chain:
            chain_fps.append(link.fingerprint)
            if link.fingerprint not in dataset.certificates \
                    and link.fingerprint not in extra_der:
                extra_der[link.fingerprint] = link.to_der()
    writer.add_json("val.trust", trust_store_digest(trust_store))
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


def _copy_section(
    writer: SegmentWriter, reader: SegmentReader, section: str
) -> None:
    """Re-emit one section's raw segment bytes (no decode, no re-encode)."""
    prefixes = _SECTION_PREFIXES[section]
    for name in reader.names():
        if not name.startswith(prefixes):
            continue
        entry = reader.entry(name)
        writer.add_chunks(
            name, (reader.raw(name),), kind=entry["kind"],
            typecode=entry.get("typecode"), stride=entry.get("stride"),
        )


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
    for column in (*raw.values(), cn_linkable, self_signed):
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
    return matrix


class _CachedVerdicts(Mapping):
    """fingerprint → :class:`VerifyResult` over an artifact's verdict
    columns, each verdict decoded on first read.

    Membership, length and iteration (in stored order) read the
    fingerprint column alone.  Reading a verdict builds it, resolving
    its chain's certificates (corpus certificates parse then, through
    the dataset's lazy table), and memoizes it.  Read-only, and pickles
    as a plain dict of every verdict.
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
    check that can reject the bundle runs here too, so a corrupt one is
    ``invalidated`` at load rather than failing a later query: column
    shapes and id ranges, the chain blob length, set equality with the
    corpus, every chain fingerprint naming a corpus certificate, a
    trust-store root or a stored extra, and the extras (a handful of
    CA DERs) parsing to their fingerprints.
    """
    from ..core.validation import ValidationReport

    certificates = dataset.certificates
    roots = {root.fingerprint: root for root in trust_store}
    extras = {}
    for fingerprint, der in reader.pickle("val.extra").items():
        extras[fingerprint] = Certificate.from_der(der)
        if extras[fingerprint].fingerprint != fingerprint:
            raise ValueError("artifact validation extra mismatch")

    def resolve(fingerprint: bytes) -> Certificate:
        return certificates.get(fingerprint) or roots.get(fingerprint) \
            or extras[fingerprint]

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


class ArtifactCache:
    """Content-addressed on-disk cache of derived analysis artifacts."""

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)

    def path_for(self, digest: str) -> pathlib.Path:
        return self.root / f"{digest}.rpa"

    # --- read ----------------------------------------------------------------

    def load(
        self,
        dataset: "ScanDataset",
        trust_store: Optional["TrustStore"] = None,
        workers: int = 1,
    ) -> LoadedArtifacts:
        """Install every cached artifact the corpus digest matches.

        Kernels (columns + index + intervals + matrix) are adopted onto
        ``dataset`` as **mapped** views over the artifact container (the
        ``artifacts/map`` span); the validation report is returned when
        ``trust_store`` is given and the stored verdicts were produced
        under a trust store with the same digest.  Every requested
        section bumps exactly one of ``artifacts.hit`` / ``miss`` /
        ``invalidated``; any read or decode failure — including a
        pre-format-3 ZIP artifact — counts as invalidated and falls back
        to a rebuild.
        """
        loaded = LoadedArtifacts()
        n_sections = 2 if trust_store is not None else 1
        digest = dataset.corpus_digest(workers=workers)
        path = self.path_for(digest)
        if not path.exists():
            # No artifact for this exact corpus — but if the corpus is a
            # recorded delta-append of a cached base, one delta-merge
            # over the base's kernels serves it (and is persisted, so
            # the next load is a direct hit).  Validation is never
            # delta-merged: appended certificates can complete chains
            # that were incomplete in the base.
            outcome = self._load_extended(dataset, digest, workers)
            if outcome == "extended":
                loaded.kernels = True
            obs.inc(f"artifacts.{outcome}")
            if trust_store is not None:
                obs.inc("artifacts.miss")
            return loaded
        try:
            reader = SegmentReader(path)
            meta = reader.meta
            if meta.get("kind") != "artifacts" \
                    or meta.get("schema") != ARTIFACT_SCHEMA:
                raise ValueError(
                    f"artifact schema {meta.get('schema')!r} != "
                    f"{ARTIFACT_SCHEMA}"
                )
            if meta.get("digest") != digest:
                raise ValueError("artifact digest mismatch")
            sections = set(meta.get("sections") or ())
        except Exception:
            obs.inc("artifacts.invalidated", n_sections)
            return loaded

        if "kernels" not in sections:
            obs.inc("artifacts.miss")
        else:
            try:
                with obs.span("artifacts/map"):
                    # The columns group dominates the artifact; a dataset
                    # that is already columnar never touches those bytes.
                    columns = dataset._columns
                    if columns is None:
                        columns = _decode_columns(reader)
                    index = _decode_index(columns, reader)
                    intervals = _decode_intervals(
                        reader, len(columns.fingerprints)
                    )
                    matrix = _decode_matrix(reader, dataset.certificates)
            except Exception:
                obs.inc("artifacts.invalidated")
            else:
                dataset.adopt_kernels(
                    columns=columns, index=index,
                    intervals=intervals, matrix=matrix,
                )
                loaded.kernels = True
                obs.inc("artifacts.hit")

        if trust_store is not None:
            if "validation" not in sections:
                obs.inc("artifacts.miss")
            else:
                try:
                    if reader.json("val.trust") != trust_store_digest(trust_store):
                        # Same corpus, different roots: a miss, not corruption.
                        obs.inc("artifacts.miss")
                    else:
                        loaded.validation = _decode_validation(
                            reader, dataset, trust_store
                        )
                        obs.inc("artifacts.hit")
                except Exception:
                    obs.inc("artifacts.invalidated")
        return loaded

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
        artifact files stay purely content-addressed (``<digest>.rpa``,
        byte-identical to a cold build's), while the lineage map lets a
        load for a digest with no artifact walk its ancestor chain,
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

        Guarantees a direct-hit (``kernels`` section) artifact exists
        for the dataset's digest — warm-loading through the lineage
        chain first, building cold only what is still missing — then
        drops the digest's lineage entry and every ancestor entry it
        chains through.  Future appends restart their chain at this
        digest, so a long-running ingest loop that compacts every N
        days never approaches the 64-ancestor cap.  Returns the flat
        artifact's path; on failure to persist, the lineage is left
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
            return self.path_for(digest)
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
        return self.path_for(digest)

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
            if self.path_for(candidate).exists():
                base_digest = candidate
                break
        if base_digest is None:
            return "miss"
        try:
            with obs.span("artifacts/extend", base=base_digest[:12]):
                reader = SegmentReader(self.path_for(base_digest))
                meta = reader.meta
                if meta.get("kind") != "artifacts" \
                        or meta.get("schema") != ARTIFACT_SCHEMA \
                        or meta.get("digest") != base_digest \
                        or "kernels" not in (meta.get("sections") or ()):
                    raise ValueError("lineage base artifact unusable")
                base_rows = meta.get("n_observations")
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
    ) -> Optional[pathlib.Path]:
        """Persist whatever artifacts ``dataset`` currently holds.

        The kernels section is written only when all four kernels are
        built; the validation section only when both ``validation`` and
        ``trust_store`` are given.  Sections already in the file that
        this call does not rewrite are preserved (raw segment copy, no
        decode), and the file is replaced atomically, so a partial
        writer never corrupts a reader.  Returns the artifact path, or
        None when there was nothing to persist.
        """
        digest = dataset.corpus_digest(workers=workers)
        columns, index, intervals, matrix = dataset.kernel_state
        write_kernels = columns is not None and index is not None \
            and intervals is not None and matrix is not None
        write_validation = validation is not None and trust_store is not None
        if not write_kernels and not write_validation:
            return None
        path = self.path_for(digest)
        # Preserve sections an earlier (e.g. validation-only) run stored.
        existing = self._existing_reader(path, digest)
        existing_sections = set(
            existing.meta.get("sections") or ()
        ) if existing is not None else set()
        sections = []
        if write_kernels or "kernels" in existing_sections:
            sections.append("kernels")
        if write_validation or "validation" in existing_sections:
            sections.append("validation")
        meta = {
            "kind": "artifacts",
            "schema": ARTIFACT_SCHEMA,
            "digest": digest,
            "byteorder": "little",
            "n_certificates": len(dataset.certificates),
            "n_observations": len(columns) if columns is not None else None,
            "sections": sections,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        writer = SegmentWriter(tmp, meta=meta)
        try:
            if write_kernels:
                _write_kernels(writer, columns, index, intervals, matrix)
            elif "kernels" in existing_sections:
                _copy_section(writer, existing, "kernels")
            if write_validation:
                _write_validation(writer, validation, dataset, trust_store)
            elif "validation" in existing_sections:
                _copy_section(writer, existing, "validation")
            writer.close()
            os.replace(tmp, path)
        except BaseException:
            writer.abort()
            raise
        return path

    def _existing_reader(
        self, path: pathlib.Path, digest: str
    ) -> Optional[SegmentReader]:
        """A reader over a compatible existing artifact, if any."""
        if not path.exists():
            return None
        try:
            reader = SegmentReader(path)
            if reader.meta.get("kind") != "artifacts" \
                    or reader.meta.get("schema") != ARTIFACT_SCHEMA \
                    or reader.meta.get("digest") != digest:
                return None
            return reader
        except Exception:
            return None

    # --- introspection (``repro info``) ---------------------------------------

    def status(self, digest: str) -> dict:
        """Cheap cache-status summary for one corpus digest."""
        path = self.path_for(digest)
        status = {
            "digest": digest,
            "path": str(path),
            "cached": False,
            "sections": [],
            "schema": None,
        }
        if not path.exists():
            return status
        try:
            meta = read_container_meta(path)["meta"]
        except Exception:
            return status
        status["schema"] = meta.get("schema")
        if meta.get("kind") == "artifacts" \
                and meta.get("schema") == ARTIFACT_SCHEMA \
                and meta.get("digest") == digest:
            status["cached"] = True
            status["sections"] = list(meta.get("sections", []))
        return status
