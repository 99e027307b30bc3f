"""Corpus sharding: split one format 3 ``.rpz`` into a serve fleet.

``split_corpus`` partitions a corpus into K self-contained shard
containers plus a ``fleet.json`` manifest, so K independent
``repro serve`` processes (fronted by :mod:`repro.serve.router`) answer
every query **byte-identically** to one server over the whole corpus.

The partition is *analysis-closed*, not naive round-robin.  Certificates
are first unioned into components that must never straddle a shard
boundary:

* certificates sharing a **public key** (any population — key-sharing
  census counts and §6.3 key groups are computed per key);
* certificates sharing a **linkable value of any pinned linking field**
  over the deduplicated invalid population (so each shard, re-running
  the §6.4.3 pipeline under the parent's pinned ``link_plan``, derives
  exactly the parent's groups restricted to its own certificates).

Each component is owned by the shard
``int.from_bytes(min_fingerprint[:8], "little") % K`` — the
"fingerprint-hash ownership" rule, a pure function of the corpus bytes,
so splitting the same corpus twice yields byte-identical shards.

Every shard is a complete, standalone corpus container (same segment
recipe as :class:`~repro.io.store.StreamingDatasetWriter`): the full
scan schedule, the observation rows of owned certificates in parent
row order, a rebuilt ``cert_hash`` index, and two fleet extras —

* a ``fleet`` meta block (parent digest, shard index, pinned
  ``link_plan``) that :meth:`repro.serve.engine.QueryEngine.open`
  recognizes;
* a ``fleet_cas.der`` segment carrying the parent's off-shard **CA**
  certificates, pooled into §4.2 chain building as extra
  intermediates — transvalid chains need issuers that may live on
  other shards, and with the full CA pool every shard-local verdict
  equals the parent's.

Emission is O(bytes): unchanged segments (entity/handshake tables, the
scan schedule) and every DER record are raw-copied as mapped ranges via
:meth:`SegmentWriter.add_raw`, never decoded and re-encoded.

An ``owners.rpo`` sidecar (a small segment container) maps every
fingerprint and SPKI to its owning shard through the same mmap'd
hash-probe machinery the corpus uses, so the router point-routes
lookups O(1) without holding a dict of the corpus in memory.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional, Union

from ..obs import runtime as obs
from ..x509.certificate import Certificate
from .encoding import (
    FP_HASH_SEGMENT,
    SegmentError,
    SegmentReader,
    SegmentWriter,
    build_fingerprint_hash,
    fingerprint_hash_find,
    is_segment_container,
    iter_der_records,
    le_bytes,
    pack_fingerprints,
    unpack_fingerprints,
)

__all__ = [
    "FLEET_CAS_SEGMENT",
    "FLEET_MANIFEST_NAME",
    "OWNERS_NAME",
    "FleetManifest",
    "FleetOwners",
    "ShardCAs",
    "ShardInfo",
    "load_fleet_manifest",
    "read_shard_fleet",
    "shard_of_fingerprint",
    "split_corpus",
    "verify_fleet",
]

#: Shard-container segment holding the parent's off-shard CA DERs
#: (length-prefixed records, same framing as ``certificates.der``).
FLEET_CAS_SEGMENT = "fleet_cas.der"

#: The fleet manifest file written next to the shard containers.
FLEET_MANIFEST_NAME = "fleet.json"

#: The owner-routing sidecar container.
OWNERS_NAME = "owners.rpo"

#: Owner indexes are u8: more shards than this is a config error long
#: before it is an encoding problem.
MAX_SHARDS = 250


def shard_of_fingerprint(fingerprint: bytes, shards: int) -> int:
    """The hash-ownership rule: owner of a component representative."""
    return int.from_bytes(fingerprint[:8], "little") % shards


# ---------------------------------------------------------------------------
# The union-find closure
# ---------------------------------------------------------------------------

class _UnionFind:
    """Plain union-find over fingerprint keys, path-halving."""

    def __init__(self) -> None:
        self._parent: dict[bytes, bytes] = {}

    def find(self, key: bytes) -> bytes:
        parent = self._parent
        root = parent.setdefault(key, key)
        while root != parent[root]:
            parent[root] = parent[parent[root]]
            root = parent[root]
        while key != root:
            key, parent[key] = parent[key], root
        return root

    def union(self, left: bytes, right: bytes) -> None:
        root_left, root_right = self.find(left), self.find(right)
        if root_left != root_right:
            self._parent[root_right] = root_left


def _component_owners(
    dataset, spki_of: dict[bytes, bytes], link_plan, unique_invalid,
    shards: int,
) -> dict[bytes, int]:
    """fingerprint → owning shard, over the analysis-closed components."""
    from ..core.linking import group_by_feature

    union = _UnionFind()
    order = list(spki_of)
    by_spki: dict[bytes, bytes] = {}
    for fingerprint in order:
        anchor = by_spki.setdefault(spki_of[fingerprint], fingerprint)
        if anchor != fingerprint:
            union.union(anchor, fingerprint)
    population = list(unique_invalid)
    for feature in link_plan:
        for members in group_by_feature(
            dataset, population, feature
        ).values():
            for member in members[1:]:
                union.union(members[0], member)
    # Component representative = the member with the smallest
    # fingerprint: independent of union order, so ownership is a pure
    # function of the corpus.
    representative: dict[bytes, bytes] = {}
    for fingerprint in order:
        root = union.find(fingerprint)
        best = representative.get(root)
        if best is None or fingerprint < best:
            representative[root] = fingerprint
    return {
        fingerprint: shard_of_fingerprint(
            representative[union.find(fingerprint)], shards
        )
        for fingerprint in order
    }


# ---------------------------------------------------------------------------
# Manifest plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardInfo:
    """One shard container in a fleet manifest."""

    index: int
    path: pathlib.Path
    digest: str
    n_certificates: int
    n_observations: int


@dataclass(frozen=True)
class FleetManifest:
    """The parsed ``fleet.json``."""

    path: pathlib.Path
    shards: int
    parent_digest: str
    link_plan: tuple[str, ...]
    shard_infos: tuple[ShardInfo, ...]
    owners_path: pathlib.Path

    @property
    def directory(self) -> pathlib.Path:
        return self.path.parent


def load_fleet_manifest(
    path: Union[str, pathlib.Path]
) -> FleetManifest:
    """Parse a ``fleet.json`` (or the directory holding one).

    A missing file, bad JSON or a manifest that lacks a field raise
    :class:`~repro.io.encoding.SegmentError` as ``<path>: <reason>``,
    which the CLI prints as one line.
    """
    path = pathlib.Path(path)
    if path.is_dir():
        path = path / FLEET_MANIFEST_NAME
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise SegmentError(f"{path}: no such file") from None
    except ValueError as error:
        raise SegmentError(f"{path}: not valid JSON ({error})") from None
    if not isinstance(payload, dict) or payload.get("kind") != "fleet":
        raise SegmentError(f"{path}: not a fleet manifest")
    base = path.parent
    try:
        infos = tuple(
            ShardInfo(
                index=entry["shard"],
                path=base / entry["path"],
                digest=entry["digest"],
                n_certificates=entry["n_certificates"],
                n_observations=entry["n_observations"],
            )
            for entry in payload["shard_files"]
        )
        return FleetManifest(
            path=path,
            shards=payload["shards"],
            parent_digest=payload["parent_digest"],
            link_plan=tuple(payload["link_plan"]),
            shard_infos=infos,
            owners_path=base / payload["owners"],
        )
    except (KeyError, TypeError) as error:
        raise SegmentError(f"{path}: malformed fleet manifest ({error!r})") \
            from None


def verify_fleet(manifest: FleetManifest) -> None:
    """Check every shard container against its recorded digest.

    Raises ``ValueError`` on the first mismatch — a router must refuse
    to boot over a shard whose bytes are not the ones the split
    produced, or the byte-parity contract silently dies.
    """
    from .artifacts import file_digest

    for info in manifest.shard_infos:
        actual = file_digest(info.path)
        if actual != info.digest:
            raise ValueError(
                f"shard {info.index} digest mismatch: manifest records "
                f"{info.digest[:12]}…, {info.path.name} has {actual[:12]}…"
            )


class ShardCAs(Sequence):
    """A shard's pooled off-shard CA certificates, parsed on first read.

    :attr:`fingerprints` hashes the stored DER (a fingerprint is its
    SHA-256), so keying verdicts on the CAs parses nothing; the
    certificates parse only when something iterates them — chain
    building when validation runs cold.
    """

    def __init__(self, ders: Sequence[bytes]) -> None:
        self._ders = tuple(ders)
        self._parsed: Optional[tuple[Certificate, ...]] = None
        self.fingerprints = tuple(
            hashlib.sha256(der).digest() for der in self._ders
        )

    def __len__(self) -> int:
        return len(self._ders)

    def __getitem__(self, index):
        if self._parsed is None:
            self._parsed = tuple(
                Certificate.from_der(der) for der in self._ders
            )
        return self._parsed[index]


def read_shard_fleet(
    corpus: Union[str, pathlib.Path, "object"]
) -> "tuple[Optional[dict], Sequence[Certificate]]":
    """A container's ``fleet`` meta and its pooled off-shard CA certs.

    ``(None, ())`` for anything that is not a shard container — the
    whole-corpus serve path costs one O(1) meta read.  The CAs come as
    :class:`ShardCAs`: read, hashed, not parsed.
    """
    if not isinstance(corpus, (str, pathlib.Path)):
        return None, ()
    if not is_segment_container(corpus):
        return None, ()
    reader = SegmentReader(corpus)
    try:
        fleet = reader.meta.get("fleet")
        if fleet is None:
            return None, ()
        ders = ()
        if FLEET_CAS_SEGMENT in reader:
            ders = iter_der_records(reader.raw(FLEET_CAS_SEGMENT))
        return dict(fleet), ShardCAs(ders)
    finally:
        reader.close()


# ---------------------------------------------------------------------------
# The owner-routing sidecar
# ---------------------------------------------------------------------------

class FleetOwners:
    """Mapped fingerprint/SPKI → shard routing table.

    Unknown identifiers fall back to :func:`shard_of_fingerprint` —
    every shard serves the same 404 bytes for an unknown certificate or
    key, so any consistent choice preserves parity.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self._reader = SegmentReader(path)
        if self._reader.meta.get("kind") != "fleet-owners":
            raise ValueError(f"not a fleet owners sidecar: {path}")
        self.shards = int(self._reader.meta["shards"])
        self.parent_digest = self._reader.meta["parent_digest"]
        self._cert_blob = self._reader.raw("cert_order")
        self._cert_hash = self._reader.array(FP_HASH_SEGMENT)
        self._cert_owner = self._reader.raw("cert_owner")
        self._spki_blob = self._reader.raw("spki_order")
        self._spki_hash = self._reader.array("spki_hash")
        self._spki_owner = self._reader.raw("spki_owner")

    def close(self) -> None:
        # Release our view slices before the reader unmaps — an mmap
        # with live exported buffers refuses to close.
        for name in ("_cert_blob", "_cert_hash", "_cert_owner",
                     "_spki_blob", "_spki_hash", "_spki_owner"):
            view = getattr(self, name, None)
            if isinstance(view, memoryview):
                view.release()
            setattr(self, name, None)
        self._reader.close()

    def owner_of_cert(self, fingerprint: bytes) -> int:
        row = fingerprint_hash_find(
            self._cert_hash, self._cert_blob, fingerprint
        )
        if row is None:
            return shard_of_fingerprint(fingerprint, self.shards)
        return self._cert_owner[row]

    def owner_of_key(self, spki: bytes) -> int:
        row = fingerprint_hash_find(
            self._spki_hash, self._spki_blob, spki
        )
        if row is None:
            return shard_of_fingerprint(spki, self.shards)
        return self._spki_owner[row]


def _write_owners(
    path: pathlib.Path,
    parent_order: list[bytes],
    owners: dict[bytes, int],
    spki_of: dict[bytes, bytes],
    shards: int,
    parent_digest: str,
) -> str:
    """Emit the ``owners.rpo`` sidecar; returns its digest."""
    spki_owner: dict[bytes, int] = {}
    for fingerprint in parent_order:
        spki_owner.setdefault(spki_of[fingerprint], owners[fingerprint])
    spki_order = sorted(spki_owner)
    writer = SegmentWriter(path, meta={
        "kind": "fleet-owners",
        "shards": shards,
        "parent_digest": parent_digest,
    })
    try:
        writer.add_bytes(
            "cert_order", pack_fingerprints(parent_order), stride=32
        )
        writer.add_array(
            FP_HASH_SEGMENT, build_fingerprint_hash(parent_order)
        )
        writer.add_bytes(
            "cert_owner",
            bytes(owners[fingerprint] for fingerprint in parent_order),
        )
        writer.add_bytes(
            "spki_order", pack_fingerprints(spki_order), stride=32
        )
        writer.add_array("spki_hash", build_fingerprint_hash(spki_order))
        writer.add_bytes(
            "spki_owner", bytes(spki_owner[spki] for spki in spki_order)
        )
        return writer.close()
    except BaseException:
        writer.abort()
        raise


# ---------------------------------------------------------------------------
# The split
# ---------------------------------------------------------------------------

def _emit_shard(
    reader: SegmentReader,
    path: pathlib.Path,
    shard: int,
    shards: int,
    owners_by_id: bytes,
    parent_order: list[bytes],
    owners: dict[bytes, int],
    ca_fingerprints: set[bytes],
    parent_digest: str,
    link_plan: list[str],
) -> ShardInfo:
    """Write one shard container by raw-copying owned byte ranges."""
    observed = unpack_fingerprints(reader.raw("fingerprints"))
    shard_observed = [
        fingerprint for index, fingerprint in enumerate(observed)
        if owners_by_id[index] == shard
    ]
    # Parent-table id → shard-table id (first-appearance order is a
    # subsequence of the parent's, so enumeration preserves it).
    id_map = array("i", [-1]) * len(observed)
    new_id = 0
    for index in range(len(observed)):
        if owners_by_id[index] == shard:
            id_map[index] = new_id
            new_id += 1

    bounds = reader.array("scan_bounds")
    cert_id = reader.array("cert_id")
    ip = reader.array("ip")
    entity_id = reader.array("entity_id")
    handshake_id = reader.array("handshake_id")
    n_scans = len(bounds) - 1

    # Selected rows per scan, in parent row order.
    selected: list[array] = []
    for scan in range(n_scans):
        rows = array("Q")
        for row in range(bounds[scan], bounds[scan + 1]):
            if owners_by_id[cert_id[row]] == shard:
                rows.append(row)
        selected.append(rows)
    n_rows = sum(len(rows) for rows in selected)

    shard_order = [
        fingerprint for fingerprint in parent_order
        if owners[fingerprint] == shard
    ]
    parent_offsets = reader.array("cert_offsets")
    parent_der = reader.raw("certificates.der")
    order_row = {
        fingerprint: row for row, fingerprint in enumerate(parent_order)
    }

    writer = SegmentWriter(path, meta={
        "kind": "corpus",
        "n_scans": n_scans,
        "n_certificates": len(shard_order),
        "n_observations": n_rows,
        "fleet": {
            "parent_digest": parent_digest,
            "shard": shard,
            "shards": shards,
            "link_plan": list(link_plan),
        },
    })
    try:
        writer.add_raw(
            "scan_idx",
            (
                le_bytes(array("I", (scan,)) * len(rows))
                for scan, rows in enumerate(selected) if rows
            ),
            reader.entry("scan_idx"),
        )
        writer.add_raw(
            "ip",
            (
                le_bytes(array("I", (ip[row] for row in rows)))
                for rows in selected if rows
            ),
            reader.entry("ip"),
        )
        writer.add_raw(
            "cert_id",
            (
                le_bytes(array(
                    "I", (id_map[cert_id[row]] for row in rows)
                ))
                for rows in selected if rows
            ),
            reader.entry("cert_id"),
        )
        writer.add_raw(
            "entity_id",
            (
                le_bytes(array("I", (entity_id[row] for row in rows)))
                for rows in selected if rows
            ),
            reader.entry("entity_id"),
        )
        writer.add_raw(
            "handshake_id",
            (
                le_bytes(array("i", (handshake_id[row] for row in rows)))
                for rows in selected if rows
            ),
            reader.entry("handshake_id"),
        )
        writer.add_raw(
            "fingerprints",
            (pack_fingerprints(shard_observed),),
            reader.entry("fingerprints"),
        )
        # Entity/handshake ids stay parent-global: the tables raw-copy
        # whole, so the filtered id columns reference them unchanged.
        writer.add_raw(
            "entities", (reader.raw("entities"),),
            reader.entry("entities"),
        )
        writer.add_raw(
            "handshakes", (reader.raw("handshakes"),),
            reader.entry("handshakes"),
        )
        writer.add_raw(
            "scan_days", (reader.raw("scan_days"),),
            reader.entry("scan_days"),
        )
        writer.add_raw(
            "scan_sources", (reader.raw("scan_sources"),),
            reader.entry("scan_sources"),
        )
        shard_bounds = array("Q", (0,))
        for rows in selected:
            shard_bounds.append(shard_bounds[-1] + len(rows))
        writer.add_raw(
            "scan_bounds", (le_bytes(shard_bounds),),
            reader.entry("scan_bounds"),
        )
        writer.add_raw(
            "cert_order", (pack_fingerprints(shard_order),),
            reader.entry("cert_order"),
        )

        offsets = array("Q", (0,))

        def der_chunks():
            for fingerprint in shard_order:
                row = order_row[fingerprint]
                start, end = parent_offsets[row], parent_offsets[row + 1]
                offsets.append(offsets[-1] + (end - start))
                yield parent_der[start:end]

        writer.add_raw(
            "certificates.der", der_chunks(),
            reader.entry("certificates.der"),
        )
        writer.add_raw(
            "cert_offsets", (le_bytes(offsets),),
            reader.entry("cert_offsets"),
        )
        writer.add_array(
            FP_HASH_SEGMENT, build_fingerprint_hash(shard_order)
        )

        def ca_chunks():
            for fingerprint in parent_order:
                if owners[fingerprint] == shard:
                    continue
                if fingerprint not in ca_fingerprints:
                    continue
                row = order_row[fingerprint]
                yield parent_der[
                    parent_offsets[row]:parent_offsets[row + 1]
                ]

        writer.add_chunks(FLEET_CAS_SEGMENT, ca_chunks(), kind="bytes")
        digest = writer.close()
    except BaseException:
        writer.abort()
        raise
    return ShardInfo(
        index=shard,
        path=path,
        digest=digest,
        n_certificates=len(shard_order),
        n_observations=n_rows,
    )


def split_corpus(
    corpus: Union[str, pathlib.Path],
    environment: Union[str, pathlib.Path],
    out_dir: Union[str, pathlib.Path],
    shards: int,
    cache_dir: Optional[str] = None,
    workers: int = 1,
) -> FleetManifest:
    """Split a format 3 corpus into ``shards`` shard containers.

    Runs the parent's warm analysis once (validation → dedup → the
    link plan) to pin the linking plan and compute the analysis-closed
    partition, then emits each shard O(bytes) by raw-copying owned
    ranges.  Every key and CA flag comes from the parent's feature
    matrix, so a warm parent parses no certificate.  Deterministic:
    splitting the same corpus twice yields identical shard digests.

    With a ``cache_dir``, the plan comes from the parent's tracking
    state (loaded from the cache when warm, so Table 6 never runs) and
    each shard's artifact section files are written there too
    (:meth:`~repro.io.artifacts.ArtifactCache.store_shard`) — kernels,
    verdicts and the parent's tracking state restricted to the shard —
    so the shards boot warm.
    """
    from ..core.features import Feature
    from ..study import Study
    from . import load_dataset, load_environment
    from .artifacts import ArtifactCache, tracking_key, verdict_key

    if not 1 <= shards <= MAX_SHARDS:
        raise ValueError(f"shard count must be 1..{MAX_SHARDS}: {shards}")
    corpus = pathlib.Path(corpus)
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    cache = ArtifactCache(cache_dir) if cache_dir else None
    with obs.span("split/analyze", shards=shards):
        dataset = load_dataset(corpus)
        loaded = load_environment(environment)
        study = Study(
            dataset=dataset,
            trust_store=loaded.trust_store,
            as_of=loaded.routing.origin_as,
            registry=loaded.registry,
            workers=workers,
            cache=cache,
        )
        state = study.tracking() if cache is not None else None
        study.kernels()
        field_order = (
            state.link_plan if state is not None
            else study.pipeline().field_order
        )
        link_plan = [feature.value for feature in field_order]
        matrix = dataset.feature_matrix
        spki_by_id = [
            key.fingerprint for key in matrix.values[Feature.PUBLIC_KEY]
        ]
        key_ids = matrix.raw_ids[Feature.PUBLIC_KEY]
        spki_of = {
            fingerprint: spki_by_id[key_ids[row]]
            for row, fingerprint in enumerate(matrix.fingerprints)
        }
        ca_fingerprints = {
            fingerprint
            for fingerprint, flag in zip(matrix.fingerprints, matrix.is_ca)
            if flag
        }
        owners = _component_owners(
            dataset, spki_of, field_order, study.unique_invalid, shards,
        )

    reader = SegmentReader(corpus)
    try:
        parent_digest = dataset.corpus_digest()
        parent_order = unpack_fingerprints(reader.raw("cert_order"))
        observed = unpack_fingerprints(reader.raw("fingerprints"))
        owners_by_id = bytes(
            owners[fingerprint] for fingerprint in observed
        )

        infos = []
        for shard in range(shards):
            with obs.span("split/emit", shard=shard):
                infos.append(_emit_shard(
                    reader,
                    out_dir / f"shard-{shard:02d}.rpz",
                    shard,
                    shards,
                    owners_by_id,
                    parent_order,
                    owners,
                    ca_fingerprints,
                    parent_digest,
                    link_plan,
                ))
        if cache is not None:
            parent_offsets = reader.array("cert_offsets")
            parent_der = reader.raw("certificates.der")
            order_row = {
                fingerprint: row
                for row, fingerprint in enumerate(parent_order)
            }

            def der_of(fingerprint: bytes) -> bytes:
                row = order_row[fingerprint]
                return next(iter_der_records(
                    parent_der[parent_offsets[row]:parent_offsets[row + 1]]
                ))

            for info in infos:
                with obs.span("split/artifacts", shard=info.index):
                    extras = [
                        fingerprint for fingerprint in ca_fingerprints
                        if owners[fingerprint] != info.index
                    ]
                    key = tracking_key(
                        verdict_key(loaded.trust_store, extras),
                        study.as_of, field_order,
                    )
                    owned = {
                        fingerprint for fingerprint, owner in owners.items()
                        if owner == info.index
                    }
                    cache.store_shard(
                        load_dataset(info.path), matrix, parent_digest,
                        loaded.trust_store, extras, der_of,
                        tracking=(key, state.restricted(owned)),
                    )
            # Release the views before the reader unmaps.
            del parent_offsets, parent_der
    finally:
        reader.close()

    owners_path = out_dir / OWNERS_NAME
    _write_owners(
        owners_path, parent_order, owners, spki_of, shards, parent_digest
    )

    manifest_path = out_dir / FLEET_MANIFEST_NAME
    payload = {
        "kind": "fleet",
        "shards": shards,
        "parent_corpus": str(corpus),
        "parent_digest": parent_digest,
        "partition": "component-min-fingerprint mod shards",
        "link_plan": link_plan,
        "owners": OWNERS_NAME,
        "shard_files": [
            {
                "shard": info.index,
                "path": info.path.name,
                "digest": info.digest,
                "n_certificates": info.n_certificates,
                "n_observations": info.n_observations,
            }
            for info in infos
        ],
    }
    manifest_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    obs.inc("split.shards_written", shards)
    return load_fleet_manifest(manifest_path)
