"""Columnar kernels for the §6 linking pipeline.

PR 1 made the *corpus* columnar; the linking stages still consumed it
row-at-a-time — every Table 6 pass re-materialized each certificate via
``dataset.certificate(fp)`` and re-extracted its fields, and consistency
scoring walked each group's appearances once per location level with an
unmemoized AS lookup per observation.  This module is the array-native
replacement:

* :class:`FeatureMatrix` — all ten §6.3 feature values extracted **once**
  per certificate into interned value-id columns (``-1`` = absent), with a
  parallel linkable view that drops IPv4-literal Common Names (§6.4.1),
  and a self-signed and a CA flag per certificate.  The §5 census reads
  it too, so a warm run never parses a certificate to count validity
  periods, keys, issuers or self-signatures, and ``repro split`` reads
  every key and CA flag from it.  Cached on the dataset
  (``dataset.feature_matrix``) so it ships to process-pool workers once,
  with the pickled dataset.
* :class:`ConsistencyCache` + :func:`fused_group_levels` /
  :func:`fused_group_consistency` — each certificate's per-scan location
  sets (ip, /24, AS) and per-location scan counts are computed in a
  **single walk** of its observations (read straight from the CSR index)
  and cached, so a certificate scored by several fields pays the walk
  once; group scores then merge the cached per-certificate counters,
  touching each member's observations zero times.  AS lookups go through
  a memoized ``(ip, day) → ASN`` cache which keys on the routing *epoch*
  (``RoutingHistory.epoch_of``) when the lookup exposes one, collapsing
  every scan inside one routing regime to a single RouteViews-style
  lookup per address.

The per-certificate (first, last) scan intervals and per-scan address
extremes consumed by dedup, the overlap rule, and the lifetime statistics
live in :class:`repro.scanner.columns.CertIntervals`
(``dataset.intervals``), the third kernel of the set.

Outputs are bitwise-identical to the pre-kernel row path; the test suite
holds every kernel to that path's reference implementations in
``tests/oracles/``.
"""

from __future__ import annotations

from array import array
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence

from ..obs import runtime as obs
from ..x509.certificate import Certificate
from .features import Feature, dropped_for_linking

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scanner.dataset import ScanDataset
    from .consistency import ASLookup

__all__ = [
    "FeatureMatrix",
    "ConsistencyCache",
    "fused_group_levels",
    "fused_group_consistency",
]

#: Sentinel distinct from None (a legitimate cached ASN is None = unrouted).
_MISSING = object()


class FeatureMatrix:
    """Interned feature values of every certificate, one column per field.

    Layout (one entry per certificate, in ``certificates`` dict order):

    * ``rows``              — fingerprint → row index;
    * ``fingerprints``      — row index → fingerprint;
    * ``values[feature]``   — value id → raw feature value;
    * ``raw_ids[feature]``  — row → value id of :func:`~.features.extract`
      (``-1`` when the certificate lacks the feature);
    * ``linkable_ids[feature]`` — row → value id as the linking pipeline
      consumes it (:func:`~.features.linkable_value`); aliases
      ``raw_ids`` for every field except Common Name, where IPv4-literal
      names are additionally ``-1``;
    * ``self_signed``       — row → 1 when the certificate verifies under
      its own key (:meth:`~repro.x509.certificate.Certificate.is_self_signed`),
      else 0 (``int8``);
    * ``is_ca``             — row → 1 when the certificate is a CA that may
      issue others (:attr:`~repro.x509.certificate.Certificate.is_ca`), else
      0 (``int8``).

    Equal values intern to equal ids, so grouping and census counting
    become integer-array operations; ``values`` maps ids back when a
    result needs the original (hashable) value.
    """

    __slots__ = (
        "rows", "fingerprints", "values", "raw_ids", "linkable_ids",
        "self_signed", "is_ca",
    )

    def __init__(self) -> None:
        self.rows: Dict[bytes, int] = {}
        self.fingerprints: List[bytes] = []
        self.values: Dict[Feature, List[Hashable]] = {f: [] for f in Feature}
        self.raw_ids: Dict[Feature, array] = {}
        self.linkable_ids: Dict[Feature, array] = {}
        self.self_signed = array("b")
        self.is_ca = array("b")

    @classmethod
    def from_certificates(
        cls, certificates: Dict[bytes, Certificate], workers: int = 1
    ) -> "FeatureMatrix":
        """Extract all ten features and the self-signed and CA flags of
        every certificate in one pass.

        ``workers > 1`` shards the attribute-walk extraction (the
        expensive part) over a process pool; the value interning runs in
        the parent over the extracted tuples in certificate order, so
        ids — and therefore the whole matrix — are bitwise-identical to
        serial.
        """
        matrix = cls()
        n = len(certificates)
        matrix.fingerprints = list(certificates)
        matrix.rows = {fp: row for row, fp in enumerate(matrix.fingerprints)}
        features = tuple(Feature)
        raw = {feature: array("i", bytes(4 * n)) for feature in features}
        value_ids: Dict[Feature, Dict[Hashable, int]] = {
            feature: {} for feature in features
        }
        cn_linkable = array("i", bytes(4 * n))
        matrix.self_signed = array("b", bytes(n))
        matrix.is_ca = array("b", bytes(n))
        if workers > 1 and n > 1:
            extracted = _extract_sharded(list(certificates.values()), workers)
        else:
            extracted = (_extract_all(cert) for cert in certificates.values())
        _intern_extracted(matrix, extracted, features, raw, cn_linkable,
                          value_ids)
        matrix.raw_ids = raw
        matrix.linkable_ids = dict(raw)
        matrix.linkable_ids[Feature.COMMON_NAME] = cn_linkable
        return matrix

    @classmethod
    def extended(
        cls,
        base: "FeatureMatrix",
        certificates: Dict[bytes, Certificate],
        workers: int = 1,
    ) -> "FeatureMatrix":
        """Rebuild the matrix over another certificate table, extracting
        only the certificates the base has no row for.

        The table is a grown one (an append) or a subset of the base's
        (a shard of ``repro split``, which extracts nothing).  An append
        can interleave newly observed certificates *ahead* of the base's
        unobserved tail in the grown table order, a subset drops rows,
        and value ids are assigned on first appearance in row order — so
        only the rows from the first divergence onward are re-interned.
        The rows *before* it — the prefix the two tables share — interned
        identically in the base build: their id columns are copied
        wholesale, and each value table is seeded with the prefix of the
        base's (ids are dense in first-appearance order, so the values
        those rows introduced are exactly
        ``base.values[feature][:max_prefix_id + 1]``).  The expensive
        part — DER parsing, the per-certificate attribute walk and the
        self-signature check — runs only over certificates the base
        lacks; re-interned base rows recover their extracted tuples
        exactly from the base matrix (``values[feature][raw_ids[feature]
        [row]]`` inverts the interning, and the flags are copied).
        Bitwise-identical to :meth:`from_certificates` over the new
        table.
        """
        fingerprints = list(certificates)
        base_rows = base.rows
        base_fps = base.fingerprints
        features = tuple(Feature)
        limit = min(len(fingerprints), len(base_fps))
        prefix = limit
        for row in range(limit):
            if fingerprints[row] != base_fps[row]:
                prefix = row
                break
        new_fps = [
            fp for fp in fingerprints[prefix:] if fp not in base_rows
        ]
        new_certs = [certificates[fp] for fp in new_fps]
        if workers > 1 and len(new_certs) > 1:
            extracted = _extract_sharded(new_certs, workers)
        else:
            extracted = [_extract_all(cert) for cert in new_certs]
        new_values = dict(zip(new_fps, extracted))
        base_values = base.values
        base_raw = base.raw_ids
        base_slots = [
            (base_values[feature], base_raw[feature]) for feature in features
        ]

        def recovered(fingerprint: bytes) -> tuple:
            row = base_rows.get(fingerprint)
            if row is None:
                return new_values[fingerprint]
            return (*(
                table[ids[row]] if ids[row] >= 0 else None
                for table, ids in base_slots
            ), base.self_signed[row], base.is_ca[row])

        matrix = cls()
        n = len(fingerprints)
        matrix.fingerprints = fingerprints
        matrix.rows = {fp: row for row, fp in enumerate(fingerprints)}
        raw = {feature: array("i", bytes(4 * n)) for feature in features}
        value_ids: Dict[Feature, Dict[Hashable, int]] = {
            feature: {} for feature in features
        }
        cn_linkable = array("i", bytes(4 * n))
        matrix.self_signed = array("b", bytes(n))
        matrix.is_ca = array("b", bytes(n))
        if prefix:
            for feature in features:
                head = base_raw[feature][:prefix]
                seeded_count = max(head, default=-1) + 1
                seeded = base_values[feature][:seeded_count]
                matrix.values[feature] = seeded
                value_ids[feature] = dict(zip(seeded, range(seeded_count)))
                raw[feature][:prefix] = head
            cn_linkable[:prefix] = \
                base.linkable_ids[Feature.COMMON_NAME][:prefix]
            matrix.self_signed[:prefix] = base.self_signed[:prefix]
            matrix.is_ca[:prefix] = base.is_ca[:prefix]
        _intern_extracted(
            matrix, (recovered(fp) for fp in fingerprints[prefix:]),
            features, raw, cn_linkable, value_ids, start_row=prefix,
        )
        matrix.raw_ids = raw
        matrix.linkable_ids = dict(raw)
        matrix.linkable_ids[Feature.COMMON_NAME] = cn_linkable
        return matrix

    def __len__(self) -> int:
        return len(self.fingerprints)

    def raw_value(self, feature: Feature, fingerprint: bytes) -> Optional[Hashable]:
        """The :func:`~.features.extract` value, resolved through the matrix."""
        value_id = self.raw_ids[feature][self.rows[fingerprint]]
        return self.values[feature][value_id] if value_id >= 0 else None

    def linkable_id(self, feature: Feature, fingerprint: bytes) -> int:
        """The interned linkable value id (-1 = absent or dropped)."""
        return self.linkable_ids[feature][self.rows[fingerprint]]


def _intern_extracted(
    matrix: "FeatureMatrix",
    extracted,
    features: tuple,
    raw: Dict[Feature, array],
    cn_linkable: array,
    value_ids: Dict[Feature, Dict[Hashable, int]],
    start_row: int = 0,
) -> None:
    """Intern extracted feature tuples into the id columns, in row order.

    Shared by the cold build and the delta extension: value ids are
    assigned on first appearance in row order, so resuming the loop at
    ``start_row`` over tables seeded from a prefix build reproduces the
    cold build's interning exactly.  Each tuple ends with the row's
    self-signed and CA flags, after its feature values.
    """
    flag = len(features)
    self_signed, is_ca = matrix.self_signed, matrix.is_ca
    # Per-feature (id column, interning dict, value table) by position:
    # a dict lookup keyed by the Feature enum for every cell would cost
    # about as much as the interning itself.
    slots = [
        (raw[feature], value_ids[feature], matrix.values[feature])
        for feature in features
    ]
    cn = features.index(Feature.COMMON_NAME)
    cn_raw = raw[Feature.COMMON_NAME]
    for row, values in enumerate(extracted, start_row):
        self_signed[row] = values[flag]
        is_ca[row] = values[flag + 1]
        for (column, ids, table), value in zip(slots, values):
            if value is None:
                column[row] = -1
                continue
            value_id = ids.get(value)
            if value_id is None:
                value_id = ids[value] = len(table)
                table.append(value)
            column[row] = value_id
        name = values[cn]
        cn_linkable[row] = (
            -1 if name is None
            or dropped_for_linking(Feature.COMMON_NAME, name)
            else cn_raw[row]
        )


def _init_matrix_worker(obs_enabled: bool) -> None:
    obs.install_worker(obs_enabled)


def _extract_chunk(
    task: "tuple[int, List[Certificate]]",
) -> "tuple[list[tuple], Optional[dict]]":
    shard_index, certs = task
    mark = obs.task_mark()
    with obs.span(f"kernels/matrix_shard={shard_index}"):
        rows = [_extract_all(cert) for cert in certs]
    return rows, obs.task_delta(mark)


def _extract_sharded(certs: "List[Certificate]", workers: int) -> "list[tuple]":
    """Fan the per-certificate extraction out, preserving corpus order."""
    n_chunks = min(workers, len(certs))
    bounds = [round(i * len(certs) / n_chunks) for i in range(n_chunks + 1)]
    tasks = [
        (shard, certs[bounds[shard]:bounds[shard + 1]])
        for shard in range(n_chunks)
        if bounds[shard] < bounds[shard + 1]
    ]
    extracted: "list[tuple]" = []
    with ProcessPoolExecutor(
        max_workers=len(tasks),
        initializer=_init_matrix_worker,
        initargs=(obs.enabled(),),
    ) as pool:
        for rows, delta in pool.map(_extract_chunk, tasks):
            extracted.extend(rows)
            obs.absorb(delta)
    return extracted


def _extract_all(cert: Certificate) -> tuple:
    """All ten feature values of one certificate, in ``Feature`` order,
    then its self-signed and CA flags.

    The fused form of ten :func:`~.features.extract` calls — one attribute
    walk per certificate instead of one per (certificate, feature).  Must
    stay value-identical to ``extract``; the kernel parity suite
    round-trips every matrix entry against it.
    """
    extensions = cert.extensions
    return (
        cert.not_before_stamp,                       # NOT_BEFORE
        cert.subject_cn,                             # COMMON_NAME
        cert.not_after_stamp,                        # NOT_AFTER
        cert.public_key,                             # PUBLIC_KEY
        extensions.subject_alt_names or None,        # SAN_LIST
        (cert.issuer, cert.serial),                  # ISSUER_SERIAL
        extensions.crl_uris or None,                 # CRL
        extensions.ca_issuer_uris or None,           # AIA
        extensions.ocsp_uris or None,                # OCSP
        extensions.policy_oids or None,              # OID
        cert.is_self_signed(),
        cert.is_ca,
    )


class ConsistencyCache:
    """Per-process memo for consistency scoring.

    Holds everything the fused scorer reuses across groups and features:

    * ``as_memo`` — ``(ip, day-key) → ASN``.  When the lookup is bound to
      an object exposing ``epoch_of(day)`` (:class:`~repro.net.bgp.
      RoutingHistory`), the day-key is the routing epoch, so all scans
      within one routing regime share one entry per address.
    * ``locations`` — ``cert_id →`` that certificate's per-scan location
      sets and per-location scan counts (see :func:`_cert_locations`),
      built once per certificate no matter how many fields link it.

    One cache serves one (dataset, lookup) pair; binding a different
    lookup resets it.  Sharing a cache never changes results — every
    entry is a pure function of the corpus and the lookup.
    """

    __slots__ = ("as_memo", "locations", "_scan_days", "_memo_days", "_as_of")

    def __init__(self) -> None:
        self.as_memo: dict = {}
        self.locations: dict[int, tuple] = {}
        self._scan_days: Optional[list[int]] = None
        self._memo_days: Optional[list[int]] = None
        self._as_of = _MISSING

    def bind(
        self, dataset: "ScanDataset", as_of: Optional["ASLookup"]
    ) -> tuple[list[int], list[int]]:
        """(scan index → day, scan index → memo day-key) for ``as_of``."""
        if self._scan_days is None:
            self._scan_days = [scan.day for scan in dataset.scans]
        if as_of is not self._as_of:
            if self._as_of is not _MISSING:
                self.as_memo.clear()
                self.locations.clear()
            self._as_of = as_of
            epoch_of = getattr(getattr(as_of, "__self__", None), "epoch_of", None)
            if epoch_of is not None:
                self._memo_days = [epoch_of(day) for day in self._scan_days]
            else:
                self._memo_days = self._scan_days
        return self._scan_days, self._memo_days


def _cert_locations(
    index,
    cert_id: int,
    as_of: Optional["ASLookup"],
    scan_days: list[int],
    memo_days: list[int],
    as_memo: dict,
) -> tuple:
    """One certificate's per-scan locations, in a single observation walk.

    Returns ``(scan_idxs, positions, run_starts, ip_counts, s24_counts,
    as_counts)``: the distinct scan indexes (sorted), the certificate's
    observation positions with the offset where each scan's contiguous
    run begins, and per-level ``location → number of scans containing
    it`` counters (``as_counts`` is None when ``as_of`` is).  Counters
    are all a group score needs on scans covered by one member; the runs
    let :func:`_member_scan_set` rebuild a single scan's location set for
    the shared-scan correction without storing per-scan sets up front —
    most runs are a single observation, so the walk allocates nothing.
    """
    columns = index.columns
    scan_idx_col = columns.scan_idx
    ip_col = columns.ip
    want_as = as_of is not None
    positions = index.positions(cert_id)
    scan_idxs: list[int] = []
    run_starts: list[int] = []
    ip_counts: dict = {}
    s24_counts: dict = {}
    as_counts: Optional[dict] = {} if want_as else None
    run_scan = -1
    run_ips: Optional[set] = None
    run_s24: Optional[set] = None
    run_as: Optional[set] = None
    first_ip = 0
    first_asn = None
    for offset, pos in enumerate(positions):
        scan = scan_idx_col[pos]
        ip = ip_col[pos]
        if scan != run_scan:
            run_scan = scan
            scan_idxs.append(scan)
            run_starts.append(offset)
            run_ips = None
            first_ip = ip
            ip_counts[ip] = ip_counts.get(ip, 0) + 1
            s24 = ip & 0xFFFFFF00
            s24_counts[s24] = s24_counts.get(s24, 0) + 1
            if want_as:
                key = (ip, memo_days[scan])
                asn = as_memo.get(key, _MISSING)
                if asn is _MISSING:
                    asn = as_memo[key] = as_of(ip, scan_days[scan])
                first_asn = asn
                as_counts[asn] = as_counts.get(asn, 0) + 1
            continue
        # A multi-observation run: fall back to per-run dedup sets.
        if run_ips is None:
            run_ips = {first_ip}
            run_s24 = {first_ip & 0xFFFFFF00}
            if want_as:
                run_as = {first_asn}
        if ip in run_ips:
            continue
        run_ips.add(ip)
        ip_counts[ip] = ip_counts.get(ip, 0) + 1
        s24 = ip & 0xFFFFFF00
        if s24 not in run_s24:
            run_s24.add(s24)
            s24_counts[s24] = s24_counts.get(s24, 0) + 1
        if want_as:
            key = (ip, memo_days[scan])
            asn = as_memo.get(key, _MISSING)
            if asn is _MISSING:
                asn = as_memo[key] = as_of(ip, scan_days[scan])
            if asn not in run_as:
                run_as.add(asn)
                as_counts[asn] = as_counts.get(asn, 0) + 1
    return scan_idxs, positions, run_starts, ip_counts, s24_counts, as_counts


def _member_scan_set(
    ip_col,
    locs: tuple,
    row: int,
    level: int,
    as_of: Optional["ASLookup"],
    scan_days: list[int],
    memo_days: list[int],
    as_memo: dict,
) -> set:
    """One member's location set at one scan, rebuilt from its run."""
    scan_idxs, positions, run_starts = locs[0], locs[1], locs[2]
    start = run_starts[row]
    end = run_starts[row + 1] if row + 1 < len(run_starts) else len(positions)
    ips = {ip_col[positions[offset]] for offset in range(start, end)}
    if level == 0:
        return ips
    if level == 1:
        return {ip & 0xFFFFFF00 for ip in ips}
    scan = scan_idxs[row]
    asns = set()
    for ip in ips:
        key = (ip, memo_days[scan])
        asn = as_memo.get(key, _MISSING)
        if asn is _MISSING:
            asn = as_memo[key] = as_of(ip, scan_days[scan])
        asns.add(asn)
    return asns


def _group_locations(
    dataset: "ScanDataset",
    fingerprints: Sequence[bytes],
    as_of: Optional["ASLookup"],
    cache: ConsistencyCache,
) -> list[tuple]:
    """The cached location bundles of a group's observed members."""
    index = dataset.index
    fingerprint_ids = index.columns.fingerprint_ids
    scan_days, memo_days = cache.bind(dataset, as_of)
    locations = cache.locations
    members: list[tuple] = []
    hits = misses = 0
    for fingerprint in fingerprints:
        cert_id = fingerprint_ids.get(fingerprint)
        if cert_id is None:
            continue
        locs = locations.get(cert_id)
        if locs is None or (as_of is not None and locs[5] is None):
            misses += 1
            locs = locations[cert_id] = _cert_locations(
                index, cert_id, as_of, scan_days, memo_days, cache.as_memo
            )
        else:
            hits += 1
        members.append(locs)
    if hits:
        obs.inc("kernels.cache_hits", hits)
    if misses:
        obs.inc("kernels.cache_misses", misses)
    return members


def _merge_counts(members: list[tuple], slot: int) -> dict:
    """Sum the members' per-location scan counters at one level."""
    merged: dict = {}
    for locs in members:
        for location, count in locs[slot].items():
            merged[location] = merged.get(location, 0) + count
    return merged


def fused_group_levels(
    dataset: "ScanDataset",
    fingerprints: Sequence[bytes],
    as_of: Optional["ASLookup"],
    cache: Optional[ConsistencyCache] = None,
) -> tuple[float, float, float]:
    """(ip, /24, AS) consistency of one group from cached counters.

    Semantically identical to three calls of
    :func:`repro.core.consistency.group_consistency`, one per level: the
    score is ``max(location scan counts) / distinct scans``, both sides
    integers, so results are bitwise-identical.  Summed per-certificate
    counters count a location once per *member* on a scan several members
    cover; the reference (a union set per scan) counts it once — so on
    those scans each present member's contribution is retracted and the
    union's added back.  The AS level is 0.0 when ``as_of`` is None.
    """
    if cache is None:
        cache = ConsistencyCache()
    members = _group_locations(dataset, fingerprints, as_of, cache)
    if not members:
        return 0.0, 0.0, 0.0
    # Fast path: when member scan intervals are strictly disjoint (the
    # common outcome of the overlap rule), no scan is covered by two
    # members — counters sum with no correction and the distinct-scan
    # count is just the total of the members' own scan counts.
    ordered = sorted(members, key=lambda locs: locs[0][0])
    n_scans = 0
    previous_last = -1
    disjoint = True
    for locs in ordered:
        scan_idxs = locs[0]
        if scan_idxs[0] <= previous_last:
            disjoint = False
            break
        previous_last = scan_idxs[-1]
        n_scans += len(scan_idxs)
    if disjoint:
        levels = []
        for counts_slot in (3, 4, 5):
            if counts_slot == 5 and as_of is None:
                levels.append(0.0)
                continue
            levels.append(max(_merge_counts(members, counts_slot).values()) / n_scans)
        return tuple(levels)
    # scan index → (member locations, row) of every member covering it.
    scan_members: dict[int, list[tuple]] = {}
    for locs in members:
        for row, scan in enumerate(locs[0]):
            entries = scan_members.get(scan)
            if entries is None:
                scan_members[scan] = [(locs, row)]
            else:
                entries.append((locs, row))
    n_scans = len(scan_members)
    shared = [entries for entries in scan_members.values() if len(entries) > 1]
    scan_days, memo_days = cache.bind(dataset, as_of)
    ip_col = dataset.index.columns.ip
    levels = []
    for level, counts_slot in ((0, 3), (1, 4), (2, 5)):
        if level == 2 and as_of is None:
            levels.append(0.0)
            continue
        counts = _merge_counts(members, counts_slot)
        for entries in shared:
            present = [
                _member_scan_set(
                    ip_col, locs, row, level, as_of,
                    scan_days, memo_days, cache.as_memo,
                )
                for locs, row in entries
            ]
            for location_set in present:
                for location in location_set:
                    counts[location] -= 1
            for location in set().union(*present):
                counts[location] += 1
        levels.append(max(counts.values()) / n_scans)
    return tuple(levels)


def fused_group_consistency(
    dataset: "ScanDataset",
    fingerprints: Sequence[bytes],
    as_of: Optional["ASLookup"],
    cache: Optional[ConsistencyCache] = None,
) -> tuple[float, float, float, float]:
    """(ip, /24, /16, AS) consistency of one group in a single walk.

    The four-level variant of :func:`fused_group_levels` (the /16 level
    sits between /24 and AS in the §8 mobility analysis).  Per-scan /16
    sets are derived from each member's cached observation runs, so the
    group's observations are still walked only once.
    """
    if cache is None:
        cache = ConsistencyCache()
    ip_level, s24_level, as_level = fused_group_levels(
        dataset, fingerprints, as_of, cache
    )
    members = _group_locations(dataset, fingerprints, as_of, cache)
    scan_days, memo_days = cache.bind(dataset, as_of)
    ip_col = dataset.index.columns.ip
    per_scan_16: dict[int, set] = {}
    for locs in members:
        for row, scan in enumerate(locs[0]):
            existing = per_scan_16.get(scan)
            masked = {
                ip & 0xFFFF0000
                for ip in _member_scan_set(
                    ip_col, locs, row, 0, as_of,
                    scan_days, memo_days, cache.as_memo,
                )
            }
            per_scan_16[scan] = masked if existing is None else existing | masked
    if not per_scan_16:
        s16_level = 0.0
    else:
        counts: dict = {}
        for locations in per_scan_16.values():
            for location in locations:
                counts[location] = counts.get(location, 0) + 1
        s16_level = max(counts.values()) / len(per_scan_16)
    return ip_level, s24_level, s16_level, as_level
