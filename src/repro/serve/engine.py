"""The transport-free query core behind ``repro serve``.

:class:`QueryEngine` owns one warmed :class:`~repro.study.Study` over a
corpus and answers the online questions as JSON-serializable payloads:

* ``/cert/<fingerprint>``   — one certificate's identity, validation
  verdict, and observation history;
* ``/key/<spki>/group``     — the public-key reissue group (§6.3) plus
  its four-level location consistency;
* ``/track/<ip>``           — the tracked devices (§7) ever sighted at
  an address;
* ``/census`` (and ``/census/valid`` / ``/census/invalid``) — the §5
  population statistics as one document;
* ``/sample``               — deterministic query seeds (fingerprints,
  key ids, addresses) for load generators.

Perf architecture, per the three levers this module exists for:

* **O(1) lookups** ride the persisted ``cert_hash`` segment through
  :class:`~repro.io.backends.LazyCertificates` — no dict of a million
  fingerprints is ever built in the serving process;
* a **bounded LRU of serialized responses**, keyed by ``(corpus
  digest, path)`` so a grown corpus can never serve a stale answer,
  makes the hot set sub-millisecond and allocation-free;
* **heavy queries fan out over a ProcessPoolExecutor** whose workers
  re-map the container path (and adopt cached kernels when an artifact
  cache is given) — they share physical pages with the parent, so p99
  stays flat as concurrency grows instead of serializing on the GIL.

A boot over a warm artifact cache parses no certificate: the census,
the key-group SPKIs and ``/cert``'s ``self_signed`` read the feature
matrix and the interval arrays, and cached verdicts decode on read.

The engine is transport-free on purpose: :mod:`repro.serve.http` is a
thin asyncio shell over :meth:`QueryEngine.respond`, and the parity
tests drive the engine directly against the batch pipeline.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.features import Feature
from ..core.kernels import fused_group_consistency
from ..core.linking import link_on_feature
from ..core.tracking import ASAssignmentStats, summarize_as_assignment
from ..obs import runtime as obs_runtime
from ..study import Study

__all__ = ["QueryEngine", "QueryError", "REASSIGNMENT_MIN_DEVICES"]

#: §7.4's minimum tracked-device population for a per-AS policy verdict.
REASSIGNMENT_MIN_DEVICES = 10


class QueryError(Exception):
    """A query the engine rejects, with the HTTP status it maps to."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _format_ip(value: int) -> str:
    return ".".join(str((value >> shift) & 255) for shift in (24, 16, 8, 0))


def _parse_ip(text: str) -> int:
    parts = text.split(".")
    if len(parts) == 4:
        try:
            octets = [int(part) for part in parts]
        except ValueError:
            octets = None
        if octets is not None and all(0 <= o <= 255 for o in octets):
            value = 0
            for octet in octets:
                value = (value << 8) | octet
            return value
    if text.isdigit():
        return int(text)
    raise QueryError(400, f"not an IPv4 address: {text!r}")


def _parse_fingerprint(text: str) -> bytes:
    try:
        fingerprint = bytes.fromhex(text)
    except ValueError:
        raise QueryError(400, f"not a hex fingerprint: {text!r}")
    if len(fingerprint) != 32:
        raise QueryError(400, "fingerprints are 32 bytes of hex")
    return fingerprint


def _parse_asn(text: str) -> int:
    if not text.isdigit():
        raise QueryError(400, f"not an AS number: {text!r}")
    return int(text)


def _strided(values: list, count: int) -> list:
    """``count`` elements strided uniformly over ``values``."""
    if not values:
        return []
    step = max(1, len(values) // count)
    return values[::step][:count]


def _census_population(dataset, fingerprints: Sequence[bytes]) -> dict:
    """The §5 statistics for one certificate population.

    Shared verbatim by the in-process path and the pool workers, so the
    fan-out cannot drift from the serial answer.
    """
    from ..core.analysis.issuers import self_signed_fraction, top_issuers
    from ..core.analysis.keys import key_sharing
    from ..core.analysis.longevity import lifetimes, validity_periods

    fingerprints = list(fingerprints)
    if not fingerprints:
        return {"n": 0}
    validity = validity_periods(dataset, fingerprints)
    lifetime = lifetimes(dataset, fingerprints)
    keys = key_sharing(dataset, fingerprints)
    return {
        "n": len(fingerprints),
        "validity_median_days": validity.median,
        "lifetime_median_days": lifetime.median_days,
        "single_scan_fraction": lifetime.single_scan_fraction,
        "key_shared_fraction": keys.shared_fraction,
        "self_signed_fraction": self_signed_fraction(dataset, fingerprints),
        "top_issuers": [
            [issuer, count]
            for issuer, count in top_issuers(dataset, fingerprints)
        ],
    }


def _census_aggregates(dataset, fingerprints: Sequence[bytes]) -> dict:
    """Mergeable partial sums behind one population's census slice.

    Everything here is an integer count or an integer-valued histogram,
    so partial tallies computed over disjoint certificate partitions
    (the shards of a split corpus) sum to exactly the whole-corpus
    tally — the fleet router reconstitutes :func:`_census_population`'s
    medians and fractions from these without a single float crossing
    the wire.  Issuers carry the smallest member fingerprint so the
    router can reproduce ``top_issuers``'s stable tie-break (equal
    counts keep first-appearance order over the ascending-fingerprint
    iteration).  Read from the feature matrix and the interval arrays,
    like the census itself: no certificate is parsed.
    """
    from ..core.analysis.issuers import issuer_labels
    from ..core.analysis.longevity import lifetime_spans, validity_days

    fingerprints = sorted(fingerprints)
    matrix = dataset.feature_matrix
    key_ids = matrix.raw_ids[Feature.PUBLIC_KEY]
    validity: dict[int, int] = {}
    lifetime: dict[int, int] = {}
    n_single_scan = 0
    n_self_signed = 0
    key_counts: dict[int, int] = {}
    issuers: dict[str, list] = {}
    rows = zip(
        fingerprints,
        validity_days(dataset, fingerprints),
        lifetime_spans(dataset, fingerprints),
        issuer_labels(dataset, fingerprints),
    )
    for fingerprint, days, (life, n_scans), label in rows:
        row = matrix.rows[fingerprint]
        validity[days] = validity.get(days, 0) + 1
        lifetime[life] = lifetime.get(life, 0) + 1
        if n_scans == 1:
            n_single_scan += 1
        n_self_signed += matrix.self_signed[row]
        key_id = key_ids[row]
        key_counts[key_id] = key_counts.get(key_id, 0) + 1
        entry = issuers.get(label)
        if entry is None:
            issuers[label] = [1, fingerprint.hex()]
        else:
            entry[0] += 1
    n_key_shared = sum(
        count for count in key_counts.values() if count > 1
    )
    return {
        "n": len(fingerprints),
        "validity_days": {str(days): n for days, n in validity.items()},
        "lifetime_days": {str(days): n for days, n in lifetime.items()},
        "n_single_scan": n_single_scan,
        "n_key_shared": n_key_shared,
        "n_self_signed": n_self_signed,
        "issuers": {
            label: [count, min_fp] for label, (count, min_fp) in issuers.items()
        },
    }


# --- pool workers ---------------------------------------------------------------
#
# Workers hold the corpus as process-global state installed once by the
# initializer: tasks ship only fingerprint lists, never columns.  The
# re-mapped container shares physical pages with the parent through the
# OS page cache, and an artifact cache (when configured) hands each
# worker the prebuilt kernels as mapped views over the same ``.rpa``.

_WORKER_STATE: dict = {}


def _serve_worker_init(
    corpus_path: str,
    environment_path: Optional[str],
    cache_dir: Optional[str],
    parent_obs: bool,
) -> None:
    from ..io import load_dataset, load_environment
    from ..io.artifacts import ArtifactCache

    obs_runtime.install_worker(parent_obs)
    dataset = load_dataset(corpus_path)
    if cache_dir is not None:
        ArtifactCache(cache_dir).load(dataset, workers=1)
    as_of = None
    if environment_path is not None:
        as_of = load_environment(environment_path).routing.origin_as
    _WORKER_STATE["dataset"] = dataset
    _WORKER_STATE["as_of"] = as_of


def _consistency_task(
    fingerprints: Sequence[bytes],
) -> Tuple[float, float, float, float]:
    return fused_group_consistency(
        _WORKER_STATE["dataset"], list(fingerprints), _WORKER_STATE["as_of"]
    )


def _census_task(fingerprints: Sequence[bytes]) -> dict:
    return _census_population(_WORKER_STATE["dataset"], fingerprints)


class QueryEngine:
    """One warmed study, served as online queries."""

    #: Bound on the serialized-response LRU (entries).
    DEFAULT_RESULT_CACHE = 8192

    #: Capped list lengths inside payloads (observation histories and
    #: group rosters stay bounded no matter how hot a certificate is).
    MAX_LISTED = 100

    def __init__(
        self,
        study: Study,
        corpus_path: Optional[str] = None,
        environment_path: Optional[str] = None,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        result_cache_size: Optional[int] = None,
        fleet: Optional[dict] = None,
    ) -> None:
        self.study = study
        self.dataset = study.dataset
        #: The container's ``fleet`` meta when this engine serves one
        #: shard of a split corpus (None for a whole corpus).
        self.fleet = fleet
        self.corpus_path = str(corpus_path) if corpus_path else None
        self.environment_path = (
            str(environment_path) if environment_path else None
        )
        self.workers = workers
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.digest = self.dataset.corpus_digest()
        self._results: "OrderedDict[tuple, bytes]" = OrderedDict()
        self._result_cache_size = (
            self.DEFAULT_RESULT_CACHE
            if result_cache_size is None else result_cache_size
        )
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._key_groups: "Optional[Dict[str, tuple]]" = None
        self._track_index: "Optional[Dict[int, List[int]]]" = None
        self._as_stats: "Optional[Dict[int, ASAssignmentStats]]" = None
        self._warmed = False

    @classmethod
    def open(
        cls,
        corpus: Union[str, "object"],
        environment: Union[str, "object"],
        workers: int = 1,
        cache_dir: Optional[str] = None,
        result_cache_size: Optional[int] = None,
    ) -> "QueryEngine":
        """Wire an engine over a saved corpus + environment pair.

        A shard container produced by ``repro split`` carries a
        ``fleet`` meta block; the engine then pins the parent's linking
        plan and pools the parent's off-shard CA certificates into
        validation, so every shard-local verdict, group, and device
        matches the parent corpus restricted to the shard.
        """
        from ..io import load_dataset, load_environment
        from ..io.artifacts import ArtifactCache
        from ..io.split import read_shard_fleet

        dataset = load_dataset(corpus)
        loaded = load_environment(environment)
        cache = ArtifactCache(cache_dir) if cache_dir else None
        fleet, extras = read_shard_fleet(corpus)
        study = Study(
            dataset=dataset,
            trust_store=loaded.trust_store,
            as_of=loaded.routing.origin_as,
            registry=loaded.registry,
            workers=workers,
            cache=cache,
            extra_intermediates=extras,
            link_plan=(
                fleet.get("link_plan") if fleet is not None else None
            ),
        )
        return cls(
            study,
            corpus_path=str(corpus),
            environment_path=str(environment),
            workers=workers,
            cache_dir=cache_dir,
            result_cache_size=result_cache_size,
            fleet=fleet,
        )

    # --- lifecycle -------------------------------------------------------------

    def warm(self) -> "QueryEngine":
        """Build every stage queries touch, once, before traffic.

        Validation, kernels, dedup, the linking pipeline, the tracked
        device population, the key→group map, and the address→device
        index all materialize here; a warmed engine answers cold
        lookups without ever entering a study stage.
        """
        if self._warmed:
            return self
        with obs_runtime.span("serve/warm"):
            study = self.study
            study.validation()
            study.kernels()
            study.pipeline()
            devices = study.tracked_devices()
            result = link_on_feature(
                self.dataset, list(study.unique_invalid), Feature.PUBLIC_KEY
            )
            matrix = self.dataset.feature_matrix
            key_groups: Dict[str, tuple] = {}
            for group in result.groups:
                key = matrix.raw_value(Feature.PUBLIC_KEY, group.fingerprints[0])
                key_groups[key.fingerprint.hex()] = group.fingerprints
            self._key_groups = key_groups
            track_index: Dict[int, List[int]] = {}
            for position, device in enumerate(devices):
                for _, _, ip in device.sightings:
                    bucket = track_index.setdefault(ip, [])
                    if not bucket or bucket[-1] != position:
                        bucket.append(position)
            self._track_index = track_index
            self._as_stats = summarize_as_assignment(devices, study.as_of)
        self._warmed = True
        return self

    @property
    def pool(self) -> Optional[ProcessPoolExecutor]:
        """The heavy-query pool (None when fan-out is unavailable)."""
        if self.workers <= 1 or self.corpus_path is None:
            return None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_serve_worker_init,
                initargs=(
                    self.corpus_path, self.environment_path,
                    self.cache_dir, obs_runtime.enabled(),
                ),
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    # --- response cache --------------------------------------------------------

    def cached(self, path: str) -> Optional[bytes]:
        """The serialized response for ``path``, if already computed."""
        key = (self.digest, path)
        with self._lock:
            body = self._results.get(key)
            if body is not None:
                self._results.move_to_end(key)
        return body

    def _store(self, path: str, payload: dict) -> bytes:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        key = (self.digest, path)
        with self._lock:
            self._results[key] = body
            if len(self._results) > self._result_cache_size:
                self._results.popitem(last=False)
        return body

    # --- routing ---------------------------------------------------------------

    def respond(self, path: str) -> bytes:
        """Route one query path to its serialized JSON response."""
        cached = self.cached(path)
        if cached is not None:
            return cached
        parts = [part for part in path.split("/") if part]
        if len(parts) == 2 and parts[0] == "cert":
            payload = self.cert(parts[1])
        elif len(parts) == 3 and parts[0] == "key" and parts[2] == "group":
            payload = self.key_group(parts[1])
        elif len(parts) == 2 and parts[0] == "track":
            payload = self.track(parts[1])
        elif parts == ["census"]:
            payload = self.census()
        elif len(parts) == 2 and parts[0] == "census" \
                and parts[1] in ("valid", "invalid"):
            payload = self.census_slice(parts[1])
        elif parts == ["sample"]:
            payload = self.sample()
        elif len(parts) == 3 and parts[0] == "as" \
                and parts[2] == "reassignment":
            payload = self.as_reassignment(parts[1])
        elif parts == ["fleet", "census"]:
            payload = self.fleet_census()
        elif parts == ["fleet", "seeds"]:
            payload = self.fleet_seeds()
        elif len(parts) == 3 and parts[0] == "fleet" and parts[1] == "as":
            payload = self.fleet_as(parts[2])
        else:
            raise QueryError(404, f"unknown query path: {path}")
        return self._store(path, payload)

    # --- endpoints -------------------------------------------------------------

    def cert(self, fingerprint_hex: str) -> dict:
        """One certificate: identity, verdict, observation history."""
        fingerprint = _parse_fingerprint(fingerprint_hex)
        dataset = self.dataset
        try:
            certificate = dataset.certificate(fingerprint)
        except KeyError:
            raise QueryError(404, f"unknown certificate: {fingerprint_hex}")
        validation = self.study.validation()
        self.study.kernels()
        matrix = dataset.feature_matrix
        appearances = dataset.appearances(fingerprint)
        payload = {
            "fingerprint": fingerprint.hex(),
            "subject_cn": certificate.subject_cn,
            "issuer_cn": certificate.issuer_cn,
            "spki": certificate.public_key.fingerprint.hex(),
            "validity_period_days": certificate.validity_period_days,
            "self_signed": bool(
                matrix.self_signed[matrix.rows[fingerprint]]
            ),
            "status": (
                validation.results[fingerprint].status.value
                if fingerprint in validation.results else None
            ),
            "invalid": fingerprint in validation.invalid,
            "n_appearances": len(appearances),
            "n_ips": len({ip for _, ip in appearances}),
            "appearances": [
                [dataset.scans[scan_idx].day, _format_ip(ip)]
                for scan_idx, ip in appearances[:self.MAX_LISTED]
            ],
        }
        if appearances:
            first, last = dataset.first_last_day(fingerprint)
            payload["first_day"] = first
            payload["last_day"] = last
            payload["lifetime_days"] = dataset.lifetime_days(fingerprint)
        else:
            payload["first_day"] = payload["last_day"] = None
            payload["lifetime_days"] = 0
        return payload

    def key_group(self, spki_hex: str) -> dict:
        """The §6.3 public-key group behind one SPKI fingerprint."""
        self.warm()
        assert self._key_groups is not None
        fingerprints = self._key_groups.get(spki_hex.lower())
        if fingerprints is None:
            raise QueryError(404, f"no linked group for key {spki_hex}")
        consistency = self._group_consistency(fingerprints)
        return {
            "spki": spki_hex.lower(),
            "size": len(fingerprints),
            "fingerprints": [
                fingerprint.hex()
                for fingerprint in fingerprints[:self.MAX_LISTED]
            ],
            "consistency": {
                "ip": consistency[0],
                "prefix24": consistency[1],
                "prefix16": consistency[2],
                "as": consistency[3],
            },
        }

    def _group_consistency(
        self, fingerprints: Sequence[bytes]
    ) -> Tuple[float, float, float, float]:
        pool = self.pool
        if pool is not None:
            return pool.submit(_consistency_task, list(fingerprints)).result()
        return fused_group_consistency(
            self.dataset, list(fingerprints), self.study.as_of
        )

    def track(self, ip_text: str) -> dict:
        """Every tracked device (§7) ever sighted at one address."""
        self.warm()
        assert self._track_index is not None
        ip = _parse_ip(ip_text)
        devices = self.study.tracked_devices()
        rows = []
        for position in self._track_index.get(ip, ()):
            device = devices[position]
            rows.append({
                "device_key": device.device_key,
                "n_fingerprints": len(device.fingerprints),
                "first_day": device.first_day,
                "last_day": device.last_day,
                "span_days": device.span_days,
                "trackable": device.is_trackable(),
                "ips": sorted({
                    _format_ip(sighting_ip)
                    for _, _, sighting_ip in device.sightings
                }),
            })
        # Keys are content-addressed, so this order is partition-stable:
        # a fleet router concatenating shard answers re-sorts the same way.
        rows.sort(key=lambda row: row["device_key"])
        return {"ip": _format_ip(ip), "n_devices": len(rows), "devices": rows}

    def as_reassignment(self, asn_text: str) -> dict:
        """§7.4's reassignment-policy verdict for one AS."""
        self.warm()
        assert self._as_stats is not None
        asn = _parse_asn(asn_text)
        stats = self._as_stats.get(asn)
        if stats is None or stats.n_devices < REASSIGNMENT_MIN_DEVICES:
            raise QueryError(
                404, f"no tracked-device population for AS {asn}"
            )
        return {
            "asn": asn,
            "digest": self.digest,
            "n_devices": stats.n_devices,
            "n_static": stats.n_static,
            "n_fully_dynamic": stats.n_fully_dynamic,
            "static_fraction": stats.static_fraction,
            "dynamic_share": stats.dynamic_share,
            "mostly_static": stats.is_mostly_static(),
            "highly_dynamic": stats.is_highly_dynamic,
        }

    def census(self) -> dict:
        """The §5 invalidity census over the whole corpus."""
        validation = self.study.validation()
        self.study.kernels()
        valid = sorted(validation.valid)
        invalid = sorted(validation.invalid)
        pool = self.pool
        if pool is not None:
            futures = [
                pool.submit(_census_task, valid),
                pool.submit(_census_task, invalid),
            ]
            valid_stats, invalid_stats = [
                future.result() for future in futures
            ]
        else:
            valid_stats = _census_population(self.dataset, valid)
            invalid_stats = _census_population(self.dataset, invalid)
        return {
            "digest": self.digest,
            "n_certificates": len(self.dataset.certificates),
            "n_scans": len(self.dataset.scans),
            "n_observations": self.dataset.n_observations,
            "considered": validation.considered,
            "invalid_fraction": validation.invalid_fraction,
            "valid": valid_stats,
            "invalid": invalid_stats,
        }

    def census_slice(self, population: str) -> dict:
        """One population's census slice (``valid`` / ``invalid``)."""
        validation = self.study.validation()
        self.study.kernels()
        fingerprints = sorted(
            validation.valid if population == "valid" else validation.invalid
        )
        pool = self.pool
        if pool is not None:
            stats = pool.submit(_census_task, fingerprints).result()
        else:
            stats = _census_population(self.dataset, fingerprints)
        stats["population"] = population
        stats["digest"] = self.digest
        return stats

    def sample(self, n: int = 256) -> dict:
        """Deterministic query seeds for load generators.

        Strided over the sorted populations, so a loadgen run touches
        the corpus uniformly rather than one hot page.  ``asns`` lists
        only ASes that clear the §7.4 device threshold, so every seeded
        ``/as/<asn>/reassignment`` answers 200.
        """
        self.warm()
        assert self._key_groups is not None and self._track_index is not None
        assert self._as_stats is not None
        fingerprints = _strided(
            sorted(self.study.validation().results), n
        )
        asns = sorted(
            asn for asn, stats in self._as_stats.items()
            if stats.n_devices >= REASSIGNMENT_MIN_DEVICES
        )
        return {
            "digest": self.digest,
            "fingerprints": [
                fingerprint.hex() for fingerprint in fingerprints
            ],
            "keys": _strided(sorted(self._key_groups), n),
            "ips": [
                _format_ip(ip) for ip in _strided(
                    sorted(self._track_index), n
                )
            ],
            "asns": _strided(asns, n),
        }

    # --- fleet-internal endpoints ----------------------------------------------
    #
    # Partial aggregates the scatter-gather router sums across shards.
    # Integer counts and histograms only: every merged answer must be
    # byte-identical to the one a single server computes over the whole
    # corpus, so no shard ever ships a float the router would have to
    # re-derive rounding for.

    def fleet_census(self) -> dict:
        """Mergeable census partials for this engine's certificates."""
        validation = self.study.validation()
        self.study.kernels()
        return {
            "digest": self.digest,
            "n_certificates": len(self.dataset.certificates),
            "n_scans": len(self.dataset.scans),
            "n_observations": self.dataset.n_observations,
            "n_valid": len(validation.valid),
            "n_invalid": len(validation.invalid),
            "valid": _census_aggregates(
                self.dataset, sorted(validation.valid)
            ),
            "invalid": _census_aggregates(
                self.dataset, sorted(validation.invalid)
            ),
        }

    def fleet_seeds(self) -> dict:
        """Whole seed populations (unstrided) for router-side merging.

        Addresses and AS numbers ship as integers: the router must
        merge-sort numerically before striding, and dotted-quad strings
        do not sort like the addresses they name.
        """
        self.warm()
        assert self._key_groups is not None and self._track_index is not None
        assert self._as_stats is not None
        return {
            "digest": self.digest,
            "fingerprints": [
                fingerprint.hex()
                for fingerprint in sorted(self.study.validation().results)
            ],
            "keys": sorted(self._key_groups),
            "ips": sorted(self._track_index),
            "as_devices": {
                str(asn): stats.n_devices
                for asn, stats in self._as_stats.items()
            },
        }

    def fleet_as(self, asn_text: str) -> dict:
        """Raw §7.4 counts for one AS (200 with zeros when unseen)."""
        self.warm()
        assert self._as_stats is not None
        asn = _parse_asn(asn_text)
        stats = self._as_stats.get(asn) or ASAssignmentStats(
            asn=asn, n_devices=0, n_static=0, n_fully_dynamic=0
        )
        return {
            "asn": asn,
            "digest": self.digest,
            "n_devices": stats.n_devices,
            "n_static": stats.n_static,
            "n_fully_dynamic": stats.n_fully_dynamic,
        }
