"""The zmap-like scan engine.

ZMap probes the IPv4 space in random order over roughly ten hours (§6.2).
The engine reproduces the two consequences that matter to the paper:

* **scan duplicates** — each candidate address gets an independent random
  probe instant; a device whose address flips mid-scan responds at its old
  address if that was probed before the flip *and* at its new address if
  that was probed after it, so one device can contribute two addresses to
  one scan;
* **mid-scan reissue** — similarly, a device that regenerates its
  certificate during the scan can expose the old certificate at one probe
  and the new one at another, producing the single-scan lifetime overlap
  the linking methodology must tolerate.

The engine iterates the *population* rather than all 2³² addresses — every
unpopulated address is a guaranteed non-responder, so the result is
identical to a full sweep.

Generation is **direct-to-columnar**: :meth:`ScanEngine.run_shard` appends
every sighting straight into preallocated ``array`` columns with day-local
interning (no row tuples, no Python key-function sort — day order comes
from a stable argsort on packed byte keys in
:func:`~repro.scanner.shards.finalize_shard`), and ``run_campaign`` ships
those compact shards home from workers instead of pickled row lists.  The
pre-columnar row emitter lives on in the test suite (``tests/oracles/``)
as the reference these shards are held to bitwise: both consume the
per-day RNG in exactly the same order.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from ..internet.population import World
from ..obs import runtime as obs
from ..seeding import stable_rng
from ..tls.handshake import HandshakeRecord, negotiate
from ..tls.profiles import WEBSITE_TLS_PROFILE, tls_profile_for
from ..x509.certificate import Certificate
from .campaign import ScanCampaign
from .records import Scan
from .shards import ScanShard, finalize_shard, shard_scan

__all__ = ["ScanEngine", "SCAN_DURATION_HOURS"]

#: ZMap needed up to ten hours per full sweep (§6.2).
SCAN_DURATION_HOURS = 10.0


class ScanEngine:
    """Runs simulated full-IPv4 scans of one world."""

    def __init__(
        self,
        world: World,
        duration_hours: float = SCAN_DURATION_HOURS,
        collect_handshakes: bool = False,
    ) -> None:
        self._world = world
        self._duration = duration_hours
        self._store: dict[bytes, Certificate] = {}
        #: When enabled, observations carry the negotiated HandshakeRecord
        #: (the network features the paper's corpora lacked, §6.3).
        self._collect_handshakes = collect_handshakes
        # Per-run probe accounting, flushed to the metrics registry in
        # one bulk call per scan (never per probe).
        self._probes_attempted = 0
        self._probes_blacklisted = 0
        self._handshakes_attempted = 0
        # Engine-lifetime caches, all derived deterministically from the
        # world/campaigns (never from scan state): entity tag strings,
        # negotiated handshakes per TLS profile, merged blacklist
        # intervals per campaign, and the shard capacity bound.
        self._tag_tables: Optional[tuple[list[str], list[str]]] = None
        self._ca_tags: dict[bytes, str] = {}
        self._profile_handshakes: dict[str, HandshakeRecord] = {}
        self._blacklist_cache: dict[str, tuple] = {}
        self._capacity: Optional[int] = None

    def _device_handshake(self, device) -> "HandshakeRecord | None":
        if not self._collect_handshakes:
            return None
        name = device.profile.name
        record = self._profile_handshakes.get(name)
        if record is None:
            record = negotiate(tls_profile_for(name))
            self._profile_handshakes[name] = record
        return record

    def _website_handshake(self) -> "HandshakeRecord | None":
        if not self._collect_handshakes:
            return None
        record = self._profile_handshakes.get("")
        if record is None:
            record = negotiate(WEBSITE_TLS_PROFILE)
            self._profile_handshakes[""] = record
        return record

    # --- columnar generation (the default path) --------------------------------

    def run(self, campaign: ScanCampaign, day: int) -> Scan:
        """Execute one scan; returns day-sorted observations.

        Deterministic per (world seed, campaign, day).  The returned
        scan's observations are a lazy row view over the day's columnar
        shard (see :meth:`run_shard`).
        """
        return shard_scan(self.run_shard(campaign, day))

    def run_shard(self, campaign: ScanCampaign, day: int) -> ScanShard:
        """Execute one scan directly into a columnar day shard.

        Deterministic per (world seed, campaign, day) — which is what
        makes O(day) ingestion possible: a later session can rebuild the
        world, run just the new day's shard, and delta-append it to an
        existing corpus (``repro append``) with bytes identical to a
        full rebuild that included the day.
        """
        with obs.span(f"scan/day={day}", campaign=campaign.name) as span:
            self._probes_attempted = 0
            self._probes_blacklisted = 0
            self._handshakes_attempted = 0
            shard = self._generate_shard(campaign, day)
            obs.inc("scanner.scans_executed")
            obs.inc("scanner.probes_attempted", self._probes_attempted)
            obs.inc("scanner.probes_blacklisted", self._probes_blacklisted)
            obs.inc("scanner.handshakes_attempted", self._handshakes_attempted)
            obs.inc("scanner.observations_recorded", len(shard))
            obs.inc("scanner.shard_rows", len(shard))
            obs.inc("scanner.shard_bytes", shard.nbytes)
            span.set(observations=len(shard))
            return shard

    def run_campaign(self, campaign: ScanCampaign, workers: int = 1) -> list[Scan]:
        """All scans of one campaign's schedule (lazy row views)."""
        return [
            shard_scan(shard)
            for shard in self.run_campaign_shards(campaign, workers=workers)
        ]

    def run_campaign_shards(
        self, campaign: ScanCampaign, workers: int = 1
    ) -> list[ScanShard]:
        """All shards of one campaign's schedule, in day order.

        ``workers > 1`` fans the schedule's days out over a process pool;
        what rides home per day is the compact columnar shard (four int
        arrays plus the day-local tables), not a pickled row list.  Each
        day's RNG is keyed by (world seed, campaign, day), so the shards
        — and the order certificates enter the store — are bitwise
        identical to the serial path.  When observability is active, each
        worker records into its own registry/tracer and ships a per-day
        delta home with the shard; merged counter totals equal the serial
        run's exactly.
        """
        if workers <= 1 or len(campaign.scan_days) <= 1:
            return [self.run_shard(campaign, day) for day in campaign.scan_days]
        shards: list[ScanShard] = []
        with ProcessPoolExecutor(
            max_workers=min(workers, len(campaign.scan_days)),
            initializer=_init_scan_worker,
            initargs=(self._world, self._duration, self._collect_handshakes,
                      obs.enabled()),
        ) as pool:
            days = list(campaign.scan_days)
            for shard, day_certs, delta in pool.map(
                _scan_one_day, ((campaign, day) for day in days)
            ):
                shards.append(shard)
                obs.absorb(delta)
                # Merging day stores in day order replays the serial
                # insertion sequence, so the store's dict order matches.
                for fingerprint, cert in day_certs.items():
                    self._store.setdefault(fingerprint, cert)
        return shards

    # --- internals ------------------------------------------------------------

    def _blacklist_intervals(self, campaign: ScanCampaign) -> tuple:
        """The campaign's blacklist as merged sorted (start, end) arrays.

        Membership then costs one bisect instead of a Python loop over
        every prefix, and — unlike the prefix walk — consumes no RNG, so
        the optimization is invisible to the probe stream.
        """
        cached = self._blacklist_cache.get(campaign.name)
        if cached is not None and cached[0] is campaign:
            return cached[1], cached[2]
        intervals = sorted(
            (prefix.first, prefix.last) for prefix in campaign.blacklist
        )
        merged: list[list[int]] = []
        for first, last in intervals:
            if merged and first <= merged[-1][1] + 1:
                if last > merged[-1][1]:
                    merged[-1][1] = last
            else:
                merged.append([first, last])
        starts = array("I", (interval[0] for interval in merged))
        ends = array("I", (interval[1] for interval in merged))
        self._blacklist_cache[campaign.name] = (campaign, starts, ends)
        return starts, ends

    def _entity_tags(self) -> "tuple[list[str], list[str]]":
        """Precomputed ground-truth tag strings, by population position."""
        tables = self._tag_tables
        if tables is None:
            world = self._world
            tables = self._tag_tables = (
                [f"device:{device.device_id}" for device in world.devices],
                [f"website:{website.website_id}" for website in world.websites],
            )
        return tables

    def _shard_capacity(self) -> int:
        """Upper bound on observations a single scan can produce."""
        capacity = self._capacity
        if capacity is None:
            world = self._world
            capacity = self._capacity = 2 * len(world.devices) + 2 * sum(
                len(website.host_ips) for website in world.websites
            )
        return capacity

    def _generate_shard(self, campaign: ScanCampaign, day: int) -> ScanShard:
        """One scan, appended straight into preallocated columns."""
        capacity = self._shard_capacity()
        col_ip = array("I", bytes(4 * capacity))
        col_cert = array("I", bytes(4 * capacity))
        col_entity = array("I", bytes(4 * capacity))
        col_handshake = array("i", bytes(4 * capacity))
        fingerprint_ids: dict[bytes, int] = {}
        fingerprints: list[bytes] = []
        entity_ids: dict[str, int] = {}
        entities: list[str] = []
        handshake_ids: dict[HandshakeRecord, int] = {}
        handshakes: list[HandshakeRecord] = []
        rng = stable_rng(self._world.config.seed, "scan", campaign.name, day)
        state = (
            campaign, day, rng, col_ip, col_cert, col_entity, col_handshake,
            fingerprint_ids, fingerprints, entity_ids, entities,
            handshake_ids, handshakes,
        )
        cursor = self._scan_devices(0, *state)
        cursor = self._scan_websites(cursor, *state)
        return finalize_shard(
            day, campaign.name, cursor, col_ip, col_cert, col_entity,
            col_handshake, fingerprints, entities, handshakes,
        )

    def _scan_devices(
        self, cursor, campaign, day, rng, col_ip, col_cert, col_entity,
        col_handshake, fingerprint_ids, fingerprints, entity_ids, entities,
        handshake_ids, handshakes,
    ) -> int:
        """Device sightings, appended into the shard columns.

        Consumes the per-day RNG in exactly the legacy row order: probe
        instants are drawn per device, then (for each non-blacklisted
        probe) one miss-rate draw — blacklist filtering itself consumes
        nothing in either path.
        """
        world = self._world
        policies = world.policies
        duration = self._duration
        miss_rate = campaign.random_miss_rate
        rng_random = rng.random
        starts, ends = self._blacklist_intervals(campaign)
        device_tags = self._entity_tags()[0]
        store = self._store
        fingerprint_get = fingerprint_ids.get
        entity_get = entity_ids.get
        collect_handshakes = self._collect_handshakes
        probes = blocked = admitted = 0

        for position, device in enumerate(world.devices):
            if not device.is_active(day):
                continue
            location = device.location_at(day)
            policy = policies[location.asn]
            subscriber = location.subscriber
            flip_hour = policy.reassignment_hour(subscriber, day)
            ip_start = policy.address(subscriber, day, 0.0)
            tag = device_tags[position]
            entity_id = entity_get(tag)
            if entity_id is None:
                entity_id = entity_ids[tag] = len(entities)
                entities.append(tag)
            handshake_id = -1
            if collect_handshakes:
                record = self._device_handshake(device)
                handshake_id = handshake_ids.get(record)
                if handshake_id is None:
                    handshake_id = handshake_ids[record] = len(handshakes)
                    handshakes.append(record)
            epoch = device.reissue_epoch(day)
            reissue_hour = device.reissue_hour_on(day)

            if flip_hour < 0.0:
                # Address stable all day: one probe, one sighting.
                probe = rng_random() * duration
                probes += 1
                hit = bisect_right(starts, ip_start)
                if hit and ip_start <= ends[hit - 1]:
                    blocked += 1
                elif rng_random() >= miss_rate:
                    admitted += 1
                    cert = device.certificate_for_epoch(
                        epoch - 1
                        if 0.0 <= reissue_hour and probe < reissue_hour
                        else epoch
                    )
                    fingerprint = cert.fingerprint
                    cert_id = fingerprint_get(fingerprint)
                    if cert_id is None:
                        cert_id = fingerprint_ids[fingerprint] = len(fingerprints)
                        fingerprints.append(fingerprint)
                        if fingerprint not in store:
                            store[fingerprint] = cert
                    col_ip[cursor] = ip_start
                    col_cert[cursor] = cert_id
                    col_entity[cursor] = entity_id
                    col_handshake[cursor] = handshake_id
                    cursor += 1
                continue

            ip_end = policy.address(subscriber, day, 23.99)
            probe_old = rng_random() * duration
            probe_new = rng_random() * duration
            if probe_old < flip_hour:
                probes += 1
                hit = bisect_right(starts, ip_start)
                if hit and ip_start <= ends[hit - 1]:
                    blocked += 1
                elif rng_random() >= miss_rate:
                    admitted += 1
                    cert = device.certificate_for_epoch(
                        epoch - 1
                        if 0.0 <= reissue_hour and probe_old < reissue_hour
                        else epoch
                    )
                    fingerprint = cert.fingerprint
                    cert_id = fingerprint_get(fingerprint)
                    if cert_id is None:
                        cert_id = fingerprint_ids[fingerprint] = len(fingerprints)
                        fingerprints.append(fingerprint)
                        if fingerprint not in store:
                            store[fingerprint] = cert
                    col_ip[cursor] = ip_start
                    col_cert[cursor] = cert_id
                    col_entity[cursor] = entity_id
                    col_handshake[cursor] = handshake_id
                    cursor += 1
            if probe_new >= flip_hour:
                probes += 1
                hit = bisect_right(starts, ip_end)
                if hit and ip_end <= ends[hit - 1]:
                    blocked += 1
                elif rng_random() >= miss_rate:
                    admitted += 1
                    cert = device.certificate_for_epoch(
                        epoch - 1
                        if 0.0 <= reissue_hour and probe_new < reissue_hour
                        else epoch
                    )
                    fingerprint = cert.fingerprint
                    cert_id = fingerprint_get(fingerprint)
                    if cert_id is None:
                        cert_id = fingerprint_ids[fingerprint] = len(fingerprints)
                        fingerprints.append(fingerprint)
                        if fingerprint not in store:
                            store[fingerprint] = cert
                    col_ip[cursor] = ip_end
                    col_cert[cursor] = cert_id
                    col_entity[cursor] = entity_id
                    col_handshake[cursor] = handshake_id
                    cursor += 1

        self._probes_attempted += probes
        self._probes_blacklisted += blocked
        self._handshakes_attempted += admitted
        return cursor

    def _scan_websites(
        self, cursor, campaign, day, rng, col_ip, col_cert, col_entity,
        col_handshake, fingerprint_ids, fingerprints, entity_ids, entities,
        handshake_ids, handshakes,
    ) -> int:
        """Website sightings (leaf + intermediate per address).

        Fingerprints and tags are interned once per website (not per
        address); the certificate store is only touched once a probe is
        actually admitted, preserving the row path's first-sighting
        insertion order.
        """
        world = self._world
        miss_rate = campaign.random_miss_rate
        rng_random = rng.random
        starts, ends = self._blacklist_intervals(campaign)
        website_tags = self._entity_tags()[1]
        ca_tags = self._ca_tags
        store = self._store
        fingerprint_get = fingerprint_ids.get
        entity_get = entity_ids.get
        collect_handshakes = self._collect_handshakes
        probes = blocked = admitted = 0

        for position, website in enumerate(world.websites):
            if not website.is_active(day):
                continue
            leaf, intermediate = website.chain_on(day)
            handshake_id = -1
            if collect_handshakes:
                record = self._website_handshake()
                handshake_id = handshake_ids.get(record)
                if handshake_id is None:
                    handshake_id = handshake_ids[record] = len(handshakes)
                    handshakes.append(record)
            leaf_fp = leaf.fingerprint
            leaf_id = fingerprint_get(leaf_fp)
            if leaf_id is None:
                leaf_id = fingerprint_ids[leaf_fp] = len(fingerprints)
                fingerprints.append(leaf_fp)
            intermediate_fp = intermediate.fingerprint
            intermediate_id = fingerprint_get(intermediate_fp)
            if intermediate_id is None:
                intermediate_id = fingerprint_ids[intermediate_fp] = len(fingerprints)
                fingerprints.append(intermediate_fp)
            tag = website_tags[position]
            site_entity = entity_get(tag)
            if site_entity is None:
                site_entity = entity_ids[tag] = len(entities)
                entities.append(tag)
            ca_tag = ca_tags.get(intermediate_fp)
            if ca_tag is None:
                ca_tag = ca_tags[intermediate_fp] = f"ca:{intermediate.subject_cn}"
            ca_entity = entity_get(ca_tag)
            if ca_entity is None:
                ca_entity = entity_ids[ca_tag] = len(entities)
                entities.append(ca_tag)
            site_stored = False
            for ip in website.host_ips:
                probes += 1
                hit = bisect_right(starts, ip)
                if hit and ip <= ends[hit - 1]:
                    blocked += 1
                    continue
                if rng_random() < miss_rate:
                    continue
                admitted += 1
                if not site_stored:
                    # Store insertion happens at the first *admitted*
                    # sighting, matching the row path's order exactly.
                    site_stored = True
                    if leaf_fp not in store:
                        store[leaf_fp] = leaf
                    if intermediate_fp not in store:
                        store[intermediate_fp] = intermediate
                col_ip[cursor] = ip
                col_cert[cursor] = leaf_id
                col_entity[cursor] = site_entity
                col_handshake[cursor] = handshake_id
                cursor += 1
                col_ip[cursor] = ip
                col_cert[cursor] = intermediate_id
                col_entity[cursor] = ca_entity
                col_handshake[cursor] = handshake_id
                cursor += 1

        self._probes_attempted += probes
        self._probes_blacklisted += blocked
        self._handshakes_attempted += admitted
        return cursor

    @property
    def certificate_store(self) -> dict[bytes, Certificate]:
        """Canonical Certificate for every fingerprint emitted so far.

        The certificate source for corpus writes — both
        :class:`~repro.io.store.StreamingDatasetWriter` and the
        delta-append path (:func:`repro.io.store.append_shards`) resolve
        shard fingerprints to DER through this mapping.
        """
        return self._store


# --- process-pool plumbing -----------------------------------------------------
#
# Each worker process builds one engine from the pickled world at pool
# start-up and reuses it for every day it is handed; per-task it returns
# the day's columnar shard, only that day's newly seen certificates, and
# — when the parent had observability active — the metrics/spans
# recorded for it.

_WORKER_ENGINE: Optional[ScanEngine] = None


def _init_scan_worker(
    world: World, duration_hours: float, collect_handshakes: bool,
    obs_enabled: bool = False,
) -> None:
    global _WORKER_ENGINE
    obs.install_worker(obs_enabled)
    _WORKER_ENGINE = ScanEngine(
        world, duration_hours=duration_hours, collect_handshakes=collect_handshakes
    )


def _scan_one_day(
    task: "tuple[ScanCampaign, int]",
) -> "tuple[ScanShard, dict[bytes, Certificate], Optional[dict]]":
    campaign, day = task
    engine = _WORKER_ENGINE
    engine.certificate_store.clear()
    mark = obs.task_mark()
    shard = engine.run_shard(campaign, day)
    return shard, dict(engine.certificate_store), obs.task_delta(mark)
