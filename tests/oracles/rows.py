"""The pre-columnar scan emitter and the row-walk parity checks.

:class:`RowEngine` is the generation loop :class:`~repro.scanner.engine.
ScanEngine` ran before scans went direct-to-columnar: one
:class:`~repro.scanner.records.Observation` namedtuple per sighting,
interned into its own certificate store, sorted by ``(ip, fingerprint)``.
It consumes each day's RNG exactly as the shard path does, so a columnar
corpus must match it bitwise — rows, interning tables, and certificate
store order (:func:`verify_generation_parity`).
:func:`verify_index_parity` recomputes the per-certificate index answers
by walking the row scans.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.internet.population import World
from repro.scanner.campaign import ScanCampaign
from repro.scanner.columns import ObservationColumns
from repro.scanner.dataset import ScanDataset
from repro.scanner.engine import SCAN_DURATION_HOURS
from repro.scanner.records import Observation, Scan
from repro.scanner.shards import columns_equal
from repro.seeding import stable_rng
from repro.tls.handshake import HandshakeRecord, negotiate
from repro.tls.profiles import WEBSITE_TLS_PROFILE, tls_profile_for
from repro.x509.certificate import Certificate

class RowEngine:
    """Row-at-a-time scans of one world (no metrics, no spans).

    Kept verbatim in cost as well as output, probe accounting included,
    because the generation benchmark times it as its baseline.
    """

    def __init__(
        self,
        world: World,
        duration_hours: float = SCAN_DURATION_HOURS,
        collect_handshakes: bool = False,
    ) -> None:
        self._world = world
        self._duration = duration_hours
        self._collect_handshakes = collect_handshakes
        self._profile_handshakes: dict[str, HandshakeRecord] = {}
        self._probes_attempted = 0
        self._probes_blacklisted = 0
        self._handshakes_attempted = 0
        #: Canonical certificate per fingerprint, in first-sighting order.
        self.certificate_store: dict[bytes, Certificate] = {}

    def run_rows(self, campaign: ScanCampaign, day: int) -> Scan:
        """One scan as a row list."""
        return Scan(
            day=day,
            source=campaign.name,
            observations=self.row_observations(campaign, day),
        )

    def run_campaign_rows(self, campaign: ScanCampaign) -> list[Scan]:
        """The campaign's whole schedule, serially."""
        return [self.run_rows(campaign, day) for day in campaign.scan_days]

    def row_observations(
        self, campaign: ScanCampaign, day: int
    ) -> list[Observation]:
        """Sorted row observations of one scan."""
        rng = stable_rng(self._world.config.seed, "scan", campaign.name, day)
        observations: list[Observation] = []
        self._probes_attempted = 0
        self._probes_blacklisted = 0
        self._handshakes_attempted = 0
        self._scan_devices_rows(campaign, day, rng, observations)
        self._scan_websites_rows(campaign, day, rng, observations)
        observations.sort(key=lambda obs: (obs.ip, obs.fingerprint))
        return observations

    # --- internals ------------------------------------------------------------

    def _admit(
        self, campaign: ScanCampaign, rng: random.Random, ip: int
    ) -> bool:
        """Blacklist and random-miss filtering for one address."""
        self._probes_attempted += 1
        if campaign.is_blacklisted(ip):
            self._probes_blacklisted += 1
            return False
        if rng.random() < campaign.random_miss_rate:
            return False
        self._handshakes_attempted += 1
        return True

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

    def _intern(self, cert: Certificate) -> bytes:
        fingerprint = cert.fingerprint
        if fingerprint not in self.certificate_store:
            self.certificate_store[fingerprint] = cert
        return fingerprint

    def _scan_devices_rows(self, campaign, day, rng, observations) -> None:
        world = self._world
        for device in world.devices:
            if not device.is_active(day):
                continue
            flip_hour = world.device_reassignment_hour(device, day)
            ip_start = world.device_ip(device, day, hour=0.0)
            entity = f"device:{device.device_id}"
            handshake = self._device_handshake(device)

            if flip_hour < 0.0:
                # Address stable all day: one probe, one sighting.
                probe = rng.random() * self._duration
                if self._admit(campaign, rng, ip_start):
                    cert = device.certificate_at(day, probe)
                    observations.append(
                        Observation(ip_start, self._intern(cert), entity, handshake)
                    )
                continue

            ip_end = world.device_ip(device, day, hour=23.99)
            probe_old = rng.random() * self._duration
            probe_new = rng.random() * self._duration
            if probe_old < flip_hour and self._admit(campaign, rng, ip_start):
                cert = device.certificate_at(day, probe_old)
                observations.append(
                    Observation(ip_start, self._intern(cert), entity, handshake)
                )
            if probe_new >= flip_hour and self._admit(campaign, rng, ip_end):
                cert = device.certificate_at(day, probe_new)
                observations.append(
                    Observation(ip_end, self._intern(cert), entity, handshake)
                )

    def _scan_websites_rows(self, campaign, day, rng, observations) -> None:
        for website in self._world.websites:
            if not website.is_active(day):
                continue
            chain = website.chain_on(day)
            handshake = self._website_handshake()
            for ip in website.host_ips:
                if not self._admit(campaign, rng, ip):
                    continue
                leaf, intermediate = chain
                observations.append(
                    Observation(
                        ip, self._intern(leaf),
                        f"website:{website.website_id}", handshake,
                    )
                )
                observations.append(
                    Observation(
                        ip, self._intern(intermediate),
                        f"ca:{intermediate.subject_cn}", handshake,
                    )
                )


def collect_rows(
    world: World,
    campaigns: Iterable[ScanCampaign],
    collect_handshakes: bool = False,
) -> ScanDataset:
    """``ScanDataset.collect`` through the row emitter."""
    engine = RowEngine(world, collect_handshakes=collect_handshakes)
    scans: list[Scan] = []
    for campaign in campaigns:
        scans.extend(engine.run_campaign_rows(campaign))
    return ScanDataset(scans, engine.certificate_store)


def verify_generation_parity(
    dataset: ScanDataset,
    world: World,
    campaigns: Iterable[ScanCampaign],
    collect_handshakes: bool = False,
) -> None:
    """Assert a collected corpus equals the row emitter's, bitwise.

    Checks the scan schedule, every scan's rows, the certificate-store
    insertion order, and the merged interning tables.
    """
    rows = collect_rows(world, campaigns, collect_handshakes)
    assert [(scan.day, scan.source) for scan in rows.scans] == [
        (scan.day, scan.source) for scan in dataset.scans
    ], "generation parity: scan schedule diverges"
    for row_scan, scan in zip(rows.scans, dataset.scans):
        assert scan.observations == row_scan.observations, (
            "generation parity: rows diverge in "
            f"{row_scan.source}/day={row_scan.day}"
        )
    assert list(rows.certificates) == list(dataset.certificates), (
        "generation parity: certificate store order diverges"
    )
    assert columns_equal(
        ObservationColumns.from_scans(rows.scans), dataset.columns
    ), "generation parity: merged columns diverge"


def verify_index_parity(dataset: ScanDataset) -> None:
    """Assert the columnar index agrees with a walk of the row scans.

    Recomputes appearances, handshakes, and entity sets for every
    certificate (observed or only in the table) and compares them with
    the CSR index's answers.  O(corpus).
    """
    index = dataset.index
    row_appearances: dict[bytes, list[tuple[int, int]]] = {}
    row_handshakes: dict[bytes, object] = {}
    row_entities: dict[bytes, set[str]] = {}
    for scan_idx, scan in enumerate(dataset.scans):
        for obs in scan.observations:
            row_appearances.setdefault(obs.fingerprint, []).append(
                (scan_idx, obs.ip)
            )
            if obs.handshake is not None and obs.fingerprint not in row_handshakes:
                row_handshakes[obs.fingerprint] = obs.handshake
            if obs.entity:
                row_entities.setdefault(obs.fingerprint, set()).add(obs.entity)
    for fingerprint in set(row_appearances) | set(dataset.certificates):
        assert index.appearances(fingerprint) == row_appearances.get(
            fingerprint, []
        ), f"appearance mismatch: {fingerprint.hex()[:12]}"
        assert index.handshake_of(fingerprint) == row_handshakes.get(
            fingerprint
        ), f"handshake mismatch: {fingerprint.hex()[:12]}"
        assert index.entities_of(fingerprint) == row_entities.get(
            fingerprint, set()
        ), f"entity mismatch: {fingerprint.hex()[:12]}"
