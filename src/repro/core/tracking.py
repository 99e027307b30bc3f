"""§7 — Tracking end-user devices through their invalid certificates.

After linking, each linked group — and each unlinked certificate — is a
candidate *device*.  A device observed for more than a year is "trackable"
(§7.2), and tracking enables two applications:

* **movement** (§7.3): AS transitions per device, bulk transfers (many
  devices switching between the same AS pair between consecutive sightings
  — the Verizon→MCI prefix moves), and cross-country moves;
* **reassignment-policy inference** (§7.4 / Figure 11): per AS, the share
  of its tracked devices whose address never changed, and the ASes that
  reassign nearly every device between every scan.

:class:`TrackingState` bundles what the query plane reads of all this —
the link plan, the devices, the §6.3 public-key groups and each device's
§7.4 outcome — so the artifact cache can persist it whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Container, Iterable, Optional, Sequence

from ..net.asn import ASRegistry
from ..obs import runtime as obs
from ..scanner.dataset import ScanDataset
from ..stats.cdf import CDF
from .consistency import ASLookup
from .features import Feature
from .linking import link_on_feature
from .pipeline import PipelineResult

__all__ = [
    "TrackedDevice",
    "build_tracked_devices",
    "TrackableReport",
    "trackable_devices",
    "MovementReport",
    "BulkTransfer",
    "analyze_movement",
    "ReassignmentReport",
    "infer_reassignment_policies",
    "ASAssignmentStats",
    "summarize_as_assignment",
    "DeviceOutcome",
    "device_key",
    "TrackingState",
]

TRACKABLE_MIN_DAYS = 365


@dataclass(frozen=True)
class TrackedDevice:
    """One inferred device: its certificates and sighting history."""

    device_key: str
    fingerprints: tuple[bytes, ...]
    #: (scan index, day, ip) in scan order, one entry per (scan, ip).
    sightings: tuple[tuple[int, int, int], ...]

    @property
    def first_day(self) -> int:
        return self.sightings[0][1]

    @property
    def last_day(self) -> int:
        return self.sightings[-1][1]

    @property
    def span_days(self) -> int:
        """Inclusive observation span."""
        return self.last_day - self.first_day + 1

    def is_trackable(self, min_days: int = TRACKABLE_MIN_DAYS) -> bool:
        """Observed for longer than ``min_days`` (the paper uses a year)."""
        return self.span_days > min_days

    def as_path(self, as_of: ASLookup) -> list[tuple[int, Optional[int]]]:
        """(day, AS) per scan in which the device was seen.

        When a scan caught the device at two addresses (mid-scan move),
        the last one wins — it is the device's AS at the end of the scan.
        """
        per_scan: dict[int, tuple[int, Optional[int]]] = {}
        for scan_idx, day, ip in self.sightings:
            per_scan[scan_idx] = (day, as_of(ip, day))
        return [per_scan[idx] for idx in sorted(per_scan)]

    def ip_path(self) -> list[tuple[int, int]]:
        """(day, ip) per scan, last sighting of each scan winning."""
        per_scan: dict[int, tuple[int, int]] = {}
        for scan_idx, day, ip in self.sightings:
            per_scan[scan_idx] = (day, ip)
        return [per_scan[idx] for idx in sorted(per_scan)]


def device_key(fingerprints: Sequence[bytes]) -> str:
    """A device's content-addressed key: its smallest fingerprint (the
    roster is sorted), prefixed ``group:`` for a linked group (two or
    more certificates) and ``cert:`` for an unlinked singleton.  The same
    device gets the same key whichever corpus partition produced it."""
    kind = "group" if len(fingerprints) > 1 else "cert"
    return f"{kind}:{fingerprints[0].hex()[:16]}"


def build_tracked_devices(
    dataset: ScanDataset,
    pipeline: PipelineResult,
    fingerprints: Iterable[bytes],
) -> list[TrackedDevice]:
    """Materialize the device view: linked groups + unlinked singletons,
    in device-key order (the same under any ``PYTHONHASHSEED``)."""
    linked = pipeline.linked_fingerprints()
    rosters = [group.fingerprints for group in pipeline.groups]
    rosters.extend(
        (fingerprint,) for fingerprint in fingerprints
        if fingerprint not in linked
    )

    def sightings_of(fps: tuple[bytes, ...]) -> tuple[tuple[int, int, int], ...]:
        rows = []
        for fp in fps:
            for scan_idx, ip in dataset.appearances(fp):
                rows.append((scan_idx, dataset.scans[scan_idx].day, ip))
        return tuple(sorted(rows))

    devices = sorted(
        (
            TrackedDevice(device_key(roster), roster, sightings_of(roster))
            for roster in rosters
        ),
        key=lambda device: device.device_key,
    )
    obs.inc("tracking.devices_built", len(devices))
    return devices


@dataclass(frozen=True)
class TrackableReport:
    """§7.2: how many devices are observable for over a year."""

    trackable_without_linking: int
    trackable_with_linking: int

    @property
    def improvement_fraction(self) -> float:
        """Paper: linking adds 17.2 % more trackable devices."""
        base = self.trackable_without_linking
        return (self.trackable_with_linking - base) / base if base else 0.0


def trackable_devices(
    dataset: ScanDataset,
    devices: list[TrackedDevice],
    fingerprints: Iterable[bytes],
    min_days: int = TRACKABLE_MIN_DAYS,
) -> TrackableReport:
    """Count trackable devices with and without the linking methodology.

    Without linking, only devices that advertise one distinct certificate
    for over a year are trackable (the paper's 5.59M); with linking, a
    group's combined span counts (6.75M).
    """
    without = sum(
        1
        for fp in fingerprints
        if dataset.lifetime_days(fp) > min_days
    )
    with_linking = sum(1 for device in devices if device.is_trackable(min_days))
    return TrackableReport(
        trackable_without_linking=without,
        trackable_with_linking=with_linking,
    )


@dataclass(frozen=True)
class BulkTransfer:
    """Many devices moving between the same AS pair at the same time."""

    from_asn: int
    to_asn: int
    day: int
    device_count: int


@dataclass
class MovementReport:
    """§7.3's findings."""

    tracked_devices: int
    devices_changing_as: int
    total_transitions: int
    single_change_fraction: float
    max_changes: int
    bulk_transfers: list[BulkTransfer] = field(default_factory=list)
    country_moves: int = 0


def analyze_movement(
    devices: list[TrackedDevice],
    as_of: ASLookup,
    registry: Optional[ASRegistry] = None,
    bulk_threshold: int = 50,
    min_days: int = TRACKABLE_MIN_DAYS,
) -> MovementReport:
    """Mine AS transitions out of the tracked-device histories.

    ``bulk_threshold`` is the paper's ≥50-devices-per-transfer rule; scale
    it down with the population.
    """
    tracked = [device for device in devices if device.is_trackable(min_days)]
    changing = 0
    transitions = 0
    per_device_changes: list[int] = []
    transfer_counts: dict[tuple[int, int, int], int] = {}
    country_moves = 0

    for device in tracked:
        path = device.as_path(as_of)
        changes = 0
        for (prev_day, prev_as), (day, asn) in zip(path, path[1:]):
            if prev_as is None or asn is None or prev_as == asn:
                continue
            changes += 1
            key = (prev_as, asn, day)
            transfer_counts[key] = transfer_counts.get(key, 0) + 1
            if registry is not None:
                before = registry.get(prev_as)
                after = registry.get(asn)
                if (
                    before is not None
                    and after is not None
                    and before.country_at(prev_day) != after.country_at(day)
                ):
                    country_moves += 1
        if changes:
            changing += 1
            transitions += changes
            per_device_changes.append(changes)

    bulk = [
        BulkTransfer(from_asn=f, to_asn=t, day=d, device_count=count)
        for (f, t, d), count in transfer_counts.items()
        if count >= bulk_threshold
    ]
    bulk.sort(key=lambda transfer: transfer.device_count, reverse=True)
    single = (
        sum(1 for changes in per_device_changes if changes == 1) / changing
        if changing
        else 0.0
    )
    return MovementReport(
        tracked_devices=len(tracked),
        devices_changing_as=changing,
        total_transitions=transitions,
        single_change_fraction=single,
        max_changes=max(per_device_changes, default=0),
        bulk_transfers=bulk,
        country_moves=country_moves,
    )


@dataclass(frozen=True)
class ReassignmentReport:
    """§7.4 / Figure 11."""

    static_fraction_by_as: dict[int, float]
    cdf: CDF
    #: ASes reassigning ≥75 % of their devices between every scan pair.
    highly_dynamic_ases: tuple[int, ...]

    def fraction_of_ases_mostly_static(self, cutoff: float = 0.90) -> float:
        """Share of ASes with ≥``cutoff`` static devices (paper: 56.3 %)."""
        values = list(self.static_fraction_by_as.values())
        return sum(1 for v in values if v >= cutoff) / len(values) if values else 0.0


def _device_assignment(
    device: TrackedDevice, as_of: ASLookup
) -> Optional[tuple[int, bool, float]]:
    """(home AS, statically assigned, flip rate) for one tracked device.

    The home AS is the one hosting the device most often (ties broken by
    first appearance); a device is static when it kept one address across
    its history; the flip rate is the share of consecutive scan pairs
    between which the address changed.  ``None`` when no sighting
    resolves to an AS.
    """
    path = device.ip_path()
    as_counts: dict[int, int] = {}
    for day, ip in path:
        asn = as_of(ip, day)
        if asn is not None:
            as_counts[asn] = as_counts.get(asn, 0) + 1
    if not as_counts:
        return None
    home_as = max(as_counts, key=as_counts.get)
    ips = [ip for _, ip in path]
    static = len(set(ips)) == 1
    flips = sum(1 for a, b in zip(ips, ips[1:]) if a != b)
    flip_rate = flips / (len(ips) - 1) if len(ips) > 1 else 0.0
    return home_as, static, flip_rate


def infer_reassignment_policies(
    devices: list[TrackedDevice],
    as_of: ASLookup,
    min_devices_per_as: int = 10,
    min_days: int = TRACKABLE_MIN_DAYS,
) -> ReassignmentReport:
    """Figure 11: per-AS static-assignment fractions.

    A device counts as statically assigned when it kept one address across
    its entire (≥1-year) observation history; devices are attributed to
    the AS hosting them most often.
    """
    per_as: dict[int, list[tuple[bool, float]]] = {}
    for device in devices:
        if not device.is_trackable(min_days):
            continue
        assignment = _device_assignment(device, as_of)
        if assignment is None:
            continue
        home_as, static, flip_rate = assignment
        per_as.setdefault(home_as, []).append((static, flip_rate))

    static_fraction: dict[int, float] = {}
    highly_dynamic: list[int] = []
    for asn, rows in per_as.items():
        if len(rows) < min_devices_per_as:
            continue
        static_fraction[asn] = sum(1 for static, _ in rows if static) / len(rows)
        mean_flip_rate = sum(rate for _, rate in rows) / len(rows)
        dynamic_share = sum(1 for _, rate in rows if rate >= 0.999) / len(rows)
        if dynamic_share >= 0.75 or mean_flip_rate >= 0.95:
            highly_dynamic.append(asn)

    if not static_fraction:
        raise ValueError("no AS reached the minimum tracked-device count")
    return ReassignmentReport(
        static_fraction_by_as=static_fraction,
        cdf=CDF.of(static_fraction.values()),
        highly_dynamic_ases=tuple(sorted(highly_dynamic)),
    )


@dataclass(frozen=True)
class ASAssignmentStats:
    """§7.4 assignment-policy counts for one AS.

    Pure integer counts so partial tallies from disjoint device
    partitions merge exactly (field-wise sums) — the sharded serve tier
    relies on this.
    """

    asn: int
    n_devices: int
    n_static: int
    #: Devices whose address changed between (essentially) every scan
    #: pair — per-device flip rate ≥ 0.999.
    n_fully_dynamic: int

    @property
    def static_fraction(self) -> float:
        return self.n_static / self.n_devices if self.n_devices else 0.0

    @property
    def dynamic_share(self) -> float:
        return self.n_fully_dynamic / self.n_devices if self.n_devices else 0.0

    def is_mostly_static(self, cutoff: float = 0.90) -> bool:
        """≥``cutoff`` of the AS's devices kept one address (paper §7.4)."""
        return self.n_devices > 0 and self.static_fraction >= cutoff

    @property
    def is_highly_dynamic(self) -> bool:
        """Reassigns nearly every device between every scan pair."""
        return self.n_devices > 0 and self.dynamic_share >= 0.75


#: One device's §7.4 outcome: (home AS, statically assigned, fully
#: dynamic — flip rate ≥ 0.999), or None when the device is not
#: trackable or no sighting resolves to an AS.
DeviceOutcome = Optional[tuple[int, bool, bool]]


def _device_outcomes(
    devices: Sequence[TrackedDevice],
    as_of: ASLookup,
    min_days: int = TRACKABLE_MIN_DAYS,
) -> list[DeviceOutcome]:
    """Each device's §7.4 outcome, in device order."""
    outcomes: list[DeviceOutcome] = []
    for device in devices:
        assignment = (
            _device_assignment(device, as_of)
            if device.is_trackable(min_days) else None
        )
        if assignment is None:
            outcomes.append(None)
        else:
            home_as, static, flip_rate = assignment
            outcomes.append((home_as, static, flip_rate >= 0.999))
    return outcomes


def _as_counts(
    outcomes: Iterable[DeviceOutcome],
) -> dict[int, ASAssignmentStats]:
    counts: dict[int, list[int]] = {}
    for outcome in outcomes:
        if outcome is None:
            continue
        home_as, static, fully_dynamic = outcome
        row = counts.setdefault(home_as, [0, 0, 0])
        row[0] += 1
        row[1] += static
        row[2] += fully_dynamic
    return {
        asn: ASAssignmentStats(
            asn=asn, n_devices=row[0], n_static=row[1], n_fully_dynamic=row[2]
        )
        for asn, row in counts.items()
    }


def summarize_as_assignment(
    devices: list[TrackedDevice],
    as_of: ASLookup,
    min_days: int = TRACKABLE_MIN_DAYS,
) -> dict[int, ASAssignmentStats]:
    """Per-AS assignment counts over every trackable device.

    Unlike :func:`infer_reassignment_policies` this applies no minimum
    device count — thresholds belong to the caller, so counts computed
    over shards of a partitioned corpus can be summed first and
    thresholded once.
    """
    return _as_counts(_device_outcomes(devices, as_of, min_days))


def _public_key_groups(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> dict[str, tuple[bytes, ...]]:
    """§6.3's public-key groups over ``fingerprints``: SPKI fingerprint
    (hex) → the group's sorted roster, in SPKI order."""
    matrix = dataset.feature_matrix
    result = link_on_feature(dataset, list(fingerprints), Feature.PUBLIC_KEY)
    groups = {
        matrix.raw_value(
            Feature.PUBLIC_KEY, group.fingerprints[0]
        ).fingerprint.hex(): group.fingerprints
        for group in result.groups
    }
    return dict(sorted(groups.items()))


@dataclass
class TrackingState:
    """What the query plane reads of §6.3–§7, built or loaded whole.

    The §6.4.3 link plan the pipeline used, the tracked devices in
    device-key order, the §6.3 public-key groups and each device's §7.4
    outcome.  The address → device-position index and the per-AS counts
    follow from them in one pass, so a state loaded from the artifact
    cache answers exactly like one computed here.
    """

    link_plan: tuple[Feature, ...]
    devices: list[TrackedDevice]
    key_groups: dict[str, tuple[bytes, ...]]
    outcomes: list[DeviceOutcome]
    #: address → positions (in :attr:`devices`) of every device sighted
    #: there, ascending.
    track_index: dict[int, list[int]] = field(init=False, repr=False)
    #: §7.4 counts per home AS, over every trackable device.
    as_stats: dict[int, ASAssignmentStats] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        track_index: dict[int, list[int]] = {}
        for position, device in enumerate(self.devices):
            for ip in dict.fromkeys(map(itemgetter(2), device.sightings)):
                track_index.setdefault(ip, []).append(position)
        self.track_index = track_index
        self.as_stats = _as_counts(self.outcomes)

    @classmethod
    def build(
        cls,
        dataset: ScanDataset,
        pipeline: PipelineResult,
        devices: list[TrackedDevice],
        fingerprints: Iterable[bytes],
        as_of: ASLookup,
    ) -> "TrackingState":
        """Compute the state over ``devices`` tracked from ``pipeline``
        (``fingerprints``: the deduplicated invalid population)."""
        return cls(
            link_plan=tuple(pipeline.field_order),
            devices=devices,
            key_groups=_public_key_groups(dataset, fingerprints),
            outcomes=_device_outcomes(devices, as_of),
        )

    def restricted(self, fingerprints: Container[bytes]) -> "TrackingState":
        """The state of a partition-closed subset of the certificates —
        a shard's, when ``fingerprints`` are the shard's: devices and
        key groups never straddle a shard, so each is kept or dropped
        whole, with its outcome, in the same order."""
        kept = [
            position for position, device in enumerate(self.devices)
            if device.fingerprints[0] in fingerprints
        ]
        return TrackingState(
            link_plan=self.link_plan,
            devices=[self.devices[position] for position in kept],
            key_groups={
                spki: roster for spki, roster in self.key_groups.items()
                if roster[0] in fingerprints
            },
            outcomes=[self.outcomes[position] for position in kept],
        )
