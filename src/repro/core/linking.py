"""§6.3.2 — Linking certificates across scans.

The paper's central methodology: group certificates by a shared field
value, then accept the group as "one device's reissue chain" only if no
two member certificates' observed lifetimes overlap by more than a single
scan.  (One scan of overlap is allowed because a device that changes
address mid-scan may expose both its old and new certificate in the same
sweep — Figure 9's PK2 case.  Two or more overlapping scans mean two
devices serving distinct certificates simultaneously — the PK3 case — and
the whole group is rejected for that field.)

A certificate that no scan observed has no lifetime, so the overlap rule
cannot place it: it leaves its bucket before the rule runs and stays in
the unlinked population (dedup keeps such certificates as unique).

Both stages run on the columnar kernels: grouping buckets interned value
ids from the dataset's :class:`~repro.core.kernels.FeatureMatrix` instead
of re-extracting each certificate, and the overlap rule reads the
(first, last) scan-index arrays of ``dataset.intervals`` instead of
materializing each member's full scan list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

from ..obs import runtime as obs
from ..scanner.dataset import ScanDataset
from .features import Feature

__all__ = ["LinkedGroup", "LinkResult", "group_by_feature", "link_on_feature"]


@dataclass(frozen=True)
class LinkedGroup:
    """Certificates linked as one device's reissue chain via one field."""

    feature: Feature
    value: Hashable
    fingerprints: tuple[bytes, ...]

    def __len__(self) -> int:
        return len(self.fingerprints)


@dataclass
class LinkResult:
    """Outcome of linking one feature over a certificate population."""

    feature: Feature
    groups: list[LinkedGroup]
    rejected_values: int          # candidate values rejected for overlap
    singleton_values: int         # values carried by only one certificate

    @property
    def linked_fingerprints(self) -> set[bytes]:
        """Every certificate placed into some group."""
        return {
            fingerprint
            for group in self.groups
            for fingerprint in group.fingerprints
        }

    @property
    def total_linked(self) -> int:
        """Total certificates linked by this field (Table 6, row 1)."""
        return sum(len(group) for group in self.groups)


def group_by_feature(
    dataset: ScanDataset,
    fingerprints: Iterable[bytes],
    feature: Feature,
) -> dict[Hashable, list[bytes]]:
    """Bucket certificates by their (linkable) value of one field."""
    fingerprints = list(fingerprints)
    matrix = dataset.feature_matrix
    column = matrix.linkable_ids[feature]
    rows = matrix.rows
    by_id: dict[int, list[bytes]] = {}
    for fingerprint in fingerprints:
        value_id = column[rows[fingerprint]]
        if value_id < 0:
            continue
        members = by_id.get(value_id)
        if members is None:
            by_id[value_id] = [fingerprint]
        else:
            members.append(fingerprint)
    values = matrix.values[feature]
    return {values[value_id]: members for value_id, members in by_id.items()}


def _max_pairwise_overlap(intervals: Sequence[tuple[int, int]]) -> int:
    """Largest lifetime overlap (in scans) between any pair of intervals.

    With intervals sorted by start, the worst overlap for interval *i* is
    against the earlier interval with the greatest end; tracking that
    running maximum end makes the check O(n log n) instead of O(n²).
    """
    ordered = sorted(intervals)
    worst = 0
    running_max_end: Optional[int] = None
    for start, end in ordered:
        if running_max_end is not None:
            overlap = min(running_max_end, end) - start + 1
            worst = max(worst, overlap)
        if running_max_end is None or end > running_max_end:
            running_max_end = end
    return worst


def _record_link_metrics(groups: list[LinkedGroup], rejected: int,
                         singletons: int) -> None:
    """Bulk counter flush for one linking pass (no-op when obs is off)."""
    if not obs.enabled():
        return
    obs.inc("linking.groups_formed", len(groups))
    obs.inc("linking.certs_linked", sum(len(group) for group in groups))
    obs.inc("linking.groups_rejected_overlap", rejected)
    obs.inc("linking.values_singleton", singletons)


def link_on_feature(
    dataset: ScanDataset,
    fingerprints: Iterable[bytes],
    feature: Feature,
    overlap_allowance: int = 1,
) -> LinkResult:
    """Link one feature with the lifetime-overlap rule.

    ``overlap_allowance`` is the number of scans two member lifetimes may
    share (the paper allows exactly one); the ablation benchmark sweeps it.
    """
    buckets = group_by_feature(dataset, fingerprints, feature)
    cert_ids = dataset.columns.fingerprint_ids
    spans = dataset.intervals
    first_scan, last_scan = spans.first_scan, spans.last_scan
    groups: list[LinkedGroup] = []
    rejected = singletons = 0
    for value, members in buckets.items():
        if len(members) > 1:
            # A never-observed member has no lifetime to overlap-test.
            members = [fp for fp in members if fp in cert_ids]
        if len(members) < 2:
            singletons += 1
            continue
        intervals = []
        for fingerprint in members:
            cert_id = cert_ids[fingerprint]
            intervals.append((first_scan[cert_id], last_scan[cert_id]))
        if _max_pairwise_overlap(intervals) > overlap_allowance:
            rejected += 1
            continue
        groups.append(
            LinkedGroup(
                feature=feature,
                value=value,
                fingerprints=tuple(sorted(members)),
            )
        )
    _record_link_metrics(groups, rejected, singletons)
    return LinkResult(
        feature=feature,
        groups=groups,
        rejected_values=rejected,
        singleton_values=singletons,
    )
