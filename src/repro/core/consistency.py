"""§6.4.1 — Evaluating linked groups by location consistency.

Without ground truth, the paper scores a linked group by how consistently
its member certificates were advertised from the same place: the same IP
address (strictest), the same /24, or the same AS.  A group's consistency
at a level is the fraction of its observation scans on which the group's
most common location at that level appears — the worked PK2 example of
§6.4.1 (IP 0.5, /24 0.75, AS 1.0) is reproduced in the test suite.

AS lookups are day-aware (``as_of(ip, day)``) because the paper replays
historic RouteViews snapshots.

:func:`group_consistency` is the single-level reference implementation
(one walk per level, one AS lookup per observation).  The aggregate
scorer :func:`evaluate_link_result` instead uses the fused kernel
(:func:`repro.core.kernels.fused_group_levels`): each member
certificate's per-scan locations are walked once and cached in a
:class:`~repro.core.kernels.ConsistencyCache` (shared across groups and
features), group scores merge the cached counters, and AS lookups are
memoized per distinct ``(ip, routing epoch)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..net.ip import slash16, slash24
from ..obs import runtime as obs
from ..scanner.dataset import ScanDataset
from .kernels import ConsistencyCache, fused_group_levels
from .linking import LinkedGroup, LinkResult

__all__ = [
    "ASLookup",
    "group_consistency",
    "ConsistencyReport",
    "evaluate_link_result",
]

#: (ip, day) → origin AS (None when unrouted).
ASLookup = Callable[[int, int], Optional[int]]


def _location_per_scan(
    dataset: ScanDataset,
    fingerprints: Sequence[bytes],
    level: str,
    as_of: Optional[ASLookup],
) -> dict[int, set]:
    """scan index → set of locations (at the chosen level) of group members."""
    locations: dict[int, set] = {}
    for fingerprint in fingerprints:
        for scan_idx, ip in dataset.appearances(fingerprint):
            if level == "ip":
                location = ip
            elif level == "/24":
                location = slash24(ip)
            elif level == "/16":
                # §8: nearly half of real IP address changes land in a
                # different /16, so this level sits between /24 and AS.
                location = slash16(ip)
            elif level == "as":
                assert as_of is not None, "AS-level consistency needs a lookup"
                location = as_of(ip, dataset.scans[scan_idx].day)
            else:
                raise ValueError(f"unknown consistency level {level!r}")
            locations.setdefault(scan_idx, set()).add(location)
    return locations


def group_consistency(
    dataset: ScanDataset,
    group: LinkedGroup | Sequence[bytes],
    level: str = "ip",
    as_of: Optional[ASLookup] = None,
) -> float:
    """Consistency of one group at one level.

    Counts, over the scans in which any member certificate was observed,
    the share of scans covering the group's most common location.
    """
    fingerprints = (
        group.fingerprints if isinstance(group, LinkedGroup) else tuple(group)
    )
    per_scan = _location_per_scan(dataset, fingerprints, level, as_of)
    if not per_scan:
        return 0.0
    counts: dict = {}
    for locations in per_scan.values():
        for location in locations:
            counts[location] = counts.get(location, 0) + 1
    return max(counts.values()) / len(per_scan)


@dataclass(frozen=True)
class ConsistencyReport:
    """Aggregate consistency of one field's linking (Table 6, bottom rows)."""

    feature_name: str
    total_linked: int
    ip_level: float
    slash24_level: float
    as_level: float


def evaluate_link_result(
    dataset: ScanDataset,
    result: LinkResult,
    as_of: ASLookup,
    cache: Optional[ConsistencyCache] = None,
) -> ConsistencyReport:
    """Certificate-weighted average consistency across a field's groups.

    ``cache`` is the fused kernel's :class:`ConsistencyCache` (memoized
    AS lookups plus per-certificate location counters); pass one instance
    across calls to share the work between features (the pipeline does).
    """
    if cache is None:
        cache = ConsistencyCache()
    total = 0
    sums = {"ip": 0.0, "/24": 0.0, "as": 0.0}
    for group in result.groups:
        weight = len(group)
        total += weight
        ip_level, s24_level, as_level = fused_group_levels(
            dataset, group.fingerprints, as_of, cache
        )
        sums["ip"] += weight * ip_level
        sums["/24"] += weight * s24_level
        sums["as"] += weight * as_level
    if obs.enabled():
        obs.inc("consistency.groups_scored", len(result.groups))
        obs.gauge("kernels.as_memo_entries", len(cache.as_memo))
        obs.gauge("kernels.location_cache_entries", len(cache.locations))
    if total == 0:
        return ConsistencyReport(result.feature.value, 0, 0.0, 0.0, 0.0)
    return ConsistencyReport(
        feature_name=result.feature.value,
        total_linked=total,
        ip_level=sums["ip"] / total,
        slash24_level=sums["/24"] / total,
        as_level=sums["as"] / total,
    )
