"""Per-object reference twins of the §4.2 and §6 kernels.

Each function is the pre-kernel row path of one entry point in
``repro.core``: it re-extracts fields certificate by certificate, walks
each certificate's sightings through the dataset's index accessors, and
scores consistency one level at a time.  Outputs must equal the kernel
entry points' exactly (same dict order, same float accumulation order).
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.core.consistency import (
    ASLookup,
    ConsistencyReport,
    group_consistency,
)
from repro.core.dedup import DedupResult
from repro.core.features import Feature, extract, linkable_value
from repro.core.linking import (
    LinkedGroup,
    LinkResult,
    _max_pairwise_overlap,
)
from repro.core.pipeline import LifetimeImprovement, PipelineResult
from repro.scanner.dataset import ScanDataset
from repro.x509.chain import ChainVerifier

def naive_validation_results(dataset: ScanDataset, trust_store) -> dict:
    """§4.2 chain walks without the per-CA chain memo."""
    certificates = list(dataset.certificates.values())
    verifier = ChainVerifier(trust_store, memoize=False)
    for certificate in certificates:
        verifier.add_intermediate(certificate)
    return verifier.verify_all(certificates)


def naive_non_uniqueness_census(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> dict[Feature, float]:
    """Table 5: one full extraction sweep per feature."""
    fingerprints = list(fingerprints)
    result: dict[Feature, float] = {}
    for feature in Feature:
        counts: dict[Hashable, int] = {}
        carriers = 0
        for fingerprint in fingerprints:
            value = extract(dataset.certificate(fingerprint), feature)
            if value is None:
                continue
            carriers += 1
            counts[value] = counts.get(value, 0) + 1
        if carriers == 0:
            result[feature] = 0.0
            continue
        shared = sum(count for count in counts.values() if count > 1)
        result[feature] = shared / carriers
    return result


def naive_absence_rates(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> dict[Feature, float]:
    """Per-feature absence: one extraction sweep per feature."""
    fingerprints = list(fingerprints)
    total = len(fingerprints)
    result: dict[Feature, float] = {}
    for feature in Feature:
        missing = sum(
            1
            for fingerprint in fingerprints
            if extract(dataset.certificate(fingerprint), feature) is None
        )
        result[feature] = missing / total if total else 0.0
    return result


def naive_classify(
    dataset: ScanDataset,
    fingerprints: Iterable[bytes],
    max_ips_per_scan: int = 2,
) -> DedupResult:
    """§6.2 uniqueness rule: a dict-of-sets walk per fingerprint."""
    unique: set[bytes] = set()
    non_unique: set[bytes] = set()
    for fingerprint in fingerprints:
        by_scan = dataset.ips_by_scan(fingerprint)
        sizes = [len(ips) for ips in by_scan.values()]
        if not sizes:
            unique.add(fingerprint)
        elif max(sizes) > max_ips_per_scan:
            non_unique.add(fingerprint)
        elif (
            max_ips_per_scan >= 2
            and len(sizes) > 1
            and all(size == max_ips_per_scan for size in sizes)
        ):
            # The every-scan-exactly-two exception.
            non_unique.add(fingerprint)
        else:
            unique.add(fingerprint)
    return DedupResult(unique=frozenset(unique), non_unique=frozenset(non_unique))


def naive_group_by_feature(
    dataset: ScanDataset,
    fingerprints: Iterable[bytes],
    feature: Feature,
) -> dict[Hashable, list[bytes]]:
    """Bucket certificates by re-extracting the field from each one."""
    buckets: dict[Hashable, list[bytes]] = {}
    for fingerprint in fingerprints:
        value = linkable_value(dataset.certificate(fingerprint), feature)
        if value is None:
            continue
        buckets.setdefault(value, []).append(fingerprint)
    return buckets


def naive_intervals(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> list[tuple[int, int]]:
    """(first, last) scan index of each observed certificate, in order."""
    return [
        (scan_idxs[0], scan_idxs[-1])
        for scan_idxs in map(dataset.scan_indexes_of, fingerprints)
        if scan_idxs
    ]


def naive_link_on_feature(
    dataset: ScanDataset,
    fingerprints: Iterable[bytes],
    feature: Feature,
    overlap_allowance: int = 1,
) -> LinkResult:
    """Group, drop never-observed members, then apply the overlap rule."""
    buckets = naive_group_by_feature(dataset, list(fingerprints), feature)
    groups: list[LinkedGroup] = []
    rejected = singletons = 0
    for value, candidates in buckets.items():
        if len(candidates) < 2:
            singletons += 1
            continue
        members = []
        intervals = []
        for fingerprint in candidates:
            scan_idxs = dataset.scan_indexes_of(fingerprint)
            if scan_idxs:  # a never-observed member has no lifetime
                members.append(fingerprint)
                intervals.append((scan_idxs[0], scan_idxs[-1]))
        if len(members) < 2:
            singletons += 1
            continue
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
    return LinkResult(
        feature=feature,
        groups=groups,
        rejected_values=rejected,
        singleton_values=singletons,
    )


def naive_evaluate_link_result(
    dataset: ScanDataset,
    result: LinkResult,
    as_of: ASLookup,
) -> ConsistencyReport:
    """Table 6 consistency: one walk and one AS lookup per level."""
    total = 0
    sums = {"ip": 0.0, "/24": 0.0, "as": 0.0}
    for group in result.groups:
        weight = len(group)
        total += weight
        for level in sums:
            sums[level] += weight * group_consistency(dataset, group, level, as_of)
    if total == 0:
        return ConsistencyReport(result.feature.value, 0, 0.0, 0.0, 0.0)
    return ConsistencyReport(
        feature_name=result.feature.value,
        total_linked=total,
        ip_level=sums["ip"] / total,
        slash24_level=sums["/24"] / total,
        as_level=sums["as"] / total,
    )


def naive_lifetime_improvement(
    dataset: ScanDataset,
    pipeline: PipelineResult,
    fingerprints: Iterable[bytes],
) -> LifetimeImprovement:
    """§6.4.4 statistics: two index walks per observed fingerprint."""
    observed: list[bytes] = []
    before: list[int] = []
    before_single: list[bool] = []
    for fingerprint in fingerprints:
        scan_idxs = dataset.scan_indexes_of(fingerprint)
        if scan_idxs:  # a never-observed certificate has no lifetime
            observed.append(fingerprint)
            before.append(dataset.lifetime_days(fingerprint))
            before_single.append(len(scan_idxs) == 1)

    linked = pipeline.linked_fingerprints()
    after: list[int] = []
    after_single: list[bool] = []
    for fingerprint in observed:
        if fingerprint not in linked:
            after.append(dataset.lifetime_days(fingerprint))
            after_single.append(len(dataset.scan_indexes_of(fingerprint)) == 1)
    for group in pipeline.groups:
        scan_idxs = sorted(
            {idx for fp in group.fingerprints for idx in dataset.scan_indexes_of(fp)}
        )
        first_day = dataset.scans[scan_idxs[0]].day
        last_day = dataset.scans[scan_idxs[-1]].day
        after.append(last_day - first_day + 1)
        after_single.append(len(scan_idxs) == 1)

    return LifetimeImprovement(
        single_scan_fraction_before=sum(before_single) / len(before_single),
        single_scan_fraction_after=sum(after_single) / len(after_single),
        mean_lifetime_before=sum(before) / len(before),
        mean_lifetime_after=sum(after) / len(after),
    )


def naive_iterative_link(
    dataset: ScanDataset,
    fingerprints: Iterable[bytes],
    field_order: Iterable[Feature],
    overlap_allowance: int = 1,
) -> list[LinkedGroup]:
    """§6.4.3 in a fixed field order: link, drop the linked, continue."""
    remaining = set(fingerprints)
    groups: list[LinkedGroup] = []
    for feature in field_order:
        result = naive_link_on_feature(
            dataset, remaining, feature, overlap_allowance
        )
        groups.extend(result.groups)
        remaining -= result.linked_fingerprints
    return groups
