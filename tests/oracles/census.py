"""Per-certificate reference twins of the §5 census.

Each function is the pre-matrix body of one census entry point: it
resolves every fingerprint to its parsed certificate and reads the
field (or checks the self-signature) there, and walks each
certificate's sightings for its lifetime.  The entry points in
``repro.core.analysis`` and ``repro.serve.engine`` read the feature
matrix and the interval arrays instead; outputs must be equal,
including dict order and the stable tie-break of the sorts.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.analysis.issuers import _EMPTY_LABEL
from repro.core.analysis.keys import KeySharingReport
from repro.core.analysis.longevity import LifetimeSummary
from repro.scanner.dataset import ScanDataset
from repro.stats.cdf import CDF
from repro.x509.keys import PublicKey


def naive_validity_periods(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> CDF:
    """Figure 3 from each certificate's own validity bounds."""
    return CDF.of(
        dataset.certificate(fp).validity_period_days for fp in fingerprints
    )


def naive_lifetimes(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> LifetimeSummary:
    """Figure 4 from each certificate's sighting walk."""
    fingerprints = list(fingerprints)
    cdf = CDF.of(dataset.lifetime_days(fp) for fp in fingerprints)
    single = sum(
        1 for fp in fingerprints if len(dataset.scan_indexes_of(fp)) == 1
    )
    return LifetimeSummary(cdf=cdf, single_scan_fraction=single / len(fingerprints))


def naive_key_sharing(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> KeySharingReport:
    """Figure 6, counting each certificate's parsed public key."""
    counts: dict[PublicKey, int] = {}
    total = 0
    for fingerprint in fingerprints:
        key = dataset.certificate(fingerprint).public_key
        counts[key] = counts.get(key, 0) + 1
        total += 1
    if total == 0:
        raise ValueError("empty certificate population")

    ordered = sorted(counts.items(), key=lambda item: item[1], reverse=True)
    shared = sum(count for _, count in ordered if count > 1)
    curve = []
    running = 0
    for index, (_, count) in enumerate(ordered, start=1):
        running += count
        curve.append((index / len(ordered), running / total))
    top_key, top_count = ordered[0]
    return KeySharingReport(
        n_certificates=total,
        n_keys=len(ordered),
        shared_fraction=shared / total,
        top_key=top_key,
        top_key_fraction=top_count / total,
        coverage_curve=tuple(curve),
    )


def naive_top_issuers(
    dataset: ScanDataset, fingerprints: Iterable[bytes], n: int = 5
) -> list[tuple[str, int]]:
    """Table 1 from each certificate's parsed issuer name."""
    counts: dict[str, int] = {}
    for fingerprint in fingerprints:
        cn = dataset.certificate(fingerprint).issuer_cn
        label = cn if cn else _EMPTY_LABEL
        counts[label] = counts.get(label, 0) + 1
    return sorted(counts.items(), key=lambda item: item[1], reverse=True)[:n]


def naive_self_signed_fraction(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> float:
    """The self-signed share, verifying every signature on the spot."""
    fingerprints = list(fingerprints)
    if not fingerprints:
        return 0.0
    count = sum(
        1 for fp in fingerprints if dataset.certificate(fp).is_self_signed()
    )
    return count / len(fingerprints)


def naive_census_aggregates(
    dataset: ScanDataset, fingerprints: Sequence[bytes]
) -> dict:
    """The fleet's mergeable census partials, one certificate at a time."""
    fingerprints = sorted(fingerprints)
    validity: dict[int, int] = {}
    lifetime: dict[int, int] = {}
    n_single_scan = 0
    n_self_signed = 0
    key_counts: dict = {}
    issuers: dict[str, list] = {}
    for fingerprint in fingerprints:
        certificate = dataset.certificate(fingerprint)
        days = certificate.validity_period_days
        validity[days] = validity.get(days, 0) + 1
        life = dataset.lifetime_days(fingerprint)
        lifetime[life] = lifetime.get(life, 0) + 1
        if len(dataset.scan_indexes_of(fingerprint)) == 1:
            n_single_scan += 1
        if certificate.is_self_signed():
            n_self_signed += 1
        key = certificate.public_key
        key_counts[key] = key_counts.get(key, 0) + 1
        cn = certificate.issuer_cn
        label = cn if cn else _EMPTY_LABEL
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
