"""§5.1 — Certificate longevity (Figures 3, 4, and 5).

Validity periods (Not Before → Not After), observed lifetimes (first scan →
last scan, inclusive), and the reissue-gap analysis over ephemeral
certificates that establishes the periodic-reissue hypothesis.  Validity
periods read the feature matrix's Not Before / Not After value tables and
lifetimes the per-certificate interval arrays, so neither parses a
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ...scanner.dataset import ScanDataset
from ...stats.cdf import CDF
from ..features import Feature

__all__ = [
    "validity_days",
    "validity_periods",
    "lifetime_spans",
    "lifetimes",
    "LifetimeSummary",
    "ephemeral_fingerprints",
    "ReissueGap",
    "reissue_gap",
]


def validity_days(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> list[int]:
    """Not After − Not Before, in days, of each certificate, in order.

    The day components of the feature matrix's NOT_BEFORE / NOT_AFTER
    stamps, which equal :attr:`Certificate.validity_period_days`.
    """
    matrix = dataset.feature_matrix
    return [
        matrix.raw_value(Feature.NOT_AFTER, fp)[0]
        - matrix.raw_value(Feature.NOT_BEFORE, fp)[0]
        for fp in fingerprints
    ]


def validity_periods(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> CDF:
    """Figure 3: distribution of Not After − Not Before, in days.

    Negative values (Not After before Not Before) are kept — they are
    5.38 % of the paper's invalid population and the CDF's non-zero start.
    """
    return CDF.of(validity_days(dataset, fingerprints))


@dataclass(frozen=True)
class LifetimeSummary:
    """Figure 4 plus its headline statistics."""

    cdf: CDF
    single_scan_fraction: float

    @property
    def median_days(self) -> float:
        return self.cdf.median


def lifetime_spans(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> list[tuple[int, int]]:
    """(observed lifetime in days, distinct scans) of each certificate.

    From the interval arrays: the inclusive first→last scan-day span
    (``dataset.lifetime_days``) and the scan count.  A certificate never
    observed raises KeyError, as ``dataset.first_last_day`` does.
    """
    intervals = dataset.intervals
    cert_ids = dataset.columns.fingerprint_ids
    days = [scan.day for scan in dataset.scans]
    spans = []
    for fingerprint in fingerprints:
        cert_id = cert_ids.get(fingerprint)
        if cert_id is None or intervals.first_scan[cert_id] < 0:
            raise KeyError(
                f"certificate never observed: {fingerprint.hex()[:12]}"
            )
        spans.append((
            days[intervals.last_scan[cert_id]]
            - days[intervals.first_scan[cert_id]] + 1,
            intervals.n_scans[cert_id],
        ))
    return spans


def lifetimes(dataset: ScanDataset, fingerprints: Iterable[bytes]) -> LifetimeSummary:
    """Figure 4: observed lifetimes (inclusive first→last scan day)."""
    spans = lifetime_spans(dataset, fingerprints)
    cdf = CDF.of(days for days, _ in spans)
    single = sum(1 for _, n_scans in spans if n_scans == 1)
    return LifetimeSummary(cdf=cdf, single_scan_fraction=single / len(spans))


def ephemeral_fingerprints(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> list[bytes]:
    """Certificates observed in exactly one scan (§5.1's 'ephemeral')."""
    return [
        fp for fp in fingerprints if len(dataset.scan_indexes_of(fp)) == 1
    ]


@dataclass(frozen=True)
class ReissueGap:
    """Figure 5: first-advertised date minus Not Before, over ephemerals."""

    cdf: CDF                       # non-negative gaps only, as plotted
    same_day_fraction: float       # paper: ~30 %
    within_four_days_fraction: float   # paper: ~70 %
    over_1000_days_fraction: float     # paper: ~20 %
    negative_fraction: float       # Not Before after first sighting: 2.9 %


def reissue_gap(dataset: ScanDataset, fingerprints: Iterable[bytes]) -> ReissueGap:
    """The Figure 5 analysis.

    A small gap means the certificate was generated just before the scan
    that caught it (a reissuing device with a correct clock); a 1000+-day
    gap means the Not Before is a firmware epoch, not an issue time.
    """
    gaps = []
    for fingerprint in fingerprints:
        first_day, _ = dataset.first_last_day(fingerprint)
        gaps.append(first_day - dataset.certificate(fingerprint).not_before)
    total = len(gaps)
    if total == 0:
        raise ValueError("no ephemeral certificates to analyze")
    non_negative = [gap for gap in gaps if gap >= 0]
    return ReissueGap(
        cdf=CDF.of(non_negative if non_negative else [0]),
        same_day_fraction=sum(1 for gap in gaps if gap == 0) / total,
        within_four_days_fraction=sum(1 for gap in gaps if 0 <= gap < 4) / total,
        over_1000_days_fraction=sum(1 for gap in gaps if gap > 1000) / total,
        negative_fraction=sum(1 for gap in gaps if gap < 0) / total,
    )
