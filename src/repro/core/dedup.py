"""§6.2 — Scan duplicates and the two-address uniqueness rule.

Scans take hours and probe addresses in random order, so a device that
changes address mid-scan can legitimately appear at two addresses in one
scan.  Three or more addresses in one scan, however, almost certainly means
the certificate is shared across devices (dynamic leases last days, §6.2).

The rule, verbatim from the paper:

* a certificate seen at **no more than two** addresses in *every* scan is
  declared unique to one device;
* seen at more than two addresses in *any* scan → non-unique;
* **exception** — seen at *exactly two* addresses in *every* scan: since
  probe order re-randomizes per scan, a mid-scan mover would sometimes be
  caught once; a constant two strongly suggests two devices, so the
  certificate is declared non-unique.

A certificate with **zero** observations (present in the certificate
table but never seen by any scan) is classified unique: it was never
multi-homed, so there is no evidence of sharing.

The classifier reads the per-certificate extremes precomputed by the
``dataset.intervals`` kernel (one CSR sweep for the whole corpus) instead
of rebuilding a dict-of-sets per fingerprint; the §6.2 predicate only
needs the max/min distinct-address counts and the distinct-scan count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..obs import runtime as obs
from ..scanner.dataset import ScanDataset

__all__ = ["DedupResult", "classify_unique_certificates"]


@dataclass(frozen=True)
class DedupResult:
    """Partition of certificates into device-unique and shared."""

    unique: frozenset[bytes]
    non_unique: frozenset[bytes]

    @property
    def excluded_fraction(self) -> float:
        """Share of certificates the linking stage must drop (paper: 1.6 %)."""
        total = len(self.unique) + len(self.non_unique)
        return len(self.non_unique) / total if total else 0.0


def classify_unique_certificates(
    dataset: ScanDataset,
    fingerprints: Iterable[bytes],
    max_ips_per_scan: int = 2,
) -> DedupResult:
    """Apply the §6.2 uniqueness rule.

    ``max_ips_per_scan`` is the paper's threshold of two; the ablation
    benchmark sweeps it.
    """
    fingerprints = list(fingerprints)
    cert_ids = dataset.columns.fingerprint_ids
    spans = dataset.intervals
    n_scans, max_ips, min_ips = spans.n_scans, spans.max_ips, spans.min_ips
    unique: set[bytes] = set()
    non_unique: set[bytes] = set()
    for fingerprint in fingerprints:
        cert_id = cert_ids.get(fingerprint)
        if cert_id is None or n_scans[cert_id] == 0:
            # Never observed: no multi-homing evidence, keep it.
            unique.add(fingerprint)
        elif max_ips[cert_id] > max_ips_per_scan:
            non_unique.add(fingerprint)
        elif (
            max_ips_per_scan >= 2
            and n_scans[cert_id] > 1
            and max_ips[cert_id] == max_ips_per_scan
            and min_ips[cert_id] == max_ips_per_scan
        ):
            # The every-scan-exactly-two exception.
            non_unique.add(fingerprint)
        else:
            unique.add(fingerprint)
    result = DedupResult(unique=frozenset(unique), non_unique=frozenset(non_unique))
    obs.inc("dedup.certs_considered", len(fingerprints))
    obs.inc("dedup.certs_unique", len(unique))
    obs.inc("dedup.certs_collapsed", len(non_unique))
    return result
