"""§5.2 — Key diversity (Figure 6).

How many certificates share public keys: the key-coverage curve, the
fraction of certificates whose key appears on at least one other
certificate (47 % of invalid certificates in the paper), and the single
most-shared key (the Lancom key, on 6.5 % of all invalid certificates).
Keys are counted by their interned PUBLIC_KEY id in the feature matrix,
so no certificate is parsed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ...scanner.dataset import ScanDataset
from ...x509.keys import PublicKey
from ..features import Feature

__all__ = ["KeySharingReport", "key_sharing"]


@dataclass(frozen=True)
class KeySharingReport:
    """Key-diversity statistics for one certificate population."""

    n_certificates: int
    n_keys: int
    #: Fraction of certificates sharing their key with another certificate.
    shared_fraction: float
    #: The single most-shared key and its certificate share.
    top_key: PublicKey
    top_key_fraction: float
    #: (fraction of keys, fraction of certificates) — Figure 6's curve,
    #: with keys ordered by descending certificate count.
    coverage_curve: tuple[tuple[float, float], ...]

    def certificates_covered_by(self, key_fraction: float) -> float:
        """Certificate share covered by the top ``key_fraction`` of keys."""
        covered = 0.0
        for keys_fraction, certs_fraction in self.coverage_curve:
            if keys_fraction <= key_fraction:
                covered = certs_fraction
            else:
                break
        return covered


def key_sharing(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> KeySharingReport:
    """Compute the Figure 6 analysis for one population."""
    matrix = dataset.feature_matrix
    rows = matrix.rows
    key_ids = matrix.raw_ids[Feature.PUBLIC_KEY]
    counts: dict[int, int] = {}
    total = 0
    for fingerprint in fingerprints:
        key_id = key_ids[rows[fingerprint]]
        counts[key_id] = counts.get(key_id, 0) + 1
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
    top_id, top_count = ordered[0]
    return KeySharingReport(
        n_certificates=total,
        n_keys=len(ordered),
        shared_fraction=shared / total,
        top_key=matrix.values[Feature.PUBLIC_KEY][top_id],
        top_key_fraction=top_count / total,
        coverage_curve=tuple(curve),
    )
