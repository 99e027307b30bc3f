"""§5.3 — Issuer diversity (Table 1 and the signing-key concentration).

Who signs the certificates: the most frequent issuer Common Names (valid
side: the big commercial CAs; invalid side: device vendors, private IP
literals, and the empty string), how self-signed the invalid population
is, and how concentrated the *signing keys* are (five keys span half of
all valid certificates; the invalid side has vastly more parent keys).
Issuer names and self-signatures are read from the feature matrix (the
ISSUER_SERIAL value table and the self-signed column), so Table 1 and
the self-signed share parse no certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ...scanner.dataset import ScanDataset
from ..features import Feature

__all__ = [
    "issuer_labels",
    "top_issuers",
    "self_signed_fraction",
    "KeyConcentration",
    "signing_key_concentration",
    "private_ip_issuer_count",
]

_EMPTY_LABEL = "(Empty string)"


def issuer_labels(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> list[str]:
    """Each certificate's issuer Common Name as Table 1 labels it, in order.

    The issuer half of the feature matrix's ISSUER_SERIAL value; an
    absent or empty Common Name reads ``(Empty string)``.
    """
    matrix = dataset.feature_matrix
    labels = []
    for fingerprint in fingerprints:
        cn = matrix.raw_value(Feature.ISSUER_SERIAL, fingerprint)[0].cn
        labels.append(cn if cn else _EMPTY_LABEL)
    return labels


def top_issuers(
    dataset: ScanDataset, fingerprints: Iterable[bytes], n: int = 5
) -> list[tuple[str, int]]:
    """Table 1: the ``n`` most frequent issuer Common Names."""
    counts: dict[str, int] = {}
    for label in issuer_labels(dataset, fingerprints):
        counts[label] = counts.get(label, 0) + 1
    return sorted(counts.items(), key=lambda item: item[1], reverse=True)[:n]


def self_signed_fraction(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> float:
    """Share of certificates that verify under their own key (88.0 %)."""
    fingerprints = list(fingerprints)
    if not fingerprints:
        return 0.0
    matrix = dataset.feature_matrix
    rows = matrix.rows
    count = sum(matrix.self_signed[rows[fp]] for fp in fingerprints)
    return count / len(fingerprints)


@dataclass(frozen=True)
class KeyConcentration:
    """Concentration of parent (signing) keys over one population."""

    n_certificates: int          # certificates with an identifiable parent key
    n_parent_keys: int
    top5_coverage: float         # certificate share of the 5 biggest keys
    keys_for_half: int           # how many keys to span 50 % of certificates


def signing_key_concentration(
    dataset: ScanDataset,
    fingerprints: Iterable[bytes],
    require_aki: bool = True,
) -> KeyConcentration:
    """§5.3's parent-key analysis.

    The parent key is identified by the Authority Key Identifier (the
    paper restricts the invalid-side analysis to the non-self-signed
    certificates that list their AKI).  With ``require_aki=False``,
    self-signed certificates count their own key as parent.
    """
    counts: dict[bytes, int] = {}
    total = 0
    for fingerprint in fingerprints:
        cert = dataset.certificate(fingerprint)
        parent: Optional[bytes] = cert.extensions.authority_key_id
        if parent is None:
            if require_aki:
                continue
            parent = cert.public_key.fingerprint[:20]
        counts[parent] = counts.get(parent, 0) + 1
        total += 1
    if total == 0:
        return KeyConcentration(0, 0, 0.0, 0)

    ordered = sorted(counts.values(), reverse=True)
    top5 = sum(ordered[:5]) / total
    running = 0
    keys_for_half = len(ordered)
    for index, count in enumerate(ordered, start=1):
        running += count
        if running >= total / 2:
            keys_for_half = index
            break
    return KeyConcentration(
        n_certificates=total,
        n_parent_keys=len(ordered),
        top5_coverage=top5,
        keys_for_half=keys_for_half,
    )


def private_ip_issuer_count(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> int:
    """Certificates issued under a 192.168.0.0/16 Common Name (§5.3)."""
    from ...net.ip import is_private, looks_like_ipv4, str_to_ip

    count = 0
    for fingerprint in fingerprints:
        cn = dataset.certificate(fingerprint).issuer_cn
        if cn and looks_like_ipv4(cn) and is_private(str_to_ip(cn)):
            count += 1
    return count
