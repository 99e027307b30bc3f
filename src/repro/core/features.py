"""§6.3.1 — Linkable certificate features.

Extracts the ten candidate linking features of Tables 5 and 6 from a
certificate and measures their non-uniqueness across a corpus.  Feature
values are opaque hashables; ``None`` means the certificate does not carry
the feature (the paper found >99 % of invalid certificates lack CRL, AIA,
OCSP, and policy OIDs).

Two extraction modes exist:

* :func:`extract` — the raw value, used for the Table 5 census;
* :func:`linkable_value` — the value as the linking pipeline consumes it,
  which additionally drops Common Names that are IPv4 addresses (§6.4.1:
  46.9 % of invalid Common Names are IP literals and linking on them would
  be circular when IP-level consistency is the evaluation metric).

The corpus-wide measurements (:func:`non_uniqueness_census`,
:func:`absence_rates`) read the dataset's cached
:class:`~repro.core.kernels.FeatureMatrix` — one interned value-id column
per feature — instead of re-extracting every certificate per feature.
"""

from __future__ import annotations

import enum
from typing import Hashable, Iterable, Optional

from ..net.ip import looks_like_ipv4
from ..scanner.dataset import ScanDataset
from ..x509.certificate import Certificate

__all__ = [
    "Feature",
    "extract",
    "linkable_value",
    "non_uniqueness_census",
    "absence_rates",
]


class Feature(enum.Enum):
    """The candidate linking fields of Tables 5 and 6."""

    NOT_BEFORE = "Not Before"
    COMMON_NAME = "Common Name"
    NOT_AFTER = "Not After"
    PUBLIC_KEY = "Public Key"
    SAN_LIST = "SAN"
    ISSUER_SERIAL = "IN + SN"
    CRL = "CRL"
    AIA = "AIA"
    OCSP = "OCSP"
    OID = "OID"


def extract(cert: Certificate, feature: Feature) -> Optional[Hashable]:
    """Raw feature value, or None when the certificate lacks it."""
    if feature is Feature.NOT_BEFORE:
        return cert.not_before_stamp
    if feature is Feature.NOT_AFTER:
        return cert.not_after_stamp
    if feature is Feature.COMMON_NAME:
        return cert.subject_cn
    if feature is Feature.PUBLIC_KEY:
        return cert.public_key
    if feature is Feature.SAN_LIST:
        names = cert.extensions.subject_alt_names
        return names if names else None
    if feature is Feature.ISSUER_SERIAL:
        return (cert.issuer, cert.serial)
    if feature is Feature.CRL:
        uris = cert.extensions.crl_uris
        return uris if uris else None
    if feature is Feature.AIA:
        uris = cert.extensions.ca_issuer_uris
        return uris if uris else None
    if feature is Feature.OCSP:
        uris = cert.extensions.ocsp_uris
        return uris if uris else None
    if feature is Feature.OID:
        oids = cert.extensions.policy_oids
        return oids if oids else None
    raise AssertionError(f"unhandled feature {feature}")


def dropped_for_linking(feature: Feature, value: Hashable) -> bool:
    """§6.4.1: IPv4-literal Common Names are not linkable.

    The single source of truth shared by :func:`linkable_value` and the
    :class:`~repro.core.kernels.FeatureMatrix` build.
    """
    return (
        feature is Feature.COMMON_NAME
        and isinstance(value, str)
        and looks_like_ipv4(value)
    )


def linkable_value(cert: Certificate, feature: Feature) -> Optional[Hashable]:
    """Feature value as the linking pipeline uses it.

    Identical to :func:`extract` except that IPv4-literal Common Names are
    dropped (§6.4.1).
    """
    value = extract(cert, feature)
    if dropped_for_linking(feature, value):
        return None
    return value


def non_uniqueness_census(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> dict[Feature, float]:
    """Table 5: per feature, the fraction of carrying certificates whose
    value is shared with at least one other certificate."""
    fingerprints = list(fingerprints)
    matrix = dataset.feature_matrix
    rows = [matrix.rows[fingerprint] for fingerprint in fingerprints]
    result: dict[Feature, float] = {}
    for feature in Feature:
        column = matrix.raw_ids[feature]
        counts: dict[int, int] = {}
        carriers = 0
        for row in rows:
            value_id = column[row]
            if value_id < 0:
                continue
            carriers += 1
            counts[value_id] = counts.get(value_id, 0) + 1
        if carriers == 0:
            result[feature] = 0.0
            continue
        shared = sum(count for count in counts.values() if count > 1)
        result[feature] = shared / carriers
    return result


def absence_rates(
    dataset: ScanDataset, fingerprints: Iterable[bytes]
) -> dict[Feature, float]:
    """Fraction of certificates lacking each feature entirely.

    The paper: 99.2 % of invalid certificates have no CRL, 99.3 % no AIA
    location, 99.9 % no OCSP responder, 99.9 % no policy OID.
    """
    fingerprints = list(fingerprints)
    matrix = dataset.feature_matrix
    rows = [matrix.rows[fingerprint] for fingerprint in fingerprints]
    total = len(rows)
    result: dict[Feature, float] = {}
    for feature in Feature:
        column = matrix.raw_ids[feature]
        missing = sum(1 for row in rows if column[row] < 0)
        result[feature] = missing / total if total else 0.0
    return result
