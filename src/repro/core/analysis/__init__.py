"""§4–§5 analyses: scan discrepancies, longevity, keys, issuers, hosts."""

from .hosts import (
    ASDiversity,
    IPDiversity,
    as_diversity,
    as_type_breakdown,
    classify_issuer_device_type,
    device_type_breakdown,
    ip_diversity,
    top_hosting_ases,
)
from .issuers import (
    KeyConcentration,
    issuer_labels,
    private_ip_issuer_count,
    self_signed_fraction,
    signing_key_concentration,
    top_issuers,
)
from .keys import KeySharingReport, key_sharing
from .longevity import (
    LifetimeSummary,
    ReissueGap,
    ephemeral_fingerprints,
    lifetime_spans,
    lifetimes,
    reissue_gap,
    validity_days,
    validity_periods,
)
from .scans import (
    BlacklistAttribution,
    ScanCount,
    SlashEightDiscrepancy,
    blacklist_attribution,
    invalid_fraction_summary,
    per_scan_counts,
    scan_discrepancy,
)

__all__ = [
    "ASDiversity",
    "IPDiversity",
    "as_diversity",
    "as_type_breakdown",
    "classify_issuer_device_type",
    "device_type_breakdown",
    "ip_diversity",
    "top_hosting_ases",
    "KeyConcentration",
    "issuer_labels",
    "private_ip_issuer_count",
    "self_signed_fraction",
    "signing_key_concentration",
    "top_issuers",
    "KeySharingReport",
    "key_sharing",
    "LifetimeSummary",
    "ReissueGap",
    "ephemeral_fingerprints",
    "lifetime_spans",
    "lifetimes",
    "reissue_gap",
    "validity_days",
    "validity_periods",
    "BlacklistAttribution",
    "ScanCount",
    "SlashEightDiscrepancy",
    "blacklist_attribution",
    "invalid_fraction_summary",
    "per_scan_counts",
    "scan_discrepancy",
]
