"""§4.2 — Isolating invalid certificates.

The equivalent of the paper's ``openssl verify`` pass: every certificate in
the corpus is classified against the trust store, with all intermediates
pre-registered so transvalid chains still validate, and expiry ignored.
Certificates with unsupported version numbers are disregarded, mirroring
the paper's removal of the 89,667 version-2/4/13 certificates.

The output :class:`ValidationReport` is the working set every later
analysis consumes: the invalid and valid fingerprint sets plus the
invalid-reason breakdown (§4.2: 88.0 % self-signed, 11.99 % untrusted
issuer, 0.01 % other).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..obs import runtime as obs
from ..scanner.dataset import ScanDataset
from ..x509.certificate import Certificate
from ..x509.chain import ChainVerifier, VerifyResult, VerifyStatus
from ..x509.truststore import TrustStore

__all__ = ["ValidationReport", "validate_dataset"]


@dataclass
class ValidationReport:
    """Classification of every certificate in a scan corpus.

    ``results`` is a dict when the verdicts were just computed; a report
    loaded from the artifact cache holds a read-only mapping that builds
    each verdict when it is first read (:mod:`repro.io.artifacts`).
    """

    results: Mapping[bytes, VerifyResult]
    valid: set[bytes] = field(default_factory=set)
    invalid: set[bytes] = field(default_factory=set)
    disregarded: set[bytes] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.valid and not self.invalid:
            for fingerprint, result in self.results.items():
                if result.status is VerifyStatus.MALFORMED:
                    self.disregarded.add(fingerprint)
                elif result.is_valid:
                    self.valid.add(fingerprint)
                else:
                    self.invalid.add(fingerprint)

    @property
    def considered(self) -> int:
        """Certificates kept for analysis (valid + invalid)."""
        return len(self.valid) + len(self.invalid)

    @property
    def invalid_fraction(self) -> float:
        """Invalid share of the considered corpus (paper: 87.9 %)."""
        return len(self.invalid) / self.considered

    def is_invalid(self, fingerprint: bytes) -> bool:
        return fingerprint in self.invalid

    def reason_breakdown(self) -> dict[VerifyStatus, float]:
        """Fractions of invalid certificates per failure class."""
        counts: dict[VerifyStatus, int] = {}
        for fingerprint in self.invalid:
            status = self.results[fingerprint].status
            counts[status] = counts.get(status, 0) + 1
        total = len(self.invalid)
        return {status: count / total for status, count in counts.items()}

    def status_of(self, fingerprint: bytes) -> VerifyStatus:
        return self.results[fingerprint].status


def validate_dataset(
    dataset: ScanDataset,
    trust_store: TrustStore,
    extra_intermediates: Iterable[Certificate] = (),
) -> ValidationReport:
    """Run the full §4.2 isolation over a scan corpus.

    All CA certificates observed anywhere in the corpus become chain
    candidates before any leaf is judged — the paper's transvalid handling.
    """
    certificates = list(dataset.certificates.values())
    verifier = ChainVerifier(trust_store, extra_intermediates)
    for certificate in certificates:
        verifier.add_intermediate(certificate)
    results = verifier.verify_all(certificates)
    report = ValidationReport(results=results)
    obs.inc("validation.certs_valid", len(report.valid))
    obs.inc("validation.certs_invalid", len(report.invalid))
    obs.inc("validation.certs_disregarded", len(report.disregarded))
    return report
