"""Certificate-chain construction and verification.

This is the library's ``openssl verify`` equivalent (paper §4.2):

* expiry is deliberately **ignored** — a certificate counts as valid if it
  would verify at *some* point in time, because the scans and the
  validation run happened at different times;
* chains are built from the full pool of CA certificates observed across
  *all* scans, not just what a server presented, so "transvalid"
  certificates (correct certificate, wrong served chain) still validate;
* self-signedness is detected the way the paper's footnote 7 describes:
  openssl's error 19 fires only when subject and issuer names match, so a
  second check verifies the signature under the certificate's own key.

The verdict taxonomy mirrors the paper's §4.2 percentages: 88.0 % of
invalid certificates are self-signed, 11.99 % are signed by another
untrusted certificate, and 0.01 % fail for other reasons (signature
errors, parse errors).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence

from .certificate import Certificate
from .truststore import TrustStore

__all__ = ["VerifyStatus", "VerifyResult", "ChainVerifier"]

_MAX_CHAIN_DEPTH = 8

#: Memo sentinel distinct from a legitimately memoized ``None`` (no chain).
_MEMO_MISSING = object()


class VerifyStatus(enum.Enum):
    """Outcome classes of chain verification."""

    VALID = "valid"
    #: Chain root is the leaf itself (openssl error 19 and footnote-7 cases).
    SELF_SIGNED = "self-signed"
    #: Chain terminates at a certificate that is not in the trust store.
    UNTRUSTED_ISSUER = "untrusted-issuer"
    #: An issuer candidate exists but the signature does not verify.
    BAD_SIGNATURE = "bad-signature"
    #: Structurally unusable (e.g. unsupported version).
    MALFORMED = "malformed"

    @property
    def is_valid(self) -> bool:
        return self is VerifyStatus.VALID


@dataclass(frozen=True)
class VerifyResult:
    """Verdict for one certificate."""

    status: VerifyStatus
    #: The trust chain leaf→root when status is VALID.
    chain: tuple[Certificate, ...] = ()
    detail: str = ""

    @property
    def is_valid(self) -> bool:
        return self.status.is_valid


class ChainVerifier:
    """Builds and verifies chains against a trust store.

    ``intermediate_pool`` should contain every CA certificate observed in
    the dataset (the paper pre-validates all intermediates before leaves,
    enabling transvalid chains).
    """

    def __init__(
        self,
        trust_store: TrustStore,
        intermediate_pool: Iterable[Certificate] = (),
        memoize: bool = True,
    ) -> None:
        self._store = trust_store
        self._intermediates_by_subject: dict = {}
        self._memoize = memoize
        #: CA fingerprint → its canonical upper chain (None = provably no
        #: chain from any starting path).  See :meth:`_ca_chain`.
        self._chain_memo: dict[bytes, Optional[list[Certificate]]] = {}
        for cert in intermediate_pool:
            self.add_intermediate(cert)

    def add_intermediate(self, cert: Certificate) -> None:
        """Add a candidate intermediate; non-CA certificates are ignored."""
        if not cert.is_ca:
            return
        if self._chain_memo:
            # A new intermediate can both create chains and change which
            # chain the DFS finds first; all memoized answers are stale.
            self._chain_memo.clear()
        self._intermediates_by_subject.setdefault(cert.subject, []).append(cert)

    def verify(self, cert: Certificate) -> VerifyResult:
        """Classify one certificate.  Expiry is never checked."""
        if cert.version not in (1, 3):
            return VerifyResult(
                VerifyStatus.MALFORMED, detail=f"unsupported version {cert.version}"
            )

        # A leaf that *is* a trusted root is trivially valid.
        if cert in self._store:
            return VerifyResult(VerifyStatus.VALID, chain=(cert,))

        chain = self._find_chain(cert)
        if chain is not None:
            return VerifyResult(VerifyStatus.VALID, chain=tuple(chain))

        # Not validatable: classify the failure the way §4.2 does.
        if cert.is_self_signed():
            detail = (
                "self-signed (subject==issuer)"
                if cert.self_issued()
                else "self-signed (verified under own key, names differ)"
            )
            return VerifyResult(VerifyStatus.SELF_SIGNED, detail=detail)

        issuer_candidates = self._issuer_candidates(cert)
        if issuer_candidates and not any(
            cert.verify_signature(candidate.public_key)
            for candidate in issuer_candidates
        ):
            return VerifyResult(
                VerifyStatus.BAD_SIGNATURE,
                detail="issuer name matched but no candidate key verifies",
            )
        return VerifyResult(
            VerifyStatus.UNTRUSTED_ISSUER,
            detail="no path to a trusted root",
        )

    # --- chain building ---------------------------------------------------------

    def _issuer_candidates(self, cert: Certificate) -> list[Certificate]:
        candidates = list(self._store.roots_named(cert.issuer))
        candidates.extend(self._intermediates_by_subject.get(cert.issuer, ()))
        return candidates

    def _build_chain(
        self, cert: Certificate, depth: int = 0, seen: Optional[set] = None
    ) -> Optional[list[Certificate]]:
        """Depth-first search for a leaf→root path; None if none exists."""
        if depth > _MAX_CHAIN_DEPTH:
            return None
        if seen is None:
            seen = set()
        if cert.fingerprint in seen:
            return None
        seen = seen | {cert.fingerprint}

        # Terminate at a trusted root signature.
        trusted_issuer = self._store.find_issuer(cert)
        if trusted_issuer is not None:
            return [cert, trusted_issuer]

        for candidate in self._intermediates_by_subject.get(cert.issuer, ()):
            if candidate.fingerprint == cert.fingerprint:
                continue
            if not cert.verify_signature(candidate.public_key):
                continue
            upper = self._build_chain(candidate, depth + 1, seen)
            if upper is not None:
                return [cert, *upper]
        return None

    # --- memoized chain building -------------------------------------------------

    def _find_chain(self, cert: Certificate) -> Optional[list[Certificate]]:
        """:meth:`_build_chain`, answered from the per-CA chain memo.

        §4.2 validates every leaf against the same CA pool, so the upper
        (CA → root) portion of every chain is shared across leaves; the
        memo computes it once per CA.  Memoized answers are used only
        when provably independent of the current search path and depth
        budget — any path-entangled answer falls back to the exact naive
        DFS — so the result is identical to :meth:`_build_chain` in every
        case (the parity tests re-verify with ``memoize=False`` and assert
        equality).
        """
        if not self._memoize:
            return self._build_chain(cert)
        trusted_issuer = self._store.find_issuer(cert)
        if trusted_issuer is not None:
            return [cert, trusted_issuer]
        fingerprint = cert.fingerprint
        for candidate in self._intermediates_by_subject.get(cert.issuer, ()):
            if candidate.fingerprint == fingerprint:
                continue
            if not cert.verify_signature(candidate.public_key):
                continue
            upper, clean = self._ca_chain(candidate, frozenset((fingerprint,)))
            if upper is not None:
                return [cert, *upper]
            if not clean:
                return self._build_chain(cert)
        return None

    def _ca_chain(
        self, ca: Certificate, path: FrozenSet[bytes]
    ) -> tuple[Optional[list[Certificate]], bool]:
        """The chain from one CA upward, memoized; returns ``(chain, clean)``.

        ``path`` holds the fingerprints already on the search path below
        ``ca`` (``len(path)`` equals the naive DFS depth of ``ca``).  A
        ``clean`` failure means the answer holds for *any* path and
        depth — only those are memoized or allowed to let the search
        continue; a dirty failure (cycle hit, depth budget, or a memo
        whose chain conflicts with this path) makes the caller fall back
        to the exact DFS rather than guess.  The last chain element is a
        trusted root and is exempt from path checks, exactly as the
        naive DFS never checks its terminating root against ``seen``.
        """
        fingerprint = ca.fingerprint
        budget = _MAX_CHAIN_DEPTH + 2 - len(path)
        memo = self._chain_memo.get(fingerprint, _MEMO_MISSING)
        if memo is not _MEMO_MISSING:
            if memo is None:
                return None, True
            if len(memo) <= budget and all(
                link.fingerprint not in path for link in memo[:-1]
            ):
                return memo, True
            return None, False
        if fingerprint in path or len(path) > _MAX_CHAIN_DEPTH:
            return None, False
        trusted_issuer = self._store.find_issuer(ca)
        if trusted_issuer is not None:
            chain = [ca, trusted_issuer]
            self._chain_memo[fingerprint] = chain
            return chain, True
        sub_path = path | {fingerprint}
        for candidate in self._intermediates_by_subject.get(ca.issuer, ()):
            if candidate.fingerprint == fingerprint:
                continue
            if not ca.verify_signature(candidate.public_key):
                continue
            upper, clean = self._ca_chain(candidate, sub_path)
            if upper is not None:
                chain = [ca, *upper]
                self._chain_memo[fingerprint] = chain
                return chain, True
            if not clean:
                return None, False
        self._chain_memo[fingerprint] = None
        return None, True

    def verify_all(
        self, certs: Sequence[Certificate]
    ) -> dict[bytes, VerifyResult]:
        """Verify a batch, keyed by certificate fingerprint."""
        return {cert.fingerprint: self.verify(cert) for cert in certs}
