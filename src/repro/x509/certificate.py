"""The X.509 certificate data model.

:class:`Certificate` is the immutable record the entire library revolves
around: the scanner collects them, the validation pipeline classifies them,
and the linking methodology mines their fields.  Certificates DER-encode
to the real X.509 wire structure (``SEQUENCE { tbsCertificate,
signatureAlgorithm, signatureValue }``) and parse back exactly; identity is
the SHA-256 fingerprint over the DER bytes, just as scan datasets key
certificates in practice.  A parsed certificate keeps the exact bytes it
was parsed from, and a signed one the exact to-be-signed bytes it signed:
signature checks and fingerprints read those bytes, never a re-encoding
of the parsed fields.  Parsed certificates share the blocks a corpus
repeats: equal issuer names, extension blocks and keys decode once into
one immutable object.

Validity bounds are simulated day indices (see :mod:`repro.simtime`).
Both of the paper's pathologies are representable: Not After before
Not Before (negative validity periods, 5.38 % of invalid certificates) and
Not After in the year 3000+ (validity periods beyond a million days).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from ..simtime import day_to_datetime, datetime_to_day
from .asn1 import (
    DECODE_MEMO,
    DERReader,
    Tag,
    encode_bit_string,
    encode_explicit,
    encode_integer,
    encode_null,
    encode_oid,
    encode_sequence,
)
from .extensions import Extensions
from .keys import PrivateKey, PublicKey
from .name import Name
from .oid import OID, RSA_ENCRYPTION, SIG_SHA256_RSA

__all__ = ["Certificate", "tbs_der"]


def _algorithm_identifier(algorithm: OID) -> bytes:
    return encode_sequence(encode_oid(algorithm), encode_null())


def _subject_public_key_info(key: PublicKey) -> bytes:
    rsa_key = encode_sequence(encode_integer(key.n), encode_integer(key.e))
    return encode_sequence(_algorithm_identifier(RSA_ENCRYPTION), encode_bit_string(rsa_key))


@lru_cache(maxsize=DECODE_MEMO)
def _decode_key(key_bits: bytes) -> PublicKey:
    """The RSA key a SubjectPublicKeyInfo's BIT STRING holds, memoized on
    its exact bytes (devices share keys, §5)."""
    key_reader = DERReader(key_bits).enter_sequence()
    return PublicKey(key_reader.read_integer(), key_reader.read_integer())


def _time_with_seconds(day: int, seconds: int):
    import datetime

    if not 0 <= seconds < 86400:
        raise ValueError(f"seconds-in-day out of range: {seconds}")
    return day_to_datetime(day) + datetime.timedelta(seconds=seconds)


def tbs_der(
    version: int,
    serial: int,
    issuer: Name,
    subject: Name,
    not_before: int,
    not_after: int,
    public_key: PublicKey,
    extensions: Extensions,
    not_before_secs: int = 0,
    not_after_secs: int = 0,
) -> bytes:
    """Encode the to-be-signed portion; this is what gets signed."""
    from .asn1 import encode_time

    members = []
    if version == 3:
        members.append(encode_explicit(0, encode_integer(2)))
    elif version != 1:
        # Broken firmware emits nonsense version numbers (the paper found
        # 89,667 certificates claiming versions 2, 4, even 13 — footnote 5
        # disregards them).  They must round-trip so the validation layer
        # can classify them; only version 1 omits the [0] tag.
        members.append(encode_explicit(0, encode_integer(version - 1)))
    members.append(encode_integer(serial))
    members.append(_algorithm_identifier(SIG_SHA256_RSA))
    members.append(issuer.to_der())
    members.append(
        encode_sequence(
            encode_time(_time_with_seconds(not_before, not_before_secs)),
            encode_time(_time_with_seconds(not_after, not_after_secs)),
        )
    )
    members.append(subject.to_der())
    members.append(_subject_public_key_info(public_key))
    if version != 1 and extensions:
        members.append(encode_explicit(3, extensions.to_der()))
    return encode_sequence(*members)


@dataclass(frozen=True)
class Certificate:
    """One parsed (or freshly built) X.509 certificate."""

    version: int
    serial: int
    issuer: Name
    subject: Name
    #: Validity bounds as day indices; day arithmetic drives all analyses.
    not_before: int
    not_after: int
    public_key: PublicKey
    extensions: Extensions
    signature: int
    #: Sub-day components of the validity timestamps (real X.509 times have
    #: second resolution; the Not Before linking analysis depends on it).
    not_before_secs: int = 0
    not_after_secs: int = 0

    # Encodings (the exact bytes from parsing or signing, else built on
    # first use), the fingerprint and the self-signature verdict.
    # Excluded from equality/hash.
    _der_cache: dict = field(
        default_factory=dict, compare=False, repr=False, hash=False
    )

    # --- encodings ----------------------------------------------------------

    def tbs_der(self) -> bytes:
        """The to-be-signed bytes (signature input).

        The exact TBS slice of the parsed DER (cut from it on each call,
        so a parsed certificate holds its bytes once), or the body
        :meth:`sign` signed; encoded from the fields only for a
        certificate built neither way.
        """
        span = self._der_cache.get("tbs_span")
        if span is not None:
            return self._der_cache["der"][span[0]:span[1]]
        cached = self._der_cache.get("tbs")
        if cached is None:
            cached = tbs_der(
                self.version,
                self.serial,
                self.issuer,
                self.subject,
                self.not_before,
                self.not_after,
                self.public_key,
                self.extensions,
                self.not_before_secs,
                self.not_after_secs,
            )
            self._der_cache["tbs"] = cached
        return cached

    def to_der(self) -> bytes:
        """The full certificate encoding."""
        cached = self._der_cache.get("der")
        if cached is None:
            signature_bytes = self.signature.to_bytes(
                (self.signature.bit_length() + 7) // 8 or 1, "big"
            )
            cached = encode_sequence(
                self.tbs_der(),
                _algorithm_identifier(SIG_SHA256_RSA),
                encode_bit_string(signature_bytes),
            )
            self._der_cache["der"] = cached
        return cached

    @property
    def fingerprint(self) -> bytes:
        """SHA-256 over the DER encoding; the certificate's identity."""
        cached = self._der_cache.get("fp")
        if cached is None:
            cached = hashlib.sha256(self.to_der()).digest()
            self._der_cache["fp"] = cached
        return cached

    @property
    def fingerprint_hex(self) -> str:
        """Hex form of :attr:`fingerprint` for display and dict keys."""
        return self.fingerprint.hex()

    # --- semantic accessors ---------------------------------------------------

    @property
    def validity_period_days(self) -> int:
        """Not After − Not Before in days; negative for inverted validity."""
        return self.not_after - self.not_before

    @property
    def not_before_stamp(self) -> tuple[int, int]:
        """Full-resolution Not Before: (day, seconds-in-day)."""
        return (self.not_before, self.not_before_secs)

    @property
    def not_after_stamp(self) -> tuple[int, int]:
        """Full-resolution Not After: (day, seconds-in-day)."""
        return (self.not_after, self.not_after_secs)

    @property
    def subject_cn(self) -> Optional[str]:
        """The subject Common Name, or None."""
        return self.subject.cn

    @property
    def issuer_cn(self) -> Optional[str]:
        """The issuer Common Name, or None."""
        return self.issuer.cn

    @property
    def is_ca(self) -> bool:
        """True when basicConstraints marks this as a CA certificate.

        Version 1 certificates cannot distinguish leaf from CA — the reason
        the paper notes they are deprecated; we report False for them.
        """
        return self.version == 3 and self.extensions.is_ca

    def self_issued(self) -> bool:
        """True when subject and issuer names match (openssl's error-19 cue)."""
        return self.subject == self.issuer

    def verify_signature(self, signer_key: PublicKey) -> bool:
        """Check the signature against a candidate issuer public key."""
        return signer_key.verify(self.tbs_der(), self.signature)

    def is_self_signed(self) -> bool:
        """True when the certificate verifies under its *own* key.

        The paper's footnote 7 does exactly this second check because
        openssl reports error 19 only when subject and issuer match — a
        certificate can be self-signed with mismatched names.  Checked
        once per certificate object: chain validation and the feature
        matrix's self-signed column both ask.
        """
        cached = self._der_cache.get("self_signed")
        if cached is None:
            cached = self._der_cache["self_signed"] = \
                self.verify_signature(self.public_key)
        return cached

    def valid_on(self, day: int) -> bool:
        """Is ``day`` inside the validity window?"""
        return self.not_before <= day <= self.not_after

    @classmethod
    def sign(
        cls,
        version: int,
        serial: int,
        issuer: Name,
        subject: Name,
        not_before: int,
        not_after: int,
        public_key: PublicKey,
        extensions: Extensions,
        signing_key: PrivateKey,
        not_before_secs: int = 0,
        not_after_secs: int = 0,
    ) -> "Certificate":
        """Build and sign a certificate with an issuer private key."""
        body = tbs_der(
            version, serial, issuer, subject, not_before, not_after,
            public_key, extensions, not_before_secs, not_after_secs,
        )
        certificate = cls(
            version=version,
            serial=serial,
            issuer=issuer,
            subject=subject,
            not_before=not_before,
            not_after=not_after,
            public_key=public_key,
            extensions=extensions,
            signature=signing_key.sign(body),
            not_before_secs=not_before_secs,
            not_after_secs=not_after_secs,
        )
        certificate._der_cache["tbs"] = body
        return certificate

    # --- parsing ---------------------------------------------------------------

    @classmethod
    def from_der(cls, data: bytes) -> "Certificate":
        """Parse a DER-encoded certificate (inverse of :meth:`to_der`).

        The certificate keeps the DER it was parsed from and the bounds
        of its TBS inside it, so :meth:`to_der`, :attr:`fingerprint` and
        :meth:`verify_signature` read the bytes that were signed.  One
        offset reader walks ``data``; names, the extensions block and the
        key come from decode memos keyed on their exact bytes, so a block
        many certificates repeat decodes once.  Any rejection is a
        :class:`~repro.x509.asn1.DERError`.
        """
        if type(data) is not bytes:
            data = bytes(data)  # the decode memos key on hashable bytes
        reader = DERReader(data)
        outer = reader.enter_sequence()
        end = len(data) - reader.remaining()
        der = data if end == len(data) else data[:end]
        tbs_start = outer.offset
        tbs = outer.enter_sequence()
        tbs_span = (tbs_start, outer.offset)

        version = 1
        if not tbs.at_end() and tbs.peek_tag() == Tag.context(0):
            version_reader = tbs.enter_context(0)
            version = version_reader.read_integer() + 1
        serial = tbs.read_integer()
        tbs.enter_sequence()  # signature AlgorithmIdentifier: single-algorithm PKI
        issuer = Name.from_der_reader(tbs)
        validity = tbs.enter_sequence()
        nb_time = validity.read_time()
        na_time = validity.read_time()
        subject = Name.from_der_reader(tbs)

        spki = tbs.enter_sequence()
        spki.enter_sequence()  # AlgorithmIdentifier (rsaEncryption)
        key_bits, _unused = spki.read_bit_string()
        public_key = _decode_key(key_bits)

        extensions = Extensions()
        if not tbs.at_end() and tbs.peek_tag() == Tag.context(3):
            extensions = Extensions.from_der(tbs.enter_context(3).rest())

        outer.enter_sequence()  # outer signatureAlgorithm
        signature_bytes, _unused = outer.read_bit_string()

        certificate = cls(
            version=version,
            serial=serial,
            issuer=issuer,
            subject=subject,
            not_before=datetime_to_day(nb_time),
            not_after=datetime_to_day(na_time),
            public_key=public_key,
            extensions=extensions,
            signature=int.from_bytes(signature_bytes, "big"),
            not_before_secs=(
                nb_time.hour * 3600 + nb_time.minute * 60 + nb_time.second
            ),
            not_after_secs=(
                na_time.hour * 3600 + na_time.minute * 60 + na_time.second
            ),
        )
        certificate._der_cache["der"] = der
        certificate._der_cache["tbs_span"] = tbs_span
        return certificate

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (
            f"<Certificate v{self.version} subject={self.subject.rfc4514()!r} "
            f"issuer={self.issuer.rfc4514()!r} fp={self.fingerprint_hex[:12]}>"
        )
