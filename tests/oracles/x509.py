"""Reference twin of the X.509 decode path.

The pull-parser and certificate decoder as they were before the reader
became offset-based and repeated blocks decoded once: one reader object
per TLV, each over its own copy of the TLV's value, and every name,
extensions block, key and OID decoded afresh for each certificate.  It
builds the same data-model objects (:class:`~repro.x509.certificate
.Certificate`, :class:`~repro.x509.name.Name`, …), so a decode through
:meth:`Certificate.from_der` can be compared field by field against
:func:`oracle_from_der`, and accept/reject decisions against it.

Rejections here are whatever the old code raised: :class:`DERError`
for structural faults, but also ``UnicodeDecodeError`` or a plain
``ValueError`` where a string or a time's digits fail to decode.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Iterator

from repro.simtime import datetime_to_day
from repro.x509 import oid as oids
from repro.x509.asn1 import DERError, Tag
from repro.x509.certificate import Certificate
from repro.x509.extensions import (
    AuthorityInfoAccess,
    AuthorityKeyIdentifier,
    BasicConstraints,
    CertificatePolicies,
    CRLDistributionPoints,
    Extensions,
    KeyUsage,
    RawExtension,
    SubjectAltName,
    SubjectKeyIdentifier,
)
from repro.x509.keys import PublicKey
from repro.x509.name import Name
from repro.x509.oid import OID

__all__ = ["DERReader", "oracle_from_der"]


@dataclass(frozen=True)
class TLV:
    """One decoded tag-length-value triple."""

    tag: int
    value: bytes

    @property
    def constructed(self) -> bool:
        return bool(self.tag & 0x20)

    @property
    def is_context(self) -> bool:
        return (self.tag & 0xC0) == 0x80

    @property
    def context_number(self) -> int:
        if not self.is_context:
            raise DERError(f"tag 0x{self.tag:02x} is not context-specific")
        return self.tag & 0x1F


class DERReader:
    """Sequential pull-parser over a DER byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def at_end(self) -> bool:
        """True when all bytes have been consumed."""
        return self._pos >= len(self._data)

    def remaining(self) -> int:
        """Bytes not yet consumed."""
        return len(self._data) - self._pos

    def rest(self) -> bytes:
        """Return (without consuming) all bytes not yet read."""
        return self._data[self._pos:]

    def peek_tag(self) -> int:
        """Tag byte of the next TLV without consuming it."""
        if self.at_end():
            raise DERError("unexpected end of DER data")
        return self._data[self._pos]

    def read_tlv(self) -> TLV:
        """Consume and return the next TLV."""
        tag, end = self._read_header()
        value = self._data[self._pos:end]
        self._pos = end
        return TLV(tag, value)

    def read_raw(self) -> bytes:
        """Consume the next TLV and return its exact encoding."""
        start = self._pos
        _, self._pos = self._read_header()
        return self._data[start:self._pos]

    def _read_header(self) -> tuple[int, int]:
        """Consume the next tag and length; return (tag, end of value)."""
        tag = self.peek_tag()
        self._pos += 1
        length = self._read_length()
        end = self._pos + length
        if end > len(self._data):
            raise DERError("TLV length overruns buffer")
        return tag, end

    def _read_length(self) -> int:
        if self.at_end():
            raise DERError("truncated length")
        first = self._data[self._pos]
        self._pos += 1
        if first < 0x80:
            return first
        count = first & 0x7F
        if count == 0:
            raise DERError("indefinite lengths are not DER")
        if self._pos + count > len(self._data):
            raise DERError("truncated long-form length")
        value = int.from_bytes(self._data[self._pos:self._pos + count], "big")
        self._pos += count
        return value

    def expect(self, tag: int) -> TLV:
        """Consume the next TLV and require a specific tag."""
        tlv = self.read_tlv()
        if tlv.tag != tag:
            raise DERError(f"expected tag 0x{tag:02x}, got 0x{tlv.tag:02x}")
        return tlv

    def read_boolean(self) -> bool:
        tlv = self.expect(Tag.BOOLEAN)
        if len(tlv.value) != 1:
            raise DERError("BOOLEAN must be one byte")
        return tlv.value != b"\x00"

    def read_integer(self) -> int:
        tlv = self.expect(Tag.INTEGER)
        if not tlv.value:
            raise DERError("empty INTEGER")
        return int.from_bytes(tlv.value, "big", signed=True)

    def read_bit_string(self) -> tuple[bytes, int]:
        tlv = self.expect(Tag.BIT_STRING)
        if not tlv.value:
            raise DERError("empty BIT STRING")
        unused = tlv.value[0]
        if unused > 7:
            raise DERError(f"invalid unused-bit count {unused}")
        return tlv.value[1:], unused

    def read_octet_string(self) -> bytes:
        return self.expect(Tag.OCTET_STRING).value

    def read_oid(self) -> OID:
        tlv = self.expect(Tag.OID)
        return decode_oid_body(tlv.value)

    def read_string(self) -> str:
        """Read any of the supported string types."""
        tlv = self.read_tlv()
        if tlv.tag == Tag.UTF8_STRING:
            return tlv.value.decode("utf-8")
        if tlv.tag in (Tag.PRINTABLE_STRING, Tag.IA5_STRING):
            return tlv.value.decode("ascii", errors="replace")
        raise DERError(f"tag 0x{tlv.tag:02x} is not a string type")

    def read_time(self) -> datetime.datetime:
        tlv = self.read_tlv()
        text = tlv.value.decode("ascii", errors="replace")
        if tlv.tag == Tag.UTC_TIME:
            return _parse_utc_time(text)
        if tlv.tag == Tag.GENERALIZED_TIME:
            return _parse_generalized_time(text)
        raise DERError(f"tag 0x{tlv.tag:02x} is not a time type")

    def enter_sequence(self) -> "DERReader":
        """Consume a SEQUENCE and return a reader over its contents."""
        return DERReader(self.expect(Tag.SEQUENCE).value)

    def enter_set(self) -> "DERReader":
        """Consume a SET and return a reader over its contents."""
        return DERReader(self.expect(Tag.SET).value)

    def enter_context(self, number: int) -> "DERReader":
        """Consume an EXPLICIT [number] tag and return its content reader."""
        tlv = self.read_tlv()
        if not tlv.is_context or tlv.context_number != number:
            raise DERError(f"expected context tag [{number}], got 0x{tlv.tag:02x}")
        return DERReader(tlv.value)

    def iter_tlvs(self) -> Iterator[TLV]:
        """Yield every remaining TLV at this nesting level."""
        while not self.at_end():
            yield self.read_tlv()


def decode_oid_body(body: bytes) -> OID:
    """Decode the content octets of an OBJECT IDENTIFIER."""
    if not body:
        raise DERError("empty OID")
    subidentifiers: list[int] = []
    value = 0
    pending = False
    for byte in body:
        value = (value << 7) | (byte & 0x7F)
        pending = True
        if not byte & 0x80:
            subidentifiers.append(value)
            value = 0
            pending = False
    if pending:
        raise DERError("truncated OID arc")
    first = subidentifiers[0]
    if first >= 80:
        arcs = [2, first - 80]
    else:
        arcs = [first // 40, first % 40]
    arcs.extend(subidentifiers[1:])
    return OID(tuple(arcs))


def _parse_utc_time(text: str) -> datetime.datetime:
    if not text.endswith("Z") or len(text) != 13:
        raise DERError(f"malformed UTCTime {text!r}")
    two_digit_year = int(text[:2])
    year = 2000 + two_digit_year if two_digit_year < 50 else 1900 + two_digit_year
    return _build_datetime(year, text[2:12], text)


def _parse_generalized_time(text: str) -> datetime.datetime:
    if not text.endswith("Z") or len(text) != 15:
        raise DERError(f"malformed GeneralizedTime {text!r}")
    return _build_datetime(int(text[:4]), text[4:14], text)


def _build_datetime(year: int, rest: str, original: str) -> datetime.datetime:
    try:
        return datetime.datetime(
            year,
            int(rest[0:2]),
            int(rest[2:4]),
            int(rest[4:6]),
            int(rest[6:8]),
            int(rest[8:10]),
        )
    except ValueError:
        raise DERError(f"invalid time {original!r}") from None


# --- names and extensions ------------------------------------------------------

def _name_from_reader(reader: DERReader) -> Name:
    seq = reader.enter_sequence()
    attributes: list[tuple[OID, str]] = []
    while not seq.at_end():
        rdn = seq.enter_set()
        while not rdn.at_end():
            attribute = rdn.enter_sequence()
            attr_oid = attribute.read_oid()
            value = attribute.read_string()
            attributes.append((attr_oid, value))
    return Name(tuple(attributes))


def _subject_alt_name(data: bytes) -> SubjectAltName:
    reader = DERReader(data).enter_sequence()
    names = []
    for tlv in reader.iter_tlvs():
        names.append(tlv.value.decode("utf-8", errors="replace"))
    return SubjectAltName(tuple(names))


def _authority_key_id(data: bytes) -> AuthorityKeyIdentifier:
    reader = DERReader(data).enter_sequence()
    tlv = reader.read_tlv()
    return AuthorityKeyIdentifier(tlv.value)


def _subject_key_id(data: bytes) -> SubjectKeyIdentifier:
    return SubjectKeyIdentifier(DERReader(data).read_octet_string())


def _crl_distribution_points(data: bytes) -> CRLDistributionPoints:
    outer = DERReader(data).enter_sequence()
    uris = []
    for point in outer.iter_tlvs():
        dp_reader = DERReader(point.value)
        dp_name = dp_reader.read_tlv()
        full_name = DERReader(dp_name.value).read_tlv()
        for general_name in DERReader(full_name.value).iter_tlvs():
            uris.append(general_name.value.decode("ascii", errors="replace"))
    return CRLDistributionPoints(tuple(uris))


def _authority_info_access(data: bytes) -> AuthorityInfoAccess:
    reader = DERReader(data).enter_sequence()
    ocsp: list[str] = []
    ca_issuers: list[str] = []
    while not reader.at_end():
        description = reader.enter_sequence()
        method = description.read_oid()
        location = description.read_tlv().value.decode("ascii", errors="replace")
        if method == oids.AIA_OCSP:
            ocsp.append(location)
        elif method == oids.AIA_CA_ISSUERS:
            ca_issuers.append(location)
    return AuthorityInfoAccess(tuple(ocsp), tuple(ca_issuers))


def _certificate_policies(data: bytes) -> CertificatePolicies:
    reader = DERReader(data).enter_sequence()
    policies = []
    while not reader.at_end():
        info = reader.enter_sequence()
        policies.append(info.read_oid())
    return CertificatePolicies(tuple(policies))


def _basic_constraints(data: bytes) -> BasicConstraints:
    reader = DERReader(data).enter_sequence()
    if reader.at_end():
        return BasicConstraints(ca=False)
    return BasicConstraints(ca=reader.read_boolean())


def _key_usage(data: bytes) -> KeyUsage:
    body, _unused = DERReader(data).read_bit_string()
    bits = body[0] if body else 0
    return KeyUsage(
        digital_signature=bool(bits & 0x80),
        key_cert_sign=bool(bits & 0x04),
    )


_DECODERS = {
    oids.SUBJECT_ALT_NAME: _subject_alt_name,
    oids.AUTHORITY_KEY_ID: _authority_key_id,
    oids.SUBJECT_KEY_ID: _subject_key_id,
    oids.CRL_DISTRIBUTION_POINTS: _crl_distribution_points,
    oids.AUTHORITY_INFO_ACCESS: _authority_info_access,
    oids.CERTIFICATE_POLICIES: _certificate_policies,
    oids.BASIC_CONSTRAINTS: _basic_constraints,
    oids.KEY_USAGE: _key_usage,
}


def _extensions_from_der(data: bytes) -> Extensions:
    reader = DERReader(data).enter_sequence()
    items = []
    while not reader.at_end():
        ext = reader.enter_sequence()
        ext_oid = ext.read_oid()
        if ext.peek_tag() == Tag.BOOLEAN:  # optional critical flag
            ext.read_boolean()
        value = ext.read_octet_string()
        decoder = _DECODERS.get(ext_oid)
        if decoder is None:
            items.append(RawExtension(ext_oid, value))
        else:
            items.append(decoder(value))
    return Extensions(tuple(items))


# --- certificates ----------------------------------------------------------------

def oracle_from_der(data: bytes) -> Certificate:
    """Parse a DER-encoded certificate the way the pre-offset decoder did."""
    reader = DERReader(data)
    outer = reader.enter_sequence()
    der = data[:len(data) - reader.remaining()]
    signed = outer.read_raw()
    tbs = DERReader(signed).enter_sequence()

    version = 1
    if not tbs.at_end() and tbs.peek_tag() == Tag.context(0):
        version_reader = tbs.enter_context(0)
        version = version_reader.read_integer() + 1
    serial = tbs.read_integer()
    tbs.enter_sequence()  # single-algorithm PKI
    issuer = _name_from_reader(tbs)
    validity = tbs.enter_sequence()
    nb_time = validity.read_time()
    na_time = validity.read_time()
    not_before = datetime_to_day(nb_time)
    not_after = datetime_to_day(na_time)
    not_before_secs = nb_time.hour * 3600 + nb_time.minute * 60 + nb_time.second
    not_after_secs = na_time.hour * 3600 + na_time.minute * 60 + na_time.second
    subject = _name_from_reader(tbs)

    spki = tbs.enter_sequence()
    spki.enter_sequence()  # AlgorithmIdentifier (rsaEncryption)
    key_bits, _unused = spki.read_bit_string()
    key_reader = DERReader(key_bits).enter_sequence()
    public_key = PublicKey(key_reader.read_integer(), key_reader.read_integer())

    extensions = Extensions()
    if not tbs.at_end() and tbs.peek_tag() == Tag.context(3):
        ext_reader = tbs.enter_context(3)
        extensions = _extensions_from_der(ext_reader.rest())

    outer.enter_sequence()  # outer signatureAlgorithm
    signature_bytes, _unused = outer.read_bit_string()
    signature = int.from_bytes(signature_bytes, "big")

    certificate = Certificate(
        version=version,
        serial=serial,
        issuer=issuer,
        subject=subject,
        not_before=not_before,
        not_after=not_after,
        public_key=public_key,
        extensions=extensions,
        signature=signature,
        not_before_secs=not_before_secs,
        not_after_secs=not_after_secs,
    )
    certificate._der_cache["der"] = der
    certificate._der_cache["tbs"] = signed
    return certificate
