"""X.509 v3 extensions.

Implements the extensions the paper's linking methodology examines
(§6.3.1): Subject Alternative Name, Authority/Subject Key Identifier,
CRL Distribution Points, Authority Information Access (carrying both OCSP
responders and caIssuers locations), Certificate Policies (the "OID"
feature in Table 5/6), plus Basic Constraints and Key Usage which chain
validation needs.

Each typed extension knows how to encode its ``extnValue`` body and decode
itself back; :class:`Extensions` is the ordered collection stored on a
certificate, keeping unknown extensions as raw bytes so they round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Union

from . import oid as oids
from .asn1 import (
    DECODE_MEMO,
    DERReader,
    Tag,
    encode_boolean,
    encode_octet_string,
    encode_oid,
    encode_sequence,
    encode_tlv,
)
from .oid import OID

__all__ = [
    "SubjectAltName",
    "AuthorityKeyIdentifier",
    "SubjectKeyIdentifier",
    "CRLDistributionPoints",
    "AuthorityInfoAccess",
    "CertificatePolicies",
    "BasicConstraints",
    "KeyUsage",
    "RawExtension",
    "Extensions",
]

_GENERAL_NAME_DNS = 2       # [2] IA5String
_GENERAL_NAME_URI = 6       # [6] IA5String
_GENERAL_NAME_IP = 7        # [7] OCTET STRING


@dataclass(frozen=True)
class SubjectAltName:
    """subjectAltName: a list of DNS names (we model IPs as strings too)."""

    names: tuple[str, ...]

    oid = oids.SUBJECT_ALT_NAME

    def encode_value(self) -> bytes:
        # Spec says IA5String (ASCII); real invalid certificates carry junk,
        # so we encode UTF-8 to keep every simulated name round-trippable.
        members = [
            encode_tlv(0x80 | _GENERAL_NAME_DNS, name.encode("utf-8"))
            for name in self.names
        ]
        return encode_sequence(*members)

    @classmethod
    def decode_value(cls, data: bytes) -> "SubjectAltName":
        reader = DERReader(data).enter_sequence()
        names = []
        for tlv in reader.iter_tlvs():
            names.append(tlv.value.decode("utf-8", errors="replace"))
        return cls(tuple(names))


@dataclass(frozen=True)
class AuthorityKeyIdentifier:
    """authorityKeyIdentifier: the issuer key's identifier bytes."""

    key_id: bytes

    oid = oids.AUTHORITY_KEY_ID

    def encode_value(self) -> bytes:
        # keyIdentifier [0] IMPLICIT OCTET STRING
        return encode_sequence(encode_tlv(0x80, self.key_id))

    @classmethod
    def decode_value(cls, data: bytes) -> "AuthorityKeyIdentifier":
        reader = DERReader(data).enter_sequence()
        tlv = reader.read_tlv()
        return cls(tlv.value)


@dataclass(frozen=True)
class SubjectKeyIdentifier:
    """subjectKeyIdentifier: this certificate's own key identifier."""

    key_id: bytes

    oid = oids.SUBJECT_KEY_ID

    def encode_value(self) -> bytes:
        return encode_octet_string(self.key_id)

    @classmethod
    def decode_value(cls, data: bytes) -> "SubjectKeyIdentifier":
        return cls(DERReader(data).read_octet_string())


@dataclass(frozen=True)
class CRLDistributionPoints:
    """cRLDistributionPoints: URIs where the CRL is published."""

    uris: tuple[str, ...]

    oid = oids.CRL_DISTRIBUTION_POINTS

    def encode_value(self) -> bytes:
        points = []
        for uri in self.uris:
            general_name = encode_tlv(
                0x80 | _GENERAL_NAME_URI, uri.encode("ascii", "replace")
            )
            # DistributionPoint ::= SEQUENCE { distributionPoint [0] { fullName [0] GeneralNames } }
            full_name = encode_tlv(0xA0, general_name)
            dp_name = encode_tlv(0xA0, full_name)
            points.append(encode_sequence(dp_name))
        return encode_sequence(*points)

    @classmethod
    def decode_value(cls, data: bytes) -> "CRLDistributionPoints":
        outer = DERReader(data).enter_sequence()
        uris = []
        for point in outer.iter_tlvs():
            dp_reader = DERReader(point.value)
            dp_name = dp_reader.read_tlv()
            full_name = DERReader(dp_name.value).read_tlv()
            for general_name in DERReader(full_name.value).iter_tlvs():
                uris.append(general_name.value.decode("ascii", errors="replace"))
        return cls(tuple(uris))


@dataclass(frozen=True)
class AuthorityInfoAccess:
    """authorityInfoAccess: OCSP responder and caIssuers URIs."""

    ocsp: tuple[str, ...] = ()
    ca_issuers: tuple[str, ...] = ()

    oid = oids.AUTHORITY_INFO_ACCESS

    def encode_value(self) -> bytes:
        descriptions = []
        for uri in self.ocsp:
            descriptions.append(_access_description(oids.AIA_OCSP, uri))
        for uri in self.ca_issuers:
            descriptions.append(_access_description(oids.AIA_CA_ISSUERS, uri))
        return encode_sequence(*descriptions)

    @classmethod
    def decode_value(cls, data: bytes) -> "AuthorityInfoAccess":
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
        return cls(tuple(ocsp), tuple(ca_issuers))


def _access_description(method: OID, uri: str) -> bytes:
    return encode_sequence(
        encode_oid(method),
        encode_tlv(0x80 | _GENERAL_NAME_URI, uri.encode("ascii", "replace")),
    )


@dataclass(frozen=True)
class CertificatePolicies:
    """certificatePolicies: the policy OIDs (Table 5/6's "OID" feature)."""

    policy_oids: tuple[OID, ...]

    oid = oids.CERTIFICATE_POLICIES

    def encode_value(self) -> bytes:
        return encode_sequence(
            *(encode_sequence(encode_oid(p)) for p in self.policy_oids)
        )

    @classmethod
    def decode_value(cls, data: bytes) -> "CertificatePolicies":
        reader = DERReader(data).enter_sequence()
        policies = []
        while not reader.at_end():
            info = reader.enter_sequence()
            policies.append(info.read_oid())
        return cls(tuple(policies))


@dataclass(frozen=True)
class BasicConstraints:
    """basicConstraints: the CA flag chain validation checks."""

    ca: bool

    oid = oids.BASIC_CONSTRAINTS

    def encode_value(self) -> bytes:
        return encode_sequence(encode_boolean(self.ca)) if self.ca else encode_sequence()

    @classmethod
    def decode_value(cls, data: bytes) -> "BasicConstraints":
        reader = DERReader(data).enter_sequence()
        if reader.at_end():
            return cls(ca=False)
        return cls(ca=reader.read_boolean())


@dataclass(frozen=True)
class KeyUsage:
    """keyUsage: the two bits validation cares about."""

    digital_signature: bool = False
    key_cert_sign: bool = False

    oid = oids.KEY_USAGE

    def encode_value(self) -> bytes:
        bits = 0
        if self.digital_signature:
            bits |= 0x80  # bit 0
        if self.key_cert_sign:
            bits |= 0x04  # bit 5
        from .asn1 import encode_bit_string

        return encode_bit_string(bytes([bits]), unused_bits=2)

    @classmethod
    def decode_value(cls, data: bytes) -> "KeyUsage":
        body, _unused = DERReader(data).read_bit_string()
        bits = body[0] if body else 0
        return cls(
            digital_signature=bool(bits & 0x80),
            key_cert_sign=bool(bits & 0x04),
        )


@dataclass(frozen=True)
class RawExtension:
    """An extension this library does not model; kept byte-exact."""

    raw_oid: OID
    value: bytes

    @property
    def oid(self) -> OID:
        return self.raw_oid

    def encode_value(self) -> bytes:
        return self.value


TypedExtension = Union[
    SubjectAltName,
    AuthorityKeyIdentifier,
    SubjectKeyIdentifier,
    CRLDistributionPoints,
    AuthorityInfoAccess,
    CertificatePolicies,
    BasicConstraints,
    KeyUsage,
    RawExtension,
]

_DECODERS = {
    oids.SUBJECT_ALT_NAME: SubjectAltName.decode_value,
    oids.AUTHORITY_KEY_ID: AuthorityKeyIdentifier.decode_value,
    oids.SUBJECT_KEY_ID: SubjectKeyIdentifier.decode_value,
    oids.CRL_DISTRIBUTION_POINTS: CRLDistributionPoints.decode_value,
    oids.AUTHORITY_INFO_ACCESS: AuthorityInfoAccess.decode_value,
    oids.CERTIFICATE_POLICIES: CertificatePolicies.decode_value,
    oids.BASIC_CONSTRAINTS: BasicConstraints.decode_value,
    oids.KEY_USAGE: KeyUsage.decode_value,
}


@dataclass(frozen=True)
class Extensions:
    """The ordered extension list of one certificate."""

    items: tuple[TypedExtension, ...] = ()

    def __iter__(self) -> Iterator[TypedExtension]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def get(self, ext_type: type) -> Optional[TypedExtension]:
        """First extension of the given typed class, or None."""
        for item in self.items:
            if isinstance(item, ext_type):
                return item
        return None

    @property
    def subject_alt_names(self) -> tuple[str, ...]:
        ext = self.get(SubjectAltName)
        return ext.names if ext else ()

    @property
    def authority_key_id(self) -> Optional[bytes]:
        ext = self.get(AuthorityKeyIdentifier)
        return ext.key_id if ext else None

    @property
    def subject_key_id(self) -> Optional[bytes]:
        ext = self.get(SubjectKeyIdentifier)
        return ext.key_id if ext else None

    @property
    def crl_uris(self) -> tuple[str, ...]:
        ext = self.get(CRLDistributionPoints)
        return ext.uris if ext else ()

    @property
    def aia(self) -> Optional[AuthorityInfoAccess]:
        return self.get(AuthorityInfoAccess)

    @property
    def ocsp_uris(self) -> tuple[str, ...]:
        ext = self.aia
        return ext.ocsp if ext else ()

    @property
    def ca_issuer_uris(self) -> tuple[str, ...]:
        ext = self.aia
        return ext.ca_issuers if ext else ()

    @property
    def policy_oids(self) -> tuple[OID, ...]:
        ext = self.get(CertificatePolicies)
        return ext.policy_oids if ext else ()

    @property
    def is_ca(self) -> bool:
        ext = self.get(BasicConstraints)
        return bool(ext and ext.ca)

    def to_der(self) -> bytes:
        """Encode as the SEQUENCE OF Extension inside the [3] wrapper."""
        members = []
        for item in self.items:
            members.append(
                encode_sequence(
                    encode_oid(item.oid),
                    encode_octet_string(item.encode_value()),
                )
            )
        return encode_sequence(*members)

    @classmethod
    def from_der(cls, data: bytes) -> "Extensions":
        """Decode the SEQUENCE OF Extension body.

        Equal blocks decode once: certificates carrying the same
        extensions bytes (vendor boilerplate) share one
        :class:`Extensions`.
        """
        return _decode_extensions(data)

    @classmethod
    def of(cls, *items: TypedExtension) -> "Extensions":
        """Convenience constructor."""
        return cls(tuple(items))


@lru_cache(maxsize=DECODE_MEMO)
def _decode_extensions(data: bytes) -> Extensions:
    """:meth:`Extensions.from_der`, memoized on the exact bytes; a
    rejected block raises again on every call."""
    reader = DERReader(data).enter_sequence()
    items: list[TypedExtension] = []
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
