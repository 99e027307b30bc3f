"""X.501 distinguished names.

A :class:`Name` is an ordered sequence of (attribute-OID, value) pairs —
enough to express every subject/issuer the paper encounters, from
``CN=Go Daddy Secure Certification Authority, O=GoDaddy.com`` down to the
malformed device names the invalid-cert population is full of: bare private
IP addresses, empty strings, and vendor boilerplate.

Names DER-encode as the standard ``RDNSequence`` (each RDN a single-valued
SET), round-trip exactly, and hash/compare structurally so they can key
dictionaries in the linking pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from . import oid as oids
from .asn1 import (
    DECODE_MEMO,
    DERReader,
    encode_sequence,
    encode_set,
    encode_utf8_string,
)
from .oid import OID

__all__ = ["Name"]


@dataclass(frozen=True)
class Name:
    """An ordered multi-attribute distinguished name."""

    attributes: tuple[tuple[OID, str], ...]

    @classmethod
    def build(cls, **kwargs: str) -> "Name":
        """Build from short attribute names: ``Name.build(CN='x', O='y')``.

        Attribute order follows the call order (Python kwargs preserve it).
        """
        pairs = tuple(
            (oids.attribute_oid(short), value) for short, value in kwargs.items()
        )
        return cls(pairs)

    @classmethod
    def common_name(cls, value: str) -> "Name":
        """A CN-only name — by far the most common shape on devices."""
        return cls(((oids.CN, value),))

    @classmethod
    def empty(cls) -> "Name":
        """The empty name (attribute-less); real devices do emit these."""
        return cls(())

    def get(self, short_name: str) -> Optional[str]:
        """First value of the named attribute, or None."""
        wanted = oids.attribute_oid(short_name)
        for attr_oid, value in self.attributes:
            if attr_oid == wanted:
                return value
        return None

    @property
    def cn(self) -> Optional[str]:
        """The Common Name, or None if absent."""
        return self.get("CN")

    def is_empty(self) -> bool:
        """True for the attribute-less name."""
        return not self.attributes

    def rfc4514(self) -> str:
        """Human-readable ``CN=x, O=y`` rendering."""
        parts = []
        for attr_oid, value in self.attributes:
            short = oids.DN_SHORT_NAMES.get(attr_oid, attr_oid.dotted())
            parts.append(f"{short}={value}")
        return ", ".join(parts)

    def __str__(self) -> str:
        return self.rfc4514()

    def __iter__(self) -> Iterator[tuple[OID, str]]:
        return iter(self.attributes)

    # --- DER ----------------------------------------------------------------

    def to_der(self) -> bytes:
        """Encode as an RDNSequence (one single-valued RDN per attribute)."""
        rdns = []
        for attr_oid, value in self.attributes:
            attribute = encode_sequence(
                _encode_oid(attr_oid), encode_utf8_string(value)
            )
            rdns.append(encode_set([attribute]))
        return encode_sequence(*rdns)

    @classmethod
    def from_der_reader(cls, reader: DERReader) -> "Name":
        """Decode an RDNSequence from a reader positioned at it.

        Equal encodings decode once: certificates whose issuer (or
        subject) bytes match share one :class:`Name`.
        """
        return _decode_name(reader.read_raw())

    @classmethod
    def from_der(cls, data: bytes) -> "Name":
        """Decode a standalone RDNSequence encoding."""
        return cls.from_der_reader(DERReader(data))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[OID, str]]) -> "Name":
        """Build from explicit (OID, value) pairs."""
        return cls(tuple(pairs))


@lru_cache(maxsize=DECODE_MEMO)
def _decode_name(raw: bytes) -> Name:
    """The :class:`Name` an RDNSequence encoding holds, memoized on its
    exact bytes; a rejected encoding raises again on every call."""
    seq = DERReader(raw).enter_sequence()
    attributes: list[tuple[OID, str]] = []
    while not seq.at_end():
        rdn = seq.enter_set()
        while not rdn.at_end():
            attribute = rdn.enter_sequence()
            attr_oid = attribute.read_oid()
            value = attribute.read_string()
            attributes.append((attr_oid, value))
    return Name(tuple(attributes))


def _encode_oid(value: OID) -> bytes:
    from .asn1 import encode_oid

    return encode_oid(value)
