"""Minimal DER (Distinguished Encoding Rules) codec.

Implements exactly the subset of ASN.1/DER that X.509 certificates need:
BOOLEAN, INTEGER, BIT STRING, OCTET STRING, NULL, OBJECT IDENTIFIER,
UTF8String / PrintableString / IA5String, UTCTime / GeneralizedTime,
SEQUENCE, SET, and context-specific constructed tags.

The encoder works from plain Python values via the ``encode_*`` functions;
the decoder is a pull-parser (:class:`DERReader`) that the certificate layer
drives.  Round-tripping is exact: ``decode(encode(x)) == x`` for every
supported shape, and the test suite checks this property with hypothesis.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Iterator, Sequence

from .oid import OID

__all__ = [
    "DERError",
    "Tag",
    "TLV",
    "DERReader",
    "encode_boolean",
    "encode_integer",
    "encode_bit_string",
    "encode_octet_string",
    "encode_null",
    "encode_oid",
    "encode_utf8_string",
    "encode_printable_string",
    "encode_ia5_string",
    "encode_time",
    "encode_sequence",
    "encode_set",
    "encode_explicit",
    "encode_implicit",
]


class DERError(ValueError):
    """Raised on malformed DER input."""


class Tag:
    """Universal tag numbers used by X.509."""

    BOOLEAN = 0x01
    INTEGER = 0x02
    BIT_STRING = 0x03
    OCTET_STRING = 0x04
    NULL = 0x05
    OID = 0x06
    UTF8_STRING = 0x0C
    PRINTABLE_STRING = 0x13
    IA5_STRING = 0x16
    UTC_TIME = 0x17
    GENERALIZED_TIME = 0x18
    SEQUENCE = 0x30  # constructed bit set
    SET = 0x31       # constructed bit set

    @staticmethod
    def context(number: int, constructed: bool = True) -> int:
        """Context-specific tag byte (class 10, e.g. [0] → 0xA0)."""
        if not 0 <= number <= 30:
            raise ValueError(f"context tag number out of range: {number}")
        return 0x80 | (0x20 if constructed else 0) | number


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


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _encode_length(length: int) -> bytes:
    if length < 0x80:
        return bytes([length])
    octets = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(octets)]) + octets


def encode_tlv(tag: int, value: bytes) -> bytes:
    """Encode a raw tag-length-value triple."""
    return bytes([tag]) + _encode_length(len(value)) + value


def encode_boolean(value: bool) -> bytes:
    """DER BOOLEAN (0xFF for True per DER)."""
    return encode_tlv(Tag.BOOLEAN, b"\xff" if value else b"\x00")


def encode_integer(value: int) -> bytes:
    """DER INTEGER, two's-complement, minimal length."""
    if value == 0:
        return encode_tlv(Tag.INTEGER, b"\x00")
    length = (value.bit_length() + 8) // 8  # +1 bit for the sign
    body = value.to_bytes(length, "big", signed=True)
    # Strip redundant leading bytes while preserving the sign bit.
    while (
        len(body) > 1
        and (
            (body[0] == 0x00 and not body[1] & 0x80)
            or (body[0] == 0xFF and body[1] & 0x80)
        )
    ):
        body = body[1:]
    return encode_tlv(Tag.INTEGER, body)


def encode_bit_string(data: bytes, unused_bits: int = 0) -> bytes:
    """DER BIT STRING with an explicit unused-bit count."""
    if not 0 <= unused_bits <= 7:
        raise ValueError(f"unused bits out of range: {unused_bits}")
    return encode_tlv(Tag.BIT_STRING, bytes([unused_bits]) + data)


def encode_octet_string(data: bytes) -> bytes:
    """DER OCTET STRING."""
    return encode_tlv(Tag.OCTET_STRING, data)


def encode_null() -> bytes:
    """DER NULL."""
    return encode_tlv(Tag.NULL, b"")


def encode_oid(oid: OID) -> bytes:
    """DER OBJECT IDENTIFIER with base-128 arc packing."""
    arcs = oid.arcs
    body = bytearray(_encode_base128(arcs[0] * 40 + arcs[1]))
    for arc in arcs[2:]:
        body.extend(_encode_base128(arc))
    return encode_tlv(Tag.OID, bytes(body))


def _encode_base128(value: int) -> bytes:
    if value == 0:
        return b"\x00"
    out = bytearray()
    while value:
        out.append(value & 0x7F)
        value >>= 7
    out.reverse()
    for i in range(len(out) - 1):
        out[i] |= 0x80
    return bytes(out)


def encode_utf8_string(text: str) -> bytes:
    """DER UTF8String."""
    return encode_tlv(Tag.UTF8_STRING, text.encode("utf-8"))


def encode_printable_string(text: str) -> bytes:
    """DER PrintableString (no character-set enforcement; the simulated
    devices routinely emit values real DER would reject, and the paper's
    pipeline must parse them anyway)."""
    return encode_tlv(Tag.PRINTABLE_STRING, text.encode("ascii"))


def encode_ia5_string(text: str) -> bytes:
    """DER IA5String (ASCII)."""
    return encode_tlv(Tag.IA5_STRING, text.encode("ascii"))


def encode_time(when: datetime.datetime) -> bytes:
    """DER time: UTCTime for 1950–2049, GeneralizedTime otherwise.

    This is the X.509 rule; the paper's invalid certificates with Not After
    in the year 3000+ therefore serialize as GeneralizedTime.
    """
    if when.tzinfo is not None:
        raise ValueError("encode_time expects naive UTC datetimes")
    stamp = (
        f"{when.month:02d}{when.day:02d}"
        f"{when.hour:02d}{when.minute:02d}{when.second:02d}Z"
    )
    if 1950 <= when.year <= 2049:
        text = f"{when.year % 100:02d}{stamp}"
        return encode_tlv(Tag.UTC_TIME, text.encode("ascii"))
    text = f"{when.year:04d}{stamp}"
    return encode_tlv(Tag.GENERALIZED_TIME, text.encode("ascii"))


def encode_sequence(*members: bytes) -> bytes:
    """DER SEQUENCE of already-encoded members."""
    return encode_tlv(Tag.SEQUENCE, b"".join(members))


def encode_set(members: Sequence[bytes]) -> bytes:
    """DER SET OF: members are sorted by encoding, as DER requires."""
    return encode_tlv(Tag.SET, b"".join(sorted(members)))


def encode_explicit(number: int, inner: bytes) -> bytes:
    """EXPLICIT context tag: wraps the complete inner encoding."""
    return encode_tlv(Tag.context(number, constructed=True), inner)


def encode_implicit(number: int, inner: bytes, constructed: bool = False) -> bytes:
    """IMPLICIT context tag: replaces the inner tag byte."""
    if not inner:
        raise ValueError("cannot implicitly retag empty encoding")
    reader = DERReader(inner)
    tlv = reader.read_tlv()
    if not reader.at_end():
        raise ValueError("implicit retag expects a single TLV")
    return encode_tlv(Tag.context(number, constructed=constructed), tlv.value)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

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
        """Consume the next TLV and return its exact encoding.

        Tag, length and value octets exactly as they appear in the input,
        so a caller can keep the bytes a signature was computed over
        instead of re-encoding the parsed structure.
        """
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

    # --- typed readers ------------------------------------------------------

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

    def read_null(self) -> None:
        tlv = self.expect(Tag.NULL)
        if tlv.value:
            raise DERError("NULL with content")

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
