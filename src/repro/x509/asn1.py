"""Minimal DER (Distinguished Encoding Rules) codec.

Implements exactly the subset of ASN.1/DER that X.509 certificates need:
BOOLEAN, INTEGER, BIT STRING, OCTET STRING, NULL, OBJECT IDENTIFIER,
UTF8String / PrintableString / IA5String, UTCTime / GeneralizedTime,
SEQUENCE, SET, and context-specific constructed tags.

The encoder works from plain Python values via the ``encode_*`` functions;
the decoder is an offset-based pull-parser (:class:`DERReader`) that the
certificate layer drives, and every rejection it makes is a
:class:`DERError`.  Round-tripping is exact: ``decode(encode(x)) == x``
for every supported shape, and the test suite checks this property with
hypothesis.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .oid import OID

__all__ = [
    "DECODE_MEMO",
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

#: Entries each decode memo keeps (OID bodies here; names, extension
#: blocks and key bits in the modules that decode them).  The blocks a
#: corpus repeats — issuer names, vendor boilerplate, shared keys —
#: decode once per process while they stay among this many.
DECODE_MEMO = 65536


class DERReader:
    """Sequential pull-parser over a window of a DER byte string.

    A reader walks ``data`` by offset between its own bounds: entering a
    SEQUENCE, SET or context tag returns a sub-reader over the *same*
    buffer bounded by that TLV's value, so walking a certificate copies
    only the leaf values it returns.  Every read goes through one
    header routine, :meth:`_next`.  Every rejection is a
    :class:`DERError`.
    """

    __slots__ = ("_data", "_pos", "_end")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._end = len(data)

    def _window(self, start: int, end: int) -> "DERReader":
        """A reader over ``data[start:end]`` of this reader's buffer."""
        reader = object.__new__(DERReader)
        reader._data = self._data
        reader._pos = start
        reader._end = end
        return reader

    @property
    def offset(self) -> int:
        """Position of the next unread byte in the underlying buffer."""
        return self._pos

    def at_end(self) -> bool:
        """True when all bytes have been consumed."""
        return self._pos >= self._end

    def remaining(self) -> int:
        """Bytes not yet consumed."""
        return self._end - self._pos

    def rest(self) -> bytes:
        """Return (without consuming) all bytes not yet read."""
        return self._data[self._pos:self._end]

    def peek_tag(self) -> int:
        """Tag byte of the next TLV without consuming it."""
        if self._pos >= self._end:
            raise DERError("unexpected end of DER data")
        return self._data[self._pos]

    def _next(self) -> tuple[int, int, int]:
        """Consume the next TLV; return (tag, value start, value end)."""
        data = self._data
        pos = self._pos
        end = self._end
        if pos >= end:
            raise DERError("unexpected end of DER data")
        tag = data[pos]
        if pos + 1 >= end:
            raise DERError("truncated length")
        length = data[pos + 1]
        pos += 2
        if length & 0x80:
            count = length & 0x7F
            if count == 0:
                raise DERError("indefinite lengths are not DER")
            if pos + count > end:
                raise DERError("truncated long-form length")
            length = int.from_bytes(data[pos:pos + count], "big")
            pos += count
        stop = pos + length
        if stop > end:
            raise DERError("TLV length overruns buffer")
        self._pos = stop
        return tag, pos, stop

    def _expect(self, tag: int) -> tuple[int, int]:
        """Consume the next TLV, requiring ``tag``; its value's bounds."""
        found, start, stop = self._next()
        if found != tag:
            raise DERError(f"expected tag 0x{tag:02x}, got 0x{found:02x}")
        return start, stop

    def read_tlv(self) -> TLV:
        """Consume and return the next TLV."""
        tag, start, stop = self._next()
        return TLV(tag, self._data[start:stop])

    def read_raw(self) -> bytes:
        """Consume the next TLV and return its exact encoding.

        Tag, length and value octets exactly as they appear in the input,
        so a caller can keep the bytes a signature was computed over
        instead of re-encoding the parsed structure.
        """
        start = self._pos
        _, _, stop = self._next()
        return self._data[start:stop]

    def expect(self, tag: int) -> TLV:
        """Consume the next TLV and require a specific tag."""
        start, stop = self._expect(tag)
        return TLV(tag, self._data[start:stop])

    # --- typed readers ------------------------------------------------------

    def read_boolean(self) -> bool:
        start, stop = self._expect(Tag.BOOLEAN)
        if stop - start != 1:
            raise DERError("BOOLEAN must be one byte")
        return self._data[start] != 0

    def read_integer(self) -> int:
        start, stop = self._expect(Tag.INTEGER)
        if start == stop:
            raise DERError("empty INTEGER")
        return int.from_bytes(self._data[start:stop], "big", signed=True)

    def read_bit_string(self) -> tuple[bytes, int]:
        start, stop = self._expect(Tag.BIT_STRING)
        if start == stop:
            raise DERError("empty BIT STRING")
        unused = self._data[start]
        if unused > 7:
            raise DERError(f"invalid unused-bit count {unused}")
        return self._data[start + 1:stop], unused

    def read_octet_string(self) -> bytes:
        start, stop = self._expect(Tag.OCTET_STRING)
        return self._data[start:stop]

    def read_null(self) -> None:
        start, stop = self._expect(Tag.NULL)
        if stop != start:
            raise DERError("NULL with content")

    def read_oid(self) -> OID:
        start, stop = self._expect(Tag.OID)
        return decode_oid_body(self._data[start:stop])

    def read_string(self) -> str:
        """Read any of the supported string types."""
        tag, start, stop = self._next()
        if tag == Tag.UTF8_STRING:
            try:
                return self._data[start:stop].decode("utf-8")
            except UnicodeDecodeError as error:
                raise DERError(f"UTF8String: {error.reason}") from None
        if tag == Tag.PRINTABLE_STRING or tag == Tag.IA5_STRING:
            return self._data[start:stop].decode("ascii", errors="replace")
        raise DERError(f"tag 0x{tag:02x} is not a string type")

    def read_time(self) -> datetime.datetime:
        tag, start, stop = self._next()
        text = self._data[start:stop].decode("ascii", errors="replace")
        if tag == Tag.UTC_TIME:
            return _parse_utc_time(text)
        if tag == Tag.GENERALIZED_TIME:
            return _parse_generalized_time(text)
        raise DERError(f"tag 0x{tag:02x} is not a time type")

    def enter_sequence(self) -> "DERReader":
        """Consume a SEQUENCE and return a reader over its contents."""
        start, stop = self._expect(Tag.SEQUENCE)
        return self._window(start, stop)

    def enter_set(self) -> "DERReader":
        """Consume a SET and return a reader over its contents."""
        start, stop = self._expect(Tag.SET)
        return self._window(start, stop)

    def enter_context(self, number: int) -> "DERReader":
        """Consume an EXPLICIT [number] tag and return its content reader."""
        tag, start, stop = self._next()
        if (tag & 0xC0) != 0x80 or (tag & 0x1F) != number:
            raise DERError(f"expected context tag [{number}], got 0x{tag:02x}")
        return self._window(start, stop)

    def iter_tlvs(self) -> Iterator[TLV]:
        """Yield every remaining TLV at this nesting level."""
        while not self.at_end():
            yield self.read_tlv()


@lru_cache(maxsize=DECODE_MEMO)
def decode_oid_body(body: bytes) -> OID:
    """Decode the content octets of an OBJECT IDENTIFIER.

    Memoized on the exact bytes: X.509 repeats a handful of OIDs (name
    attribute types, extension ids) in every certificate.
    """
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
    try:
        return OID(tuple(arcs))
    except ValueError as error:
        raise DERError(f"invalid OID: {error}") from None


def _parse_utc_time(text: str) -> datetime.datetime:
    if not text.endswith("Z") or len(text) != 13:
        raise DERError(f"malformed UTCTime {text!r}")
    two_digit_year = _time_field(text[:2], text)
    year = 2000 + two_digit_year if two_digit_year < 50 else 1900 + two_digit_year
    return _build_datetime(year, text[2:12], text)


def _parse_generalized_time(text: str) -> datetime.datetime:
    if not text.endswith("Z") or len(text) != 15:
        raise DERError(f"malformed GeneralizedTime {text!r}")
    return _build_datetime(_time_field(text[:4], text), text[4:14], text)


def _time_field(digits: str, original: str) -> int:
    try:
        return int(digits)
    except ValueError:
        raise DERError(f"invalid time {original!r}") from None


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
