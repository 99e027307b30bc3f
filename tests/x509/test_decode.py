"""The certificate decoder against its reference twin, and its memos.

:meth:`Certificate.from_der` walks one offset reader and decodes each
repeated block once; ``tests/oracles/x509.py`` keeps the decoder it
replaced.  On the DER records of two generated worlds, intact, truncated
or with 1–3 flipped bytes, both must accept with equal certificates or
both reject — the new one always with :class:`DERError`.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.x509.asn1 as asn1
import repro.x509.extensions as extensions_mod
import repro.x509.name as name_mod
from repro.datasets.synthetic import generate
from repro.internet.population import WorldConfig
from repro.x509 import CertificateBuilder, Extensions, Name, generate_keypair
from repro.x509.asn1 import (
    DERError,
    Tag,
    encode_octet_string,
    encode_oid,
    encode_sequence,
    encode_set,
    encode_tlv,
)
from repro.x509.certificate import Certificate
from repro.x509.oid import CN, SUBJECT_ALT_NAME

from ..oracles.x509 import oracle_from_der

HANDSHAKE_WORLD = WorldConfig(
    seed=11, n_devices=40, n_websites=10, n_generic_access=10,
    n_enterprise=3, n_hosting=3, unused_roots=0,
)


@pytest.fixture(scope="module")
def records(tiny_synthetic):
    """The DER record of every certificate of the tiny and handshake
    worlds."""
    handshakes = generate(HANDSHAKE_WORLD, scan_stride=8, collect_handshakes=True)
    return [
        certificate.to_der()
        for synthetic in (tiny_synthetic, handshakes)
        for certificate in synthetic.scans.certificates.values()
    ]


def _decode(parse, der):
    try:
        return parse(der), None
    except Exception as error:  # the oracle raises several kinds
        return None, error


def _assert_decoded_alike(der: bytes) -> bool:
    """Both decoders accept ``der`` alike, or both reject it; True when
    they accept."""
    ours, our_error = _decode(Certificate.from_der, der)
    theirs, their_error = _decode(oracle_from_der, der)
    if our_error is not None:
        assert isinstance(our_error, DERError), repr(our_error)
        assert their_error is not None, f"only the oracle accepts ({our_error})"
        return False
    assert their_error is None, f"only the new decoder accepts ({their_error!r})"
    for field in dataclasses.fields(Certificate):
        if field.compare:
            assert getattr(ours, field.name) == getattr(theirs, field.name), \
                field.name
    assert ours.to_der() == theirs.to_der()
    assert ours.tbs_der() == theirs.tbs_der()
    assert ours.fingerprint == theirs.fingerprint
    # A damaged key can make the check itself raise (a negative
    # exponent); then it must raise alike.
    assert _outcome(ours.is_self_signed) == _outcome(theirs.is_self_signed)
    return True


def _outcome(check):
    try:
        return check()
    except Exception as error:
        return type(error)


def _damage(der: bytes, data) -> bytes:
    """A truncation of ``der``, or ``der`` with 1–3 bytes flipped."""
    if data.draw(st.booleans(), label="truncate"):
        return der[:data.draw(st.integers(0, len(der) - 1), label="cut")]
    damaged = bytearray(der)
    for _ in range(data.draw(st.integers(1, 3), label="flips")):
        at = data.draw(st.integers(0, len(der) - 1), label="at")
        damaged[at] ^= data.draw(st.integers(1, 255), label="mask")
    return bytes(damaged)


class TestAgainstOracle:
    def test_every_record_decodes_alike(self, records):
        assert all(_assert_decoded_alike(der) for der in records)

    @settings(derandomize=True, max_examples=1500, deadline=None)
    @given(data=st.data())
    def test_damaged_records_decode_alike(self, records, data):
        der = records[data.draw(st.integers(0, len(records) - 1), label="record")]
        _assert_decoded_alike(_damage(der, data))


def _cert(cn: str, seed: int, sans=()) -> Certificate:
    builder = (
        CertificateBuilder()
        .serial(seed)
        .subject(Name.common_name(cn))
        .validity(15000, 15365)
        .keypair(generate_keypair(random.Random(seed)))
    )
    if sans:
        builder.subject_alt_names(list(sans))
    return builder.self_sign()


class TestDecodeMemo:
    def test_equal_name_bytes_decode_to_one_name(self):
        first = Certificate.from_der(_cert("vendor default", 1).to_der())
        second = Certificate.from_der(_cert("vendor default", 2).to_der())
        assert first.fingerprint != second.fingerprint
        assert first.issuer is second.issuer
        assert first.subject is first.issuer
        assert first.public_key is not second.public_key

    def test_equal_blocks_decode_to_one_object(self):
        sans = ("router.local",)
        first = Certificate.from_der(_cert("a", 3, sans).to_der())
        second = Certificate.from_der(_cert("b", 4, sans).to_der())
        assert first.extensions is second.extensions
        twin = Certificate.from_der(_cert("a", 3, sans).to_der())
        assert twin.public_key is first.public_key

    def test_a_rejected_block_is_never_memoized(self):
        bad_utf8 = encode_tlv(Tag.UTF8_STRING, b"\xff\xfe")
        bad_name = encode_sequence(
            encode_set([encode_sequence(encode_oid(CN), bad_utf8)])
        )
        bad_extensions = encode_sequence(
            encode_sequence(encode_oid(SUBJECT_ALT_NAME))  # no extnValue
        )
        good_extensions = encode_sequence(encode_sequence(
            encode_oid(SUBJECT_ALT_NAME),
            encode_octet_string(encode_sequence()),
        ))
        cases = [
            (name_mod._decode_name, lambda: Name.from_der(bad_name)),
            (extensions_mod._decode_extensions,
             lambda: Extensions.from_der(bad_extensions)),
            (asn1.decode_oid_body, lambda: asn1.decode_oid_body(b"\x2a\x86")),
        ]
        for memo, decode in cases:
            size = memo.cache_info().currsize
            for _ in range(2):
                with pytest.raises(DERError):
                    decode()
            assert memo.cache_info().currsize == size
        # A good block is kept, and comes back as the same object.
        assert Extensions.from_der(good_extensions) is \
            Extensions.from_der(good_extensions)
