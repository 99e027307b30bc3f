"""Tests for the certificate model, builder, names, and extensions."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.x509.certificate as certificate_mod
from repro.simtime import date_to_day
from repro.x509 import (
    AuthorityInfoAccess,
    AuthorityKeyIdentifier,
    BasicConstraints,
    CRLDistributionPoints,
    Certificate,
    CertificateBuilder,
    CertificatePolicies,
    Extensions,
    KeyUsage,
    Name,
    OID,
    SubjectAltName,
    SubjectKeyIdentifier,
    generate_keypair,
)
from repro.x509.asn1 import encode_oid
from repro.x509.certificate import tbs_der
from repro.x509.oid import SIG_SHA256_RSA

import datetime

DAY_2013 = date_to_day(datetime.date(2013, 1, 1))


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(random.Random(11))


@pytest.fixture(scope="module")
def other_keypair():
    return generate_keypair(random.Random(22))


def build_device_cert(keypair, cn="192.168.1.1", not_before=DAY_2013, days=7300,
                      version=3, extensions=True, serial=1234):
    builder = (
        CertificateBuilder()
        .version(version)
        .serial(serial)
        .subject(Name.common_name(cn))
        .validity(not_before, not_before + days)
        .keypair(keypair)
    )
    if extensions and version == 3:
        builder.subject_alt_names(["device.local", cn])
    return builder.self_sign()


class TestName:
    def test_build_and_accessors(self):
        name = Name.build(CN="example.com", O="Example Corp", C="US")
        assert name.cn == "example.com"
        assert name.get("O") == "Example Corp"
        assert name.get("L") is None
        assert name.rfc4514() == "CN=example.com, O=Example Corp, C=US"

    def test_empty_name(self):
        # Table 1: 925,579 invalid certificates have empty issuer strings.
        name = Name.empty()
        assert name.is_empty()
        assert name.cn is None
        assert name.rfc4514() == ""

    def test_der_round_trip(self):
        name = Name.build(CN="fritz.box", O="AVM", C="DE")
        assert Name.from_der(name.to_der()) == name

    def test_der_round_trip_empty(self):
        assert Name.from_der(Name.empty().to_der()) == Name.empty()

    @given(st.text(max_size=40))
    def test_der_round_trip_arbitrary_cn(self, cn):
        name = Name.common_name(cn)
        assert Name.from_der(name.to_der()) == name

    def test_hashable(self):
        assert len({Name.common_name("a"), Name.common_name("a"), Name.common_name("b")}) == 2

    def test_ordering_preserved(self):
        a = Name.build(CN="x", O="y")
        b = Name.build(O="y", CN="x")
        assert a != b  # DN attribute order is significant


class TestExtensions:
    def test_san_round_trip(self):
        extensions = Extensions.of(SubjectAltName(("fritz.fonwlan.box", "myfritz.net")))
        decoded = Extensions.from_der(extensions.to_der())
        assert decoded.subject_alt_names == ("fritz.fonwlan.box", "myfritz.net")

    def test_aki_ski_round_trip(self):
        extensions = Extensions.of(
            AuthorityKeyIdentifier(b"\x01" * 20), SubjectKeyIdentifier(b"\x02" * 20)
        )
        decoded = Extensions.from_der(extensions.to_der())
        assert decoded.authority_key_id == b"\x01" * 20
        assert decoded.subject_key_id == b"\x02" * 20

    def test_crl_round_trip(self):
        extensions = Extensions.of(
            CRLDistributionPoints(("http://crl.example.com/ca.crl",))
        )
        decoded = Extensions.from_der(extensions.to_der())
        assert decoded.crl_uris == ("http://crl.example.com/ca.crl",)

    def test_aia_round_trip(self):
        extensions = Extensions.of(
            AuthorityInfoAccess(
                ocsp=("http://ocsp.example.com",),
                ca_issuers=("http://ca.example.com/ca.crt",),
            )
        )
        decoded = Extensions.from_der(extensions.to_der())
        assert decoded.ocsp_uris == ("http://ocsp.example.com",)
        assert decoded.ca_issuer_uris == ("http://ca.example.com/ca.crt",)

    def test_policies_round_trip(self):
        policy = OID.parse("1.3.6.1.4.1.99999.1")
        extensions = Extensions.of(CertificatePolicies((policy,)))
        decoded = Extensions.from_der(extensions.to_der())
        assert decoded.policy_oids == (policy,)

    def test_basic_constraints_and_key_usage(self):
        extensions = Extensions.of(
            BasicConstraints(ca=True), KeyUsage(key_cert_sign=True)
        )
        decoded = Extensions.from_der(extensions.to_der())
        assert decoded.is_ca
        assert decoded.get(KeyUsage).key_cert_sign

    def test_absent_extensions_yield_defaults(self):
        empty = Extensions()
        assert empty.subject_alt_names == ()
        assert empty.authority_key_id is None
        assert empty.crl_uris == ()
        assert empty.ocsp_uris == ()
        assert empty.policy_oids == ()
        assert not empty.is_ca
        assert not empty


class TestCertificate:
    def test_self_signed_round_trip(self, keypair):
        cert = build_device_cert(keypair)
        parsed = Certificate.from_der(cert.to_der())
        assert parsed == cert
        assert parsed.fingerprint == cert.fingerprint
        assert parsed.subject_cn == "192.168.1.1"
        assert parsed.extensions.subject_alt_names == ("device.local", "192.168.1.1")

    def test_v1_round_trip(self, keypair):
        cert = build_device_cert(keypair, version=1, extensions=False)
        parsed = Certificate.from_der(cert.to_der())
        assert parsed == cert
        assert parsed.version == 1
        assert not parsed.is_ca

    def test_self_signature_verifies(self, keypair):
        cert = build_device_cert(keypair)
        assert cert.is_self_signed()
        assert cert.self_issued()

    def test_self_signed_with_mismatched_names(self, keypair):
        # Footnote 7: openssl reports error 19 only when subject==issuer,
        # but devices emit self-signed certs with differing names too.
        cert = (
            CertificateBuilder()
            .subject(Name.common_name("device"))
            .issuer(Name.common_name("not-the-device"))
            .validity(DAY_2013, DAY_2013 + 365)
            .keypair(keypair)
            .self_sign()
        )
        assert cert.is_self_signed()
        assert not cert.self_issued()

    def test_cross_signature(self, keypair, other_keypair):
        ca_name = Name.build(CN="Tiny CA", O="Tiny")
        cert = (
            CertificateBuilder()
            .subject(Name.common_name("site.example"))
            .validity(DAY_2013, DAY_2013 + 365)
            .keypair(keypair)
            .sign_with(ca_name, other_keypair.private)
        )
        assert cert.verify_signature(other_keypair.public)
        assert not cert.verify_signature(keypair.public)
        assert not cert.is_self_signed()
        assert cert.issuer == ca_name

    def test_negative_validity_period(self, keypair):
        # 5.38% of invalid certs have Not After before Not Before.
        cert = build_device_cert(keypair, days=-100)
        assert cert.validity_period_days == -100
        parsed = Certificate.from_der(cert.to_der())
        assert parsed.validity_period_days == -100

    def test_far_future_not_after(self, keypair):
        # Validity periods beyond a million days (Not After in year 3000+).
        million_days = 1_000_000
        cert = build_device_cert(keypair, days=million_days)
        parsed = Certificate.from_der(cert.to_der())
        assert parsed.validity_period_days == million_days

    def test_valid_on(self, keypair):
        cert = build_device_cert(keypair, days=10)
        assert cert.valid_on(DAY_2013)
        assert cert.valid_on(DAY_2013 + 10)
        assert not cert.valid_on(DAY_2013 - 1)
        assert not cert.valid_on(DAY_2013 + 11)

    def test_fingerprint_changes_with_any_field(self, keypair):
        base = build_device_cert(keypair)
        different_serial = build_device_cert(keypair, serial=5678)
        different_cn = build_device_cert(keypair, cn="192.168.0.1")
        assert len({base.fingerprint, different_serial.fingerprint, different_cn.fingerprint}) == 3

    def test_ca_cert(self, keypair):
        cert = (
            CertificateBuilder()
            .subject(Name.build(CN="Root CA", O="Root"))
            .validity(DAY_2013, DAY_2013 + 3650)
            .keypair(keypair)
            .ca()
            .self_sign()
        )
        assert cert.is_ca
        parsed = Certificate.from_der(cert.to_der())
        assert parsed.is_ca

    def test_empty_subject(self, keypair):
        cert = (
            CertificateBuilder()
            .subject(Name.empty())
            .issuer(Name.empty())
            .validity(DAY_2013, DAY_2013 + 365)
            .keypair(keypair)
            .self_sign()
        )
        assert cert.subject_cn is None
        assert Certificate.from_der(cert.to_der()) == cert

    def test_hashable_by_fingerprint(self, keypair):
        a = build_device_cert(keypair)
        b = build_device_cert(keypair)  # identical build → identical cert
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @settings(deadline=None, max_examples=20)
    @given(
        cn=st.text(max_size=24),
        days=st.integers(min_value=-1000, max_value=1_000_000),
        serial=st.integers(min_value=0, max_value=2 ** 64),
    )
    def test_der_round_trip_property(self, cn, days, serial):
        keypair = generate_keypair(random.Random(5))
        cert = build_device_cert(keypair, cn=cn, days=days, serial=serial)
        assert Certificate.from_der(cert.to_der()) == cert


def _encode_tbs(cert):
    """The module-level encoder over a certificate's parsed fields."""
    return tbs_der(
        cert.version, cert.serial, cert.issuer, cert.subject,
        cert.not_before, cert.not_after, cert.public_key, cert.extensions,
        cert.not_before_secs, cert.not_after_secs,
    )


def _forbid_encoding(monkeypatch):
    def encode(*args, **kwargs):
        raise AssertionError("re-encoded a certificate")

    monkeypatch.setattr(certificate_mod, "tbs_der", encode)


class TestSignedBytes:
    """Parsed and signed certificates keep the exact bytes that were signed."""

    def test_tiny_corpus_keeps_exact_bytes(self, tiny_synthetic):
        for certificate in tiny_synthetic.scans.certificates.values():
            der = certificate.to_der()
            parsed = Certificate.from_der(der)
            assert parsed.to_der() == der
            assert parsed.fingerprint == hashlib.sha256(der).digest()
            # The kept slice and the encoder agree, so the encoder
            # cannot drift from what the corpus holds unnoticed.
            assert parsed.tbs_der() == _encode_tbs(parsed)

    def test_parsed_certificate_never_re_encodes(self, keypair, monkeypatch):
        der = build_device_cert(keypair).to_der()
        parsed = Certificate.from_der(der)
        _forbid_encoding(monkeypatch)
        assert parsed.to_der() == der
        assert parsed.fingerprint == hashlib.sha256(der).digest()
        assert parsed.is_self_signed()

    def test_flipped_tbs_byte_breaks_self_signature(self, keypair):
        cert = build_device_cert(keypair)
        der = bytearray(cert.to_der())
        # The TBS's own signature-algorithm OID comes first; the parser
        # does not model it, so a flip there leaves every field intact
        # and only the signed bytes can tell.
        oid = encode_oid(SIG_SHA256_RSA)
        der[der.index(oid) + len(oid) - 1] ^= 0x01
        tampered = Certificate.from_der(bytes(der))
        assert tampered == cert
        assert cert.is_self_signed()
        assert not tampered.is_self_signed()

    def test_sign_keeps_the_body_it_signed(self, keypair, monkeypatch):
        cert = build_device_cert(keypair)
        body = _encode_tbs(cert)
        _forbid_encoding(monkeypatch)
        assert cert.tbs_der() == body
        assert keypair.public.verify(cert.tbs_der(), cert.signature)
        assert cert.is_self_signed()
        assert Certificate.from_der(cert.to_der()).tbs_der() == body


class TestBuilderValidation:
    def test_missing_subject_rejected(self, keypair):
        builder = CertificateBuilder().validity(0, 1).keypair(keypair)
        with pytest.raises(ValueError):
            builder.self_sign()

    def test_missing_validity_rejected(self, keypair):
        builder = CertificateBuilder().subject(Name.common_name("x")).keypair(keypair)
        with pytest.raises(ValueError):
            builder.self_sign()

    def test_missing_key_without_rng_rejected(self):
        builder = CertificateBuilder().subject(Name.common_name("x")).validity(0, 1)
        with pytest.raises(ValueError):
            builder.self_sign()

    def test_rng_generates_key_and_serial(self):
        rng = random.Random(77)
        cert = (
            CertificateBuilder()
            .subject(Name.common_name("x"))
            .validity(0, 1)
            .self_sign(rng=rng)
        )
        assert cert.is_self_signed()
        assert cert.serial > 0

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError):
            CertificateBuilder().version(2)

    def test_out_of_calendar_range_rejected(self, keypair):
        with pytest.raises(ValueError):
            CertificateBuilder().validity(0, 10 ** 9)

    def test_public_key_only_cannot_self_sign(self, keypair):
        builder = (
            CertificateBuilder()
            .subject(Name.common_name("x"))
            .validity(0, 1)
            .public_key(keypair.public)
        )
        with pytest.raises(ValueError):
            builder.self_sign()
