"""Hand-built certificates and scan corpora for core-pipeline tests.

These helpers let tests construct exactly the observation patterns the
paper's figures describe (e.g. Figure 9's PK1/PK2/PK3 timeline) without
going through the world simulator.
"""

import random

from repro.seeding import stable_rng
from repro.scanner.dataset import ScanDataset
from repro.scanner.records import Observation, Scan
from repro.x509.builder import CertificateBuilder
from repro.x509.keys import generate_keypair
from repro.x509.name import Name

DAY0 = 5000


def make_keypair(seed):
    return generate_keypair(random.Random(seed), 128)


def make_cert(
    cn="device.local",
    key_seed=1,
    serial=None,
    nb=DAY0 - 100,
    days=7300,
    nb_secs=None,
    issuer_cn=None,
    sans=(),
    crl=(),
    keypair=None,
):
    """One self-signed certificate with the given linkable features.

    ``nb_secs`` defaults to a per-(cn, key_seed) pseudo-random value so two
    test certificates never share a Not Before stamp by accident; pass an
    explicit value to create deliberate collisions.
    """
    keypair = keypair or make_keypair(key_seed)
    if nb_secs is None:
        nb_secs = stable_rng("nb-secs", cn, key_seed).randrange(86400)
    builder = (
        CertificateBuilder()
        .subject(Name.common_name(cn))
        .serial(serial if serial is not None else stable_rng(cn, nb, key_seed).getrandbits(48))
        .validity(nb, nb + days, not_before_secs=nb_secs, not_after_secs=nb_secs)
        .keypair(keypair)
    )
    if issuer_cn is not None:
        builder.issuer(Name.common_name(issuer_cn))
    if sans:
        builder.subject_alt_names(list(sans))
    if crl:
        builder.crl_uris(list(crl))
    return builder.self_sign()


def make_dataset(scan_specs):
    """Build a ScanDataset from [(day, [(ip, cert), ...]), ...].

    Scan sources default to 'test'; pass (day, source, observations) for
    multi-campaign corpora.
    """
    scans = []
    certificates = {}
    for spec in scan_specs:
        if len(spec) == 3:
            day, source, rows = spec
        else:
            day, rows = spec
            source = "test"
        observations = []
        for ip, cert in rows:
            certificates[cert.fingerprint] = cert
            observations.append(Observation(ip=ip, fingerprint=cert.fingerprint))
        scans.append(Scan(day=day, source=source, observations=observations))
    return ScanDataset(scans, certificates)


def random_corpus(seed=7, n_certs=36, n_scans=8, n_unobserved=3):
    """A randomized corpus exercising every kernel edge at once.

    Deliberate collisions (shared keypairs, repeated CNs and Not Before
    stamps), IPv4-literal Common Names, SAN/CRL carriers, multi-homed
    certificates (up to four addresses in one scan), shared /24s, and a
    few certificates present in the table but never observed.
    """
    rng = random.Random(seed)
    keypairs = [make_keypair(s) for s in range(1, 7)]
    cns = ["WD2GO 7", "fritz.box", "192.168.1.1", "10.0.0.138", "box-%d"]
    certs = []
    for i in range(n_certs):
        cn = rng.choice(cns)
        if cn == "box-%d":
            cn = f"box-{rng.randrange(6)}"
        certs.append(
            make_cert(
                cn=cn,
                keypair=rng.choice(keypairs),
                nb=DAY0 - rng.randrange(60),
                nb_secs=rng.choice([None, 1234, 4321]),
                sans=("a.example", "b.example") if rng.random() < 0.3 else (),
                crl=("http://crl.example/x",) if rng.random() < 0.2 else (),
            )
        )
    scans = []
    certificates = {}
    for day_index in range(n_scans):
        observations = []
        for cert in certs:
            if rng.random() < 0.6:
                continue
            certificates[cert.fingerprint] = cert
            base_ip = 0x0A000000 + rng.randrange(4) * 256 + rng.randrange(40)
            for extra in range(rng.choice([1, 1, 1, 2, 4])):
                observations.append(
                    Observation(ip=base_ip + extra * 7, fingerprint=cert.fingerprint)
                )
        scans.append(Scan(day=DAY0 + 7 * day_index, source="test", observations=observations))
    for i in range(n_unobserved):
        # Shares its key and Common Name with observed certificates.
        ghost = make_cert(cn=cns[i % 2], keypair=keypairs[i], nb=DAY0 - 200 - i)
        certificates[ghost.fingerprint] = ghost
    return ScanDataset(scans, certificates)


def random_as_of(ip, day):
    """A deterministic, lumpy (ip, day) → ASN mapping."""
    return (ip >> 10) % 5 + (1 if day % 14 == 0 else 0)
