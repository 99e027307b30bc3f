"""Failure injection and cross-module invariants.

Fuzzes the parse boundaries (DER, archives), and property-tests the
methodology invariants that no single unit test pins down: input-order
independence, monotonicity in tolerance parameters, and determinism.
"""

import json
import re
import zipfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dedup import classify_unique_certificates
from repro.core.features import Feature
from repro.core.linking import link_on_feature
from repro.io.encoding import SegmentError
from repro.io.store import load_dataset, save_dataset
from repro.x509.asn1 import DERError, DERReader
from repro.x509.certificate import Certificate

from .core.helpers import DAY0, make_cert, make_dataset, make_keypair


class TestDERFuzz:
    @given(st.binary(max_size=200))
    def test_reader_never_crashes_on_garbage(self, blob):
        reader = DERReader(blob)
        try:
            while not reader.at_end():
                reader.read_tlv()
        except DERError:
            pass  # rejection is the contract; any other exception fails

    @given(st.binary(max_size=300))
    def test_certificate_parser_rejects_cleanly(self, blob):
        try:
            Certificate.from_der(blob)
        except DERError:
            pass  # every rejection is a DERError

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=400), st.integers(min_value=0, max_value=255))
    def test_truncated_and_bitflipped_certs_never_crash(self, cut, flip):
        cert = make_cert(cn="fuzz", key_seed=1, sans=("a.example",),
                         crl=("http://crl/x",))
        blob = bytearray(cert.to_der())
        blob = blob[: max(1, min(cut, len(blob)))]
        blob[len(blob) // 2] ^= flip
        try:
            Certificate.from_der(bytes(blob))
        except DERError:
            pass


class TestArchiveFailures:
    def test_missing_member(self, tmp_path):
        # A (broken) format 1 ZIP archive: the retired formats fail at
        # open, before any member is looked up.
        path = tmp_path / "broken.rpz"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("manifest.json", json.dumps({"format": 1}))
            # no certificates.der / scans.jsonl
        with pytest.raises(SegmentError, match="formats are no longer read"):
            load_dataset(path)

    def test_truncated_container(self, tmp_path):
        cert = make_cert(cn="t", key_seed=1)
        dataset = make_dataset([(DAY0, [(1, cert)])])
        path = tmp_path / "t.rpz"
        save_dataset(dataset, path)
        broken = tmp_path / "broken.rpz"
        blob = path.read_bytes()
        broken.write_bytes(blob[:-10])
        with pytest.raises(SegmentError, match="truncated"):
            load_dataset(broken)

    def test_corrupt_certificate_record(self, tmp_path):
        cert = make_cert(cn="t", key_seed=1)
        dataset = make_dataset([(DAY0, [(1, cert)])])
        path = tmp_path / "t.rpz"
        save_dataset(dataset, path)
        from repro.io.encoding import SegmentReader

        entry = SegmentReader(path).entry("certificates.der")
        blob = bytearray(path.read_bytes())
        # Flip bytes inside the first DER record (past the length prefix).
        for offset in range(entry["offset"] + 8, entry["offset"] + 16):
            blob[offset] ^= 0xFF
        broken = tmp_path / "broken.rpz"
        broken.write_bytes(bytes(blob))
        loaded = load_dataset(broken)
        with pytest.raises(
            SegmentError,
            match=rf"^{re.escape(str(broken))}: certificate "
                  rf"{cert.fingerprint_hex[:16]}: ",
        ):
            loaded.certificates[cert.fingerprint]

    def test_not_a_zip(self, tmp_path):
        path = tmp_path / "junk.rpz"
        path.write_bytes(b"definitely not a zip")
        with pytest.raises(SegmentError, match="not a segment container"):
            load_dataset(path)


class TestMethodologyInvariants:
    def build_population(self, n_chains=4, n_loners=3):
        certs = []
        scans = {DAY0: [], DAY0 + 7: [], DAY0 + 14: []}
        for chain in range(n_chains):
            keypair = make_keypair(100 + chain)
            for epoch, day in enumerate(scans):
                cert = make_cert(cn=f"chain-{chain}-{epoch}", keypair=keypair)
                scans[day].append((chain + 1, cert))
                certs.append(cert)
        for loner in range(n_loners):
            cert = make_cert(cn=f"loner-{loner}", key_seed=200 + loner)
            scans[DAY0].append((50 + loner, cert))
            certs.append(cert)
        dataset = make_dataset(sorted(scans.items()))
        return dataset, [c.fingerprint for c in certs]

    @settings(max_examples=10, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_linking_is_input_order_independent(self, rng):
        dataset, fingerprints = self.build_population()
        shuffled = list(fingerprints)
        rng.shuffle(shuffled)
        base = link_on_feature(dataset, fingerprints, Feature.PUBLIC_KEY)
        permuted = link_on_feature(dataset, shuffled, Feature.PUBLIC_KEY)
        assert {g.fingerprints for g in base.groups} == {
            g.fingerprints for g in permuted.groups
        }

    @given(st.integers(min_value=0, max_value=4))
    def test_linked_count_monotone_in_overlap_allowance(self, allowance):
        dataset, fingerprints = self.build_population()
        tighter = link_on_feature(
            dataset, fingerprints, Feature.PUBLIC_KEY, allowance
        )
        looser = link_on_feature(
            dataset, fingerprints, Feature.PUBLIC_KEY, allowance + 1
        )
        assert looser.total_linked >= tighter.total_linked

    @given(st.integers(min_value=1, max_value=4))
    def test_dedup_unique_set_monotone_in_threshold(self, threshold):
        cert_a = make_cert(cn="a", key_seed=1)
        cert_b = make_cert(cn="b", key_seed=2)
        dataset = make_dataset(
            [
                (DAY0, [(1, cert_a), (2, cert_a), (3, cert_a), (9, cert_b)]),
                (DAY0 + 7, [(1, cert_a), (9, cert_b)]),
            ]
        )
        fps = [cert_a.fingerprint, cert_b.fingerprint]
        tight = classify_unique_certificates(dataset, fps, threshold)
        loose = classify_unique_certificates(dataset, fps, threshold + 1)
        assert tight.unique <= loose.unique

    def test_groups_partition_their_members(self):
        dataset, fingerprints = self.build_population()
        result = link_on_feature(dataset, fingerprints, Feature.PUBLIC_KEY)
        seen = set()
        for group in result.groups:
            for fingerprint in group.fingerprints:
                assert fingerprint not in seen
                seen.add(fingerprint)
        assert seen <= set(fingerprints)


class TestWorldDeterminismAcrossProcesses:
    def test_fingerprints_are_process_independent(self):
        # A regression here means PYTHONHASHSEED leaked into the world.
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        # The child runs under a *controlled* environment so each
        # PYTHONHASHSEED value genuinely differs — but it still needs to
        # find the package, which may be on PYTHONPATH rather than
        # installed (the scrubbed env previously made the import fail,
        # masking what this test measures).
        package_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        script = (
            "from repro.datasets.synthetic import generate;"
            "from repro.internet.population import WorldConfig;"
            "cfg = WorldConfig(seed=5, n_devices=12, n_websites=4,"
            " n_generic_access=8, n_enterprise=3, n_hosting=3, unused_roots=0);"
            "ds = generate(cfg, scan_stride=40);"
            "print(sorted(fp.hex() for fp in ds.scans.certificates)[:3])"
        )
        outputs = set()
        for hash_seed in ("0", "424242"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True,
                env={
                    "PYTHONHASHSEED": hash_seed,
                    "PATH": "/usr/bin:/bin",
                    "PYTHONPATH": os.pathsep.join(
                        [package_root, os.environ.get("PYTHONPATH", "")]
                    ).rstrip(os.pathsep),
                },
            )
            assert result.returncode == 0, result.stderr
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1
