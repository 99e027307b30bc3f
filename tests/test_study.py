"""End-to-end integration tests over the Study facade.

These assert the headline qualitative results of the paper on the tiny
synthetic corpus — the full-fidelity quantitative comparison lives in the
benchmark harness and EXPERIMENTS.md.
"""

import collections

from repro.core.features import Feature
from repro.study import Study


class TestPipelineWiring:
    def test_stages_cached(self, tiny_study):
        assert tiny_study.validation() is tiny_study.validation()
        assert tiny_study.pipeline() is tiny_study.pipeline()
        assert tiny_study.tracked_devices() is tiny_study.tracked_devices()

    def test_from_synthetic(self, tiny_synthetic):
        study = Study.from_synthetic(tiny_synthetic)
        assert study.dataset is tiny_synthetic.scans
        assert study.registry is tiny_synthetic.world.registry

    def test_unique_invalid_subset_of_invalid(self, tiny_study):
        assert set(tiny_study.unique_invalid) <= tiny_study.invalid


class TestHeadlineResults:
    def test_invalid_majority(self, tiny_study):
        # The title result: the majority of certificates are invalid.
        assert tiny_study.validation().invalid_fraction > 0.5

    def test_public_key_links_most(self, tiny_study):
        # Table 6: Public Key links the most certificates of any field.
        evaluations = tiny_study.feature_evaluations()
        pk = evaluations[Feature.PUBLIC_KEY].total_linked
        for feature, evaluation in evaluations.items():
            if feature is not Feature.PUBLIC_KEY:
                assert evaluation.total_linked <= pk

    def test_public_key_as_consistency_high(self, tiny_study):
        # §6.4.2: PK links with ~98 % AS-level but much lower IP-level
        # consistency (the German daily-churn FRITZ!Box effect).
        consistency = tiny_study.feature_evaluations()[Feature.PUBLIC_KEY].consistency
        assert consistency.as_level > 0.9
        assert consistency.ip_level < consistency.as_level

    def test_linking_produces_groups(self, tiny_study):
        pipeline = tiny_study.pipeline()
        assert pipeline.groups
        assert 0.0 < pipeline.linked_fraction < 1.0

    def test_groups_have_at_least_two_certs(self, tiny_study):
        for group in tiny_study.pipeline().groups:
            assert len(group) >= 2

    def test_no_cert_in_two_groups(self, tiny_study):
        seen = set()
        for group in tiny_study.pipeline().groups:
            for fingerprint in group.fingerprints:
                assert fingerprint not in seen
                seen.add(fingerprint)

    def test_linking_extends_lifetimes(self, tiny_study):
        improvement = tiny_study.lifetime_improvement()
        assert improvement.mean_lifetime_after > improvement.mean_lifetime_before

    def test_tracking_improves_with_linking(self, tiny_study):
        report = tiny_study.trackable()
        assert report.improvement_fraction > 0.0


class TestExecutionParity:
    """Acceptance: columnar backend + process fan-out change nothing."""

    def test_all_stages_identical_through_backend_and_workers(
        self, tiny_synthetic, tiny_study
    ):
        from repro.io.backends import InMemoryBackend
        from repro.scanner.dataset import ScanDataset

        world = tiny_synthetic.world
        rebuilt = ScanDataset.from_backend(
            InMemoryBackend.from_dataset(tiny_synthetic.scans)
        )
        study = Study(
            dataset=rebuilt,
            trust_store=world.trust_store,
            as_of=world.routing.origin_as,
            registry=world.registry,
            workers=2,
        )
        # §4.2 validation
        assert study.invalid == tiny_study.invalid
        assert study.valid == tiny_study.valid
        # §6.2 dedup
        assert study.dedup().unique == tiny_study.dedup().unique
        assert study.dedup().non_unique == tiny_study.dedup().non_unique
        # Table 6 evaluations (fanned out over two processes)
        base = tiny_study.feature_evaluations()
        routed = study.feature_evaluations()
        assert list(base) == list(routed)
        for feature in base:
            assert base[feature].total_linked == routed[feature].total_linked
            assert base[feature].uniquely_linked == routed[feature].uniquely_linked
            assert base[feature].consistency == routed[feature].consistency
            assert {g.fingerprints for g in base[feature].result.groups} == {
                g.fingerprints for g in routed[feature].result.groups
            }
        # §6.4.3 iterative pipeline
        assert study.pipeline().field_order == tiny_study.pipeline().field_order
        assert {g.fingerprints for g in study.pipeline().groups} == {
            g.fingerprints for g in tiny_study.pipeline().groups
        }
        # §7 tracking
        base_track = tiny_study.trackable()
        routed_track = study.trackable()
        assert (
            routed_track.trackable_with_linking
            == base_track.trackable_with_linking
        )
        assert (
            routed_track.trackable_without_linking
            == base_track.trackable_without_linking
        )

    def test_stage_timings_recorded(self, tiny_study):
        tiny_study.tracked_devices()
        for stage in ("validation", "dedup", "feature_evaluations",
                      "pipeline", "tracking"):
            assert stage in tiny_study.stage_timings
            assert tiny_study.stage_timings[stage] >= 0.0


class TestSelfSignatures:
    def test_a_cold_study_checks_each_self_signature_once(
        self, tiny_synthetic, tmp_path, monkeypatch
    ):
        # Chain validation and the feature matrix's self-signed column
        # both ask; the verdict is kept with the certificate.
        from repro.io import load_dataset, save_dataset
        from repro.x509.keys import PublicKey

        path = tmp_path / "tiny.rpz"
        save_dataset(tiny_synthetic.scans, path)
        dataset = load_dataset(path)
        checks = collections.Counter()
        verify = PublicKey.verify

        def counting(key, message, signature):
            checks[key, message, signature] += 1
            return verify(key, message, signature)

        monkeypatch.setattr(PublicKey, "verify", counting)
        world = tiny_synthetic.world
        study = Study(
            dataset=dataset,
            trust_store=world.trust_store,
            as_of=world.routing.origin_as,
            registry=world.registry,
        )
        study.validation()
        study.kernels()
        monkeypatch.undo()
        own = [
            (cert.public_key, cert.tbs_der(), cert.signature)
            for cert in dataset.certificates.values()
        ]
        assert study.invalid and len(set(own)) == len(own)
        assert [checks[check] for check in own] == [1] * len(own)


class TestGroundTruthValidation:
    """The validation the paper could not do: check linking against truth."""

    def test_linked_groups_are_mostly_single_device(self, tiny_synthetic, tiny_study):
        dataset = tiny_synthetic.scans
        pure = impure = 0
        for group in tiny_study.pipeline().groups:
            devices = set()
            for fingerprint in group.fingerprints:
                devices |= {
                    entity
                    for entity in dataset.entities_of(fingerprint)
                    if entity.startswith("device:")
                }
            if len(devices) == 1:
                pure += 1
            else:
                impure += 1
        # The methodology's precision: the vast majority of groups contain
        # exactly one ground-truth device.
        assert pure / (pure + impure) > 0.9

    def test_per_device_recall(self, tiny_synthetic, tiny_study):
        # For stable-key devices with many certificates, linking should
        # recover a large share of each device's reissue chain.
        dataset = tiny_synthetic.scans
        world = tiny_synthetic.world
        fritz = [d for d in world.devices if d.profile.name == "fritzbox"]
        if not fritz:
            return
        linked = tiny_study.pipeline().linked_fingerprints()
        unique = set(tiny_study.unique_invalid)
        covered = total = 0
        for device in fritz:
            entity = f"device:{device.device_id}"
            fps = {
                obs.fingerprint
                for scan in dataset.scans
                for obs in scan.observations
                if obs.entity == entity
            } & unique
            total += len(fps)
            covered += len(fps & linked)
        if total:
            assert covered / total > 0.8
