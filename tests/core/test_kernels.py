"""Kernel-vs-oracle parity for the §6 columnar linking kernels.

Every kernel (FeatureMatrix grouping/census, CertIntervals dedup and
lifetimes, fused consistency) must be bitwise-identical to the pre-kernel
row path kept in ``tests/oracles``.  These tests build a randomized
corpus — shared keys, colliding Common Names and Not Before stamps,
IP-literal CNs, multi-homed and zero-observation certificates — and
compare both paths explicitly over its full certificate population.
"""

import pytest

from repro.core.consistency import evaluate_link_result, group_consistency
from repro.core.dedup import classify_unique_certificates
from repro.core.features import (
    Feature,
    absence_rates,
    extract,
    linkable_value,
    non_uniqueness_census,
)
from repro.core.kernels import fused_group_consistency
from repro.core.linking import group_by_feature, link_on_feature
from repro.core.pipeline import iterative_link, lifetime_improvement

from ..oracles.kernels import (
    naive_absence_rates,
    naive_classify,
    naive_group_by_feature,
    naive_iterative_link,
    naive_lifetime_improvement,
    naive_link_on_feature,
    naive_non_uniqueness_census,
)
from .helpers import (
    DAY0,
    make_cert,
    make_dataset,
    make_keypair,
    random_as_of,
    random_corpus,
)


@pytest.fixture(scope="module")
def corpus():
    return random_corpus()


@pytest.fixture(scope="module")
def population(corpus):
    return sorted(corpus.certificates)


class TestFeatureMatrix:
    def test_round_trips_every_extracted_value(self, corpus):
        matrix = corpus.feature_matrix
        for fingerprint, cert in corpus.certificates.items():
            for feature in Feature:
                assert matrix.raw_value(feature, fingerprint) == extract(cert, feature)

    def test_linkable_ids_drop_ip_literal_cns(self, corpus):
        matrix = corpus.feature_matrix
        for fingerprint, cert in corpus.certificates.items():
            value_id = matrix.linkable_id(Feature.COMMON_NAME, fingerprint)
            expected = linkable_value(cert, Feature.COMMON_NAME)
            if expected is None:
                assert value_id == -1
            else:
                assert matrix.values[Feature.COMMON_NAME][value_id] == expected

    def test_equal_values_share_one_id(self, corpus):
        matrix = corpus.feature_matrix
        for feature in Feature:
            values = matrix.values[feature]
            assert len(values) == len(set(values))

    def test_census_and_absence_match_naive(self, corpus, population):
        assert non_uniqueness_census(corpus, population) == \
            naive_non_uniqueness_census(corpus, population)
        assert absence_rates(corpus, population) == \
            naive_absence_rates(corpus, population)


class TestIntervalKernel:
    def test_intervals_match_ips_by_scan(self, corpus):
        spans = corpus.intervals
        for fingerprint, cert_id in corpus.columns.fingerprint_ids.items():
            by_scan = corpus.ips_by_scan(fingerprint)
            scan_idxs = sorted(by_scan)
            sizes = [len(ips) for ips in by_scan.values()]
            assert spans.first_scan[cert_id] == scan_idxs[0]
            assert spans.last_scan[cert_id] == scan_idxs[-1]
            assert spans.n_scans[cert_id] == len(scan_idxs)
            assert spans.max_ips[cert_id] == max(sizes)
            assert spans.min_ips[cert_id] == min(sizes)

    def test_dedup_matches_naive_at_every_threshold(self, corpus, population):
        for threshold in (1, 2, 3, 4):
            kernel = classify_unique_certificates(corpus, population, threshold)
            naive = naive_classify(corpus, population, threshold)
            assert kernel == naive

    def test_zero_observation_certificate_is_unique(self, corpus, population):
        # Regression: max(sizes) used to raise ValueError on an empty
        # sequence for table-only certificates; they are single-device.
        ghosts = set(population) - set(corpus.columns.fingerprint_ids)
        assert ghosts, "corpus should carry never-observed certificates"
        result = classify_unique_certificates(corpus, population)
        assert ghosts <= result.unique

    def test_zero_observation_minimal_case(self):
        seen = make_cert(cn="seen", key_seed=1)
        ghost = make_cert(cn="ghost", key_seed=2)
        dataset = make_dataset([(DAY0, [(100, seen)])])
        dataset.certificates[ghost.fingerprint] = ghost
        result = classify_unique_certificates(
            dataset, [seen.fingerprint, ghost.fingerprint]
        )
        assert ghost.fingerprint in result.unique
        assert seen.fingerprint in result.unique


class TestLinkingKernels:
    @pytest.mark.parametrize("feature", list(Feature), ids=lambda f: f.name)
    def test_grouping_matches_naive(self, corpus, population, feature):
        kernel = group_by_feature(corpus, population, feature)
        naive = naive_group_by_feature(corpus, population, feature)
        assert kernel == naive
        assert list(kernel) == list(naive)  # same first-appearance order

    @pytest.mark.parametrize("feature", list(Feature), ids=lambda f: f.name)
    def test_linking_matches_naive(self, corpus, population, feature):
        # The full population holds never-observed certificates that
        # share key and name values with observed ones.
        assert link_on_feature(corpus, population, feature) == \
            naive_link_on_feature(corpus, population, feature)

    @pytest.mark.parametrize("feature", list(Feature), ids=lambda f: f.name)
    def test_consistency_matches_reference(self, corpus, feature):
        observed = sorted(corpus.columns.fingerprint_ids)
        result = link_on_feature(corpus, observed, feature)
        report = evaluate_link_result(corpus, result, random_as_of)
        for group in result.groups:
            fused = fused_group_consistency(
                corpus, group.fingerprints, random_as_of
            )
            reference = tuple(
                group_consistency(corpus, group, level, random_as_of)
                for level in ("ip", "/24", "/16", "as")
            )
            assert fused == reference
        assert report.total_linked == result.total_linked

    def test_fused_levels_without_as_lookup(self, corpus):
        observed = sorted(corpus.columns.fingerprint_ids)
        ip_level, s24, s16, as_level = fused_group_consistency(
            corpus, observed[:5], None
        )
        assert as_level == 0.0
        assert 0.0 <= ip_level <= s24 <= s16 <= 1.0


class TestNeverObservedCertificates:
    """A certificate only in the map has no lifetime and links to nothing."""

    def test_shared_key_with_a_never_observed_certificate(self):
        keypair = make_keypair(42)
        seen = make_cert(cn="seen", keypair=keypair)
        ghost = make_cert(cn="ghost", keypair=keypair)
        dataset = make_dataset(
            [(DAY0, [(100, seen)]), (DAY0 + 7, [(100, seen)])]
        )
        dataset.certificates[ghost.fingerprint] = ghost
        population = [seen.fingerprint, ghost.fingerprint]
        assert classify_unique_certificates(dataset, population).unique == \
            set(population)
        result = link_on_feature(dataset, population, Feature.PUBLIC_KEY)
        assert result.groups == []
        assert result.singleton_values == 1
        assert result == naive_link_on_feature(
            dataset, population, Feature.PUBLIC_KEY
        )
        pipeline = iterative_link(
            dataset, population, random_as_of,
            field_order=[Feature.PUBLIC_KEY],
        )
        assert pipeline.groups == []
        improvement = lifetime_improvement(dataset, pipeline, population)
        assert improvement == naive_lifetime_improvement(
            dataset, pipeline, population
        )
        assert improvement.mean_lifetime_before == 8  # the ghost counts nowhere


class TestEndToEndParity:
    @pytest.mark.parametrize(
        "field_order", [None, list(Feature)], ids=["computed", "every-field"]
    )
    def test_pipeline_matches_oracles(self, corpus, population, field_order):
        dedup = classify_unique_certificates(corpus, population)
        unique = sorted(dedup.unique)
        pipeline = iterative_link(
            corpus, unique, random_as_of, field_order=field_order
        )
        assert pipeline.groups == naive_iterative_link(
            corpus, unique, pipeline.field_order
        )
        assert lifetime_improvement(corpus, pipeline, unique) == \
            naive_lifetime_improvement(corpus, pipeline, unique)

    def test_matrix_survives_pickling(self, corpus):
        # Workers receive the kernels with the pickled dataset.
        import pickle

        corpus.feature_matrix
        corpus.intervals
        clone = pickle.loads(pickle.dumps(corpus))
        assert clone._feature_matrix is not None
        assert clone._intervals is not None
        assert clone.feature_matrix.rows == corpus.feature_matrix.rows
        assert list(clone.intervals.first_scan) == list(corpus.intervals.first_scan)
