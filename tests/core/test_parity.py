"""Kernel-vs-oracle parity for every optimized analysis entry point.

Each kernel in ``repro.core`` — the CSR index behind the dataset's
per-certificate accessors, and the §5 census read from the feature
matrix — must answer bitwise-identically to its reference
implementation in ``tests/oracles``.  Three corpora carry the
comparison: the randomized ``random_corpus`` (shared keys, colliding
values, multi-homed and never-observed certificates), the tiny synthetic
world, and a small world that collects TLS handshakes.  A hypothesis
property adds arbitrary hand-built corpora for dedup, grouping and
linking.  CI runs this module under two hash seeds, so iteration-order
luck cannot hide a divergence.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis.issuers import self_signed_fraction, top_issuers
from repro.core.analysis.keys import key_sharing
from repro.core.analysis.longevity import lifetimes, validity_periods
from repro.core.consistency import evaluate_link_result, group_consistency
from repro.core.dedup import classify_unique_certificates
from repro.core.features import Feature, absence_rates, non_uniqueness_census
from repro.core.kernels import ConsistencyCache, fused_group_levels
from repro.core.linking import group_by_feature, link_on_feature
from repro.core.pipeline import iterative_link, lifetime_improvement
from repro.core.validation import validate_dataset
from repro.datasets.synthetic import generate
from repro.internet.population import WorldConfig
from repro.io.artifacts import ArtifactCache
from repro.scanner.dataset import ScanDataset
from repro.serve.engine import _census_aggregates
from repro.x509.truststore import TrustStore

from ..oracles.census import (
    naive_census_aggregates,
    naive_key_sharing,
    naive_lifetimes,
    naive_self_signed_fraction,
    naive_top_issuers,
    naive_validity_periods,
)
from ..oracles.kernels import (
    naive_absence_rates,
    naive_classify,
    naive_evaluate_link_result,
    naive_group_by_feature,
    naive_intervals,
    naive_iterative_link,
    naive_lifetime_improvement,
    naive_link_on_feature,
    naive_non_uniqueness_census,
    naive_validation_results,
)
from ..oracles.rows import verify_index_parity
from .helpers import (
    DAY0,
    make_cert,
    make_dataset,
    make_keypair,
    random_as_of,
    random_corpus,
)

FEATURES = pytest.mark.parametrize(
    "feature", list(Feature), ids=lambda feature: feature.name
)


@pytest.fixture(scope="module")
def handshake_synthetic():
    config = WorldConfig(
        seed=11, n_devices=40, n_websites=10, n_generic_access=10,
        n_enterprise=3, n_hosting=3, unused_roots=0,
    )
    return generate(config, scan_stride=8, collect_handshakes=True)


@pytest.fixture(scope="module", params=["random", "tiny", "handshakes"])
def case(request):
    """(dataset, trust store, AS lookup, full certificate population)."""
    if request.param == "random":
        dataset = random_corpus()
        return dataset, TrustStore(), random_as_of, list(dataset.certificates)
    synthetic = request.getfixturevalue(
        "tiny_synthetic" if request.param == "tiny" else "handshake_synthetic"
    )
    dataset = synthetic.scans
    world = synthetic.world
    return (
        dataset, world.trust_store, world.routing.origin_as,
        list(dataset.certificates),
    )


def test_handshake_world_collects_handshakes(handshake_synthetic):
    assert any(
        obs.handshake is not None
        for scan in handshake_synthetic.scans.scans
        for obs in scan.observations
    )


def test_memoized_validation_matches_unmemoized(case):
    dataset, trust_store, _, _ = case
    report = validate_dataset(dataset, trust_store)
    assert report.results == naive_validation_results(dataset, trust_store)


def test_census_and_absence(case):
    dataset, _, _, population = case
    assert non_uniqueness_census(dataset, population) == \
        naive_non_uniqueness_census(dataset, population)
    assert absence_rates(dataset, population) == \
        naive_absence_rates(dataset, population)


@pytest.mark.parametrize("threshold", [1, 2, 3, 4])
def test_dedup(case, threshold):
    dataset, _, _, population = case
    assert classify_unique_certificates(dataset, population, threshold) == \
        naive_classify(dataset, population, threshold)


@FEATURES
def test_grouping_and_link_intervals(case, feature):
    dataset, _, _, population = case
    buckets = group_by_feature(dataset, population, feature)
    naive = naive_group_by_feature(dataset, population, feature)
    assert buckets == naive
    assert list(buckets) == list(naive)  # same first-appearance order
    cert_ids = dataset.columns.fingerprint_ids
    spans = dataset.intervals
    for members in buckets.values():
        kernel = [
            (spans.first_scan[cert_ids[fp]], spans.last_scan[cert_ids[fp]])
            for fp in members if fp in cert_ids
        ]
        assert kernel == naive_intervals(dataset, members)


@FEATURES
def test_linking_and_fused_consistency(case, feature):
    dataset, _, as_of, population = case
    result = link_on_feature(dataset, population, feature)
    assert result == naive_link_on_feature(dataset, population, feature)
    assert evaluate_link_result(dataset, result, as_of) == \
        naive_evaluate_link_result(dataset, result, as_of)
    cache = ConsistencyCache()
    for group in result.groups:
        assert fused_group_levels(dataset, group.fingerprints, as_of, cache) \
            == tuple(
                group_consistency(dataset, group, level, as_of)
                for level in ("ip", "/24", "as")
            )


def test_iterative_link_and_lifetimes(case):
    dataset, _, as_of, population = case
    unique = sorted(classify_unique_certificates(dataset, population).unique)
    for field_order in (None, list(Feature)):
        pipeline = iterative_link(
            dataset, unique, as_of, field_order=field_order
        )
        assert pipeline.groups == naive_iterative_link(
            dataset, unique, pipeline.field_order
        )
        assert lifetime_improvement(dataset, pipeline, unique) == \
            naive_lifetime_improvement(dataset, pipeline, unique)


def test_index_answers(case):
    verify_index_parity(case[0])


# --- §5 census from the feature matrix ----------------------------------------

def _populations(dataset, population):
    """The whole table (never-observed certificates included), a strided
    half of it, and the observed certificates in ascending order."""
    observed = sorted(fp for fp in population if dataset.scan_indexes_of(fp))
    return [population, population[::2], observed]


def test_census_functions(case):
    dataset, _, _, population = case
    for fingerprints in _populations(dataset, population):
        assert validity_periods(dataset, fingerprints) == \
            naive_validity_periods(dataset, fingerprints)
        assert key_sharing(dataset, fingerprints) == \
            naive_key_sharing(dataset, fingerprints)
        assert self_signed_fraction(dataset, fingerprints) == \
            naive_self_signed_fraction(dataset, fingerprints)
        for n in (1, 5, 50):
            assert top_issuers(dataset, fingerprints, n) == \
                naive_top_issuers(dataset, fingerprints, n)


def test_lifetimes_and_census_aggregates(case):
    dataset, _, _, population = case
    # Lifetimes need a sighting: both sides raise KeyError on a
    # never-observed certificate, so they run over the rest.
    observed = _populations(dataset, population)[-1]
    for fingerprints in (observed, observed[1::3]):
        assert lifetimes(dataset, fingerprints) == \
            naive_lifetimes(dataset, fingerprints)
        assert _census_aggregates(dataset, fingerprints) == \
            naive_census_aggregates(dataset, fingerprints)
    never = sorted(set(population) - set(observed))
    for census in (lifetimes, naive_lifetimes,
                   _census_aggregates, naive_census_aggregates):
        for fingerprint in never:
            with pytest.raises(KeyError):
                census(dataset, [fingerprint])


def _assert_self_signed_column(matrix, certificates):
    assert len(matrix.self_signed) == len(certificates)
    for fingerprint, certificate in certificates.items():
        assert matrix.self_signed[matrix.rows[fingerprint]] == \
            certificate.is_self_signed()


def test_self_signed_column(case):
    dataset = case[0]
    _assert_self_signed_column(dataset.feature_matrix, dataset.certificates)
    assert any(dataset.feature_matrix.self_signed)


@pytest.mark.parametrize("order", ["stored", "reversed"])
def test_self_signed_column_after_rpa_decode(case, order, tmp_path):
    dataset = case[0]
    writer = ScanDataset(list(dataset.scans), dict(dataset.certificates))
    writer.index, writer.intervals, writer.feature_matrix
    cache = ArtifactCache(tmp_path)
    cache.store(writer)
    # A reversed certificate table takes _decode_matrix's reordering
    # branch (stored != wanted); the digest pins only the set.
    certificates = dict(dataset.certificates)
    if order == "reversed":
        certificates = dict(reversed(certificates.items()))
    reader = ScanDataset(list(dataset.scans), certificates)
    assert cache.load(reader).kernels
    assert reader.feature_matrix.fingerprints == list(certificates)
    _assert_self_signed_column(reader.feature_matrix, certificates)


# --- property: arbitrary hand-built corpora ---------------------------------

def _certificate_pool():
    """Eight certificates over three keys and two names, three Not Befores."""
    keypairs = [make_keypair(seed) for seed in (1, 2, 3)]
    return [
        make_cert(
            cn=("fritz.box", "192.168.1.1")[index % 2],
            keypair=keypairs[index % 3],
            nb=DAY0 - 10 * (index % 3),
            nb_secs=1234,
            serial=index,
        )
        for index in range(8)
    ]


_POOL = _certificate_pool()

_SCANS = st.lists(
    st.lists(
        st.tuples(st.integers(0, len(_POOL) - 1), st.integers(1, 6)),
        max_size=10,
    ),
    min_size=1,
    max_size=5,
)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(scans=_SCANS)
def test_property_dedup_grouping_linking(scans):
    dataset = make_dataset([
        (DAY0 + 7 * day, [(ip, _POOL[index]) for index, ip in rows])
        for day, rows in enumerate(scans)
    ])
    for cert in _POOL:  # the unobserved rest stays in the table
        dataset.certificates.setdefault(cert.fingerprint, cert)
    population = [cert.fingerprint for cert in _POOL]
    for threshold in (1, 2, 3):
        assert classify_unique_certificates(dataset, population, threshold) \
            == naive_classify(dataset, population, threshold)
    for feature in Feature:
        assert group_by_feature(dataset, population, feature) == \
            naive_group_by_feature(dataset, population, feature)
        assert link_on_feature(dataset, population, feature) == \
            naive_link_on_feature(dataset, population, feature)
