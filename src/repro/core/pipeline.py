"""§6.4 — The full linking pipeline and its evaluation.

Three stages, mirroring the paper:

1. :func:`evaluate_all_features` — link *every* candidate field
   independently over the deduplicated invalid population and score each
   with IP-/24-/AS-level consistency (Table 6), including the
   "uniquely linked" row (certificates only that field can link).
2. :func:`iterative_link` — §6.4.3: consider the usable fields (AS-level
   consistency above a threshold, excluding Not Before / Not After /
   Issuer+Serial when they fall below it) in decreasing AS-consistency
   order; link with field 1, remove the linked certificates, continue with
   field 2, and so on.  Produces the final device groups of Figure 10.
3. :func:`lifetime_improvement` — §6.4.4: how linking changes the apparent
   population: single-scan fraction drops (61 % → 50.7 % in the paper) and
   mean lifetime rises (95.4 → 132.3 days) once each linked group is
   treated as one device.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..obs import runtime as obs
from ..scanner.dataset import ScanDataset
from ..stats.cdf import CDF
from .consistency import ASLookup, ConsistencyReport, evaluate_link_result
from .features import Feature
from .kernels import ConsistencyCache
from .linking import LinkedGroup, LinkResult, link_on_feature

__all__ = [
    "FeatureEvaluation",
    "evaluate_all_features",
    "PipelineResult",
    "iterative_link",
    "LifetimeImprovement",
    "lifetime_improvement",
    "DEFAULT_CONSISTENCY_THRESHOLD",
]

#: §6.4.3: fields below 90 % AS-level consistency are not used for linking.
DEFAULT_CONSISTENCY_THRESHOLD = 0.90

#: Evaluation order of Table 6 (columns left to right).
TABLE6_FEATURES: tuple[Feature, ...] = (
    Feature.PUBLIC_KEY,
    Feature.NOT_BEFORE,
    Feature.COMMON_NAME,
    Feature.NOT_AFTER,
    Feature.ISSUER_SERIAL,
    Feature.SAN_LIST,
    Feature.CRL,
    Feature.AIA,
    Feature.OCSP,
    Feature.OID,
)


@dataclass
class FeatureEvaluation:
    """One Table 6 column: linking plus its consistency scores."""

    feature: Feature
    result: LinkResult
    consistency: ConsistencyReport
    uniquely_linked: int = 0

    @property
    def total_linked(self) -> int:
        return self.result.total_linked


def _evaluate_one_feature(
    dataset: ScanDataset,
    fingerprints: list[bytes],
    feature: Feature,
    overlap_allowance: int,
    as_of: ASLookup,
    cache: Optional[ConsistencyCache] = None,
) -> FeatureEvaluation:
    """One Table 6 column: link the field, then score its consistency."""
    result = link_on_feature(dataset, fingerprints, feature, overlap_allowance)
    consistency = evaluate_link_result(dataset, result, as_of, cache)
    return FeatureEvaluation(feature, result, consistency)


def _build_kernels(dataset: ScanDataset) -> None:
    """Force the columnar kernels (index, intervals, feature matrix)."""
    dataset.index
    dataset.intervals
    dataset.feature_matrix


# Per-feature passes are independent, so they fan out over a process
# pool; the corpus, population, and prebuilt kernels ship once per worker
# via the pool initializer rather than once per feature.  Each worker
# keeps its own ConsistencyCache, shared across its features.
_EVAL_CONTEXT: Optional[tuple] = None


def _init_eval_worker(
    dataset: ScanDataset,
    fingerprints: list[bytes],
    overlap_allowance: int,
    as_of: ASLookup,
    obs_enabled: bool = False,
) -> None:
    global _EVAL_CONTEXT
    obs.install_worker(obs_enabled)
    _build_kernels(dataset)  # no-op when they arrived with the pickle
    _EVAL_CONTEXT = (
        dataset, fingerprints, overlap_allowance, as_of, ConsistencyCache()
    )


def _evaluate_feature_task(
    feature: Feature,
) -> "tuple[FeatureEvaluation, Optional[dict]]":
    dataset, fingerprints, overlap_allowance, as_of, cache = _EVAL_CONTEXT
    mark = obs.task_mark()
    with obs.span(f"link/feature={feature.name}"):
        evaluation = _evaluate_one_feature(
            dataset, fingerprints, feature, overlap_allowance, as_of, cache
        )
    return evaluation, obs.task_delta(mark)


def evaluate_all_features(
    dataset: ScanDataset,
    fingerprints: Iterable[bytes],
    as_of: ASLookup,
    features: Sequence[Feature] = TABLE6_FEATURES,
    overlap_allowance: int = 1,
    workers: int = 1,
) -> dict[Feature, FeatureEvaluation]:
    """Produce Table 6: every field linked and scored independently.

    ``workers > 1`` runs the per-feature passes over a process pool; each
    pass is a pure function of (corpus, population, feature), so results
    are identical to the serial path in every detail.
    """
    fingerprints = list(fingerprints)
    evaluations: dict[Feature, FeatureEvaluation] = {}
    _build_kernels(dataset)  # before any fork, so workers inherit them
    if workers <= 1 or len(features) <= 1:
        cache = ConsistencyCache()  # shared across the features
        for feature in features:
            with obs.span(f"link/feature={feature.name}"):
                evaluations[feature] = _evaluate_one_feature(
                    dataset, fingerprints, feature, overlap_allowance, as_of,
                    cache,
                )
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(features)),
            initializer=_init_eval_worker,
            initargs=(dataset, fingerprints, overlap_allowance, as_of,
                      obs.enabled()),
        ) as pool:
            for feature, (evaluation, delta) in zip(
                features, pool.map(_evaluate_feature_task, features)
            ):
                evaluations[feature] = evaluation
                obs.absorb(delta)
    obs.inc("pipeline.features_evaluated", len(evaluations))
    # "Uniquely linked": certificates linked by exactly one field.
    membership: dict[bytes, list[Feature]] = {}
    for feature, evaluation in evaluations.items():
        for fingerprint in evaluation.result.linked_fingerprints:
            membership.setdefault(fingerprint, []).append(feature)
    for feature, evaluation in evaluations.items():
        evaluation.uniquely_linked = sum(
            1 for linked_by in membership.values() if linked_by == [feature]
        )
    return evaluations


@dataclass
class PipelineResult:
    """Final device groups from the iterative §6.4.3 linking."""

    groups: list[LinkedGroup]
    field_order: tuple[Feature, ...]
    #: Fields excluded for insufficient AS-level consistency.
    excluded: tuple[Feature, ...] = ()
    input_size: int = 0

    @property
    def linked_certificates(self) -> int:
        return sum(len(group) for group in self.groups)

    @property
    def linked_fraction(self) -> float:
        """Paper: 39.4 % of invalid certificates end up linked."""
        return self.linked_certificates / self.input_size if self.input_size else 0.0

    def linked_fingerprints(self) -> set[bytes]:
        return {fp for group in self.groups for fp in group.fingerprints}

    def group_size_cdf(self, feature: Optional[Feature] = None) -> CDF:
        """Figure 10: distribution of group sizes, overall or per field."""
        sizes = [
            len(group)
            for group in self.groups
            if feature is None or group.feature is feature
        ]
        return CDF.of(sizes)

    def groups_of(self, feature: Feature) -> list[LinkedGroup]:
        return [group for group in self.groups if group.feature is feature]


def iterative_link(
    dataset: ScanDataset,
    fingerprints: Iterable[bytes],
    as_of: ASLookup,
    evaluations: Optional[dict[Feature, FeatureEvaluation]] = None,
    threshold: float = DEFAULT_CONSISTENCY_THRESHOLD,
    overlap_allowance: int = 1,
    field_order: Optional[Sequence[Feature]] = None,
) -> PipelineResult:
    """§6.4.3: link fields in decreasing AS-consistency order.

    ``field_order`` overrides the computed order (used by the field-order
    ablation); otherwise the order comes from ``evaluations`` (computed
    here when not supplied), keeping only fields at or above ``threshold``.
    """
    fingerprints = list(fingerprints)
    excluded: tuple[Feature, ...] = ()
    if field_order is None:
        if evaluations is None:
            evaluations = evaluate_all_features(
                dataset, fingerprints, as_of, overlap_allowance=overlap_allowance
            )
        usable = [
            evaluation
            for evaluation in evaluations.values()
            if evaluation.consistency.as_level >= threshold
            and evaluation.total_linked > 0
        ]
        usable.sort(key=lambda e: e.consistency.as_level, reverse=True)
        field_order = [evaluation.feature for evaluation in usable]
        excluded = tuple(
            feature for feature in evaluations if feature not in field_order
        )

    remaining = set(fingerprints)
    groups: list[LinkedGroup] = []
    for feature in field_order:
        with obs.span(f"pipeline/field={feature.name}"):
            result = link_on_feature(
                dataset, remaining, feature, overlap_allowance
            )
        groups.extend(result.groups)
        remaining -= result.linked_fingerprints
    if obs.enabled():
        obs.inc("pipeline.fields_used", len(tuple(field_order)))
        obs.inc("pipeline.fields_excluded", len(excluded))
        obs.inc("pipeline.certs_linked", sum(len(group) for group in groups))
        obs.inc("pipeline.certs_unlinked", len(remaining))
        for group in groups:
            obs.observe("pipeline.group_size", len(group))
    return PipelineResult(
        groups=groups,
        field_order=tuple(field_order),
        excluded=excluded,
        input_size=len(fingerprints),
    )


@dataclass(frozen=True)
class LifetimeImprovement:
    """§6.4.4: apparent-population statistics before vs after linking."""

    single_scan_fraction_before: float
    single_scan_fraction_after: float
    mean_lifetime_before: float
    mean_lifetime_after: float


def lifetime_improvement(
    dataset: ScanDataset,
    pipeline: PipelineResult,
    fingerprints: Iterable[bytes],
) -> LifetimeImprovement:
    """Treat each linked group as one device and recompute lifetimes.

    'Before' is per certificate; 'after' replaces each group's members with
    a single unit spanning from the group's first to last sighting, while
    unlinked certificates keep their own lifetimes.  A certificate no
    scan observed has no lifetime and counts on neither side.
    Lifetimes, single-scan flags, and per-group spans all come from the
    (first, last) scan-index arrays of ``dataset.intervals`` in one pass
    per fingerprint — a group's first (last) sighting is the min (max)
    of its members' interval endpoints, and the merged unit is
    single-scan exactly when those coincide.
    """
    fingerprints = list(fingerprints)
    cert_ids = dataset.columns.fingerprint_ids
    spans = dataset.intervals
    first_scan, last_scan, n_scans = spans.first_scan, spans.last_scan, spans.n_scans
    days = [scan.day for scan in dataset.scans]

    linked = pipeline.linked_fingerprints()
    before: list[int] = []
    before_single: list[bool] = []
    after: list[int] = []
    after_single: list[bool] = []
    for fingerprint in fingerprints:
        cert_id = cert_ids.get(fingerprint)
        if cert_id is None:
            continue
        lifetime = days[last_scan[cert_id]] - days[first_scan[cert_id]] + 1
        single = n_scans[cert_id] == 1
        before.append(lifetime)
        before_single.append(single)
        if fingerprint not in linked:
            after.append(lifetime)
            after_single.append(single)
    for group in pipeline.groups:
        member_ids = [cert_ids[fp] for fp in group.fingerprints]
        first = min(first_scan[cert_id] for cert_id in member_ids)
        last = max(last_scan[cert_id] for cert_id in member_ids)
        after.append(days[last] - days[first] + 1)
        after_single.append(first == last)

    return LifetimeImprovement(
        single_scan_fraction_before=sum(before_single) / len(before_single),
        single_scan_fraction_after=sum(after_single) / len(after_single),
        mean_lifetime_before=sum(before) / len(before),
        mean_lifetime_after=sum(after) / len(after),
    )
