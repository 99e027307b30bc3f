"""End-to-end study facade.

:class:`Study` wires the full paper pipeline over one scan corpus:

    scans → validation (§4.2) → comparison analyses (§5)
          → dedup (§6.2) → per-field linking + consistency (§6.3–6.4)
          → iterative pipeline (§6.4.3) → device tracking (§7)

Each stage is computed once and cached; downstream stages pull upstream
ones automatically, so ``study.movement()`` alone runs everything it
needs.  Construct from a synthetic dataset with :meth:`from_synthetic`,
or from any :class:`~repro.scanner.dataset.ScanDataset` plus a trust
store, AS lookup, and registry for real scan corpora.  With an artifact
cache, kernels and verdicts load from it, and so does the tracking state
(:meth:`Study.tracking`: link plan, devices, key groups, §7.4
outcomes), so a warm study never runs Table 6; each stage asks the cache
only for the sections it reads.

Every cached stage runs inside a :class:`~repro.obs.trace.Tracer` span,
so a study always carries its own span tree (:attr:`Study.trace`);
:attr:`Study.stage_timings` (stage name → seconds) is a derived view of
that tree kept for benchmark harnesses.  Constructing with
``observe=True`` — or activating :mod:`repro.obs.runtime` globally, e.g.
via ``REPRO_OBS=1`` — additionally turns on the deep instrumentation in
the scan engine, dedup, linking, and kernels, recording into
:attr:`Study.metrics` and the same tracer.  ``workers > 1`` fans the
independent per-feature Table 6 passes out over a process pool; results
(and worker-aggregated metrics) are identical to the serial path.  A
dataset opened from a format 3 container ships to those workers as its
container *path* — each worker re-maps the file, so the fan-out shares
one physical copy of the columns through the page cache instead of
pickling them per process.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import contextmanager
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .core.consistency import ASLookup
from .core.dedup import DedupResult, classify_unique_certificates
from .core.features import Feature
from .core.pipeline import (
    TABLE6_FEATURES,
    FeatureEvaluation,
    LifetimeImprovement,
    PipelineResult,
    evaluate_all_features,
    iterative_link,
    lifetime_improvement,
)
from .core.tracking import (
    MovementReport,
    ReassignmentReport,
    TrackableReport,
    TrackedDevice,
    TrackingState,
    analyze_movement,
    build_tracked_devices,
    infer_reassignment_policies,
    trackable_devices,
)
from .core.validation import ValidationReport, validate_dataset
from .datasets.synthetic import SyntheticDataset
from .net.asn import ASRegistry
from .obs import runtime as obs_runtime
from .obs.metrics import MetricsRegistry
from .obs.trace import Tracer
from .scanner.dataset import ScanDataset
from .x509.certificate import Certificate
from .x509.truststore import TrustStore

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .io.artifacts import ArtifactCache

__all__ = ["Study"]


class Study:
    """One full reproduction run over a scan corpus."""

    def __init__(
        self,
        dataset: ScanDataset,
        trust_store: TrustStore,
        as_of: ASLookup,
        registry: Optional[ASRegistry] = None,
        workers: int = 1,
        trace: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        observe: bool = False,
        cache: Optional["ArtifactCache"] = None,
        extra_intermediates: Iterable[Certificate] = (),
        link_plan: Optional[Iterable[str]] = None,
    ) -> None:
        self.dataset = dataset
        self.trust_store = trust_store
        self.as_of = as_of
        self.registry = registry
        #: Process fan-out for the independent per-feature passes.
        self.workers = workers
        #: Extra intermediate CA certificates pooled into §4.2 chain
        #: building on top of the corpus's own certificates.  A shard of
        #: a split corpus carries the parent's off-shard CAs here so its
        #: verdicts match the parent's exactly (transvalid chains need
        #: issuers that may live on other shards).  Cached verdicts are
        #: keyed on their fingerprints too; a sequence with a
        #: ``fingerprints`` attribute (a shard's, from
        #: :func:`~repro.io.split.read_shard_fleet`) is kept as given,
        #: so its certificates parse only when validation runs cold.
        self.extra_intermediates = (
            extra_intermediates if isinstance(extra_intermediates, Sequence)
            else tuple(extra_intermediates)
        )
        #: Pinned §6.4.3 field order (feature names).  When set — e.g.
        #: from a shard container's ``fleet.link_plan`` — the iterative
        #: pipeline links in exactly this order instead of re-deriving it
        #: from shard-local consistency scores, so shard-local groups are
        #: the global groups restricted to the shard.  An empty tuple
        #: pins "link nothing".
        self.link_plan = (
            None if link_plan is None
            else tuple(Feature(name) for name in link_plan)
        )
        #: The study's span tree; every stage records here.  Adopts the
        #: globally active tracer when one exists, so a CLI run gets one
        #: unified tree covering corpus generation and analysis.
        self.trace = trace if trace is not None else (
            obs_runtime.tracer() or Tracer()
        )
        #: Counters/gauges/histograms of the deep instrumentation
        #: (populated only when :attr:`observe` is on).
        self.metrics = metrics if metrics is not None else (
            obs_runtime.registry() or MetricsRegistry()
        )
        #: When on, stages activate the tracer/registry process-wide so
        #: the instrumentation inside the engine, dedup, linking, and
        #: kernel layers records too (never changes results).
        self.observe = observe or obs_runtime.enabled()
        #: Optional content-addressed artifact cache: when set, kernel
        #: builds and chain validation are loaded from (and persisted
        #: to) disk, keyed by the corpus digest.  Never changes results.
        self.cache = cache
        #: Sections already asked of the cache (each is asked once).
        self._asked: set[str] = set()
        self._kernels_built = False
        self._validation: Optional[ValidationReport] = None
        self._dedup: Optional[DedupResult] = None
        self._evaluations: Optional[dict[Feature, FeatureEvaluation]] = None
        self._pipeline: Optional[PipelineResult] = None
        self._devices: Optional[list[TrackedDevice]] = None
        self._tracking: Optional[TrackingState] = None

    @classmethod
    def from_synthetic(
        cls, synthetic: SyntheticDataset, workers: int = 1,
        observe: bool = False, cache: Optional["ArtifactCache"] = None,
    ) -> "Study":
        """Wire a study over a generated dataset."""
        world = synthetic.world
        return cls(
            dataset=synthetic.scans,
            trust_store=world.trust_store,
            as_of=world.routing.origin_as,
            registry=world.registry,
            workers=workers,
            observe=observe,
            cache=cache,
        )

    @contextmanager
    def _stage(self, name: str) -> Iterator[None]:
        """One pipeline stage: a span on the study tracer, and — when
        observing — the tracer/registry installed process-wide so the
        stage's internals record into them too."""
        if self.observe:
            with obs_runtime.activated(self.trace, self.metrics):
                with self.trace.span(name):
                    yield
        else:
            with self.trace.span(name):
                yield

    @property
    def stage_timings(self) -> dict[str, float]:
        """Stage name → wall-clock seconds, derived from the span tree.

        The backward-compatible flat view: one entry per stage name (bare
        names — ``validation``, ``dedup``, …) plus the ``kernels``
        sub-steps flattened to their historical ``kernels_<substrate>``
        keys, each the total over every span of that name (a cold study
        runs ``artifacts.store`` once per section it computes).  Detail
        spans (``link/feature=…``, ``scan/day=…``) stay in :attr:`trace`
        only.
        """
        by_id = {span.span_id: span for span in self.trace.spans}
        timings: dict[str, float] = {}
        for span in self.trace.spans:
            name = span.name
            if "/" in name or "=" in name:
                parent = by_id.get(span.parent_id)
                if parent is None or parent.name != "kernels" \
                        or not name.startswith("kernels/"):
                    continue
                name = "kernels_" + name.split("/", 1)[1]
            timings[name] = timings.get(name, 0.0) + span.wall
        return timings

    # --- artifact cache ---------------------------------------------------------

    def _load_artifacts(self, *sections: str) -> None:
        """Ask the artifact cache, in one ``artifacts.load`` stage, for
        those of ``sections`` not asked for yet; install what it holds.

        Each stage asks only for the sections it reads:
        :meth:`validation` and :meth:`kernels` for the verdicts and the
        kernels, :meth:`pipeline` and :meth:`tracked_devices` for the
        tracking state alone (it holds the link plan and the devices, so
        a warm §7 run maps no kernel and decodes no verdict), and
        :meth:`tracking` — the query plane's state, which its callers
        read beside the kernels and verdicts — for all three at once.
        The stages a hit satisfies never exist, so there are no phantom
        zero-duration spans in the profile.  A corpus that is a recorded
        delta-append of a cached base (``repro append --cache-dir``)
        still warm-starts its kernels: the cache delta-merges the base's
        artifacts over the appended rows instead of missing (see
        ``artifacts.extended`` in :mod:`repro.io.artifacts`).
        """
        if self.cache is None:
            return
        wanted = set(sections) - self._asked
        if "tracking" in wanted and self._tracking_key is None:
            wanted.discard("tracking")
        if not wanted:
            return
        self._asked |= wanted
        with self._stage("artifacts.load"):
            loaded = self.cache.load(
                self.dataset,
                trust_store=(
                    self.trust_store if "validation" in wanted else None
                ),
                workers=self.workers,
                extra_fingerprints=self._extra_fingerprints(),
                tracking=(
                    self._tracking_key if "tracking" in wanted else None
                ),
                kernels="kernels" in wanted,
            )
        if loaded.kernels:
            self._kernels_built = True
        if loaded.validation is not None and self._validation is None:
            self._validation = loaded.validation
        if loaded.tracking is not None and self._tracking is None:
            self._tracking = loaded.tracking
            self._devices = loaded.tracking.devices

    def _extra_fingerprints(self) -> Sequence[bytes]:
        fingerprints = getattr(self.extra_intermediates, "fingerprints", None)
        if fingerprints is None:
            fingerprints = [cert.fingerprint for cert in self.extra_intermediates]
        return fingerprints

    @cached_property
    def _tracking_key(self) -> Optional[str]:
        """The tracking section's key (None: no cache, or ``as_of`` reads
        no routing history — then the section is never loaded or stored)."""
        if self.cache is None:
            return None
        from .io.artifacts import tracking_key, verdict_key

        return tracking_key(
            verdict_key(self.trust_store, self._extra_fingerprints()),
            self.as_of, self.link_plan,
        )

    def _store_artifacts(self) -> None:
        """Persist the currently built artifacts (no-op without a cache).

        The cache skips what it already holds intact, so each section
        file is written once however often this runs."""
        if self.cache is None:
            return
        key = self._tracking_key if self._tracking is not None else None
        with self._stage("artifacts.store"):
            self.cache.store(
                self.dataset, validation=self._validation,
                trust_store=self.trust_store, workers=self.workers,
                extra_fingerprints=self._extra_fingerprints(),
                tracking=None if key is None else (key, self._tracking),
            )

    # --- §4.2 ------------------------------------------------------------------

    def validation(self) -> ValidationReport:
        """Classify every certificate (cached)."""
        if self._validation is None:
            self._load_artifacts("kernels", "validation")
        if self._validation is None:
            with self._stage("validation"):
                self._validation = validate_dataset(
                    self.dataset, self.trust_store,
                    extra_intermediates=self.extra_intermediates,
                )
            self._store_artifacts()
        return self._validation

    @property
    def invalid(self) -> set[bytes]:
        """Fingerprints of the invalid certificates."""
        return self.validation().invalid

    @property
    def valid(self) -> set[bytes]:
        """Fingerprints of the valid certificates."""
        return self.validation().valid

    # --- §6 kernels -------------------------------------------------------------

    def kernels(self) -> None:
        """Build the columnar kernel layer once (cached on the dataset).

        The CSR observation index, the per-certificate interval arrays,
        and the feature matrix back every §6 stage; building them here
        keeps their one-time cost out of the per-stage timings.  Every
        entry point — an explicit call or the lazy pull from ``dedup`` /
        ``feature_evaluations`` — lands here, so the ``kernels`` span
        (and its ``kernels/index``, ``kernels/intervals``,
        ``kernels/matrix`` children, flattened into ``stage_timings`` as
        ``kernels_<substrate>``) is recorded exactly once regardless of
        which stage triggered the build.
        """
        if self._kernels_built:
            return
        self._load_artifacts("kernels", "validation")
        if self._kernels_built:
            return
        with self._stage("kernels"):
            with self.trace.span("kernels/index"):
                self.dataset.build_columns(workers=self.workers)
                self.dataset.index
            with self.trace.span("kernels/intervals"):
                self.dataset.intervals
            with self.trace.span("kernels/matrix"):
                self.dataset.build_feature_matrix(workers=self.workers)
        self._kernels_built = True
        self._store_artifacts()

    # --- §6.2 -------------------------------------------------------------------

    def dedup(self) -> DedupResult:
        """Apply the two-address uniqueness rule to the invalid population."""
        if self._dedup is None:
            invalid = self.invalid
            self.kernels()
            with self._stage("dedup"):
                self._dedup = classify_unique_certificates(
                    self.dataset, invalid
                )
        return self._dedup

    @property
    def unique_invalid(self) -> Iterable[bytes]:
        """Invalid certificates attributable to single devices."""
        return self.dedup().unique

    # --- §6.3–6.4 ------------------------------------------------------------------

    def feature_evaluations(self) -> dict[Feature, FeatureEvaluation]:
        """Table 6: per-field linking and consistency (cached)."""
        if self._evaluations is None:
            unique_invalid = list(self.unique_invalid)
            self.kernels()
            with self._stage("feature_evaluations"):
                self._evaluations = evaluate_all_features(
                    self.dataset, unique_invalid, self.as_of,
                    workers=self.workers,
                )
        return self._evaluations

    def pipeline(self) -> PipelineResult:
        """The iterative §6.4.3 linking (cached).

        With a pinned :attr:`link_plan`, or the plan a cached tracking
        state recorded, the per-feature evaluations are never consulted
        (or computed) — the pipeline links in that order directly.
        """
        if self._pipeline is None:
            plan, excluded = self.link_plan, ()
            if plan is None and self._evaluations is None:
                self._load_artifacts("tracking")
                if self._tracking is not None:
                    # A derived plan: Table 6's other fields were excluded.
                    plan = self._tracking.link_plan
                    excluded = tuple(
                        feature for feature in TABLE6_FEATURES
                        if feature not in plan
                    )
            if plan is not None:
                self.kernels()
                with self._stage("pipeline"):
                    self._pipeline = iterative_link(
                        self.dataset,
                        self.unique_invalid,
                        self.as_of,
                        field_order=plan,
                    )
                self._pipeline.excluded = excluded
            else:
                evaluations = self.feature_evaluations()
                with self._stage("pipeline"):
                    self._pipeline = iterative_link(
                        self.dataset,
                        self.unique_invalid,
                        self.as_of,
                        evaluations=evaluations,
                    )
        return self._pipeline

    def lifetime_improvement(self) -> LifetimeImprovement:
        """§6.4.4: population statistics before vs after linking."""
        return lifetime_improvement(
            self.dataset, self.pipeline(), self.unique_invalid
        )

    # --- §7 -----------------------------------------------------------------------

    def tracked_devices(self) -> list[TrackedDevice]:
        """The inferred device population, in device-key order (cached).

        Through a cache it comes from, or goes into, the tracking state
        (:meth:`tracking`): loaded on a hit, else built and stored whole.
        """
        if self._devices is None:
            self._load_artifacts("tracking")
        if self._devices is None:
            pipeline = self.pipeline()
            with self._stage("tracking"):
                self._devices = build_tracked_devices(
                    self.dataset, pipeline, self.unique_invalid
                )
            if self._tracking_key is not None:
                self._build_tracking()
        return self._devices

    def tracking(self) -> TrackingState:
        """What the query plane reads of §6.3–§7 (cached): the link plan,
        the tracked devices, the public-key groups and each device's
        §7.4 outcome, with the address and per-AS indexes over them.

        Loaded from the cache's tracking section when its key matches
        (corpus, verdicts, routing history, pinned plan); otherwise
        computed and, through a cache, stored.  Through a cache it asks
        for the kernels and verdicts in the same ``artifacts.load`` stage
        (:meth:`_load_artifacts`).
        """
        if self._tracking is None:
            self._load_artifacts("kernels", "validation", "tracking")
        if self._tracking is None:
            self.tracked_devices()
        if self._tracking is None:
            self._build_tracking()
        return self._tracking

    def _build_tracking(self) -> None:
        with self._stage("tracking_state"):
            self._tracking = TrackingState.build(
                self.dataset, self.pipeline(), self.tracked_devices(),
                self.unique_invalid, self.as_of,
            )
        if self._tracking_key is not None:
            self._store_artifacts()

    def trackable(self, min_days: int = 365) -> TrackableReport:
        """§7.2: trackable-device counts with/without linking."""
        return trackable_devices(
            self.dataset, self.tracked_devices(), self.unique_invalid, min_days
        )

    def movement(self, bulk_threshold: int = 10, min_days: int = 365) -> MovementReport:
        """§7.3: AS transitions, bulk transfers, country moves."""
        return analyze_movement(
            self.tracked_devices(),
            self.as_of,
            registry=self.registry,
            bulk_threshold=bulk_threshold,
            min_days=min_days,
        )

    def reassignment(
        self, min_devices_per_as: int = 10, min_days: int = 365
    ) -> ReassignmentReport:
        """§7.4: per-AS static-assignment inference (Figure 11)."""
        return infer_reassignment_policies(
            self.tracked_devices(),
            self.as_of,
            min_devices_per_as=min_devices_per_as,
            min_days=min_days,
        )
