"""The collected scan corpus and its indexes.

:class:`ScanDataset` is the hand-off point between the substrate (scanner
over a simulated world — or a :class:`~repro.io.backends.DatasetBackend`
loading real scan files) and the paper's analysis pipeline.  Downstream
code sees only scans, observations, and certificates; nothing about the
simulator leaks through except the ground-truth ``entity`` tags that the
test suite (and nothing else) consumes.

Internally the corpus is **columnar**: on first use the row scans are
interned into :class:`~repro.scanner.columns.ObservationColumns` (parallel
``array`` columns of small integers) and inverted once into a CSR
:class:`~repro.scanner.columns.ObservationIndex`.  Every per-certificate
query — ``appearances``, ``handshake_of``, ``entities_of``,
``ips_by_scan``, lifetimes — then costs O(that certificate's sightings)
instead of O(total observations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..internet.population import World
from ..x509.certificate import Certificate
from .campaign import ScanCampaign
from .columns import CertIntervals, ObservationColumns, ObservationIndex, RowDelta
from .engine import ScanEngine
from .records import Scan
from .shards import merge_shards, scans_over_columns

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..core.kernels import FeatureMatrix
    from ..io.backends import DatasetBackend

__all__ = ["ScanDataset"]


class ScanDataset:
    """An ordered collection of scans plus the certificate table."""

    def __init__(
        self,
        scans: Sequence[Scan],
        certificates: dict[bytes, Certificate],
        backend: Optional["DatasetBackend"] = None,
    ) -> None:
        self.scans: list[Scan] = sorted(scans, key=lambda s: (s.day, s.source))
        self.certificates = certificates
        self.backend = backend
        self._columns: Optional[ObservationColumns] = None
        self._observation_index: Optional[ObservationIndex] = None
        self._intervals: Optional[CertIntervals] = None
        self._feature_matrix: Optional["FeatureMatrix"] = None
        self._corpus_digest: Optional[str] = None

    @classmethod
    def collect(
        cls,
        world: World,
        campaigns: Iterable[ScanCampaign],
        collect_handshakes: bool = False,
        workers: int = 1,
    ) -> "ScanDataset":
        """Run every campaign over the world and gather the corpus.

        ``collect_handshakes`` stores TLS/transport traits with each
        observation — richer than the paper's corpora, enabling the
        network-fingerprint linking extension.  ``workers`` fans scan days
        out over processes; results are identical to ``workers=1`` because
        each day's RNG is keyed by (seed, campaign, day).

        Scans generate **directly into columnar day shards** that merge
        once, in (day, source) order — the dataset adopts the merged
        :class:`ObservationColumns` immediately (no second
        columnarization pass) and the scans are lazy row views over it.
        """
        engine = ScanEngine(world, collect_handshakes=collect_handshakes)
        shards = []
        for campaign in campaigns:
            shards.extend(engine.run_campaign_shards(campaign, workers=workers))
        shards.sort(key=lambda shard: (shard.day, shard.source))
        columns, scan_meta = merge_shards(shards)
        dataset = cls(
            scans_over_columns(columns, scan_meta), engine.certificate_store
        )
        dataset._columns = columns
        return dataset

    @classmethod
    def from_backend(cls, backend: "DatasetBackend") -> "ScanDataset":
        """Materialize a dataset from any corpus-storage backend.

        A mapped backend (format 3 container) takes the zero-copy fast
        path: the dataset adopts the memoryview-backed columns and the
        lazy certificate mapping directly, so opening stays O(1) — no
        row rehydration, no DER parsing, no column copies.
        """
        if getattr(backend, "mapped", False):
            dataset = cls(
                backend.load_scans(),
                backend.load_certificates(),
                backend=backend,
            )
            dataset._columns = backend.columns
            return dataset
        dataset = cls(
            list(backend.load_scans()),
            dict(backend.load_certificates()),
            backend=backend,
        )
        # An in-memory backend already holds the columnar view; adopt it
        # instead of re-interning, provided the scan order matches the
        # dataset's (day, source) sort.
        columns = getattr(backend, "columns", None)
        scan_meta = getattr(backend, "scan_meta", None)
        if columns is not None and scan_meta is not None:
            meta_order = [(day, source) for day, source, _, _ in scan_meta]
            if meta_order == [(scan.day, scan.source) for scan in dataset.scans]:
                dataset._columns = columns
        return dataset

    # --- columnar core ---------------------------------------------------------

    @property
    def columns(self) -> ObservationColumns:
        """The interned columnar view of every observation (built once)."""
        return self.build_columns()

    def build_columns(self, workers: int = 1) -> ObservationColumns:
        """The columnar view, columnarizing with ``workers`` on first use."""
        if self._columns is None:
            self._columns = ObservationColumns.from_scans(
                self.scans, workers=workers
            )
        return self._columns

    @property
    def index(self) -> ObservationIndex:
        """The per-certificate CSR index over the columns (built once)."""
        if self._observation_index is None:
            self._observation_index = ObservationIndex(self.columns)
        return self._observation_index

    @property
    def intervals(self) -> CertIntervals:
        """Per-certificate interval/dedup arrays (one CSR sweep, built once)."""
        if self._intervals is None:
            self._intervals = CertIntervals(self.index)
        return self._intervals

    @property
    def feature_matrix(self) -> "FeatureMatrix":
        """Interned §6.3 feature values of every certificate (built once).

        Imported lazily: :mod:`repro.core.kernels` depends on the feature
        extractors in :mod:`repro.core.features`, which import this module.
        """
        return self.build_feature_matrix()

    def build_feature_matrix(self, workers: int = 1) -> "FeatureMatrix":
        """The feature matrix, extracting with ``workers`` on first use."""
        if self._feature_matrix is None:
            from ..core.kernels import FeatureMatrix

            self._feature_matrix = FeatureMatrix.from_certificates(
                self.certificates, workers=workers
            )
        return self._feature_matrix

    # --- derived-artifact plumbing (repro.io.artifacts) ------------------------

    @property
    def kernel_state(
        self,
    ) -> "tuple[Optional[ObservationColumns], Optional[ObservationIndex], Optional[CertIntervals], Optional[FeatureMatrix]]":
        """Whatever kernels are currently built (no builds triggered)."""
        return (
            self._columns, self._observation_index,
            self._intervals, self._feature_matrix,
        )

    def adopt_kernels(
        self,
        columns: Optional[ObservationColumns] = None,
        index: Optional[ObservationIndex] = None,
        intervals: Optional[CertIntervals] = None,
        matrix: Optional["FeatureMatrix"] = None,
    ) -> None:
        """Install externally built (cache-loaded) kernels."""
        if columns is not None:
            self._columns = columns
        if index is not None:
            self._observation_index = index
        if intervals is not None:
            self._intervals = intervals
        if matrix is not None:
            self._feature_matrix = matrix

    def extend_from_shard(
        self,
        shards,
        certificates: dict[bytes, Certificate],
        path,
        cache=None,
        workers: int = 1,
    ) -> "ScanDataset":
        """Append one day's shard(s) and return the grown mapped dataset.

        The O(day) ingestion entry point over a format 3 mapped corpus:
        :func:`repro.io.store.append_shards` emits the grown container
        (raw-copying every unchanged byte range), the new container is
        re-opened zero-copy, and any kernel this dataset has already
        built — CSR index, interval arrays, feature matrix — is
        delta-merged onto the grown corpus through the ``extended``
        constructors instead of being rebuilt, all bitwise-identical to
        a cold build.  When ``cache`` (an
        :class:`~repro.io.artifacts.ArtifactCache`) is given, the grown
        digest's lineage is recorded so a warm artifact hit on the base
        corpus can serve the grown one via one delta-merge.
        """
        if not getattr(self.backend, "mapped", False):
            raise ValueError(
                "extend_from_shard requires a format 3 mapped dataset "
                "(open the corpus via load_dataset)"
            )
        from ..io.backends import MappedBackend
        from ..io.store import append_shards

        result = append_shards(self.backend.path, shards, certificates, path)
        grown = ScanDataset.from_backend(MappedBackend(result.path))
        grown._corpus_digest = result.digest
        if self._observation_index is not None or self._intervals is not None:
            delta = RowDelta(
                grown.columns, result.base_observations,
                result.base_observed_certs,
            )
            if self._observation_index is not None:
                grown._observation_index = ObservationIndex.extended(
                    self._observation_index, delta
                )
            if self._intervals is not None:
                grown._intervals = CertIntervals.extended(
                    self._intervals, delta
                )
        if self._feature_matrix is not None:
            from ..core.kernels import FeatureMatrix

            grown._feature_matrix = FeatureMatrix.extended(
                self._feature_matrix, grown.certificates, workers=workers
            )
        if cache is not None:
            cache.record_lineage(result.digest, self.corpus_digest())
        return grown

    def materialize(self) -> "ScanDataset":
        """Copy every mapped view into process-local storage (in place).

        The explicit escape hatch out of the zero-copy regime: after
        this, no column, kernel array, or certificate depends on the
        backing ``mmap`` and the dataset pickles by value.  Bytes copied
        out of the map are counted in ``io.bytes_materialized``.
        """
        if self._columns is not None:
            self._columns.materialize()
        if self._observation_index is not None:
            self._observation_index.materialize()
        if self._intervals is not None:
            self._intervals.materialize()
        if not isinstance(self.certificates, dict):
            self.certificates = dict(self.certificates)
        return self

    # --- pickling (process fan-out) --------------------------------------------
    #
    # Workers receive datasets through the pool initializer.  A mapped
    # dataset ships as its container *path* plus whatever kernels are
    # already built: the worker re-maps the file on unpickle, so N
    # workers share one physical copy of the columns through the page
    # cache instead of each deserializing its own.  Non-mapped datasets
    # pickle by value, materializing any stray mapped kernel first
    # (memoryviews cannot pickle).

    def __getstate__(self) -> dict:
        if getattr(self.backend, "mapped", False):
            index = self._observation_index
            if index is not None:
                # Ship the CSR arrays alone — the index object itself
                # references the mapped (unpicklable) columns.
                index.materialize()
            return {
                "__mapped__": True,
                "backend": self.backend,  # ships as the container path
                "index": (
                    (index._offsets, index._order)
                    if index is not None else None
                ),
                "_intervals": (
                    self._intervals.materialize()
                    if self._intervals is not None else None
                ),
                "_feature_matrix": self._feature_matrix,
                "_corpus_digest": self._corpus_digest,
            }
        if self._columns is not None and self._columns.is_mapped:
            self._columns.materialize()
        if self._observation_index is not None:
            self._observation_index.materialize()
        if self._intervals is not None:
            self._intervals.materialize()
        if not isinstance(self.certificates, dict):
            self.certificates = dict(self.certificates)
        return dict(self.__dict__)

    def __setstate__(self, state: dict) -> None:
        if state.pop("__mapped__", False):
            remapped = ScanDataset.from_backend(state.pop("backend"))
            self.__dict__.update(remapped.__dict__)
            arrays = state.pop("index")
            if arrays is not None:
                # Rebuild the index around the re-mapped columns from
                # the shipped CSR arrays (no O(n) counting sort).
                index = ObservationIndex.__new__(ObservationIndex)
                index.columns = self._columns
                index._offsets, index._order = arrays
                self._observation_index = index
            self.__dict__.update(state)
            return
        self.__dict__.update(state)

    def corpus_digest(self, workers: int = 1) -> str:
        """The content digest keying this corpus' cached artifacts.

        Backends that know their own identity (archive file bytes,
        already-interned columns) answer directly; otherwise the digest
        is the canonical hash over this dataset's columnar view, built
        with ``workers`` if not built yet — so on a cold run the digest
        computation *is* the sharded columnarization, not wasted work.
        """
        if self._corpus_digest is None:
            backend_digest = getattr(self.backend, "corpus_digest", None)
            if backend_digest is not None:
                self._corpus_digest = backend_digest()
            else:
                from ..io.artifacts import columns_digest

                self._corpus_digest = columns_digest(
                    self.build_columns(workers=workers),
                    [(scan.day, scan.source) for scan in self.scans],
                    self.certificates,
                )
        return self._corpus_digest

    def handshake_of(self, fingerprint: bytes) -> Optional[object]:
        """A handshake record observed with the certificate, if collected."""
        return self.index.handshake_of(fingerprint)

    # --- basic shape -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.scans)

    @property
    def n_observations(self) -> int:
        """Total sightings across all scans."""
        return sum(len(scan) for scan in self.scans)

    def scans_from(self, source: str) -> list[Scan]:
        """All scans of one campaign, in day order."""
        return [scan for scan in self.scans if scan.source == source]

    def scan_days(self) -> list[int]:
        """Distinct scan days, sorted."""
        return sorted({scan.day for scan in self.scans})

    def certificate(self, fingerprint: bytes) -> Certificate:
        """Resolve a fingerprint to its certificate."""
        return self.certificates[fingerprint]

    # --- per-certificate indexes --------------------------------------------------

    def appearances(self, fingerprint: bytes) -> list[tuple[int, int]]:
        """(scan index, ip) sightings of one certificate."""
        return self.index.appearances(fingerprint)

    def scan_indexes_of(self, fingerprint: bytes) -> list[int]:
        """Sorted distinct scan indexes where the certificate appeared."""
        return self.index.scan_indexes_of(fingerprint)

    def first_last_day(self, fingerprint: bytes) -> tuple[int, int]:
        """Days of the first and last sighting."""
        scan_idxs = self.scan_indexes_of(fingerprint)
        if not scan_idxs:
            raise KeyError(f"certificate never observed: {fingerprint.hex()[:12]}")
        return self.scans[scan_idxs[0]].day, self.scans[scan_idxs[-1]].day

    def lifetime_days(self, fingerprint: bytes) -> int:
        """Inclusive observed lifetime: one scan → one day (§5.1)."""
        first, last = self.first_last_day(fingerprint)
        return last - first + 1

    def ips_by_scan(self, fingerprint: bytes) -> dict[int, set[int]]:
        """scan index → set of addresses advertising the certificate."""
        return self.index.ips_by_scan(fingerprint)

    def mean_ips_per_scan(self, fingerprint: bytes) -> float:
        """Average distinct advertising addresses per scan it appears in."""
        by_scan = self.ips_by_scan(fingerprint)
        return sum(len(ips) for ips in by_scan.values()) / len(by_scan)

    def max_ips_in_any_scan(self, fingerprint: bytes) -> int:
        """Peak simultaneous advertising addresses (the §6.2 dedup input)."""
        return max(len(ips) for ips in self.ips_by_scan(fingerprint).values())

    # --- ground truth (test-suite only) ---------------------------------------------

    def entities_of(self, fingerprint: bytes) -> set[str]:
        """Ground-truth entities that served the certificate.

        For simulator validation only — the analysis layer never calls this.
        """
        return self.index.entities_of(fingerprint)
