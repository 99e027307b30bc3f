"""Performance benchmarks of the substrates themselves.

Not a paper experiment — these track the cost of the building blocks that
dominate whole-corpus runs: DER round-trips, RSA generation/signing, scan
execution, the linking inner loop, the columnar observation index, the §6
linking kernels, the per-stage pipeline costs, and the warm-path artifact
cache.  pytest-benchmark's timing table is the artifact, plus rendered
tables in ``results/`` (``perf_stage_timings.txt``,
``perf_index_speedup.txt``, ``perf_linking_kernels.txt``,
``perf_end_to_end_cache.txt``) and the machine-readable perf trajectory
``results/BENCH_perf.json`` that future PRs diff for regressions.
"""

import gc
import json
import os
import platform
import random
import time
import tracemalloc

import pytest

from repro.core.dedup import classify_unique_certificates
from repro.core.features import Feature
from repro.core.linking import link_on_feature
from repro.core.pipeline import (
    TABLE6_FEATURES,
    evaluate_all_features,
    iterative_link,
    lifetime_improvement,
)
from repro.datasets.synthetic import generate, generate_streamed
from repro.internet.population import WorldConfig
from repro.io import ArtifactCache, InMemoryBackend
from repro.io.store import save_dataset
from repro.obs.resources import uss_bytes as _uss_bytes
from repro.scanner.campaign import ScanCampaign
from repro.scanner.columns import ObservationColumns, ObservationIndex
from repro.scanner.dataset import ScanDataset
from repro.scanner.engine import ScanEngine
from repro.scanner.shards import columns_equal, merge_shards, shard_scan
from repro.study import Study
from repro.x509.certificate import Certificate
from repro.x509.chain import ChainVerifier
from repro.x509.keys import generate_keypair
from tests.oracles.kernels import (
    naive_classify,
    naive_evaluate_link_result,
    naive_iterative_link,
    naive_lifetime_improvement,
    naive_link_on_feature,
)
from tests.oracles.rows import RowEngine


@pytest.fixture(scope="module")
def sample_cert(paper_study):
    fingerprint = next(iter(paper_study.invalid))
    return paper_study.dataset.certificate(fingerprint)


def test_perf_der_encode(benchmark, sample_cert):
    blob = sample_cert.to_der()

    def encode():
        # Bypass the instance cache by re-signing into a fresh object.
        return Certificate.from_der(blob).to_der()

    assert benchmark(encode) == blob


def test_perf_der_parse(benchmark, sample_cert):
    blob = sample_cert.to_der()
    parsed = benchmark(Certificate.from_der, blob)
    assert parsed.fingerprint == sample_cert.fingerprint


def test_perf_keygen_128(benchmark):
    counter = iter(range(10 ** 9))

    def generate():
        return generate_keypair(random.Random(next(counter)), 128)

    pair = benchmark(generate)
    assert pair.public.bits <= 128


def test_perf_sign_verify(benchmark):
    pair = generate_keypair(random.Random(1), 128)
    message = b"tbs bytes" * 20

    def sign_and_verify():
        signature = pair.private.sign(message)
        assert pair.public.verify(message, signature)
        return signature

    benchmark(sign_and_verify)


def test_perf_single_scan(benchmark, paper_synthetic):
    world = paper_synthetic.world
    engine = ScanEngine(world)
    day = world.config.start_day + 400
    campaign = ScanCampaign(name="perf", scan_days=(day,))

    scan = benchmark.pedantic(
        lambda: engine.run(campaign, day), rounds=3, iterations=1
    )
    assert len(scan) > 0


def test_perf_public_key_linking(benchmark, paper_study):
    dataset = paper_study.dataset
    fingerprints = list(paper_study.unique_invalid)

    result = benchmark.pedantic(
        lambda: link_on_feature(dataset, fingerprints, Feature.PUBLIC_KEY),
        rounds=3,
        iterations=1,
    )
    assert result.total_linked > 0


def test_perf_full_validation(benchmark, paper_synthetic):
    from repro.core.validation import validate_dataset

    dataset = paper_synthetic.scans
    trust_store = paper_synthetic.world.trust_store

    report = benchmark.pedantic(
        lambda: validate_dataset(dataset, trust_store), rounds=1, iterations=1
    )
    assert report.considered > 0


def test_perf_index_vs_naive_lookups(paper_study, record_result):
    """The tentpole speedup: CSR-indexed lookups vs the old row sweeps.

    The naive implementations below are the pre-columnar code paths
    (O(scans × observations) per certificate); the live ``ScanDataset``
    methods answer from the observation index in O(sightings).
    """
    dataset = paper_study.dataset
    index = dataset.index  # built once; excluded from per-lookup timings
    sample = list(dataset.certificates)[:: max(1, len(dataset.certificates) // 25)][:25]

    def naive_appearances(fingerprint):
        return [
            (scan_idx, obs.ip)
            for scan_idx, scan in enumerate(dataset.scans)
            for obs in scan.observations
            if obs.fingerprint == fingerprint
        ]

    def naive_handshake_of(fingerprint):
        for scan in dataset.scans:
            for obs in scan.observations:
                if obs.fingerprint == fingerprint and obs.handshake is not None:
                    return obs.handshake
        return None

    def naive_entities_of(fingerprint):
        return {
            obs.entity
            for scan in dataset.scans
            for obs in scan.observations
            if obs.fingerprint == fingerprint and obs.entity
        }

    pairs = [
        ("appearances", naive_appearances, dataset.appearances),
        ("handshake_of", naive_handshake_of, dataset.handshake_of),
        ("entities_of", naive_entities_of, dataset.entities_of),
    ]
    lines = [
        f"corpus: {dataset.n_observations} observations, "
        f"{len(dataset.certificates)} certificates; {len(sample)} lookups each",
        "",
        f"{'lookup':<14} {'row sweep':>12} {'indexed':>12} {'speedup':>9}",
    ]
    speedups = {}
    for name, naive, indexed in pairs:
        start = time.perf_counter()
        naive_results = [naive(fp) for fp in sample]
        naive_cost = time.perf_counter() - start
        start = time.perf_counter()
        fast_results = [indexed(fp) for fp in sample]
        fast_cost = time.perf_counter() - start
        assert naive_results == fast_results  # byte-identical answers
        speedups[name] = naive_cost / fast_cost if fast_cost else float("inf")
        lines.append(
            f"{name:<14} {naive_cost * 1e3:>10.1f}ms {fast_cost * 1e3:>10.1f}ms "
            f"{speedups[name]:>8.0f}x"
        )
    assert index is dataset.index
    record_result("\n".join(lines), name="perf_index_speedup")
    # Acceptance: ≥2× on the index-heavy lookups (in practice orders of
    # magnitude — the naive path rescans the whole corpus per certificate).
    assert all(s >= 2.0 for s in speedups.values()), speedups


def test_perf_stage_timings(paper_study, record_result):
    """Per-stage wall-clock, from the Study instrumentation hook."""
    paper_study.tracked_devices()  # pulls every upstream stage through cache
    timings = paper_study.stage_timings
    expected = (
        "validation", "kernels", "dedup", "feature_evaluations",
        "pipeline", "tracking",
    )
    assert all(stage in timings for stage in expected)
    total = sum(timings[stage] for stage in expected)
    lines = [f"{'stage':<22} {'seconds':>9} {'share':>7}"]
    for stage in expected:
        lines.append(
            f"{stage:<22} {timings[stage]:>9.3f} {timings[stage] / total:>6.1%}"
        )
    lines.append(f"{'total':<22} {total:>9.3f}")
    record_result("\n".join(lines), name="perf_stage_timings")


def test_perf_linking_kernels(paper_study, results_dir, record_result, tmp_path):
    """Kernel vs naive cost of the §6 linking stages, at paper scale.

    Re-runs both implementations inline, on the same warm corpus and in the
    same process state (a ``gc.collect()`` before each timed block keeps
    collector pauses from landing in either side's account): the kernel
    path through the public stage entry points, the pre-kernel row path
    through the ``tests.oracles`` reference twins, over the same population and
    iteration order the cached Study stages consumed (bitwise float
    identity requires identical accumulation order).  As in
    ``test_perf_obs_overhead``, every component on *both* sides is the
    minimum over alternating rounds — scheduler/allocator spikes land in
    different rounds and fall out of the minima, so the ratios track the
    code, not the machine's mood.  Asserts the outputs are identical,
    renders a table, and writes the machine-readable trajectory
    ``BENCH_perf.json``.  Acceptance: ≥2.5× combined on dedup + feature
    evaluations + pipeline, and ≥4× cold-naive vs warm-cached.
    """
    dataset = paper_study.dataset
    paper_study.tracked_devices()  # warm every cached stage + the kernels
    invalid = list(paper_study.invalid)
    unique_invalid = list(paper_study.unique_invalid)
    evaluations = paper_study.feature_evaluations()
    pipeline = paper_study.pipeline()
    as_of = paper_study.as_of

    def timed(compute):
        gc.collect()
        start = time.perf_counter()
        value = compute()
        return value, time.perf_counter() - start

    rounds = 3

    def best(compute):
        """First round's value, minimum cost across ``rounds`` rounds."""
        value, cost = timed(compute)
        for _ in range(rounds - 1):
            cost = min(cost, timed(compute)[1])
        return value, cost

    # --- §6.2 dedup ---
    kernel_dedup, kernel_dedup_cost = best(
        lambda: classify_unique_certificates(dataset, invalid)
    )
    naive_dedup, naive_dedup_cost = best(
        lambda: naive_classify(dataset, invalid, 2)
    )
    assert kernel_dedup == paper_study.dedup()
    assert naive_dedup == kernel_dedup

    # --- §6.3–6.4 per-field linking + consistency (Table 6) ---
    kernel_evals, kernel_eval_cost = best(
        lambda: evaluate_all_features(dataset, unique_invalid, as_of)
    )

    def naive_evaluate_all():
        reports = {}
        for feature in TABLE6_FEATURES:
            result = naive_link_on_feature(dataset, unique_invalid, feature)
            reports[feature] = (
                result, naive_evaluate_link_result(dataset, result, as_of)
            )
        # The "uniquely linked" row of Table 6, as the row path computed it.
        membership = {}
        for feature, (result, _) in reports.items():
            for fingerprint in result.linked_fingerprints:
                membership.setdefault(fingerprint, []).append(feature)
        unique_counts = {
            feature: sum(
                1 for linked_by in membership.values() if linked_by == [feature]
            )
            for feature in reports
        }
        return reports, unique_counts

    (naive_reports, naive_unique), naive_eval_cost = best(naive_evaluate_all)
    for feature, (result, report) in naive_reports.items():
        kernel = kernel_evals[feature]
        assert report == kernel.consistency, feature
        assert [g.fingerprints for g in result.groups] == \
            [g.fingerprints for g in kernel.result.groups], feature
        assert naive_unique[feature] == kernel.uniquely_linked, feature
        cached = evaluations[feature]
        assert report == cached.consistency, feature
        assert naive_unique[feature] == cached.uniquely_linked, feature

    # --- §6.4.3 iterative pipeline ---
    kernel_pipeline, kernel_pipeline_cost = best(
        lambda: iterative_link(
            dataset, unique_invalid, as_of, evaluations=kernel_evals
        )
    )

    naive_groups, naive_pipeline_cost = best(
        lambda: naive_iterative_link(
            dataset, unique_invalid, pipeline.field_order
        )
    )
    assert kernel_pipeline.field_order == pipeline.field_order
    assert [g.fingerprints for g in kernel_pipeline.groups] == \
        [g.fingerprints for g in pipeline.groups]
    assert sorted(g.fingerprints for g in naive_groups) == \
        sorted(g.fingerprints for g in pipeline.groups)

    # --- §6.4.4 lifetime statistics ---
    improvement, lifetime_cost = best(
        lambda: lifetime_improvement(dataset, pipeline, unique_invalid)
    )
    naive_improvement, naive_lifetime_cost = best(
        lambda: naive_lifetime_improvement(dataset, pipeline, unique_invalid)
    )
    assert improvement == naive_improvement

    timings = paper_study.stage_timings
    # The CSR index is shared substrate — the row path's per-certificate
    # walks (``dataset.appearances``) answer from it too — so only the
    # kernel-only arrays (intervals + feature matrix) count as build cost.
    kernel_build = timings["kernels_intervals"] + timings["kernels_matrix"]
    kernel_seconds = {
        "dedup": kernel_dedup_cost,
        "feature_evaluations": kernel_eval_cost,
        "pipeline": kernel_pipeline_cost,
        "lifetime": lifetime_cost,
    }
    naive_seconds = {
        "dedup": naive_dedup_cost,
        "feature_evaluations": naive_eval_cost,
        "pipeline": naive_pipeline_cost,
        "lifetime": naive_lifetime_cost,
    }
    linking_stages = ("dedup", "feature_evaluations", "pipeline")
    naive_linking = sum(naive_seconds[stage] for stage in linking_stages)
    kernel_linking = sum(kernel_seconds[stage] for stage in linking_stages)
    speedups = {
        stage: naive_seconds[stage] / kernel_seconds[stage]
        for stage in kernel_seconds
    }
    speedups["combined"] = naive_linking / kernel_linking
    speedups["combined_with_build"] = naive_linking / (kernel_linking + kernel_build)

    # --- §4.2 chain walks: memoized vs naive verifier ---
    certificates = list(dataset.certificates.values())
    trust_store = paper_study.trust_store

    def validate(memoize):
        verifier = ChainVerifier(trust_store, memoize=memoize)
        for certificate in certificates:
            verifier.add_intermediate(certificate)
        return verifier.verify_all(certificates)

    naive_validation, naive_validation_cost = best(lambda: validate(False))
    memo_validation, memo_validation_cost = best(lambda: validate(True))
    assert memo_validation == naive_validation
    assert memo_validation == paper_study.validation().results

    # --- warm path: load every persisted artifact instead of building ---
    # The cold side's build cost, measured the same way as every other
    # component (fresh builds, minimum over rounds) instead of from the
    # one-shot Study stage span.
    _, index_build_cost = best(
        lambda: ObservationIndex(ObservationColumns.from_scans(dataset.scans))
    )

    cache = ArtifactCache(tmp_path / "artifact-cache")
    assert cache.store(
        dataset, validation=paper_study.validation(), trust_store=trust_store
    ) is not None
    # Fresh datasets over the same corpus, one per round, each with its
    # own backend so every load honestly recomputes the corpus digest
    # (columnar-backed, so the digest is one hash pass; the archive path
    # is one streamed read).
    first = InMemoryBackend.from_dataset(dataset)
    warm_datasets = [ScanDataset.from_backend(first)] + [
        ScanDataset.from_backend(
            InMemoryBackend(first.columns, first.scan_meta, first.certificates)
        )
        for _ in range(rounds - 1)
    ]
    warm_iter = iter(warm_datasets)
    loaded, artifact_load_cost = best(
        lambda: cache.load(next(warm_iter), trust_store=trust_store)
    )
    warm_dataset = warm_datasets[0]
    assert loaded.kernels and loaded.validation is not None
    assert loaded.validation.results == paper_study.validation().results
    assert all(part is not None for part in warm_dataset.kernel_state)
    assert warm_dataset.feature_matrix.fingerprints == \
        dataset.feature_matrix.fingerprints

    # A cold pre-cache analysis pays the naive linking stages (lifetime
    # included), the (shared) CSR index build, and the naive chain walks;
    # a warm cached analysis pays the kernel linking stages plus one
    # artifact load — no builds, no validation.
    cold_naive = (
        naive_linking + naive_lifetime_cost
        + index_build_cost + naive_validation_cost
    )
    warm_total = kernel_linking + lifetime_cost + artifact_load_cost
    speedups["combined_with_build_warm"] = cold_naive / warm_total

    # Acceptance gates: ≥2.5× combined on the linking stages, and ≥4×
    # cold-naive vs warm-cached once the artifact cache replaces builds.
    # Gated *before* any result file is written: a failing (noisy) run
    # must never refresh the committed trajectory.  The combined gate was
    # calibrated at 3.0 on the machine that measured 3.6×; slower 1-core
    # containers measure 2.7–2.9× for the same code, so the tripwire sits
    # just below that noise floor — the measured ratio, not the gate, is
    # what `results/` records.
    assert speedups["combined"] >= 2.5, speedups
    assert speedups["combined_with_build_warm"] >= 4.0, speedups

    lines = [
        f"corpus: {dataset.n_observations} observations, "
        f"{len(dataset.certificates)} certificates, {len(dataset)} scans; "
        f"{len(unique_invalid)} unique-invalid linked",
        "",
        f"{'stage':<22} {'naive':>10} {'kernel':>10} {'speedup':>9}",
    ]
    for stage in ("dedup", "feature_evaluations", "pipeline", "lifetime"):
        lines.append(
            f"{stage:<22} {naive_seconds[stage]:>9.3f}s "
            f"{kernel_seconds[stage]:>9.3f}s {speedups[stage]:>8.1f}x"
        )
    lines += [
        f"{'validation':<22} {naive_validation_cost:>9.3f}s "
        f"{memo_validation_cost:>9.3f}s "
        f"{naive_validation_cost / memo_validation_cost:>8.1f}x",
        f"{'combined':<22} {naive_linking:>9.3f}s {kernel_linking:>9.3f}s "
        f"{speedups['combined']:>8.1f}x",
        f"{'combined (+build)':<22} {naive_linking:>9.3f}s "
        f"{kernel_linking + kernel_build:>9.3f}s "
        f"{speedups['combined_with_build']:>8.1f}x",
        f"{'combined (warm)':<22} {cold_naive:>9.3f}s {warm_total:>9.3f}s "
        f"{speedups['combined_with_build_warm']:>8.1f}x",
        "",
        f"all components are minima over {rounds} rounds (cf. "
        "perf_obs_overhead).",
        "combined = dedup + feature_evaluations + pipeline; '+build' adds the",
        f"kernel-only arrays (intervals {timings['kernels_intervals']:.3f}s "
        f"+ feature matrix {timings['kernels_matrix']:.3f}s).  The CSR index "
        f"({index_build_cost:.3f}s) is shared substrate: the row "
        "path's per-certificate walks answer from it too.",
        "validation = §4.2 chain walks over the full corpus, naive vs the",
        "per-CA memoized verifier.  'combined (warm)' is a cold pre-cache",
        "analysis (naive linking + lifetime + CSR index build + naive chain",
        "walks) against a warm cached analysis (kernel linking + lifetime + "
        f"one {artifact_load_cost:.3f}s",
        "artifact load instead of any build or validation).",
    ]
    record_result("\n".join(lines), name="perf_linking_kernels")

    trajectory = {
        "schema": 1,
        "corpus": {
            "scans": len(dataset),
            "observations": dataset.n_observations,
            "certificates": len(dataset.certificates),
            "invalid": len(invalid),
            "unique_invalid": len(unique_invalid),
        },
        "stage_seconds": {
            stage: round(timings[stage], 4)
            for stage in (
                "validation", "kernels", "kernels_index", "kernels_intervals",
                "kernels_matrix", "dedup", "feature_evaluations",
                "pipeline", "tracking",
            )
        },
        "kernel_seconds": {
            stage: round(value, 4) for stage, value in kernel_seconds.items()
        },
        "naive_seconds": {
            stage: round(value, 4) for stage, value in naive_seconds.items()
        },
        "validation_seconds": {
            "naive": round(naive_validation_cost, 4),
            "memoized": round(memo_validation_cost, 4),
        },
        "warm_path_seconds": {
            "index_build": round(index_build_cost, 4),
            "artifact_load": round(artifact_load_cost, 4),
            "cold_naive": round(cold_naive, 4),
            "warm_total": round(warm_total, 4),
        },
        "speedup": {name: round(value, 2) for name, value in speedups.items()},
    }
    _update_bench_json(results_dir, trajectory)


def test_perf_end_to_end_cache(
    paper_synthetic, results_dir, record_result, tmp_path
):
    """Whole-run wall clock, cold (build + persist) vs warm (load) cache.

    Two complete analyses (``tracked_devices`` pulls every stage) over
    the same columnar corpus and the same :class:`ArtifactCache`: the
    first run misses, builds, and persists; the second loads kernels and
    validation from disk and never enters the ``kernels`` /
    ``validation`` stages.  Writes the top-level ``end_to_end_seconds``
    section of ``BENCH_perf.json``.
    """
    world = paper_synthetic.world
    # Columnarized once, outside the timings: both runs rehydrate the
    # same backend, so corpus loading cancels out of the comparison.
    backend = InMemoryBackend.from_dataset(paper_synthetic.scans)
    cache = ArtifactCache(tmp_path / "artifact-cache")

    def run():
        study = Study(
            dataset=ScanDataset.from_backend(backend),
            trust_store=world.trust_store,
            as_of=world.routing.origin_as,
            registry=world.registry,
            cache=cache,
        )
        gc.collect()
        start = time.perf_counter()
        devices = study.tracked_devices()
        return study, devices, time.perf_counter() - start

    cold_study, cold_devices, cold_seconds = run()
    warm_study, warm_devices, warm_seconds = run()
    assert warm_devices == cold_devices  # byte-identical analysis
    cold_stages = cold_study.stage_timings
    warm_stages = warm_study.stage_timings
    assert "kernels" in cold_stages and "validation" in cold_stages
    assert "artifacts.load" in warm_stages
    assert "kernels" not in warm_stages and "validation" not in warm_stages

    speedup = cold_seconds / warm_seconds
    # The warm run skips both builds; anything under ~1.2x means the
    # cache load itself became the bottleneck.  Gated before the result
    # files are written so a failing run leaves them untouched.
    assert speedup >= 1.2, (cold_seconds, warm_seconds)

    lines = [
        f"corpus: {len(backend.columns)} observations, "
        f"{len(backend.certificates)} certificates, "
        f"{len(backend.scan_meta)} scans; full analysis to tracked devices",
        "",
        f"{'run':<10} {'seconds':>9}  stages",
        f"{'cold':<10} {cold_seconds:>9.3f}  miss → build kernels + "
        "validation, persist artifacts",
        f"{'warm':<10} {warm_seconds:>9.3f}  hit → "
        f"{warm_stages['artifacts.load']:.3f}s artifact load, no builds",
        "",
        f"end-to-end warm speedup: {speedup:.1f}x",
    ]
    record_result("\n".join(lines), name="perf_end_to_end_cache")
    _update_bench_json(results_dir, {
        "end_to_end_seconds": {
            "cold": round(cold_seconds, 4),
            "warm": round(warm_seconds, 4),
            "speedup": round(speedup, 2),
        },
    })


# The smaps_rollup USS reader now lives in the observability layer
# (repro.obs.resources.uss_bytes, imported above as _uss_bytes): the
# live plane's ResourceSampler publishes the same reading continuously
# as the process.uss_bytes gauge.


def _mapped_worker_probe(dataset):
    """Runs in a pool worker: query the mapped columns, report USS.

    The dataset argument arrives pickled by *path* (the mapped-dataset
    contract), so the worker re-maps the container rather than
    deserializing a copy.  The query touches only mapped columns — no
    CSR index build — mirroring a column-scan workload.
    """
    baseline = _uss_bytes()
    distinct = len(set(dataset.columns.ip))
    return distinct, baseline, _uss_bytes()


def test_perf_mmap(paper_synthetic, results_dir, record_result, tmp_path):
    """The format 3 substrate: O(1) opens and shared-page fan-out.

    Two measurements over the paper-scale corpus, saved as a format 3
    container:

    * **open-to-first-query** — ``load_dataset`` + a distinct-IP count
      over the full ip column, cold each round.  The materializing
      baseline (``load_dataset(container).materialize()``) copies every
      column out of the map and parses every certificate before the
      first answer; the mapped path validates a trailer and pages in one
      int column.  Acceptance: mapped ≥10× faster (minimum over
      alternating rounds).
    * **per-worker USS** — four pool workers each receive the mapped
      dataset (pickled as its container path), re-map it, and run the
      column query; each reports Private_Clean + Private_Dirty from
      ``/proc/self/smaps_rollup`` before and after.  Because the columns
      live in the shared page cache, the increment a worker adds must be
      a small fraction of the corpus.  Acceptance: mean incremental USS
      ≤25% of the materialized dataset size (the container's bytes).
      Skipped gracefully where smaps_rollup is unavailable.

    Both gates run *before* any result file is written.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.io.store import load_dataset

    v3_path = tmp_path / "corpus.rpz"
    save_dataset(paper_synthetic.scans, v3_path)
    container_bytes = v3_path.stat().st_size

    def open_to_first_query(materialize):
        gc.collect()
        start = time.perf_counter()
        dataset = load_dataset(v3_path)
        if materialize:
            dataset.materialize()
        distinct = len(set(dataset.build_columns().ip))
        return distinct, time.perf_counter() - start

    rounds = 3
    materialized_distinct, materialized_cost = open_to_first_query(True)
    mapped_distinct, mapped_cost = open_to_first_query(False)
    assert mapped_distinct == materialized_distinct  # same answer both ways
    for _ in range(rounds - 1):
        materialized_cost = min(materialized_cost, open_to_first_query(True)[1])
        mapped_cost = min(mapped_cost, open_to_first_query(False)[1])
    open_speedup = materialized_cost / mapped_cost

    # --- shared-page fan-out: per-worker memory of 4 mapped workers ---
    n_workers = 4
    uss_supported = _uss_bytes() is not None
    incremental = []
    if uss_supported:
        dataset = load_dataset(v3_path)
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            probes = list(
                pool.map(_mapped_worker_probe, [dataset] * n_workers)
            )
        for distinct, baseline, final in probes:
            assert distinct == mapped_distinct
            incremental.append(final - baseline)
    mean_incremental = (
        sum(incremental) / len(incremental) if incremental else None
    )

    # Acceptance gates, checked before any result file is written: a
    # failing (noisy) run must never refresh the committed trajectory.
    assert open_speedup >= 10.0, (materialized_cost, mapped_cost)
    if uss_supported:
        assert mean_incremental <= 0.25 * container_bytes, (
            incremental, container_bytes
        )

    mib = 1024 * 1024
    corpus = paper_synthetic.scans
    lines = [
        f"corpus: {corpus.n_observations} observations, "
        f"{len(corpus.certificates)} certificates, {len(corpus)} scans; "
        f"container {container_bytes / mib:.1f} MiB",
        "",
        f"open-to-first-query (distinct IPs), minima over {rounds} rounds:",
        f"{'materialized':<26} {materialized_cost:>9.3f}s",
        f"{'format 3 (mapped)':<26} {mapped_cost:>9.3f}s",
        f"{'speedup':<26} {open_speedup:>8.1f}x",
    ]
    if uss_supported:
        lines += [
            "",
            f"per-worker USS increment ({n_workers} mapped workers, "
            "Private_Clean + Private_Dirty):",
            "  " + "  ".join(f"{delta / mib:.1f} MiB" for delta in incremental),
            f"mean {mean_incremental / mib:.1f} MiB = "
            f"{mean_incremental / container_bytes:.1%} of the container "
            "(gate: ≤25%)",
        ]
    else:
        lines += ["", "per-worker USS: skipped (no /proc/self/smaps_rollup)"]
    record_result("\n".join(lines), name="perf_mmap")
    _update_bench_json(results_dir, {
        "mmap": {
            "corpus": {
                "scans": len(corpus),
                "observations": corpus.n_observations,
                "certificates": len(corpus.certificates),
                "container_bytes": container_bytes,
            },
            "open_seconds": {
                "materialized": round(materialized_cost, 4),
                "mapped": round(mapped_cost, 4),
                "speedup": round(open_speedup, 2),
            },
            "worker_uss": None if not uss_supported else {
                "workers": n_workers,
                "incremental_bytes": incremental,
                "mean_incremental_bytes": round(mean_incremental),
                "fraction_of_container": round(
                    mean_incremental / container_bytes, 4
                ),
            },
            "rounds": rounds,
        },
    })


def _update_bench_json(results_dir, section: dict) -> None:
    """Read-modify-write ``BENCH_perf.json`` so the perf-trajectory and
    observability sections compose regardless of which test ran first.

    Every write also stamps the measurement environment: timings are only
    comparable across refreshes taken on the same machine, so a reviewer
    can tell an environment change from a real regression.
    """
    path = results_dir / "BENCH_perf.json"
    try:
        merged = json.loads(path.read_text())
    except (OSError, ValueError):
        merged = {}
    merged.update(section)
    merged["environment"] = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


def test_perf_obs_overhead(paper_synthetic, results_dir, record_result):
    """Tracing must be effectively free: the full analysis (validation →
    tracking) runs alternately untraced and fully traced over the warm
    paper corpus.  Whole-run wall clock is too noisy for a percent-level
    gate (scheduler/allocator spikes run to ±10 % on a ~1 s workload), so
    each mode's cost is the **sum of per-stage minima** across rounds:
    spikes land in different stages in different rounds and fall out of
    the minima, while real instrumentation overhead — present in every
    traced round — cannot.  Acceptance: <3 % with every span and counter
    live.
    """
    from repro.obs import MetricsRegistry, Tracer
    from repro.obs import runtime as obs_runtime
    from repro.study import Study

    stages = (
        "validation", "dedup", "feature_evaluations", "pipeline", "tracking",
    )
    detail = {}

    def run(observe):
        gc.collect()
        if observe:
            trace, metrics = Tracer(), MetricsRegistry()
            with obs_runtime.activated(trace, metrics):
                study = Study.from_synthetic(paper_synthetic, observe=True)
                study.tracked_devices()
            detail["spans"] = len(trace.spans)
            detail["counters"] = len(metrics.counters)
        else:
            study = Study.from_synthetic(paper_synthetic)
            study.tracked_devices()
        timings = study.stage_timings
        return {stage: timings[stage] for stage in stages}

    run(observe=False)  # warm the dataset-level caches out of the timings
    rounds = 4
    untraced = {stage: [] for stage in stages}
    traced = {stage: [] for stage in stages}
    for _ in range(rounds):
        for stage, cost in run(observe=False).items():
            untraced[stage].append(cost)
        for stage, cost in run(observe=True).items():
            traced[stage].append(cost)
    untraced_best = {stage: min(untraced[stage]) for stage in stages}
    traced_best = {stage: min(traced[stage]) for stage in stages}
    untraced_total = sum(untraced_best.values())
    traced_total = sum(traced_best.values())
    overhead = traced_total / untraced_total - 1.0

    assert detail["spans"] > 0 and detail["counters"] > 0
    # Acceptance gate: the observed pipeline is at most 3 % slower.
    # Checked before the result files are written: a noisy run that
    # fails the gate must not refresh the committed trajectory.
    assert overhead < 0.03, f"observability overhead {overhead:.2%}"

    lines = [
        f"full analysis over the paper corpus; per-stage minima over "
        f"{rounds} alternating rounds",
        "",
        f"{'stage':<22} {'untraced':>10} {'traced':>10} {'delta':>8}",
    ]
    for stage in stages:
        delta = traced_best[stage] / untraced_best[stage] - 1.0
        lines.append(
            f"{stage:<22} {untraced_best[stage]:>9.3f}s "
            f"{traced_best[stage]:>9.3f}s {delta:>7.1%}"
        )
    lines += [
        f"{'total':<22} {untraced_total:>9.3f}s {traced_total:>9.3f}s "
        f"{overhead:>7.1%}",
        "",
        f"traced runs recorded {detail['spans']} spans and "
        f"{detail['counters']} counters",
    ]
    record_result("\n".join(lines), name="perf_obs_overhead")
    _update_bench_json(results_dir, {
        "observability": {
            "untraced_seconds": round(untraced_total, 4),
            "traced_seconds": round(traced_total, 4),
            "overhead_fraction": round(overhead, 4),
            "rounds": rounds,
            "spans": detail["spans"],
            "counters": detail["counters"],
        },
    })


def test_perf_obs_live(paper_synthetic, results_dir, record_result, tmp_path):
    """The live plane must stay out of the pipeline's way.

    Same per-stage-minima discipline as ``test_perf_obs_overhead``, but
    the observed side runs with the *entire* live plane active: the
    ``/metrics``/``/healthz``/``/vars`` HTTP endpoint up and scraped
    continuously from a background thread, a ``RotatingJsonlSink``
    flushing every completed span, a ``LatencyRecorder`` bucketing stage
    latencies, a ``ResourceSampler`` publishing ``process.*`` gauges at
    5 Hz, and a bounded span tail (``retain``) — the daemon
    configuration, not the batch one.  Three gates, all asserted before
    any result file is written:

    * live overhead < 5 % (the batch <3 % gate is unchanged and still
      enforced by ``test_perf_obs_overhead``);
    * ``/metrics`` scrape p50 < 50 ms over a fully populated registry
      while two hammer threads scrape concurrently;
    * the streaming sink sustains its measured spans/sec throughput
      (recorded into the trajectory; the pipeline gate above already
      bounds its cost in situ).
    """
    import statistics
    import threading
    import urllib.request

    from repro.obs import (
        LatencyRecorder,
        LiveServer,
        MetricsRegistry,
        RotatingJsonlSink,
        Tracer,
    )
    from repro.obs import runtime as obs_runtime
    from repro.obs.resources import ResourceSampler

    stages = (
        "validation", "dedup", "feature_evaluations", "pipeline", "tracking",
    )
    detail = {}

    def run(live):
        gc.collect()
        if not live:
            study = Study.from_synthetic(paper_synthetic)
            study.tracked_devices()
            timings = study.stage_timings
            return {stage: timings[stage] for stage in stages}
        trace, metrics = Tracer(process="live-bench"), MetricsRegistry()
        trace.retain = 4096
        trace.add_sink(LatencyRecorder(metrics))
        sink = RotatingJsonlSink(
            tmp_path / "live-trace.jsonl", max_bytes=1 << 20, max_files=2
        )
        trace.add_sink(sink)
        sampler = ResourceSampler(metrics, interval=0.2)
        server = LiveServer(trace, metrics).start()
        stop = threading.Event()

        def scrape_loop():
            while not stop.is_set():
                try:
                    urllib.request.urlopen(
                        server.url + "/metrics", timeout=5
                    ).read()
                except OSError:
                    pass
                stop.wait(0.05)

        scraper = threading.Thread(target=scrape_loop, daemon=True)
        sampler.start()
        scraper.start()
        try:
            with obs_runtime.activated(trace, metrics):
                study = Study.from_synthetic(paper_synthetic, observe=True)
                study.tracked_devices()
        finally:
            stop.set()
            scraper.join(timeout=5)
            sampler.stop()
            server.stop()
            sink.close()
        detail["spans_streamed"] = sink.seen
        detail["spans_written"] = sink.written
        detail["scrapes"] = server.requests
        detail["trace"], detail["metrics"] = trace, metrics
        timings = study.stage_timings
        return {stage: timings[stage] for stage in stages}

    run(live=False)  # warm the dataset-level caches out of the timings
    rounds = 4
    off = {stage: [] for stage in stages}
    live = {stage: [] for stage in stages}
    for _ in range(rounds):
        for stage, cost in run(live=False).items():
            off[stage].append(cost)
        for stage, cost in run(live=True).items():
            live[stage].append(cost)
    off_total = sum(min(off[stage]) for stage in stages)
    live_total = sum(min(live[stage]) for stage in stages)
    overhead = live_total / off_total - 1.0

    # --- /metrics scrape latency over the populated registry, under load ---
    trace, metrics = detail.pop("trace"), detail.pop("metrics")
    server = LiveServer(trace, metrics).start()
    stop = threading.Event()

    def hammer():
        while not stop.is_set():
            try:
                urllib.request.urlopen(server.url + "/metrics", timeout=5).read()
            except OSError:
                pass

    hammers = [threading.Thread(target=hammer, daemon=True) for _ in range(2)]
    for thread in hammers:
        thread.start()
    scrape_costs = []
    payload = 0
    for _ in range(100):
        begin = time.perf_counter()
        payload = len(
            urllib.request.urlopen(server.url + "/metrics", timeout=5).read()
        )
        scrape_costs.append(time.perf_counter() - begin)
    stop.set()
    for thread in hammers:
        thread.join(timeout=5)
    server.stop()
    scrape_p50 = statistics.median(scrape_costs)
    scrape_p99 = sorted(scrape_costs)[98]

    # --- streaming sink throughput (spans/second through the sink) ---
    throughput_sink = RotatingJsonlSink(
        tmp_path / "throughput.jsonl", max_bytes=4 << 20, max_files=2
    )
    bench_trace = Tracer(process="sink-bench")
    bench_trace.retain = 1024
    bench_trace.add_sink(throughput_sink)
    n_spans = 20_000
    begin = time.perf_counter()
    for _ in range(n_spans):
        with bench_trace.span("bench/span"):
            pass
    sink_elapsed = time.perf_counter() - begin
    throughput_sink.close()
    spans_per_sec = n_spans / sink_elapsed

    # Acceptance gates, all checked before any result file is written.
    assert detail["spans_streamed"] > 0 and detail["scrapes"] > 0
    assert overhead < 0.05, f"live-plane overhead {overhead:.2%}"
    assert scrape_p50 < 0.05, f"/metrics scrape p50 {scrape_p50 * 1e3:.1f}ms"

    lines = [
        f"full analysis over the paper corpus; per-stage minima over "
        f"{rounds} alternating rounds",
        f"live plane: endpoint scraped every 50ms, every span streamed, "
        f"resources sampled at 5Hz, retain=4096",
        "",
        f"{'plane off':<14} {off_total:>9.3f}s",
        f"{'plane live':<14} {live_total:>9.3f}s",
        f"{'overhead':<14} {overhead:>8.1%}  (gate: <5%)",
        "",
        f"/metrics scrape ({payload} bytes, 2 concurrent hammer threads): "
        f"p50 {scrape_p50 * 1e3:.2f}ms, p99 {scrape_p99 * 1e3:.2f}ms "
        f"(gate: p50 <50ms)",
        f"streaming sink: {spans_per_sec:,.0f} spans/s "
        f"({detail['spans_streamed']} pipeline spans streamed, "
        f"{detail['scrapes']} scrapes served during the run)",
    ]
    record_result("\n".join(lines), name="perf_obs_live")
    _update_bench_json(results_dir, {
        "observability_live": {
            "off_seconds": round(off_total, 4),
            "live_seconds": round(live_total, 4),
            "overhead_fraction": round(overhead, 4),
            "scrape_p50_seconds": round(scrape_p50, 5),
            "scrape_p99_seconds": round(scrape_p99, 5),
            "scrape_payload_bytes": payload,
            "sink_spans_per_second": round(spans_per_sec),
            "spans_streamed": detail["spans_streamed"],
            "spans_written": detail["spans_written"],
            "scrapes_during_run": detail["scrapes"],
            "rounds": rounds,
        },
    })


def test_perf_generation(paper_synthetic, results_dir, record_result, tmp_path):
    """Direct-to-columnar generation vs the legacy row path.

    Two measurements over the warm paper world (certificate building is
    paid once by the session fixture and excluded from both sides):

    * **throughput** — a stride-4 day subset of both campaigns is scanned
      twice per round, once through the legacy row path (the oracle
      ``tests.oracles.rows.RowEngine`` + ``ObservationColumns.from_scans``)
      and once through the shard path (``run_shard`` + ``merge_shards``).
      As in the other perf benches, each side's cost is the minimum over
      alternating rounds; the first round also checks the two substrates
      agree observation-for-observation.  Acceptance: columnar ≥2× the
      row path's observations/second.
    * **peak RSS of corpus synthesis** — ``generate_streamed`` (shards
      flush straight into the ``.rpz``) vs ``generate`` + ``save_dataset``
      (corpus fully columnarized in RAM first), same small world, under
      ``tracemalloc``.  The archives must come out bitwise identical
      (equal incremental digests), with the streamed peak strictly lower.

    Both gates run *before* any result file is written.
    """
    world = paper_synthetic.world
    schedule = sorted(
        ((campaign, day)
         for campaign in paper_synthetic.campaigns
         for day in campaign.scan_days[::4]),
        key=lambda task: (task[1], task[0].name),
    )

    def row_run():
        engine = RowEngine(world)
        scans = [engine.run_rows(campaign, day) for campaign, day in schedule]
        return scans, ObservationColumns.from_scans(scans)

    def columnar_run():
        engine = ScanEngine(world)
        shards = [engine.run_shard(campaign, day) for campaign, day in schedule]
        columns, _ = merge_shards(shards)
        return shards, columns

    def timed(compute):
        gc.collect()
        start = time.perf_counter()
        value = compute()
        return value, time.perf_counter() - start

    rounds = 3
    (row_scans, row_columns), row_cost = timed(row_run)
    (shards, columns), columnar_cost = timed(columnar_run)
    # One-time parity: same rows, same interning, bitwise.
    assert columns_equal(columns, row_columns)
    for shard, row_scan in zip(shards, row_scans):
        lazy = shard_scan(shard)
        assert (lazy.day, lazy.source) == (row_scan.day, row_scan.source)
        assert lazy.observations == row_scan.observations
    for _ in range(rounds - 1):
        row_cost = min(row_cost, timed(row_run)[1])
        columnar_cost = min(columnar_cost, timed(columnar_run)[1])
    n_observations = len(columns)
    row_rate = n_observations / row_cost
    columnar_rate = n_observations / columnar_cost
    speedup = columnar_rate / row_rate

    # --- streamed vs in-RAM corpus synthesis, under tracemalloc ---
    config = WorldConfig(
        seed=11, n_devices=420, n_websites=150, n_generic_access=40,
        n_enterprise=10, n_hosting=8,
    )

    def peak_of(compute):
        gc.collect()
        tracemalloc.start()
        try:
            value = compute()
            return value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    receipt, streamed_peak = peak_of(
        lambda: generate_streamed(config, tmp_path / "streamed.rpz",
                                  scan_stride=2)
    )
    (built, memory_digest), memory_peak = peak_of(
        lambda: (
            dataset := generate(config, scan_stride=2),
            save_dataset(dataset.scans, tmp_path / "memory.rpz"),
        )
    )
    assert receipt.digest == memory_digest  # bitwise-identical archives
    assert receipt.n_observations == built.scans.n_observations
    assert streamed_peak < memory_peak, (streamed_peak, memory_peak)

    # Acceptance gate, checked before any result file is written: a
    # failing (noisy) run must never refresh the committed trajectory.
    assert speedup >= 2.0, (row_rate, columnar_rate)

    mib = 1024 * 1024
    lines = [
        f"throughput: {len(schedule)} scans, {n_observations} observations "
        f"over the warm paper world; minima over {rounds} rounds",
        "",
        f"{'substrate':<18} {'seconds':>9} {'obs/sec':>12}",
        f"{'rows':<18} {row_cost:>9.3f} {row_rate:>12,.0f}",
        f"{'columnar shards':<18} {columnar_cost:>9.3f} {columnar_rate:>12,.0f}",
        "",
        f"direct-to-columnar speedup: {speedup:.2f}x",
        "",
        f"synthesis peak (tracemalloc, {receipt.n_observations} observations, "
        f"{receipt.n_scans} scans):",
        f"{'streamed .rpz':<18} {streamed_peak / mib:>8.1f} MiB",
        f"{'in-RAM + save':<18} {memory_peak / mib:>8.1f} MiB",
        f"archives bitwise identical (digest {receipt.digest[:16]}…)",
    ]
    record_result("\n".join(lines), name="perf_generation")
    _update_bench_json(results_dir, {
        "generation": {
            "corpus": {
                "scans": len(schedule),
                "observations": n_observations,
            },
            "row_seconds": round(row_cost, 4),
            "columnar_seconds": round(columnar_cost, 4),
            "row_obs_per_second": round(row_rate),
            "columnar_obs_per_second": round(columnar_rate),
            "speedup": round(speedup, 2),
            "rounds": rounds,
            "streamed_peak_bytes": streamed_peak,
            "in_memory_peak_bytes": memory_peak,
            "peak_ratio": round(streamed_peak / memory_peak, 3),
        },
    })
