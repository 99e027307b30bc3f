"""Command-line interface.

``python -m repro <command>`` drives the full pipeline from a shell:

* ``generate`` — build a synthetic world, scan it, and save the corpus
  (``.rpz``) plus its analysis environment (``.rpe``); ``--stream-out``
  flushes day shards straight into the archive (O(largest shard) memory,
  byte-identical output), which is how the ``xlarge`` preset is meant to
  be generated;
* ``info``     — print a saved corpus' manifest (format, backend,
  row counts, per-column byte sizes); the corpus digest streams over
  the file bytes, so no column is paged in;
* ``append``   — O(day) incremental ingestion: scan one extra day of
  the same synthetic world and delta-append it to an existing format 3
  container (unchanged byte ranges raw-copied, never re-encoded); with
  ``--cache-dir`` the grown corpus' lineage is recorded so cached
  kernels of the base serve the grown corpus via one delta-merge;
* ``shard``    — scan one day of a preset world and write it as a
  shard-drop file (``.rps``): the hand-off unit the watch daemon
  ingests;
* ``ingest``   — the continuous twin of ``append``: a daemon polling a
  drop directory (``--watch``) and delta-appending each arriving day,
  with the live observability plane (``--serve HOST:PORT`` exposes
  ``/metrics``, ``/healthz``, ``/vars``) and a streaming trace sink;
* ``top``      — ASCII dashboard over a live ``/vars`` endpoint
  (counters with rates, resource gauges, stage-latency p50/p99);
* ``census``   — the §5 comparison (validity, lifetimes, keys, issuers);
* ``link``     — the §6 linking pipeline and Table 6 summary;
* ``track``    — the §7 tracking applications;
* ``profile``  — run every stage under tracing and print the span tree
  plus the aggregated counters (see ``docs/observability.md``).

All analysis commands accept either a saved corpus+environment pair or
``--preset tiny|small|paper`` to build one on the fly, plus ``--trace``
(JSONL span export) and ``--metrics`` (Prometheus-style text dump).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .stats.tables import format_count, format_pct, render_table

__all__ = ["main", "build_parser"]

#: World settings per synthetic preset (``stride`` is the scan schedule).
_PRESETS = {
    "tiny": dict(n_devices=220, n_websites=75, n_generic_access=30,
                 n_enterprise=8, n_hosting=6, unused_roots=5, stride=8),
    "small": dict(n_devices=900, n_websites=310, n_generic_access=60,
                  n_enterprise=15, n_hosting=10, stride=3),
    "paper": dict(n_devices=2500, n_websites=850, stride=1),
    # ~10x the paper corpus (~11M observations): meant for
    # `generate --stream-out`, which writes shard-by-shard in
    # O(largest shard) memory instead of holding the corpus in RAM.
    "xlarge": dict(n_devices=25_000, n_websites=8_500, n_generic_access=120,
                   n_enterprise=40, n_hosting=25, stride=1),
}

#: Presets the on-the-fly analysis commands accept (xlarge is generate-only:
#: stream it to an archive first, then point the analysis at the .rpz).
_ANALYSIS_PRESETS = ("tiny", "small", "paper")


def _add_obs_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--trace", metavar="PATH",
                     help="write the run's span tree as JSONL")
    sub.add_argument("--metrics", nargs="?", const="-", metavar="PATH",
                     help="dump counters in Prometheus text format "
                          "(to stdout, or to PATH if given)")


def _add_cache_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cache-dir", metavar="DIR",
                     help="content-addressed artifact cache directory: "
                          "kernels, validation verdicts and the tracking "
                          "state are loaded from (and persisted to) it, "
                          "keyed by the corpus digest")


def _make_cache(args):
    """The ArtifactCache implied by --cache-dir, or None."""
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir:
        return None
    from .io import ArtifactCache

    return ArtifactCache(cache_dir)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The Silent Majority' (IMC 2016)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="build, scan, and save a synthetic corpus"
    )
    generate.add_argument("--preset", choices=tuple(_PRESETS),
                          default="tiny")
    generate.add_argument("--seed", type=int, default=2016)
    generate.add_argument("--handshakes", action="store_true",
                          help="collect TLS/transport traits per observation")
    generate.add_argument("--workers", type=int, default=1,
                          help="processes to fan scan days out over "
                               "(results identical to --workers 1)")
    generate.add_argument("--stream-out", action="store_true",
                          help="stream day shards straight into the .rpz "
                               "(O(largest shard) memory; identical bytes "
                               "to an in-memory build — required scale for "
                               "the xlarge preset)")
    generate.add_argument("--corpus", default="corpus.rpz")
    generate.add_argument("--environment", default="environment.rpe")
    _add_obs_flags(generate)

    info = commands.add_parser("info", help="print a saved corpus' manifest")
    info.add_argument("corpus")
    info.add_argument("--workers", type=int, default=1,
                      help="worker count the analysis commands would use "
                           "(echoed in the summary)")
    info.add_argument("--cache-dir", metavar="DIR",
                      help="also report the corpus' artifact-cache status "
                           "(digest, cached sections) under this directory")

    append = commands.add_parser(
        "append",
        help="scan one extra day and delta-append it to a format 3 corpus",
    )
    append.add_argument("corpus", help="existing format 3 .rpz container")
    append.add_argument("--out", required=True, metavar="PATH",
                        help="grown container path (byte-identical to a "
                             "full rebuild that includes the day)")
    append.add_argument("--preset", choices=tuple(_PRESETS), default="tiny",
                        help="synthetic world the corpus was generated from")
    append.add_argument("--seed", type=int, default=2016)
    append.add_argument("--day", type=int, required=True,
                        help="scan day to append (must sort after every "
                             "day already in the corpus)")
    append.add_argument("--handshakes", action="store_true",
                        help="collect TLS/transport traits per observation")
    append.add_argument("--compact-after", type=int, metavar="N",
                        help="when the grown corpus' recorded delta chain "
                             "reaches N ancestors, consolidate it into one "
                             "flat artifact and reset the lineage chain "
                             "(requires --cache-dir)")
    _add_obs_flags(append)
    _add_cache_flag(append)

    shard = commands.add_parser(
        "shard",
        help="scan one day and write a shard-drop file (.rps) for the "
             "watch daemon",
    )
    shard.add_argument("--preset", choices=tuple(_PRESETS), default="tiny",
                       help="synthetic world the watched corpus was "
                            "generated from")
    shard.add_argument("--seed", type=int, default=2016)
    shard.add_argument("--day", type=int, required=True,
                       help="scan day to package")
    shard.add_argument("--handshakes", action="store_true",
                       help="collect TLS/transport traits per observation")
    shard.add_argument("--drop-dir", default=".", metavar="DIR",
                       help="directory to drop the file into "
                            "(default: current directory)")
    shard.add_argument("--out", metavar="PATH",
                       help="explicit drop path "
                            "(default: DIR/day-<day>.rps)")
    _add_obs_flags(shard)

    ingest = commands.add_parser(
        "ingest",
        help="daemon: watch a drop directory and delta-append each "
             "arriving day to a format 3 corpus",
    )
    ingest.add_argument("corpus", help="format 3 .rpz container to grow")
    ingest.add_argument("--watch", required=True, metavar="DIR",
                        help="drop directory to poll for .rps files")
    ingest.add_argument("--interval", type=float, default=2.0,
                        help="poll interval in seconds (default: 2)")
    ingest.add_argument("--once", action="store_true",
                        help="one poll pass over pending drops, then exit")
    ingest.add_argument("--max-days", type=int, default=None, metavar="N",
                        help="exit after N drop files have been ingested")
    ingest.add_argument("--serve", metavar="HOST:PORT",
                        help="expose the live plane (/metrics /healthz "
                             "/vars) on this endpoint (port 0: ephemeral)")
    ingest.add_argument("--trace-stream", metavar="PATH",
                        help="stream completed spans to a size-capped "
                             "rotating JSONL file (sampling via "
                             "REPRO_OBS_SAMPLE)")
    ingest.add_argument("--retain", type=int, default=512, metavar="N",
                        help="completed spans to keep in memory for /vars "
                             "(default: 512)")

    serve = commands.add_parser(
        "serve",
        help="daemon: answer online queries (/cert /key /track /census) "
             "over a saved corpus via asyncio HTTP",
    )
    serve.add_argument("corpus", help="saved .rpz corpus to serve")
    serve.add_argument("--environment", required=True, metavar="PATH",
                       help="saved .rpe analysis environment")
    serve.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                       help="bind endpoint (default 127.0.0.1:0 — an "
                            "ephemeral port, printed at boot)")
    serve.add_argument("--workers", type=int, default=1,
                       help="process-pool size for heavy queries (census "
                            "slices, group consistency); workers re-map "
                            "the container and share its pages")
    serve.add_argument("--max-seconds", type=float, default=None, metavar="S",
                       help="exit after S seconds (smoke-test use)")
    _add_cache_flag(serve)

    loadgen = commands.add_parser(
        "loadgen",
        help="drive a running repro serve with concurrent mixed lookups "
             "and report qps + latency percentiles",
    )
    loadgen.add_argument("url", help="server base URL, e.g. "
                                     "http://127.0.0.1:8321")
    loadgen.add_argument("--requests", type=int, default=2000,
                         help="total requests to issue (default: 2000)")
    loadgen.add_argument("--concurrency", type=int, default=16,
                         help="concurrent keep-alive connections "
                              "(default: 16)")
    loadgen.add_argument("--mix", metavar="SPEC",
                         help="endpoint weights, e.g. "
                              "cert=8,track=2,key=1,census=1 (default)")
    loadgen.add_argument("--seed", type=int, default=2016,
                         help="workload shuffle seed")
    loadgen.add_argument("--json", action="store_true",
                         help="emit the report as one JSON object")

    split = commands.add_parser(
        "split",
        help="partition a format 3 corpus into K self-contained shard "
             "containers plus a fleet.json manifest (analysis-closed, "
             "deterministic, O(bytes) raw-copy)",
    )
    split.add_argument("corpus", help="saved format 3 .rpz corpus")
    split.add_argument("--environment", required=True, metavar="PATH",
                       help="saved .rpe analysis environment (pins the "
                            "linking plan and validation pool)")
    split.add_argument("--out", required=True, metavar="DIR",
                       help="fleet directory for the shard containers, "
                            "owners sidecar, and fleet.json")
    split.add_argument("--shards", type=int, default=4,
                       help="shard count (default: 4)")
    _add_cache_flag(split)

    fleet = commands.add_parser(
        "fleet",
        help="daemon: split (if needed), boot one warmed serve process "
             "per shard, and front them with the byte-parity router",
    )
    fleet.add_argument("corpus", help="saved format 3 .rpz corpus")
    fleet.add_argument("--environment", required=True, metavar="PATH",
                       help="saved .rpe analysis environment")
    fleet.add_argument("--fleet-dir", required=True, metavar="DIR",
                       help="fleet directory (reused when fleet.json "
                            "already matches the corpus; else built by "
                            "splitting)")
    fleet.add_argument("--shards", type=int, default=4,
                       help="shard count when splitting (default: 4)")
    fleet.add_argument("--listen", default="127.0.0.1:0",
                       metavar="HOST:PORT",
                       help="router bind endpoint (default 127.0.0.1:0 "
                            "— an ephemeral port, printed at boot)")
    fleet.add_argument("--workers", type=int, default=1,
                       help="process-pool size inside each shard server")
    fleet.add_argument("--max-seconds", type=float, default=None,
                       metavar="S",
                       help="exit after S seconds (smoke-test use)")
    _add_cache_flag(fleet)

    top = commands.add_parser(
        "top",
        help="ASCII dashboard over a live /vars endpoint",
    )
    top.add_argument("--url", default="http://127.0.0.1:9110",
                     help="live plane base URL (default: "
                          "http://127.0.0.1:9110)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between frames (default: 2)")
    top.add_argument("--iterations", type=int, default=1, metavar="N",
                     help="frames to render before exiting (default: 1)")

    profile = commands.add_parser(
        "profile",
        help="run every pipeline stage under tracing and print the "
             "span tree plus aggregated counters",
    )
    profile.add_argument("--dataset", default="tiny",
                         help="synthetic preset (tiny|small|paper) or a "
                              "saved .rpz corpus")
    profile.add_argument("--environment",
                         help="saved .rpe environment (required with .rpz)")
    profile.add_argument("--seed", type=int, default=2016)
    profile.add_argument("--workers", type=int, default=1,
                         help="processes for scanning and per-feature "
                              "linking (counters aggregate identically)")
    profile.add_argument("--max-depth", type=int, default=None,
                         help="limit the printed span tree depth")
    _add_obs_flags(profile)
    _add_cache_flag(profile)

    for name, help_text in (
        ("census", "the §5 invalid-vs-valid comparison"),
        ("link", "the §6 linking pipeline"),
        ("track", "the §7 tracking applications"),
        ("report", "full markdown study report"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--corpus", help="saved .rpz corpus")
        sub.add_argument("--environment", help="saved .rpe environment")
        sub.add_argument("--preset", choices=_ANALYSIS_PRESETS,
                         help="build a corpus on the fly instead")
        sub.add_argument("--seed", type=int, default=2016)
        sub.add_argument("--workers", type=int, default=1,
                         help="processes for the per-feature linking passes "
                              "(results identical to --workers 1)")
        if name == "report":
            sub.add_argument("--out", default="report.md")
            sub.add_argument("--title", default="Invalid-certificate study")
        _add_obs_flags(sub)
        _add_cache_flag(sub)
    return parser


def _build_synthetic(preset: str, seed: int, collect_handshakes: bool = False,
                     workers: int = 1):
    """Build and scan one preset world (shared by generate and profile)."""
    from .datasets import synthetic
    from .internet.population import WorldConfig

    settings = dict(_PRESETS[preset])
    stride = settings.pop("stride")
    config = WorldConfig(seed=seed, **settings)
    return synthetic.generate(
        config, scan_stride=stride, collect_handshakes=collect_handshakes,
        workers=workers,
    )


def _make_study(args):
    from .study import Study

    workers = getattr(args, "workers", 1)
    cache = _make_cache(args)
    if args.preset:
        from .datasets import synthetic

        dataset = getattr(synthetic, args.preset)(seed=args.seed)
        return Study.from_synthetic(dataset, workers=workers, cache=cache)
    if not args.corpus or not args.environment:
        raise SystemExit("need either --preset or both --corpus and --environment")
    from .io import load_dataset, load_environment

    dataset = load_dataset(args.corpus)
    environment = load_environment(args.environment)
    return Study(
        dataset=dataset,
        trust_store=environment.trust_store,
        as_of=environment.routing.origin_as,
        registry=environment.registry,
        workers=workers,
        cache=cache,
    )


def _cmd_generate(args) -> int:
    from .io import AnalysisEnvironment, save_dataset, save_environment

    print(f"building '{args.preset}' world (seed {args.seed})...")
    if args.stream_out:
        from .datasets import synthetic
        from .internet.population import WorldConfig

        settings = dict(_PRESETS[args.preset])
        stride = settings.pop("stride")
        receipt = synthetic.generate_streamed(
            WorldConfig(seed=args.seed, **settings), args.corpus,
            scan_stride=stride, collect_handshakes=args.handshakes,
            workers=args.workers,
        )
        save_environment(
            AnalysisEnvironment.of_world(receipt.world), args.environment
        )
        print(
            f"streamed {args.corpus} ({receipt.n_scans} scans, "
            f"{format_count(receipt.n_observations)} observations, "
            f"{format_count(receipt.n_certificates)} certificates) "
            f"and {args.environment}"
        )
        print(f"corpus digest: {receipt.digest}")
        return 0
    bundle = _build_synthetic(
        args.preset, args.seed, collect_handshakes=args.handshakes,
        workers=args.workers,
    )
    save_dataset(bundle.scans, args.corpus)
    save_environment(AnalysisEnvironment.of_world(bundle.world), args.environment)
    print(
        f"wrote {args.corpus} ({len(bundle.scans.scans)} scans, "
        f"{format_count(bundle.scans.n_observations)} observations, "
        f"{format_count(len(bundle.scans.certificates))} certificates) "
        f"and {args.environment}"
    )
    return 0


def _cmd_info(args) -> int:
    from .io import MappedBackend

    backend = MappedBackend(args.corpus)
    manifest = backend.describe()
    print(f"backend: {manifest.pop('backend')} (mapped columns)")
    segments = manifest.pop("segments", None)
    for key, value in manifest.items():
        print(f"{key}: {value}")
    if segments:
        print("per-column bytes:")
        for name in sorted(segments):
            print(f"  {name}: {segments[name]:,d}")
    # Streams over the file bytes: even on a mapped container no column
    # segment is paged in (io.bytes_materialized stays 0).
    print(f"corpus digest: {backend.corpus_digest()}")
    print(f"workers: {args.workers}")
    if getattr(args, "cache_dir", None):
        from .io import ArtifactCache

        status = ArtifactCache(args.cache_dir).status(backend.corpus_digest())
        print(f"cache digest: {status['digest']}")
        if status["cached"]:
            print(f"cache: hit ({', '.join(status['sections'])}) "
                  f"in {status['path']}")
        elif status["schema"] is not None:
            print(f"cache: miss (schema {status['schema']} artifact in "
                  f"{status['path']})")
        else:
            print(f"cache: miss (no artifact in {status['path']})")
    return 0


def _day_shards(preset: str, seed: int, day: int, handshakes: bool):
    """One day's scan shards for a preset world (append and shard share).

    Rebuilds the deterministic world; per-day RNG streams are keyed by
    (seed, campaign, day), so the day's shards are byte-identical to
    what a full generate run would have produced for that day.
    """
    from .datasets.synthetic import _world_campaigns
    from .internet.population import WorldConfig
    from .scanner.engine import ScanEngine

    settings = dict(_PRESETS[preset])
    stride = settings.pop("stride")
    world, campaigns = _world_campaigns(
        WorldConfig(seed=seed, **settings), stride
    )
    engine = ScanEngine(world, collect_handshakes=handshakes)
    shards = [
        engine.run_shard(campaign, day)
        for campaign in sorted(campaigns, key=lambda c: c.name)
        if day in campaign.scan_days
    ]
    if not shards:
        raise SystemExit(f"no campaign in preset '{preset}' scans day {day}")
    return shards, engine


def _cmd_append(args) -> int:
    from .io import load_dataset

    shards, engine = _day_shards(
        args.preset, args.seed, args.day, args.handshakes
    )
    dataset = load_dataset(args.corpus)
    cache = _make_cache(args)
    try:
        grown = dataset.extend_from_shard(
            shards, engine.certificate_store, args.out, cache=cache,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(
        f"appended day {args.day} ({len(shards)} scans, "
        f"{format_count(grown.n_observations - dataset.n_observations)} "
        f"observations) -> {args.out}"
    )
    print(f"corpus digest: {grown.corpus_digest()}")
    if cache is not None and args.compact_after is not None:
        chain = cache.chain_length(grown.corpus_digest())
        if chain >= args.compact_after:
            if cache.compact(grown) is not None:
                print(
                    f"compacted delta chain ({chain} ancestors) into a "
                    f"flat artifact"
                )
    return 0


def _cmd_census(args) -> int:
    from .core.analysis.issuers import self_signed_fraction, top_issuers
    from .core.analysis.keys import key_sharing
    from .core.analysis.longevity import lifetimes, validity_periods

    study = _make_study(args)
    dataset = study.dataset
    validation = study.validation()
    print(f"invalid: {format_pct(validation.invalid_fraction)} of "
          f"{format_count(validation.considered)} certificates")
    print(f"self-signed share of invalid: "
          f"{format_pct(self_signed_fraction(dataset, study.invalid))}")

    invalid_validity = validity_periods(dataset, study.invalid)
    valid_validity = validity_periods(dataset, study.valid)
    invalid_life = lifetimes(dataset, study.invalid)
    valid_life = lifetimes(dataset, study.valid)
    invalid_keys = key_sharing(dataset, study.invalid)
    valid_keys = key_sharing(dataset, study.valid)
    print(render_table(
        ["statistic", "valid", "invalid"],
        [
            ["validity median", f"{valid_validity.median/365:.1f}y",
             f"{invalid_validity.median/365:.1f}y"],
            ["lifetime median", f"{valid_life.median_days:.0f}d",
             f"{invalid_life.median_days:.0f}d"],
            ["single-scan share", format_pct(valid_life.single_scan_fraction),
             format_pct(invalid_life.single_scan_fraction)],
            ["certs sharing keys", format_pct(valid_keys.shared_fraction),
             format_pct(invalid_keys.shared_fraction)],
        ],
    ))
    print("\ntop invalid issuers:")
    for issuer, count in top_issuers(dataset, study.invalid):
        print(f"  {count:>8,d}  {issuer}")
    return 0


def _cmd_link(args) -> int:
    study = _make_study(args)
    evaluations = study.feature_evaluations()
    rows = []
    for feature, evaluation in evaluations.items():
        consistency = evaluation.consistency
        rows.append(
            [feature.value, format_count(evaluation.total_linked),
             format_count(evaluation.uniquely_linked),
             format_pct(consistency.ip_level), format_pct(consistency.as_level)]
        )
    print(render_table(["feature", "linked", "uniquely", "IP-consistency",
                        "AS-consistency"], rows))
    pipeline = study.pipeline()
    print(f"\npipeline: linked {format_count(pipeline.linked_certificates)} "
          f"certificates ({format_pct(pipeline.linked_fraction)}) into "
          f"{format_count(len(pipeline.groups))} groups")
    print(f"order: {', '.join(f.value for f in pipeline.field_order)}")
    if pipeline.excluded:
        print(f"excluded: {', '.join(f.value for f in pipeline.excluded)}")
    return 0


def _cmd_track(args) -> int:
    study = _make_study(args)
    trackable = study.trackable()
    print(f"trackable devices: {format_count(trackable.trackable_without_linking)} "
          f"without linking, {format_count(trackable.trackable_with_linking)} with "
          f"(+{format_pct(trackable.improvement_fraction)})")
    movement = study.movement()
    print(f"devices changing AS: {format_count(movement.devices_changing_as)} "
          f"({format_count(movement.total_transitions)} transitions, "
          f"{format_pct(movement.single_change_fraction)} exactly once)")
    print(f"cross-country moves: {format_count(movement.country_moves)}")
    for transfer in movement.bulk_transfers[:5]:
        print(f"bulk transfer: AS{transfer.from_asn} -> AS{transfer.to_asn} "
              f"({transfer.device_count} devices)")
    try:
        reassignment = study.reassignment()
    except ValueError:
        print("reassignment inference: too few tracked devices per AS")
        return 0
    print(f"ASes >=90% static: "
          f"{format_pct(reassignment.fraction_of_ases_mostly_static())} "
          f"of {len(reassignment.static_fraction_by_as)}")
    return 0


def _cmd_report(args) -> int:
    from .report import write_report

    study = _make_study(args)
    write_report(study, args.out, title=args.title)
    print(f"wrote {args.out}")
    return 0


def _cmd_shard(args) -> int:
    import pathlib

    from .io import write_shard_drop

    shards, engine = _day_shards(
        args.preset, args.seed, args.day, args.handshakes
    )
    if args.out:
        path = pathlib.Path(args.out)
    else:
        path = pathlib.Path(args.drop_dir) / f"day-{args.day:05d}.rps"
    try:
        digest = write_shard_drop(shards, engine.certificate_store, path)
    except ValueError as exc:
        raise SystemExit(str(exc))
    rows = sum(len(shard) for shard in shards)
    print(f"dropped day {args.day} ({len(shards)} scans, "
          f"{format_count(rows)} observations) -> {path}")
    print(f"drop digest: {digest}")
    return 0


def _parse_endpoint(spec: str) -> "tuple[str, int]":
    """``HOST:PORT`` / ``:PORT`` / ``PORT`` → a bind address."""
    host, separator, port = spec.rpartition(":")
    if not separator:
        host, port = "", spec
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(f"--serve endpoint is not HOST:PORT: {spec!r}")


def _cmd_ingest(args) -> int:
    import signal
    import threading

    from .io.watch import WatchIngestor
    from .obs import (
        LatencyRecorder,
        LiveServer,
        MetricsRegistry,
        ResourceSampler,
        RotatingJsonlSink,
        Tracer,
    )
    from .obs import runtime as obs_runtime

    if args.interval <= 0:
        raise SystemExit("--interval must be positive seconds")
    trace = Tracer(process="ingest-watch")
    metrics = MetricsRegistry()
    trace.retain = args.retain
    trace.add_sink(LatencyRecorder(metrics))
    sink = None
    if args.trace_stream:
        sink = RotatingJsonlSink(args.trace_stream, process="ingest-watch")
        trace.add_sink(sink)
    health = {}
    ingestor = WatchIngestor(args.corpus, args.watch, health=health)
    sampler = ResourceSampler(metrics, interval=max(args.interval, 0.5))
    server = None
    stop = threading.Event()
    previous_handlers = {}

    def _request_stop(signum, frame) -> None:
        stop.set()

    with obs_runtime.activated(trace, metrics):
        sampler.start()
        try:
            if args.serve is not None:
                host, port = _parse_endpoint(args.serve)
                server = LiveServer(
                    trace, metrics, health=health, host=host, port=port
                ).start()
                print(f"live plane at {server.url} "
                      f"(/metrics /healthz /vars)", flush=True)
            if args.once:
                ingested = len(ingestor.poll())
            else:
                for signum in (signal.SIGINT, signal.SIGTERM):
                    try:
                        previous_handlers[signum] = signal.signal(
                            signum, _request_stop
                        )
                    except (ValueError, OSError):
                        pass  # not the main thread, or unsupported signal
                print(f"watching {args.watch} every {args.interval:g}s "
                      f"(SIGINT/SIGTERM to stop)", flush=True)
                ingested = ingestor.run(
                    interval=args.interval, stop=stop,
                    max_days=args.max_days,
                )
        finally:
            for signum, handler in previous_handlers.items():
                try:
                    signal.signal(signum, handler)
                except (ValueError, OSError):
                    pass
            if server is not None:
                server.stop()
            sampler.stop()
            if sink is not None:
                sink.close()
    print(f"ingested {ingested} drop file(s) "
          f"({ingestor.rejected} rejected) into {args.corpus}")
    if "last_append_day" in health:
        print(f"last appended day: {health['last_append_day']}")
        print(f"corpus digest: {health['last_digest']}")
    return 0


def _cmd_top(args) -> int:
    import json
    import time
    import urllib.error
    import urllib.request

    from .obs import render_top

    base = args.url.rstrip("/")
    previous = None
    last_time = None
    for iteration in range(max(1, args.iterations)):
        if iteration:
            time.sleep(args.interval)
            print()
        try:
            with urllib.request.urlopen(base + "/vars", timeout=10) as response:
                snapshot = json.loads(response.read().decode())
        except (urllib.error.URLError, OSError) as exc:
            raise SystemExit(f"cannot reach {base}/vars: {exc}")
        now = time.monotonic()
        interval = now - last_time if last_time is not None else None
        print(render_top(snapshot, previous=previous, interval=interval))
        previous, last_time = snapshot, now
    return 0


async def _serve_until_signal(server, routes: str, max_seconds) -> None:
    """Start ``server``, print its URL, serve until SIGINT/SIGTERM.

    ``max_seconds`` (when not ``None``) stops it on its own.
    """
    import asyncio
    import signal
    from contextlib import suppress

    await server.start()
    print(f"serving queries at {server.url} ({routes})", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
    try:
        if max_seconds is not None:
            with suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stop.wait(), timeout=max_seconds)
        else:
            await stop.wait()
    finally:
        await server.stop()


def _cmd_serve(args) -> int:
    import asyncio

    from .obs import LatencyRecorder, LiveServer, MetricsRegistry, \
        ResourceSampler, Tracer
    from .obs import runtime as obs_runtime
    from .serve import QueryEngine, QueryServer

    host, port = _parse_endpoint(args.listen)
    trace = Tracer(process="serve")
    metrics = MetricsRegistry()
    trace.add_sink(LatencyRecorder(metrics))
    health = {}
    sampler = ResourceSampler(metrics, interval=1.0)
    with obs_runtime.activated(trace, metrics):
        engine = QueryEngine.open(
            args.corpus, args.environment,
            workers=args.workers, cache_dir=args.cache_dir,
        )
        print("warming query stages...", flush=True)
        engine.warm()
        health.update({
            "corpus": str(args.corpus),
            "digest": engine.digest,
            "workers": args.workers,
        })
        live = LiveServer(trace, metrics, health=health)
        server = QueryServer(engine, live=live, host=host, port=port)
        sampler.start()
        try:
            asyncio.run(_serve_until_signal(
                server,
                "/cert /key /track /census /sample /metrics /healthz /vars",
                args.max_seconds,
            ))
        except KeyboardInterrupt:
            pass
        finally:
            sampler.stop()
            engine.close()
    return 0


def _parse_mix(spec: str) -> "dict[str, int]":
    """``cert=8,track=2`` → endpoint weight dict."""
    mix = {}
    for item in spec.split(","):
        name, separator, weight = item.partition("=")
        if not separator or not weight.isdigit():
            raise SystemExit(f"--mix entries are NAME=WEIGHT: {item!r}")
        mix[name.strip()] = int(weight)
    return mix


def _cmd_loadgen(args) -> int:
    import json as json_module

    from .serve.loadgen import run_loadgen

    mix = _parse_mix(args.mix) if args.mix else None
    report = run_loadgen(
        args.url.rstrip("/"), requests=args.requests,
        concurrency=args.concurrency, mix=mix, seed=args.seed,
    )
    if args.json:
        print(json_module.dumps({
            "requests": report.requests,
            "errors": report.errors,
            "seconds": report.seconds,
            "qps": report.qps,
            "p50_ms": report.p50_ms,
            "p99_ms": report.p99_ms,
            "max_ms": report.max_ms,
            "by_status": {
                str(status): count
                for status, count in report.by_status.items()
            },
            "by_endpoint": report.by_endpoint,
        }, sort_keys=True))
    else:
        print(report.render())
    return 1 if report.errors else 0


def _cmd_split(args) -> int:
    from .io.split import split_corpus

    manifest = split_corpus(
        args.corpus, args.environment, args.out,
        shards=args.shards, cache_dir=args.cache_dir,
    )
    print(f"split {args.corpus} into {manifest.shards} shards "
          f"at {manifest.directory}")
    for info in manifest.shard_infos:
        print(f"  shard {info.index}: {info.path.name}  "
              f"{info.n_certificates} certs  "
              f"{info.n_observations} rows  {info.digest[:12]}")
    print(f"  manifest: {manifest.path.name}  "
          f"parent {manifest.parent_digest[:12]}")
    return 0


def _cmd_fleet(args) -> int:
    import asyncio
    import pathlib

    from .io.artifacts import file_digest
    from .io.split import (
        FLEET_MANIFEST_NAME,
        load_fleet_manifest,
        split_corpus,
        verify_fleet,
    )
    from .obs import ResourceSampler
    from .serve.router import FleetRouter, boot_fleet, shutdown_fleet

    host, port = _parse_endpoint(args.listen)
    fleet_dir = pathlib.Path(args.fleet_dir)
    manifest_path = fleet_dir / FLEET_MANIFEST_NAME
    manifest = None
    if manifest_path.exists():
        manifest = load_fleet_manifest(manifest_path)
        if (manifest.parent_digest != file_digest(args.corpus)
                or manifest.shards != args.shards):
            manifest = None  # stale fleet: re-split below
    if manifest is None:
        print(f"splitting {args.corpus} into {args.shards} shards...",
              flush=True)
        manifest = split_corpus(
            args.corpus, args.environment, fleet_dir,
            shards=args.shards, cache_dir=args.cache_dir,
        )
    verify_fleet(manifest)
    print(f"booting {manifest.shards} shard servers...", flush=True)
    processes, urls = boot_fleet(
        manifest, args.environment,
        cache_dir=args.cache_dir, workers=args.workers,
    )
    for shard, url in enumerate(urls):
        print(f"  shard {shard} at {url}", flush=True)
    sampler = None
    try:
        router = FleetRouter(manifest, urls, host=host, port=port)
        sampler = ResourceSampler(router.registry, interval=1.0).start()
        asyncio.run(_serve_until_signal(
            router,
            f"fleet router over {len(urls)} shards: /cert /key /track "
            f"/census /sample /as /metrics /healthz /vars",
            args.max_seconds,
        ))
    except KeyboardInterrupt:
        pass
    finally:
        if sampler is not None:
            sampler.stop()
        shutdown_fleet(processes)
    return 0


def _export_metrics(metrics, dest: str) -> None:
    """Prometheus text dump to stdout (``-``) or a file."""
    from .obs import prometheus_text

    text = prometheus_text(metrics)
    if dest == "-":
        print(text, end="")
    else:
        with open(dest, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote metrics to {dest}")


def _cmd_profile(args) -> int:
    from .obs import MetricsRegistry, Tracer, counter_table, render_span_tree, write_trace
    from .obs import runtime as obs_runtime
    from .study import Study

    trace = Tracer()
    metrics = MetricsRegistry()
    with obs_runtime.activated(trace, metrics):
        with trace.span("profile", dataset=args.dataset, workers=args.workers):
            if args.dataset in _PRESETS:
                with trace.span("scan", preset=args.dataset):
                    bundle = _build_synthetic(
                        args.dataset, args.seed, workers=args.workers
                    )
                study = Study.from_synthetic(
                    bundle, workers=args.workers, observe=True,
                    cache=_make_cache(args),
                )
            else:
                if not args.environment:
                    raise SystemExit(
                        "--environment is required with an .rpz corpus"
                    )
                from .io import load_dataset, load_environment

                with trace.span("load", corpus=args.dataset):
                    dataset = load_dataset(args.dataset)
                    environment = load_environment(args.environment)
                study = Study(
                    dataset=dataset,
                    trust_store=environment.trust_store,
                    as_of=environment.routing.origin_as,
                    registry=environment.registry,
                    workers=args.workers,
                    observe=True,
                    cache=_make_cache(args),
                )
            study.validation()
            study.dedup()
            study.feature_evaluations()
            study.pipeline()
            study.tracked_devices()
    print(render_span_tree(trace, max_depth=args.max_depth))
    table = counter_table(metrics)
    if table:
        print()
        print(table)
    if args.trace:
        count = write_trace(trace, args.trace)
        print(f"\nwrote {count} spans to {args.trace}")
    if args.metrics is not None:
        _export_metrics(metrics, args.metrics)
    return 0


def _with_observability(args, handler) -> int:
    """Honor ``--trace`` / ``--metrics`` around a subcommand handler."""
    trace_path = getattr(args, "trace", None)
    metrics_dest = getattr(args, "metrics", None)
    if not trace_path and metrics_dest is None:
        return handler(args)
    from .obs import MetricsRegistry, Tracer, write_trace
    from .obs import runtime as obs_runtime

    trace = Tracer()
    metrics = MetricsRegistry()
    with obs_runtime.activated(trace, metrics):
        with trace.span(args.command):
            code = handler(args)
    if trace_path:
        count = write_trace(trace, trace_path)
        print(f"wrote {count} spans to {trace_path}")
    if metrics_dest is not None:
        _export_metrics(metrics, metrics_dest)
    return code


_HANDLERS = {
    "generate": _cmd_generate,
    "info": _cmd_info,
    "append": _cmd_append,
    "shard": _cmd_shard,
    "ingest": _cmd_ingest,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "split": _cmd_split,
    "fleet": _cmd_fleet,
    "top": _cmd_top,
    "census": _cmd_census,
    "link": _cmd_link,
    "track": _cmd_track,
    "report": _cmd_report,
    "profile": _cmd_profile,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        # profile, ingest, and serve own their tracer/registry lifecycle
        # (the daemons keep them live for their whole run); top and
        # loadgen are pure clients.
        if args.command in ("profile", "ingest", "serve", "top", "loadgen",
                            "fleet"):
            return handler(args)
        return _with_observability(args, handler)
    except ValueError as error:
        # A corrupt or retired-format container is one line, not a
        # traceback.  Imported here so the pure clients never load
        # repro.io.
        from .io.encoding import SegmentError

        if not isinstance(error, SegmentError):
            raise
        print(f"repro: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
