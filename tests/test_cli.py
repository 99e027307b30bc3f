"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def saved_corpus(tmp_path_factory):
    """A tiny corpus + environment generated through the CLI itself."""
    directory = tmp_path_factory.mktemp("cli")
    corpus = directory / "corpus.rpz"
    environment = directory / "environment.rpe"
    code = main(
        [
            "generate", "--preset", "tiny", "--seed", "7",
            "--corpus", str(corpus), "--environment", str(environment),
        ]
    )
    assert code == 0
    return corpus, environment


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.preset == "tiny"
        assert args.seed == 2016
        assert not args.handshakes

    def test_analysis_commands_accept_preset(self):
        args = build_parser().parse_args(["census", "--preset", "tiny"])
        assert args.preset == "tiny"

    def test_analysis_commands_accept_obs_flags(self):
        args = build_parser().parse_args(
            ["link", "--preset", "tiny", "--trace", "t.jsonl", "--metrics"]
        )
        assert args.trace == "t.jsonl"
        assert args.metrics == "-"

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.dataset == "tiny"
        assert args.workers == 1
        assert args.trace is None
        assert args.metrics is None

    def test_cache_flags(self):
        args = build_parser().parse_args(
            ["link", "--preset", "tiny", "--cache-dir", "cache"]
        )
        assert args.cache_dir == "cache"
        args = build_parser().parse_args(
            ["profile", "--cache-dir", "artifacts"]
        )
        assert args.cache_dir == "artifacts"


class TestCommands:
    def test_generate_writes_both_artifacts(self, saved_corpus):
        corpus, environment = saved_corpus
        assert corpus.exists()
        assert environment.exists()

    def test_info(self, saved_corpus, capsys):
        corpus, _ = saved_corpus
        assert main(["info", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "backend: mapped" in out
        assert "format: 3" in out
        assert "per-column bytes:" in out
        assert "n_scans" in out
        assert "n_certificates" in out
        assert "n_observations" in out
        assert "workers: 1" in out

    def test_info_reports_cache_status(self, saved_corpus, capsys, tmp_path):
        corpus, environment = saved_corpus
        cache_dir = tmp_path / "artifact-cache"
        assert main(["info", str(corpus), "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "cache digest:" in out
        assert "cache: miss" in out
        # Warm the cache through an analysis command, then re-inspect.
        assert main(
            ["census", "--corpus", str(corpus), "--environment",
             str(environment), "--cache-dir", str(cache_dir)]
        ) == 0
        capsys.readouterr()
        assert main(["info", str(corpus), "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        # census builds (and therefore persists) only the validation
        # artifact; a link/track run would add the kernels section.
        assert "cache: hit (validation)" in out

    def test_info_echoes_worker_count(self, saved_corpus, capsys):
        corpus, _ = saved_corpus
        assert main(["info", str(corpus), "--workers", "3"]) == 0
        assert "workers: 3" in capsys.readouterr().out

    def test_census_from_saved(self, saved_corpus, capsys):
        corpus, environment = saved_corpus
        code = main(
            ["census", "--corpus", str(corpus), "--environment", str(environment)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "invalid:" in out
        assert "top invalid issuers" in out

    def test_link_from_saved(self, saved_corpus, capsys):
        corpus, environment = saved_corpus
        code = main(
            ["link", "--corpus", str(corpus), "--environment", str(environment)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pipeline: linked" in out
        assert "Public Key" in out

    def test_track_from_saved(self, saved_corpus, capsys):
        corpus, environment = saved_corpus
        code = main(
            ["track", "--corpus", str(corpus), "--environment", str(environment)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trackable devices" in out

    def test_analysis_without_inputs_fails(self):
        with pytest.raises(SystemExit):
            main(["census"])


class TestStreamOut:
    def test_parser_accepts_stream_out_and_xlarge(self):
        args = build_parser().parse_args(
            ["generate", "--preset", "xlarge", "--stream-out"]
        )
        assert args.preset == "xlarge"
        assert args.stream_out

    def test_xlarge_is_generate_only(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["census", "--preset", "xlarge"])

    def test_stream_out_matches_in_memory_generate(
        self, saved_corpus, tmp_path, capsys
    ):
        corpus, _ = saved_corpus  # built by plain generate (tiny, seed 7)
        streamed = tmp_path / "streamed.rpz"
        environment = tmp_path / "streamed.rpe"
        code = main(
            ["generate", "--preset", "tiny", "--seed", "7", "--stream-out",
             "--corpus", str(streamed), "--environment", str(environment)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "corpus digest:" in out
        assert streamed.read_bytes() == corpus.read_bytes()
        assert environment.exists()
        # The streamed corpus is a first-class analysis input.
        assert main(["info", str(streamed)]) == 0


class TestCorruptContainers:
    """A file that is not an intact format 3 corpus fails in one line."""

    @staticmethod
    def _legacy_zip(path, format):
        import json
        import zipfile

        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("manifest.json", json.dumps({"format": format}))
            archive.writestr("certificates.der", b"")
            archive.writestr("scans.jsonl", "")

    def _assert_one_line_error(self, capsys, path, reason):
        assert main(["info", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"repro: {path}: ")
        assert reason in lines[0]

    @pytest.mark.parametrize("format", [1, 2])
    def test_legacy_zip(self, tmp_path, capsys, format):
        path = tmp_path / f"v{format}.rpz"
        self._legacy_zip(path, format)
        self._assert_one_line_error(capsys, path, "repro generate")

    def test_junk(self, tmp_path, capsys):
        path = tmp_path / "junk.rpz"
        path.write_bytes(b"definitely not a container")
        self._assert_one_line_error(capsys, path, "not a segment container")

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.rpz"
        path.write_bytes(b"")
        self._assert_one_line_error(capsys, path, "not a segment container")

    def test_truncated(self, saved_corpus, tmp_path, capsys):
        corpus, _ = saved_corpus
        path = tmp_path / "truncated.rpz"
        path.write_bytes(corpus.read_bytes()[:-10])
        self._assert_one_line_error(capsys, path, "truncated")

    def test_missing_cert_hash(self, saved_corpus, tmp_path, capsys):
        from .io.test_backends import _strip_hash_segment

        corpus, _ = saved_corpus
        path = tmp_path / "no-hash.rpz"
        _strip_hash_segment(corpus, path)
        self._assert_one_line_error(capsys, path, "cert_hash")

    def test_analysis_commands_fail_the_same_way(
        self, saved_corpus, tmp_path, capsys
    ):
        _, environment = saved_corpus
        path = tmp_path / "v2.rpz"
        self._legacy_zip(path, 2)
        code = main(["census", "--corpus", str(path),
                     "--environment", str(environment)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"repro: {path}: ")


    def test_damaged_certificate_record(self, saved_corpus, tmp_path, capsys):
        # The container is intact, so it opens; the census parses every
        # certificate and fails at the first access of the damaged one.
        from repro.io.encoding import SegmentReader, unpack_fingerprints

        corpus, environment = saved_corpus
        reader = SegmentReader(corpus)
        entry = reader.entry("certificates.der")
        first = reader.array("cert_offsets")[0]
        fingerprint = unpack_fingerprints(reader.raw("cert_order"))[0]
        reader.close()
        blob = bytearray(corpus.read_bytes())
        # The first record's outer SEQUENCE tag, past its length prefix.
        blob[entry["offset"] + first + 4] = 0x31
        path = tmp_path / "damaged.rpz"
        path.write_bytes(bytes(blob))
        assert main(["census", "--corpus", str(path),
                     "--environment", str(environment)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines == [
            f"repro: {path}: certificate {fingerprint.hex()[:16]}: "
            "expected tag 0x30, got 0x31"
        ], captured.err


def _rewrite_zip(source, path, replace):
    """Copy the ``source`` zip to ``path`` with members replaced (None:
    dropped)."""
    import zipfile

    with zipfile.ZipFile(source) as archive, \
            zipfile.ZipFile(path, "w") as out:
        for name in archive.namelist():
            data = replace.get(name, archive.read(name))
            if data is not None:
                out.writestr(name, data)


class TestCorruptSidecars:
    """A corrupt environment or fleet manifest fails in one line too."""

    def _assert_one_line_error(self, capsys, argv, path, reason):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"repro: {path}: ")
        assert reason in lines[0]

    @pytest.mark.parametrize("damage,reason", [
        ("truncated", "not an environment archive"),
        ("no-routing", "has no routing.json"),
        ("bad-json", "malformed environment"),
        ("roots-overrun", "overruns"),
    ])
    def test_environment(self, saved_corpus, tmp_path, capsys, damage,
                         reason):
        corpus, environment = saved_corpus
        path = tmp_path / "env.rpe"
        if damage == "truncated":
            path.write_bytes(environment.read_bytes()[:3000])
        else:
            replace = {
                "no-routing": {"routing.json": None},
                "bad-json": {"routing.json": b'{"snapshots": ['},
                "roots-overrun": {"roots.der": b"\x00\x00\x10\x00abc"},
            }[damage]
            _rewrite_zip(environment, path, replace)
        self._assert_one_line_error(
            capsys,
            ["serve", str(corpus), "--environment", str(path),
             "--max-seconds", "1"],
            path, reason,
        )

    @pytest.mark.parametrize("text,reason", [
        ('{"kind": "fleet", "shar', "not valid JSON"),
        ('{"kind": "corpus"}', "not a fleet manifest"),
        ('{"kind": "fleet", "shards": 2}', "malformed fleet manifest"),
    ])
    def test_fleet_manifest(self, saved_corpus, tmp_path, capsys, text,
                            reason):
        corpus, environment = saved_corpus
        fleet_dir = tmp_path / "fleet"
        fleet_dir.mkdir()
        path = fleet_dir / "fleet.json"
        path.write_text(text)
        self._assert_one_line_error(
            capsys,
            ["fleet", str(corpus), "--environment", str(environment),
             "--fleet-dir", str(fleet_dir), "--shards", "2",
             "--max-seconds", "1"],
            path, reason,
        )


class TestMissingPaths:
    """A missing corpus or environment is one line, not a traceback."""

    def _assert_no_such_file(self, capsys, argv, path):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"repro: {path}: no such file"]

    def test_info(self, tmp_path, capsys):
        path = tmp_path / "absent.rpz"
        self._assert_no_such_file(capsys, ["info", str(path)], path)

    def test_census(self, saved_corpus, tmp_path, capsys):
        _, environment = saved_corpus
        path = tmp_path / "absent.rpz"
        self._assert_no_such_file(
            capsys,
            ["census", "--corpus", str(path),
             "--environment", str(environment)],
            path,
        )

    def test_serve(self, saved_corpus, tmp_path, capsys):
        _, environment = saved_corpus
        path = tmp_path / "absent.rpz"
        self._assert_no_such_file(
            capsys,
            ["serve", str(path), "--environment", str(environment),
             "--max-seconds", "0.5"],
            path,
        )

    @pytest.mark.parametrize("command", ["census", "serve"])
    def test_environment(self, saved_corpus, tmp_path, capsys, command):
        corpus, _ = saved_corpus
        path = tmp_path / "absent.rpe"
        argv = (
            ["census", "--corpus", str(corpus), "--environment", str(path)]
            if command == "census" else
            ["serve", str(corpus), "--environment", str(path),
             "--max-seconds", "0.5"]
        )
        self._assert_no_such_file(capsys, argv, path)


class TestObservability:
    def test_link_with_trace_and_metrics(self, saved_corpus, tmp_path, capsys):
        corpus, environment = saved_corpus
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            ["link", "--corpus", str(corpus), "--environment",
             str(environment), "--trace", str(trace_path), "--metrics"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert trace_path.exists()
        assert f"spans to {trace_path}" in out
        assert "repro_dedup_certs_unique_total" in out

    def test_profile_writes_trace_and_prints_tree(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            ["profile", "--dataset", "tiny", "--seed", "7", "--workers", "2",
             "--trace", str(trace_path), "--metrics", str(metrics_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The printed tree covers every pipeline stage.
        for stage in ("scan", "validation", "kernels", "dedup",
                      "feature_evaluations", "pipeline", "tracking"):
            assert stage in out
        assert "scanner.observations_recorded" in out
        lines = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert lines[0]["type"] == "meta"
        names = {record["name"] for record in lines[1:]}
        assert any(name.startswith("scan/day=") for name in names)
        assert any(name.startswith("link/feature=") for name in names)
        assert "repro_scanner_scans_executed_total" in metrics_path.read_text()

    def test_profile_with_rpz_requires_environment(self, saved_corpus):
        corpus, _ = saved_corpus
        with pytest.raises(SystemExit):
            main(["profile", "--dataset", str(corpus)])

    def test_profile_from_saved_corpus(self, saved_corpus, capsys):
        corpus, environment = saved_corpus
        code = main(
            ["profile", "--dataset", str(corpus), "--environment",
             str(environment), "--max-depth", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "load" in out
        assert "dedup.certs_considered" in out


class TestAppendCommand:
    """O(day) ingestion through the CLI: `repro append` and info digests."""

    def test_parser_requires_out_and_day(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["append", "corpus.rpz"])
        args = build_parser().parse_args(
            ["append", "corpus.rpz", "--out", "grown.rpz", "--day", "5555",
             "--seed", "7"]
        )
        assert args.day == 5555
        assert args.preset == "tiny"

    @staticmethod
    def _truncated_base(path, seed):
        """The tiny-preset corpus minus its last scan day."""
        from repro.cli import _PRESETS
        from repro.datasets.synthetic import _world_campaigns
        from repro.internet.population import WorldConfig
        from repro.io.store import StreamingDatasetWriter
        from repro.scanner.engine import ScanEngine

        settings = dict(_PRESETS["tiny"])
        stride = settings.pop("stride")
        world, campaigns = _world_campaigns(
            WorldConfig(seed=seed, **settings), stride
        )
        engine = ScanEngine(world)
        schedule = sorted(
            ((day, campaign)
             for campaign in campaigns for day in campaign.scan_days),
            key=lambda task: (task[0], task[1].name),
        )
        last_day = max(day for day, _ in schedule)
        writer = StreamingDatasetWriter(path)
        for day, campaign in schedule:
            if day != last_day:
                writer.add_shard(engine.run_shard(campaign, day))
        writer.close(engine.certificate_store)
        return last_day

    def test_append_matches_full_generate(
        self, saved_corpus, tmp_path, capsys
    ):
        corpus, _ = saved_corpus
        base = tmp_path / "base.rpz"
        last_day = self._truncated_base(base, seed=7)
        grown = tmp_path / "grown.rpz"
        cache_dir = tmp_path / "cache"
        code = main(
            ["append", str(base), "--out", str(grown), "--preset", "tiny",
             "--seed", "7", "--day", str(last_day),
             "--cache-dir", str(cache_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"appended day {last_day}" in out
        assert "corpus digest:" in out
        # Byte-identical to the corpus a full generate run wrote.
        assert grown.read_bytes() == corpus.read_bytes()
        # --cache-dir records the grown corpus' delta lineage.
        assert (cache_dir / "lineage.json").exists()

    def test_append_unknown_day_fails(self, saved_corpus, tmp_path):
        corpus, _ = saved_corpus
        with pytest.raises(SystemExit, match="no campaign"):
            main(
                ["append", str(corpus), "--out", str(tmp_path / "g.rpz"),
                 "--seed", "7", "--day", "1"]
            )

    def test_info_digest_without_paging_columns(self, saved_corpus, capsys):
        from repro.obs import runtime as obs_runtime
        from repro.obs.metrics import MetricsRegistry

        corpus, _ = saved_corpus
        registry = MetricsRegistry()
        obs_runtime.activate(metrics=registry)
        try:
            code = main(["info", str(corpus)])
        finally:
            obs_runtime.deactivate()
        assert code == 0
        assert "corpus digest:" in capsys.readouterr().out
        # The digest streams over the file: nothing is mapped or copied
        # out of column segments.
        assert registry.counters.get("io.bytes_materialized", 0) == 0
        assert registry.counters.get("io.mmap_open_total", 0) == 0


class TestLivePlaneCommands:
    """`repro shard`, `repro ingest --watch`, and `repro top`."""

    def test_parser_shard_requires_day(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard"])
        args = build_parser().parse_args(["shard", "--day", "120"])
        assert args.preset == "tiny"
        assert args.drop_dir == "."
        assert args.out is None

    def test_parser_ingest_requires_watch(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ingest", "c.rpz"])
        args = build_parser().parse_args(["ingest", "c.rpz", "--watch", "d"])
        assert args.interval == 2.0
        assert not args.once
        assert args.max_days is None
        assert args.serve is None
        assert args.trace_stream is None
        assert args.retain == 512

    def test_parser_top_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.url == "http://127.0.0.1:9110"
        assert args.interval == 2.0
        assert args.iterations == 1

    def test_parse_endpoint(self):
        from repro.cli import _parse_endpoint

        assert _parse_endpoint("9110") == ("127.0.0.1", 9110)
        assert _parse_endpoint(":8080") == ("127.0.0.1", 8080)
        assert _parse_endpoint("0.0.0.0:80") == ("0.0.0.0", 80)
        with pytest.raises(SystemExit, match="HOST:PORT"):
            _parse_endpoint("nope")

    def test_ingest_rejects_bad_interval(self, tmp_path):
        with pytest.raises(SystemExit, match="interval"):
            main(["ingest", str(tmp_path / "c.rpz"), "--watch",
                  str(tmp_path), "--interval", "0"])

    def test_shard_then_ingest_matches_generate(
        self, saved_corpus, tmp_path, capsys
    ):
        corpus, _ = saved_corpus
        watched = tmp_path / "watched.rpz"
        last_day = TestAppendCommand._truncated_base(watched, seed=7)
        drops = tmp_path / "drops"
        drops.mkdir()
        assert main(
            ["shard", "--preset", "tiny", "--seed", "7",
             "--day", str(last_day), "--drop-dir", str(drops)]
        ) == 0
        out = capsys.readouterr().out
        assert f"dropped day {last_day}" in out
        assert "drop digest:" in out
        drop = drops / f"day-{last_day:05d}.rps"
        assert drop.exists()
        trace_stream = tmp_path / "stream.jsonl"
        assert main(
            ["ingest", str(watched), "--watch", str(drops), "--once",
             "--serve", "127.0.0.1:0", "--trace-stream", str(trace_stream)]
        ) == 0
        out = capsys.readouterr().out
        assert "live plane at http://127.0.0.1:" in out
        assert "ingested 1 drop file(s) (0 rejected)" in out
        assert f"last appended day: {last_day}" in out
        # The daemon-ingested corpus is byte-identical to a full
        # generate run — the watch path preserves append invariance.
        assert watched.read_bytes() == corpus.read_bytes()
        assert drop.with_name(drop.name + ".done").exists()
        # The streaming sink left a parseable JSONL trace behind.
        import json

        lines = trace_stream.read_text().splitlines()
        assert json.loads(lines[0])["streaming"] is True

    def test_top_renders_live_snapshot(self, capsys):
        from repro.obs import LiveServer, MetricsRegistry, Tracer

        tracer = Tracer(process="cli-top")
        registry = MetricsRegistry()
        registry.inc("ingest.files_ingested", 2)
        with tracer.span("ingest/poll"):
            pass
        server = LiveServer(
            tracer, registry, health={"last_append_day": 7}
        ).start()
        try:
            assert main(["top", "--url", server.url, "--iterations", "1"]) == 0
        finally:
            server.stop()
        out = capsys.readouterr().out
        assert "repro top — cli-top" in out
        assert "last append day 7" in out
        assert "ingest.files_ingested" in out

    def test_top_unreachable_endpoint_fails(self):
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["top", "--url", "http://127.0.0.1:1", "--iterations", "1"])


class TestCompactAfter:
    """`repro append --compact-after N` flattens long delta chains."""

    def test_parser_accepts_compact_after(self):
        args = build_parser().parse_args(
            ["append", "c.rpz", "--out", "g.rpz", "--day", "5555",
             "--compact-after", "30"]
        )
        assert args.compact_after == 30

    def test_append_compacts_when_chain_reaches_bound(
        self, saved_corpus, tmp_path, capsys
    ):
        import json

        from repro.io import load_dataset
        from repro.io.artifacts import ArtifactCache

        base = tmp_path / "base.rpz"
        last_day = TestAppendCommand._truncated_base(base, seed=7)
        grown = tmp_path / "grown.rpz"
        cache_dir = tmp_path / "cache"
        code = main(
            ["append", str(base), "--out", str(grown), "--preset", "tiny",
             "--seed", "7", "--day", str(last_day),
             "--cache-dir", str(cache_dir), "--compact-after", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "compacted delta chain (1 ancestors)" in out
        assert json.loads((cache_dir / "lineage.json").read_text()) == {}
        digest = load_dataset(grown).corpus_digest()
        cache = ArtifactCache(cache_dir)
        assert "kernels" in cache.status(digest)["sections"]

    def test_append_below_bound_keeps_the_chain(
        self, saved_corpus, tmp_path, capsys
    ):
        import json

        base = tmp_path / "base.rpz"
        last_day = TestAppendCommand._truncated_base(base, seed=7)
        cache_dir = tmp_path / "cache"
        code = main(
            ["append", str(base), "--out", str(tmp_path / "grown.rpz"),
             "--preset", "tiny", "--seed", "7", "--day", str(last_day),
             "--cache-dir", str(cache_dir), "--compact-after", "5"]
        )
        assert code == 0
        assert "compacted" not in capsys.readouterr().out
        lineage = json.loads((cache_dir / "lineage.json").read_text())
        assert len(lineage) == 1


class TestServeCommands:
    def test_parser_serve_defaults(self):
        args = build_parser().parse_args(
            ["serve", "c.rpz", "--environment", "e.rpe"]
        )
        assert args.listen == "127.0.0.1:0"
        assert args.workers == 1
        assert args.max_seconds is None

    def test_parser_serve_requires_environment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "c.rpz"])

    def test_parser_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen", "http://127.0.0.1:1"])
        assert args.requests == 2000
        assert args.concurrency == 16
        assert args.mix is None
        assert args.seed == 2016
        assert not args.json

    def test_parse_mix(self):
        from repro.cli import _parse_mix

        assert _parse_mix("cert=8,track=2") == {"cert": 8, "track": 2}
        with pytest.raises(SystemExit, match="NAME=WEIGHT"):
            _parse_mix("cert")

    def test_serve_boots_warms_and_exits(self, saved_corpus, capsys):
        corpus, environment = saved_corpus
        code = main(
            ["serve", str(corpus), "--environment", str(environment),
             "--max-seconds", "0.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving queries at http://127.0.0.1:" in out

    def test_loadgen_unreachable_server_fails(self):
        with pytest.raises(Exception):
            main(["loadgen", "http://127.0.0.1:1", "--requests", "10"])


class TestFleetCommands:
    def test_parser_split_defaults(self):
        args = build_parser().parse_args(
            ["split", "c.rpz", "--environment", "e.rpe", "--out", "fleet"]
        )
        assert args.shards == 4

    def test_parser_fleet_defaults(self):
        args = build_parser().parse_args(
            ["fleet", "c.rpz", "--environment", "e.rpe",
             "--fleet-dir", "fleet"]
        )
        assert args.shards == 4
        assert args.listen == "127.0.0.1:0"
        assert args.max_seconds is None

    def test_split_writes_a_verifiable_fleet(self, saved_corpus, tmp_path,
                                             capsys):
        from repro.io import load_fleet_manifest, verify_fleet

        corpus, environment = saved_corpus
        out = tmp_path / "fleet"
        code = main(
            ["split", str(corpus), "--environment", str(environment),
             "--out", str(out), "--shards", "2"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "shard 0:" in printed and "shard 1:" in printed
        assert "fleet.json" in printed
        manifest = load_fleet_manifest(out)
        assert manifest.shards == 2
        verify_fleet(manifest)

    def test_split_rejects_bad_shard_counts(self, saved_corpus, tmp_path):
        corpus, environment = saved_corpus
        with pytest.raises(Exception):
            main(
                ["split", str(corpus), "--environment", str(environment),
                 "--out", str(tmp_path / "f"), "--shards", "0"]
            )
