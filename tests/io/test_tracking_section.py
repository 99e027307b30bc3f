"""The tracking section of the artifact cache (``track.*``).

A study over a cache stores its tracking state — link plan, devices, key
groups, §7.4 outcomes — and a later study over the same corpus, verdicts
and routing history loads it instead of recomputing it.  Anything else
(another routing history, a damaged section, no history at all) computes
exactly as a study without a cache does.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.io import (
    AnalysisEnvironment,
    ArtifactCache,
    load_dataset,
    load_environment,
    save_dataset,
    save_environment,
)
from repro.io.encoding import SegmentReader, SegmentWriter
from repro.net.bgp import PrefixTable, Route, RoutingHistory
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.study import Study


@pytest.fixture(scope="module")
def saved(tmp_path_factory, tiny_synthetic):
    """(corpus, environment) of the tiny world, saved."""
    directory = tmp_path_factory.mktemp("tracking-section")
    corpus = directory / "corpus.rpz"
    environment = directory / "env.rpe"
    save_dataset(tiny_synthetic.scans, corpus)
    save_environment(
        AnalysisEnvironment.of_world(tiny_synthetic.world), environment
    )
    return corpus, environment


@pytest.fixture(scope="module")
def computed(saved, tiny_synthetic):
    """The tracking state of a study without a cache."""
    return _study(saved, tiny_synthetic.world.routing.origin_as).tracking()


def _study(saved, as_of, cache=None):
    environment = load_environment(saved[1])
    return Study(
        dataset=load_dataset(saved[0]),
        trust_store=environment.trust_store,
        as_of=as_of,
        registry=environment.registry,
        cache=None if cache is None else ArtifactCache(cache),
    )


def _counted(action):
    """``action()``'s result and the artifact counters it bumped."""
    registry = MetricsRegistry()
    with obs_runtime.activated(Tracer(), registry):
        result = action()
    return result, {
        key: value for key, value in registry.counters.items()
        if key.startswith("artifacts.")
    }


def _routing(saved):
    return load_environment(saved[1]).routing


def _section_file(cache):
    (path,) = pathlib.Path(cache).glob("*.tracking.rpa")
    return path


def _rewrite_segment(path, name, transform):
    """Rewrite a section file with segment ``name``'s bytes transformed."""
    reader = SegmentReader(path)
    tmp = path.with_name(path.name + ".tmp")
    writer = SegmentWriter(tmp, meta=dict(reader.meta))
    for segment in reader.names():
        entry = reader.entry(segment)
        payload = bytes(reader.raw(segment))
        if segment == name:
            payload = transform(payload)
        writer.add_chunks(
            segment, (payload,), kind=entry["kind"],
            typecode=entry.get("typecode"), stride=entry.get("stride"),
        )
    writer.close()
    reader.close()
    tmp.replace(path)


def _flip(payload):
    return payload[:-1] + bytes([payload[-1] ^ 1])


def _truncate(payload):
    return payload[:-4]


class TestLoad:
    def test_loaded_state_equals_computed(self, saved, computed, tmp_path):
        routing = _routing(saved)
        cold = _study(saved, routing.origin_as, tmp_path)
        stored, counters = _counted(cold.tracking)
        assert counters == {"artifacts.miss": 3}
        assert stored == computed
        assert _section_file(tmp_path).exists()

        warm = _study(saved, routing.origin_as, tmp_path)
        loaded, counters = _counted(warm.tracking)
        # Kernels and verdicts load in the same call as the state.
        assert counters == {"artifacts.hit": 3}
        assert loaded == computed
        assert loaded.track_index == computed.track_index
        assert loaded.as_stats == computed.as_stats
        assert warm.tracked_devices() is loaded.devices
        # Nothing of §4.2–§7 ran: the state came whole from the cache.
        for stage in ("validation", "kernels", "dedup",
                      "feature_evaluations", "pipeline", "tracking"):
            assert stage not in warm.stage_timings

    def test_pipeline_links_in_the_stored_plan(self, saved, tmp_path):
        routing = _routing(saved)
        cold = _study(saved, routing.origin_as, tmp_path)
        cold.tracking()
        warm = _study(saved, routing.origin_as, tmp_path)
        pipeline = warm.pipeline()
        assert "feature_evaluations" not in warm.stage_timings
        expected = cold.pipeline()
        assert pipeline.field_order == expected.field_order
        assert pipeline.excluded == expected.excluded
        assert pipeline.groups == expected.groups

    def test_section_bytes_do_not_depend_on_the_hash_seed(
        self, saved, tmp_path
    ):
        package_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        script = (
            "import sys;"
            "from repro.io import ArtifactCache, load_dataset,"
            " load_environment;"
            "from repro.study import Study;"
            "env = load_environment(sys.argv[2]);"
            "Study(dataset=load_dataset(sys.argv[1]),"
            " trust_store=env.trust_store, as_of=env.routing.origin_as,"
            " cache=ArtifactCache(sys.argv[3])).tracking()"
        )
        files = []
        for hash_seed in ("0", "1"):
            cache = tmp_path / f"seed-{hash_seed}"
            result = subprocess.run(
                [sys.executable, "-c", script, str(saved[0]),
                 str(saved[1]), str(cache)],
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
            files.append(_section_file(cache))
        readers = [SegmentReader(path) for path in files]
        names = [name for name in readers[0].names()
                 if name.startswith("track.")]
        assert names and names == [
            name for name in readers[1].names() if name.startswith("track.")
        ]
        for name in names:
            assert bytes(readers[0].raw(name)) == bytes(readers[1].raw(name))
        for reader in readers:
            reader.close()
        assert files[0].read_bytes() == files[1].read_bytes()


class TestRecompute:
    @pytest.mark.parametrize("damage", [_flip, _truncate])
    @pytest.mark.parametrize(
        "segment", ["track.sighting_ips", "track.rosters", "track.plan"]
    )
    def test_damaged_section_is_invalidated_and_rebuilt(
        self, saved, computed, tmp_path, segment, damage
    ):
        routing = _routing(saved)
        _study(saved, routing.origin_as, tmp_path).tracking()
        _rewrite_segment(_section_file(tmp_path), segment, damage)

        study = _study(saved, routing.origin_as, tmp_path)
        state, counters = _counted(study.tracking)
        assert counters["artifacts.invalidated"] == 1
        assert state == computed
        # The rebuilt section is stored intact: the next study hits it,
        # with the kernels and verdicts, in one load.
        again = _study(saved, routing.origin_as, tmp_path)
        state, counters = _counted(again.tracking)
        assert counters == {"artifacts.hit": 3}
        assert state == computed

    def test_a_changed_route_misses(self, saved, tmp_path):
        routing = _routing(saved)
        _study(saved, routing.origin_as, tmp_path).tracking()

        days = routing.snapshot_days()
        tables = [routing.table_at(day) for day in days]
        route = tables[0].routes()[0]
        tables[0] = PrefixTable(
            [Route(route.prefix, route.asn + 1)] + tables[0].routes()[1:]
        )
        changed = RoutingHistory(list(zip(days, tables)))
        assert changed.digest() != routing.digest()
        study = _study(saved, changed.origin_as, tmp_path)
        state, counters = _counted(study.tracking)
        # Kernels and verdicts still hit; the tracking state misses.
        assert counters == {"artifacts.hit": 2, "artifacts.miss": 1}
        assert state == _study(saved, changed.origin_as).tracking()

    def test_no_routing_history_neither_loads_nor_stores(
        self, saved, computed, tmp_path
    ):
        routing = _routing(saved)

        def as_of(ip, day):
            return routing.origin_as(ip, day)

        study = _study(saved, as_of, tmp_path)
        state, counters = _counted(study.tracking)
        assert counters == {"artifacts.miss": 2}
        assert state == computed
        digest = study.dataset.corpus_digest()
        assert sorted(path.name for path in tmp_path.glob("*.rpa")) == [
            f"{digest}.kernels.rpa", f"{digest}.validation.rpa",
        ]
