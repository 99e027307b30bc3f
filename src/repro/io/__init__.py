"""Corpus and environment serialization (.rpz / .rpe archives) and backends."""

from .artifacts import ARTIFACT_SCHEMA, ArtifactCache, LoadedArtifacts
from .backends import (
    DatasetBackend,
    InMemoryBackend,
    LazyCertificates,
    MappedBackend,
)
from .encoding import SegmentReader, SegmentWriter, is_segment_container
from .split import (
    FleetManifest,
    FleetOwners,
    ShardInfo,
    load_fleet_manifest,
    read_shard_fleet,
    split_corpus,
    verify_fleet,
)
from .environment import AnalysisEnvironment, load_environment, save_environment
from .store import (
    FORMAT_VERSION,
    AppendResult,
    ShardDrop,
    StreamingDatasetWriter,
    append_shards,
    load_dataset,
    read_manifest,
    read_shard_drop,
    save_dataset,
    write_shard_drop,
)
from .watch import DROP_SUFFIX, WatchIngestor

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactCache",
    "LoadedArtifacts",
    "AnalysisEnvironment",
    "load_environment",
    "save_environment",
    "DatasetBackend",
    "InMemoryBackend",
    "LazyCertificates",
    "MappedBackend",
    "SegmentReader",
    "SegmentWriter",
    "is_segment_container",
    "FleetManifest",
    "FleetOwners",
    "ShardInfo",
    "load_fleet_manifest",
    "read_shard_fleet",
    "split_corpus",
    "verify_fleet",
    "FORMAT_VERSION",
    "AppendResult",
    "append_shards",
    "StreamingDatasetWriter",
    "load_dataset",
    "read_manifest",
    "save_dataset",
    "ShardDrop",
    "write_shard_drop",
    "read_shard_drop",
    "DROP_SUFFIX",
    "WatchIngestor",
]
