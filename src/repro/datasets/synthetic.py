"""Ready-made synthetic datasets at several scales.

* :func:`tiny` — seconds to build; unit/integration tests.
* :func:`small` — tens of seconds; examples and quick experiments.
* :func:`paper` — the full 222-scan replica schedule; benchmark harness.
* :func:`xlarge_config` — a ~10× ``paper`` world for
  :func:`generate_streamed`, which writes the corpus shard-by-shard into
  an ``.rpz`` archive in O(largest shard) memory instead of holding the
  whole corpus in RAM.

Each in-memory builder returns a :class:`SyntheticDataset` bundling the
world, the campaigns, and the collected
:class:`~repro.scanner.dataset.ScanDataset`, so callers can reach both
the observations (what the paper had) and the ground truth (what the
paper wished it had).
"""

from __future__ import annotations

import pathlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Union

from ..internet.population import World, WorldConfig, build_world
from ..obs import runtime as obs
from ..scanner.campaign import ScanCampaign, make_campaigns
from ..scanner.dataset import ScanDataset
from ..scanner.engine import ScanEngine, _init_scan_worker, _scan_one_day

__all__ = [
    "SyntheticDataset",
    "StreamedGeneration",
    "generate",
    "generate_streamed",
    "tiny",
    "small",
    "paper",
    "xlarge_config",
]


@dataclass
class SyntheticDataset:
    """A built world plus everything scanned out of it."""

    world: World
    campaigns: tuple[ScanCampaign, ScanCampaign]
    scans: ScanDataset


@dataclass
class StreamedGeneration:
    """Receipt of a shard-streamed corpus write (no corpus in RAM)."""

    world: World
    campaigns: tuple[ScanCampaign, ScanCampaign]
    path: pathlib.Path
    #: Corpus digest, computed incrementally while writing; equals
    #: ``MappedBackend(path).corpus_digest()``.
    digest: str
    n_scans: int
    n_observations: int
    n_certificates: int


def _world_campaigns(
    config: WorldConfig, scan_stride: int
) -> "tuple[World, tuple[ScanCampaign, ScanCampaign]]":
    world = build_world(config)
    announced = world.routing.table_at(0).routes()
    # Only the generic tails may be blacklisted; the paper's named ISPs
    # (Deutsche Telekom, Comcast, GoDaddy, ...) stay visible to both
    # operators so the Table 3 populations survive.
    generic_asns = {bp.asn for bp in world.blueprints if bp.asn >= 39000}
    campaigns = make_campaigns(
        [route.prefix for route in announced],
        stride=scan_stride,
        blacklistable=[r.prefix for r in announced if r.asn in generic_asns],
    )
    return world, campaigns


def generate(
    config: WorldConfig,
    scan_stride: int = 1,
    collect_handshakes: bool = False,
    workers: int = 1,
) -> SyntheticDataset:
    """Build a world and scan it with both campaigns.

    ``workers > 1`` fans scan days out over a process pool; the corpus is
    identical to a serial run (per-day RNG is keyed by seed/campaign/day).
    """
    world, campaigns = _world_campaigns(config, scan_stride)
    scans = ScanDataset.collect(
        world, campaigns, collect_handshakes=collect_handshakes, workers=workers
    )
    return SyntheticDataset(world=world, campaigns=campaigns, scans=scans)


def generate_streamed(
    config: WorldConfig,
    path: Union[str, pathlib.Path],
    scan_stride: int = 1,
    collect_handshakes: bool = False,
    workers: int = 1,
) -> StreamedGeneration:
    """Build a world and stream its corpus straight into an ``.rpz``.

    Day shards flush into the archive writer as they are produced — in
    (day, source) order across both campaigns — so nothing ever holds
    more than one shard of observations: corpora 10–100× the ``paper``
    preset fit in the same RAM.  Because per-day RNG streams are
    independent and the archive's certificate order is canonical
    (observed-first-appearance, then sorted extras), the written bytes —
    and the incrementally computed digest — are identical to
    ``save_dataset`` over an in-memory build of the same config, and
    identical across ``workers`` settings.
    """
    from ..io.store import StreamingDatasetWriter

    world, campaigns = _world_campaigns(config, scan_stride)
    engine = ScanEngine(world, collect_handshakes=collect_handshakes)
    schedule = sorted(
        ((day, campaign) for campaign in campaigns for day in campaign.scan_days),
        key=lambda task: (task[0], task[1].name),
    )
    writer = StreamingDatasetWriter(path)
    try:
        with obs.span("generate/streamed", scans=len(schedule)):
            if workers <= 1 or len(schedule) <= 1:
                for day, campaign in schedule:
                    writer.add_shard(engine.run_shard(campaign, day))
            else:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(schedule)),
                    initializer=_init_scan_worker,
                    initargs=(world, engine._duration, collect_handshakes,
                              obs.enabled()),
                ) as pool:
                    for shard, day_certs, delta in pool.map(
                        _scan_one_day,
                        ((campaign, day) for day, campaign in schedule),
                    ):
                        obs.absorb(delta)
                        for fingerprint, cert in day_certs.items():
                            engine.certificate_store.setdefault(fingerprint, cert)
                        writer.add_shard(shard)
    except BaseException:
        writer.abort()
        raise
    digest = writer.close(engine.certificate_store)
    return StreamedGeneration(
        world=world,
        campaigns=campaigns,
        path=pathlib.Path(path),
        digest=digest,
        n_scans=writer.n_scans,
        n_observations=writer.n_observations,
        n_certificates=len(engine.certificate_store),
    )


def tiny(seed: int = 2016) -> SyntheticDataset:
    """Small world, sparse schedule — for tests."""
    config = WorldConfig(
        seed=seed,
        n_devices=220,
        n_websites=75,
        n_generic_access=30,
        n_enterprise=8,
        n_hosting=6,
        unused_roots=5,
    )
    return generate(config, scan_stride=8)


def small(seed: int = 2016) -> SyntheticDataset:
    """Medium world, half-density schedule — for examples."""
    config = WorldConfig(
        seed=seed,
        n_devices=900,
        n_websites=310,
        n_generic_access=60,
        n_enterprise=15,
        n_hosting=10,
    )
    return generate(config, scan_stride=3)


def paper(seed: int = 2016) -> SyntheticDataset:
    """Full-fidelity replica schedule — for the benchmark harness."""
    config = WorldConfig(seed=seed, n_devices=2500, n_websites=850)
    return generate(config, scan_stride=1)


def xlarge_config(seed: int = 2016) -> WorldConfig:
    """A ~10× ``paper`` world, meant for :func:`generate_streamed`.

    At this scale the corpus (~11M observations) should never be held as
    rows in RAM; stream it into an archive and analyze it from there.
    """
    return WorldConfig(
        seed=seed,
        n_devices=25_000,
        n_websites=8_500,
        n_generic_access=120,
        n_enterprise=40,
        n_hosting=25,
    )
