"""Analysis-environment serialization.

A scan corpus alone is not analyzable: the paper's pipeline also needs the
root store (OS X 10.9.2 in the paper), the historic routing tables
(RouteViews), and the AS metadata (CAIDA classification/organizations).
:func:`save_environment` bundles these three inputs into one ``.rpe``
archive so a saved corpus + environment pair is fully self-contained —
:func:`load_environment` returns everything :class:`repro.study.Study`
needs.
"""

from __future__ import annotations

import json
import pathlib
import struct
import zipfile
import zlib
from dataclasses import dataclass
from typing import Union

from ..net.asn import ASInfo, ASRegistry, ASType, OrgRecord
from ..net.bgp import PrefixTable, Route, RoutingHistory
from ..net.ip import Prefix
from ..x509.certificate import Certificate
from ..x509.truststore import TrustStore
from .encoding import SegmentError

__all__ = ["AnalysisEnvironment", "save_environment", "load_environment"]

_LENGTH = struct.Struct(">I")


@dataclass
class AnalysisEnvironment:
    """Everything the analysis pipeline needs besides the scans."""

    trust_store: TrustStore
    routing: RoutingHistory
    registry: ASRegistry

    @classmethod
    def of_world(cls, world) -> "AnalysisEnvironment":
        """Extract the environment from a simulated world."""
        return cls(
            trust_store=world.trust_store,
            routing=world.routing,
            registry=world.registry,
        )


def save_environment(
    environment: AnalysisEnvironment, path: Union[str, pathlib.Path]
) -> None:
    """Write the environment to one ``.rpe`` archive (overwrites)."""
    roots = bytearray()
    for root in sorted(environment.trust_store, key=lambda c: c.fingerprint):
        der = root.to_der()
        roots += _LENGTH.pack(len(der))
        roots += der

    snapshots = []
    for day in environment.routing.snapshot_days():
        table = environment.routing.table_at(day)
        snapshots.append(
            {
                "day": day,
                "routes": [
                    [route.prefix.network, route.prefix.length, route.asn]
                    for route in table.routes()
                ],
            }
        )

    ases = []
    for info in environment.registry:
        ases.append(
            {
                "asn": info.asn,
                "name": info.name,
                "type": info.as_type.name,
                "orgs": [
                    [record.valid_from, record.org_name, record.country]
                    for record in info.org_history
                ],
            }
        )

    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("roots.der", bytes(roots))
        archive.writestr("routing.json", json.dumps({"snapshots": snapshots}))
        archive.writestr("asinfo.json", json.dumps({"ases": ases}))


def load_environment(path: Union[str, pathlib.Path]) -> AnalysisEnvironment:
    """Load an environment written by :func:`save_environment`.

    A missing path, an unreadable archive, a missing or corrupt member,
    bad JSON, or a roots blob whose lengths overrun raise
    :class:`~repro.io.encoding.SegmentError` as ``<path>: <reason>``,
    which the CLI prints as one line.
    """
    try:
        archive = zipfile.ZipFile(path)
    except FileNotFoundError:
        raise SegmentError(f"{path}: no such file") from None
    except (OSError, zipfile.BadZipFile) as error:
        raise SegmentError(
            f"{path}: not an environment archive ({error})"
        ) from None
    members = {}
    with archive:
        for name in ("roots.der", "routing.json", "asinfo.json"):
            try:
                members[name] = archive.read(name)
            except KeyError:
                raise SegmentError(
                    f"{path}: environment archive has no {name}"
                ) from None
            except (OSError, EOFError, zipfile.BadZipFile, zlib.error) as error:
                raise SegmentError(f"{path}: {name} unreadable ({error})") \
                    from None
    try:
        return _parse_environment(members)
    except (KeyError, TypeError, ValueError, struct.error) as error:
        raise SegmentError(f"{path}: malformed environment ({error!r})") \
            from None


def _parse_environment(members: dict[str, bytes]) -> AnalysisEnvironment:
    roots_blob = members["roots.der"]
    routing_doc = json.loads(members["routing.json"])
    as_doc = json.loads(members["asinfo.json"])

    store = TrustStore()
    offset = 0
    while offset < len(roots_blob):
        (length,) = _LENGTH.unpack_from(roots_blob, offset)
        offset += _LENGTH.size
        if offset + length > len(roots_blob):
            raise ValueError("roots.der record overruns the blob")
        store.add(Certificate.from_der(roots_blob[offset:offset + length]))
        offset += length

    snapshots = []
    for snapshot in routing_doc["snapshots"]:
        table = PrefixTable(
            Route(Prefix(network, length), asn)
            for network, length, asn in snapshot["routes"]
        )
        snapshots.append((snapshot["day"], table))
    routing = RoutingHistory(snapshots)

    registry = ASRegistry()
    for entry in as_doc["ases"]:
        registry.add(
            ASInfo(
                asn=entry["asn"],
                name=entry["name"],
                as_type=ASType[entry["type"]],
                org_history=[
                    OrgRecord(day, org, country)
                    for day, org, country in entry["orgs"]
                ],
            )
        )
    return AnalysisEnvironment(
        trust_store=store, routing=routing, registry=registry
    )
