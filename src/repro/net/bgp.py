"""BGP prefix-to-AS substrate.

The paper maps scanned IP addresses to BGP prefixes and ASes using historic
RouteViews snapshots (CAIDA prefix2as).  This module provides the same
machinery for the simulated Internet:

* :class:`PrefixTable` — an immutable longest-prefix-match table, the
  equivalent of one RouteViews snapshot;
* :class:`RoutingHistory` — a day-indexed sequence of snapshots, so the
  analysis can ask "which AS originated this address on the day of scan N"
  exactly the way the paper replays historic RouteViews data;
* prefix-transfer support, used to simulate ISPs moving address blocks
  between their ASes (the Verizon → MCI events of §7.3).

Longest-prefix match is implemented with a per-length hash map, which is
both simple and O(#distinct lengths) per lookup — plenty fast for the
simulator and trivially correct.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .ip import Prefix

__all__ = ["Route", "PrefixTable", "RoutingHistory"]


@dataclass(frozen=True)
class Route:
    """One announced prefix and its originating AS."""

    prefix: Prefix
    asn: int


class PrefixTable:
    """A longest-prefix-match table over a set of announced routes.

    Equivalent to one RouteViews ``prefix2as`` snapshot.  Lookup returns the
    most-specific covering route, as BGP forwarding would.
    """

    def __init__(self, routes: Iterable[Route] = ()) -> None:
        # One dict per prefix length, keyed by masked network address.
        self._by_length: dict[int, dict[int, Route]] = {}
        self._routes: list[Route] = []
        for route in routes:
            self.add(route)

    def add(self, route: Route) -> None:
        """Announce a route.  Re-announcing the same prefix replaces it."""
        bucket = self._by_length.setdefault(route.prefix.length, {})
        previous = bucket.get(route.prefix.network)
        if previous is not None:
            self._routes.remove(previous)
        bucket[route.prefix.network] = route
        self._routes.append(route)

    def withdraw(self, prefix: Prefix) -> bool:
        """Withdraw a route; returns False if it was not announced."""
        bucket = self._by_length.get(prefix.length)
        if not bucket:
            return False
        route = bucket.pop(prefix.network, None)
        if route is None:
            return False
        self._routes.remove(route)
        return True

    def lookup(self, ip: int) -> Optional[Route]:
        """Longest-prefix match for an address; None if unrouted."""
        for length in sorted(self._by_length, reverse=True):
            masked = ip & _length_mask(length)
            route = self._by_length[length].get(masked)
            if route is not None:
                return route
        return None

    def origin_as(self, ip: int) -> Optional[int]:
        """The AS originating the covering prefix, or None."""
        route = self.lookup(ip)
        return route.asn if route else None

    def routes(self) -> list[Route]:
        """All announced routes (copy)."""
        return list(self._routes)

    def prefixes_of(self, asn: int) -> list[Prefix]:
        """All prefixes originated by one AS."""
        return [route.prefix for route in self._routes if route.asn == asn]

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[Route]:
        return iter(self._routes)

    def copy(self) -> "PrefixTable":
        """Deep-enough copy: routes are frozen, tables are rebuilt."""
        return PrefixTable(self._routes)

    def transfer(self, prefix: Prefix, new_asn: int) -> "PrefixTable":
        """Return a new table with ``prefix`` re-originated by ``new_asn``.

        Models an ISP moving an address block between ASes it owns
        (§7.3's Verizon → MCI transfers).  The prefix must currently be
        announced.
        """
        bucket = self._by_length.get(prefix.length, {})
        if prefix.network not in bucket:
            raise KeyError(f"prefix {prefix} not announced")
        updated = self.copy()
        updated.add(Route(prefix, new_asn))
        return updated


def _length_mask(length: int) -> int:
    if length == 0:
        return 0
    return (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF


class RoutingHistory:
    """Day-indexed sequence of :class:`PrefixTable` snapshots.

    The paper replays historic RouteViews data so each scan is mapped with
    the routing state of its own day.  ``table_at(day)`` returns the most
    recent snapshot at or before ``day`` (and the earliest snapshot for
    days before the first one, so early scans still resolve).
    """

    def __init__(self, snapshots: Sequence[tuple[int, PrefixTable]]) -> None:
        if not snapshots:
            raise ValueError("RoutingHistory needs at least one snapshot")
        ordered = sorted(snapshots, key=lambda pair: pair[0])
        self._days: list[int] = [day for day, _ in ordered]
        self._tables: list[PrefixTable] = [table for _, table in ordered]
        if len(set(self._days)) != len(self._days):
            raise ValueError("duplicate snapshot days")

    @classmethod
    def constant(cls, table: PrefixTable) -> "RoutingHistory":
        """A history that never changes (single snapshot at day 0)."""
        return cls([(0, table)])

    def epoch_of(self, day: int) -> int:
        """Index of the snapshot in force on ``day``.

        Two days with the same epoch are guaranteed to resolve through the
        same table, so day-aware lookup caches (the consistency kernel's
        ``(ip, day) → ASN`` memo) can key on the epoch instead of the day
        and collapse every scan within one routing regime to one entry.
        """
        # Linear scan is fine: histories hold a handful of snapshots.
        chosen = 0
        for index, snapshot_day in enumerate(self._days):
            if snapshot_day <= day:
                chosen = index
            else:
                break
        return chosen

    def table_at(self, day: int) -> PrefixTable:
        """Snapshot in force on ``day``."""
        return self._tables[self.epoch_of(day)]

    def origin_as(self, ip: int, day: int) -> Optional[int]:
        """AS originating ``ip`` on ``day``."""
        return self.table_at(day).origin_as(ip)

    def snapshot_days(self) -> list[int]:
        """Days on which the routing state changed."""
        return list(self._days)

    def digest(self) -> str:
        """SHA-256 over every snapshot's day and routes (sorted by
        prefix): equal for equal routing states, however the history
        was built, saved or loaded."""
        snapshots = [
            [day, sorted(
                [route.prefix.network, route.prefix.length, route.asn]
                for route in table
            )]
            for day, table in zip(self._days, self._tables)
        ]
        encoded = json.dumps(snapshots, separators=(",", ":")).encode()
        return hashlib.sha256(b"repro-routing/1\n" + encoded).hexdigest()

    def add_snapshot(self, day: int, table: PrefixTable) -> None:
        """Insert a new snapshot, keeping days sorted and unique."""
        if day in self._days:
            raise ValueError(f"snapshot for day {day} already present")
        self._days.append(day)
        self._tables.append(table)
        order = sorted(range(len(self._days)), key=self._days.__getitem__)
        self._days = [self._days[i] for i in order]
        self._tables = [self._tables[i] for i in order]
