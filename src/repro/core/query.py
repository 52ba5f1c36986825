"""Distributed skyline query model and per-device query log.

A query is ``Q_ds = (id, cnt, pos_org, d)`` (Sections 2 and 3.4): ``id``
identifies the originating device, ``cnt`` is a small per-originator
counter used for duplicate suppression during forwarding, ``pos_org`` is
the originator's position and ``d`` the distance of interest.

Every flood also carries the originator's AODV sequence number
(``origin_seq``), so the reverse routes it installs supersede older ones
(RFC 3561 §6.1). That field is routing metadata, not query identity: it
is excluded from equality, hashing and the duplicate-suppression log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["SkylineQuery", "QueryLog", "QueryCounter", "COUNTER_MODULUS"]

#: The paper stores ``cnt`` in one byte (Section 3.4).
COUNTER_MODULUS = 256


@dataclass(frozen=True)
class SkylineQuery:
    """A distributed constrained skyline query ``Q_ds``.

    Attributes:
        origin: Identifier of the originating device ``M_org``.
        cnt: Originator-local query counter (one byte, wraps at 256).
        pos: ``(x, y)`` position of the originator at issue time.
        d: Distance of interest — sites farther than ``d`` from ``pos``
            are out of scope.
        origin_seq: The originator's AODV sequence number when it sent
            this flood (0 when it never rides a flood).
    """

    origin: int
    cnt: int
    pos: Tuple[float, float]
    d: float
    origin_seq: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.origin < 0:
            raise ValueError("origin must be >= 0")
        if not 0 <= self.cnt < COUNTER_MODULUS:
            raise ValueError(f"cnt must be in [0, {COUNTER_MODULUS}), got {self.cnt}")
        if self.d <= 0:
            raise ValueError("distance of interest d must be > 0")

    @property
    def key(self) -> Tuple[int, int]:
        """``(origin, cnt)`` — the identity used for duplicate checks."""
        return (self.origin, self.cnt)



class QueryCounter:
    """Per-originator byte counter generating ``cnt`` values.

    "a device [can] generate 256 queries with increasing cnt value. The
    count can be reset at regular intervals" (Section 3.4).
    """

    def __init__(self, start: int = 0) -> None:
        if not 0 <= start < COUNTER_MODULUS:
            raise ValueError(f"start must be in [0, {COUNTER_MODULUS})")
        self._next = start

    def next_value(self) -> int:
        """Return the next counter value, wrapping at 256."""
        value = self._next
        self._next = (self._next + 1) % COUNTER_MODULUS
        return value

    def reset(self) -> None:
        """Periodic reset (e.g. daily, per the paper)."""
        self._next = 0


class QueryLog:
    """Hash table from originator id to the last seen ``cnt``.

    Space is O(m) worst case, the duplicate check is O(1) (Section 3.4).
    The mechanism assumes each device only cares about its *latest*
    query: a query is fresh iff its ``cnt`` differs from the logged one.
    """

    def __init__(self) -> None:
        self._last: Dict[int, int] = {}

    def seen(self, query: SkylineQuery) -> bool:
        """Has this exact query already been processed here?"""
        return self._last.get(query.origin) == query.cnt

    def record(self, query: SkylineQuery) -> None:
        """Log the query as this originator's latest."""
        self._last[query.origin] = query.cnt

    def check_and_record(self, query: SkylineQuery) -> bool:
        """Atomically: return True (and log) if the query is fresh,
        False if it is a duplicate to be ignored."""
        if self.seen(query):
            return False
        self.record(query)
        return True

    def __len__(self) -> int:
        return len(self._last)

    def __contains__(self, origin: int) -> bool:
        return origin in self._last
