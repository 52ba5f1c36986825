"""Protocol-level message payloads for distributed skyline queries.

Wire-size accounting follows Section 3: a query specification is tiny
(id, cnt, position, distance — plus one filtering tuple when the
filtering strategy is on), while results carry whole tuples, which is
the cost the strategies fight to reduce.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, FrozenSet, Optional, Tuple

from ..core.filtering import FilteringTuple
from ..core.query import SkylineQuery
from ..net.messages import QUERY_BYTES, SEQ_BYTES, tuple_bytes
from ..storage.relation import Relation

__all__ = ["QueryMessage", "ResultAckMessage", "ResultMessage", "TokenMessage"]

# Every payload below carries an optional ``trace`` — the causal context
# (``repro.obs.causal.TraceContext``) linking this message to the
# delivery that provoked it. It follows the ``serial`` idiom:
# ``compare=False`` (equality, dedup, and hashing are untouched),
# excluded from ``size_bytes`` (it stands for the trace ids real
# transport headers already carry), and ``None`` whenever observation
# is off, so instrumented runs stay bit-identical to plain ones.


@dataclass(frozen=True)
class QueryMessage:
    """Breadth-first query dissemination payload.

    Attributes:
        query: The query specification ``(id, cnt, pos_org, d)``.
        flt: The filtering tuple travelling with the query (None for the
            straightforward strategy).
        hops: Hop distance from the originator (for route learning).
        exclude: Devices that must not recompute (they already
            contributed) — non-empty only on DF→BF failover floods,
            where the flood targets the unvisited residue. Excluded
            devices still learn routes and re-broadcast.
    """

    query: SkylineQuery
    flt: Optional[FilteringTuple] = None
    hops: int = 1
    exclude: FrozenSet[int] = frozenset()
    trace: Optional[Any] = field(default=None, compare=False, repr=False)

    def size_bytes(self, dimensions: int) -> int:
        """Query spec and originator sequence number, plus one tuple
        when a filter rides along, plus an exclude-set bitmap on
        failover floods."""
        size = QUERY_BYTES + SEQ_BYTES
        if self.flt is not None:
            size += tuple_bytes(dimensions)
        if self.exclude:
            size += (len(self.exclude) + 7) // 8
        return size


@dataclass(frozen=True)
class ResultMessage:
    """A device's reduced local skyline, headed back to the originator.

    An empty skyline still produces a (short) message — the paper
    requires a "correct, short message" even when the filter proved the
    whole relation irrelevant.
    """

    query_key: Tuple[int, int]
    sender: int
    skyline: Relation
    unreduced_size: int
    skipped: Optional[str] = None
    processing_time: float = 0.0
    trace: Optional[Any] = field(default=None, compare=False, repr=False)

    def size_bytes(self, dimensions: int) -> int:
        """Tuples on the wire plus a small status header."""
        return 8 + self.skyline.cardinality * tuple_bytes(dimensions)


@dataclass(frozen=True)
class ResultAckMessage:
    """Application-level acknowledgement of one BF result reply.

    The originator sends one per :class:`ResultMessage` copy it
    receives; the responder retransmits an unacknowledged reply with
    capped exponential backoff. This closes the paper's silent-loss gap:
    a lost RESULT used to vanish without anyone noticing.
    """

    query_key: Tuple[int, int]
    trace: Optional[Any] = field(default=None, compare=False, repr=False)

    def size_bytes(self) -> int:
        """Just the query key and a kind tag."""
        return 8


_token_serials = itertools.count()


@dataclass(frozen=True)
class TokenMessage:
    """Depth-first token: query + accumulated result + traversal state.

    The token is the only message DF uses; it grows as results merge
    into it en route (Section 5.2.1's depth-first strategy).
    """

    query: SkylineQuery
    flt: Optional[FilteringTuple]
    result: Relation
    visited: FrozenSet[int]
    path: Tuple[int, ...]
    contributions: Tuple[Tuple[int, int, int], ...] = ()
    """Per-device ``(device, unreduced, reduced)`` records for metrics."""
    serial: int = field(default_factory=lambda: next(_token_serials),
                        compare=False, init=False)
    """Wire-copy identity. Every *intentional* (re)send constructs a
    fresh :class:`TokenMessage` and thus a fresh serial — also through
    :func:`dataclasses.replace`, which never copies an ``init=False``
    field (a copied serial would make the receiver drop a backtracked
    token as a duplicate). A fault-injected duplicate delivery
    re-delivers the same payload object with the same serial, which is
    how receivers tell the two apart (a duplicated token must not spawn
    a second walk). Not part of the modelled wire size — it stands for
    the MAC-layer sequence number real radios already carry."""
    trace: Optional[Any] = field(default=None, compare=False, repr=False)

    def size_bytes(self, dimensions: int) -> int:
        """Query spec + originator sequence number + filter + carried
        tuples + visited-set bitmap."""
        size = (
            QUERY_BYTES + SEQ_BYTES
            + self.result.cardinality * tuple_bytes(dimensions)
        )
        if self.flt is not None:
            size += tuple_bytes(dimensions)
        size += (len(self.visited) + 7) // 8 + 2 * len(self.path)
        return size
