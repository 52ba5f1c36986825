"""Message-count metrics (Section 5.2.4, Figure 12).

The paper reports "the numbers of messages used to forward a query
between mobile devices". We count transmissions of protocol frames
(query / result / token / routed data hops); AODV control traffic is
reported separately so the routing overhead BF induces is visible too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net.world import TrafficStats

__all__ = ["MessageCounts", "messages_per_query"]


@dataclass(frozen=True)
class MessageCounts:
    """Per-query message averages for one simulation run."""

    protocol_total: int
    control_total: int
    queries: int

    @property
    def protocol_per_query(self) -> Optional[float]:
        """Protocol frames per issued query (Figure 12's series)."""
        if self.queries == 0:
            return None
        return self.protocol_total / self.queries

    @property
    def control_per_query(self) -> Optional[float]:
        """AODV control frames per issued query."""
        if self.queries == 0:
            return None
        return self.control_total / self.queries



def messages_per_query(traffic: TrafficStats, queries: int) -> MessageCounts:
    """Condense a run's traffic statistics into per-query counts."""
    if queries < 0:
        raise ValueError("queries must be >= 0")
    return MessageCounts(
        protocol_total=traffic.protocol_messages(),
        control_total=traffic.control_messages(),
        queries=queries,
    )
