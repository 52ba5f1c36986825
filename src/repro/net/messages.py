"""Link-layer frames and size accounting.

Sizes matter: the paper's communication-cost argument is about how many
*tuples* cross the air, and the transfer delay of a frame is its size
divided by the link bandwidth. The constants below follow the paper's
storage discussion (float attribute values, two spatial coordinates) plus
small fixed headers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "Frame",
    "FrameKind",
    "tuple_bytes",
    "HEADER_BYTES",
    "QUERY_BYTES",
    "CONTROL_BYTES",
    "SEQ_BYTES",
]

#: Fixed per-frame header (addresses, kind, ids).
HEADER_BYTES = 24
#: A query specification: id + cnt + position + distance (Section 3.4).
QUERY_BYTES = 16
#: The originator's AODV sequence number riding a DATA frame or a flood.
SEQ_BYTES = 4
#: AODV control frames (RREQ/RREP/RERR) are small and fixed-size.
CONTROL_BYTES = 24


def tuple_bytes(dimensions: int) -> int:
    """Wire size of one site tuple: x, y (4 bytes each) + n float values."""
    if dimensions < 0:
        raise ValueError("dimensions must be >= 0")
    return 2 * 4 + dimensions * 4


class FrameKind:
    """Frame categories, used by the message-count metrics.

    The paper's Figure 12 counts "query messages" — frames used to
    forward a query and return results; AODV control traffic is counted
    separately so the two can be reported apart or together.
    """

    RREQ = "rreq"
    RREP = "rrep"
    RERR = "rerr"
    DATA = "data"
    QUERY = "query"
    RESULT = "result"
    TOKEN = "token"
    ACK = "ack"
    TRANSFER = "transfer"
    #: Continuous-subscription traffic (``repro.continuous``): install/
    #: renew/cancel floods and routed incremental updates. Only runs
    #: that register subscriptions ever emit these, so the one-shot
    #: figures are untouched by their membership in PROTOCOL.
    SUBSCRIBE = "subscribe"
    DELTA = "delta"
    UNSUBSCRIBE = "unsubscribe"

    CONTROL = frozenset({RREQ, RREP, RERR})
    PROTOCOL = frozenset(
        {QUERY, RESULT, TOKEN, ACK, DATA, SUBSCRIBE, DELTA, UNSUBSCRIBE}
    )
    #: Bulk data movement (redistribution) — neither query protocol nor
    #: routing control; reported separately.
    MAINTENANCE = frozenset({TRANSFER})


_frame_ids = itertools.count()


@dataclass
class Frame:
    """One link-layer transmission unit.

    Attributes:
        kind: A :class:`FrameKind` string.
        src: Sending node id (the transmitter of this hop).
        dst: Receiving node id, or ``None`` for a local broadcast.
        payload: Opaque upper-layer content.
        size_bytes: Wire size (drives the transfer delay).
        frame_id: Unique id for tracing.
        trace: Causal trace context (``repro.obs.causal.TraceContext``),
            stamped by the observer in ``frame_sent``. Pure
            observability metadata: ``compare=False``, no wire size,
            ``None`` in unobserved runs.
    """

    kind: str
    src: int
    dst: Optional[int]
    payload: Any = None
    size_bytes: int = HEADER_BYTES
    frame_id: int = field(default_factory=lambda: next(_frame_ids))
    trace: Optional[Any] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
