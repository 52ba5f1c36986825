"""Wire payloads for continuous skyline subscriptions.

Three frame kinds (all members of ``FrameKind.PROTOCOL``):

* ``SUBSCRIBE`` — flooded control traffic: install, renew, and (in the
  naive re-flood mode) per-epoch refresh floods. Every flood carries a
  *fresh* ``(origin, cnt)`` query under the paper's duplicate-
  suppression log, so flood dedup needs no new machinery; the
  subscription itself is identified by the install flood's key.
* ``DELTA`` — routed data traffic: a contributor's full local in-range
  skyline on enrollment (``full=True``), afterwards only membership
  changes (``enters``/``leaves``). Travels home under the same
  ACK/retry recovery as BF results.
* ``UNSUBSCRIBE`` — flooded teardown.

Wire-size accounting follows the one-shot messages: query specs are
small and fixed, tuples dominate, id lists cost 4 bytes per site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from ..core.query import SkylineQuery
from ..net.messages import QUERY_BYTES, SEQ_BYTES, tuple_bytes
from ..storage.relation import Relation

# Wire payloads carry an optional causal ``trace``
# (``repro.obs.causal.TraceContext``) under the ``serial`` idiom:
# ``compare=False``, excluded from ``size_bytes``, and ``None`` in
# unobserved runs — pure observability metadata.

__all__ = [
    "SubscriptionSpec",
    "SubscribeMessage",
    "DeltaMessage",
    "DeltaAckMessage",
    "UnsubscribeMessage",
]

#: Delta-mode variants a run can compare.
MODES = ("delta", "reflood")


@dataclass(frozen=True)
class SubscriptionSpec:
    """The immutable contract of one subscription, fixed at install.

    Attributes:
        query: The range-skyline query. ``query.key`` is the
            subscription's identity; ``query.pos``/``query.d`` pin the
            spatial disk at install time (the region does not follow
            the originator around).
        install_time: Simulation time of the install flood — the epoch
            clock's origin: refresh epoch ``e`` ticks at
            ``install_time + e * interval``.
        interval: Seconds between refresh epochs.
        epochs: Refresh epochs after install (renewals raise the
            effective total; the spec records the install-time value).
        epoch_budget: Seconds after each tick before the originator
            closes the epoch's books (must not exceed ``interval``).
        mode: ``delta`` (incremental maintenance, the tentpole) or
            ``reflood`` (naive: re-flood the query every epoch).
    """

    query: SkylineQuery
    install_time: float
    interval: float
    epochs: int
    epoch_budget: float
    mode: str = "delta"

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0 < self.epoch_budget <= self.interval:
            raise ValueError("epoch_budget must be in (0, interval]")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")

    @property
    def key(self) -> Tuple[int, int]:
        """Subscription identity: the install flood's ``(origin, cnt)``."""
        return self.query.key

    def tick_time(self, epoch: int) -> float:
        """Absolute time refresh epoch ``epoch`` (>= 1) ticks."""
        return self.install_time + epoch * self.interval


@dataclass(frozen=True)
class SubscribeMessage:
    """Flooded subscription control: install, renew, or refresh flood.

    Attributes:
        spec: The subscription contract (renew floods carry the updated
            epoch total in ``epochs_total``).
        flood: Dedup identity of *this* flood — a fresh ``(origin,
            cnt)`` per flood so the standard query log suppresses
            re-broadcast storms. Equals ``spec.query`` on install.
        kind: ``install``, ``renew``, or ``reflood``.
        epoch: The refresh epoch a ``reflood`` flood solicits (0 for
            install; the current epoch for renew).
        epochs_total: Effective total refresh epochs after this message
            (install: ``spec.epochs``; renew: the extended total).
        hops: Hop distance from the originator (route learning).
    """

    spec: SubscriptionSpec
    flood: SkylineQuery
    kind: str
    epoch: int
    epochs_total: int
    hops: int = 1
    trace: Optional[Any] = field(default=None, compare=False, repr=False)

    def size_bytes(self, dimensions: int) -> int:
        """Two query specs (subscription + flood identity), the flood's
        originator sequence number, and the schedule parameters."""
        return 2 * QUERY_BYTES + SEQ_BYTES + 16

    @property
    def sub_key(self) -> Tuple[int, int]:
        return self.spec.key

    @property
    def query_key(self) -> Tuple[int, int]:
        """Observer attribution: trace under the subscription's key."""
        return self.spec.key


@dataclass(frozen=True)
class DeltaMessage:
    """One contributor's routed incremental update for one epoch.

    ``full=True`` replaces the device's whole stored report (install,
    re-enrollment, safe-region violation); otherwise ``enters`` are
    tuples that entered the device's local in-range skyline (or changed
    value — same site id, new values) and ``leaves`` are site ids that
    left it.
    """

    sub_key: Tuple[int, int]
    sender: int
    epoch: int
    enters: Relation
    leaves: Tuple[int, ...] = ()
    full: bool = False
    trace: Optional[Any] = field(default=None, compare=False, repr=False)

    def size_bytes(self, dimensions: int) -> int:
        """Tuples on the wire, 4 bytes per leaving site id, small header."""
        return (
            12
            + self.enters.cardinality * tuple_bytes(dimensions)
            + 4 * len(self.leaves)
        )

    @property
    def query_key(self) -> Tuple[int, int]:
        """Observer attribution: trace under the subscription's key."""
        return self.sub_key


@dataclass(frozen=True)
class DeltaAckMessage:
    """Originator's acknowledgement of one DELTA copy."""

    sub_key: Tuple[int, int]
    epoch: int
    trace: Optional[Any] = field(default=None, compare=False, repr=False)

    def size_bytes(self) -> int:
        return 12

    @property
    def query_key(self) -> Tuple[int, int]:
        """Observer attribution: trace under the subscription's key."""
        return self.sub_key


@dataclass(frozen=True)
class UnsubscribeMessage:
    """Flooded teardown of a subscription."""

    sub_key: Tuple[int, int]
    flood: SkylineQuery
    hops: int = 1
    trace: Optional[Any] = field(default=None, compare=False, repr=False)

    def size_bytes(self, dimensions: int) -> int:
        return QUERY_BYTES + 8

    @property
    def query_key(self) -> Tuple[int, int]:
        """Observer attribution: trace under the subscription's key."""
        return self.sub_key
