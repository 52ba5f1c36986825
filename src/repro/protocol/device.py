"""Mobile skyline devices: local processing + the BF/DF query protocols.

A :class:`SkylineDevice` owns one local relation, a query log for
duplicate suppression, and the local skyline machinery of Section 4. The
two concrete subclasses implement the paper's forwarding strategies
(Section 5.2.1):

* :class:`BFDevice` — *breadth-first*: the originator broadcasts the
  query to its neighbours; every fresh receiver processes it locally,
  unicasts its reduced result back to the originator (over AODV, with
  reverse routes learned from the flood itself), and re-broadcasts the
  query — with the dynamically promoted filtering tuple — to its own
  neighbours.
* :class:`DFDevice` — *depth-first*: a single token carrying the query,
  the filtering tuple, and the accumulated result walks the network;
  each device merges its reduced local skyline into the token and passes
  it to one unvisited neighbour, backtracking along the path when stuck.

Every routed reply that waits for an application-level ACK — a BF
RESULT, a DF→BF failover RESULT, and a subscription DELTA
(:mod:`repro.continuous.device`) — takes one path in
:class:`SkylineDevice`: ``_send_acked`` keeps it in one pending table,
keyed by the tag its ACK names, and ``_retry`` retransmits it with
capped exponential backoff until ``_acked`` retires it, its originator
is found dead, or its retries run out (counted as given up, then handed
to the ``_reply_given_up`` hook).

Frames come in through ``on_protocol_frame`` (channel :data:`ONE_HOP`)
and ``on_data`` (:data:`ROUTED`), each one lookup in the class's own
``HANDLERS`` table, keyed by ``(channel, FrameKind, payload type)``. A
frame no row matches is dropped and counted (``frame.unhandled``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..core.assembly import SkylineAssembler, merge_skylines
from ..core.filtering import Estimation, FilteringTuple, select_filter
from ..core.local import (
    LocalResultCache,
    LocalSkylineResult,
    local_skyline_vectorized,
)
from ..core.query import QueryCounter, QueryLog, SkylineQuery
from ..devices.cost_model import PDA_2006, DeviceCostModel
from ..devices.energy import EnergyMeter
from ..net.aodv import DataPacket
from ..net.engine import EventHandle
from ..net.messages import Frame, FrameKind
from ..net.node import Node
from ..net.world import World
from ..resilience import (
    CompletionReport,
    ResiliencePolicy,
    build_completion_report,
)
from ..storage.relation import Relation
from .messages import QueryMessage, ResultAckMessage, ResultMessage, TokenMessage

__all__ = [
    "ProtocolConfig",
    "DeviceContribution",
    "QueryRecord",
    "SkylineDevice",
    "BFDevice",
    "DFDevice",
]

#: A data update: maps one version of a device's relation to the next.
DataUpdate = Callable[[Relation], Relation]

#: Dispatch channels: a frame heard over the radio, and a packet the
#: AODV layer delivered end to end.
ONE_HOP = "one-hop"
ROUTED = "routed"

#: Dominating-region bounding mode of every device: the paper's
#: simulation uses under-estimation (Section 5.2.2-II). The OVE/EXT/UNE
#: comparison runs on the static grid (``run_static_grid(estimation=)``).
_ESTIMATION = Estimation.UNDER

#: Delay before a backtracking token skips past a vanished parent —
#: yields the event loop so long dead paths unwind turn by turn.
_BACKTRACK_RETRY_DELAY = 0.05

#: Extra hops a DF backtrack chain may skip past vanished parents
#: beyond the current path length.
_BACKTRACK_SLACK = 4

#: Ceiling in seconds for the reply-retransmission backoff — without it
#: ``ack_timeout * 2**n`` grows unbounded.
_ACK_BACKOFF_CAP = 60.0

#: Telemetry stem of the routed replies that wait for an ACK, shared by
#: their events and orphan labels.
_REPLY_NAMES = {
    FrameKind.RESULT: "result",
    FrameKind.DELTA: "delta",
}


@dataclass(frozen=True)
class ProtocolConfig:
    """Behavioural switches for the distributed strategies.

    Attributes:
        use_filter: Send a filtering tuple with the query (Section 3.2);
            False gives the straightforward strategy of Section 3.1.
        dynamic_filter: Promote the filter at intermediate devices
            (Section 3.4); False keeps the originator's single filter.
        cost_model: Converts local work into simulated processing time,
            which delays the device's message sends (the paper adds
            estimated local costs to communication delays, Section
            5.2.3).
        query_timeout: Seconds after which an originator closes a query
            regardless of missing results.
        completion_quorum: For BF, the fraction of the other ``m - 1``
            devices whose results mark the query complete — the paper's
            80% rule (Section 5.2.3). Results arriving afterwards are
            still merged until the timeout closes the record.
        ack_timeout: Initial backoff in seconds before an unacknowledged
            RESULT or DELTA is retransmitted; doubles per attempt up to
            a 60 s ceiling.
        result_retries: Retransmissions per reply before giving up (0
            sends each reply once).
        token_watchdog: DF recovery — seconds of token silence at the
            originator before the query is re-issued with an incremented
            ``cnt`` (the ``(id, cnt)`` log makes re-issue safe). 0
            disables the watchdog.
        token_reissues: Re-issues per query before the watchdog gives
            up and leaves closure to ``query_timeout``.
        resilience: The :class:`~repro.resilience.ResiliencePolicy` —
            DF→BF failover, orphan suppression.
            Defaults are inert: a default policy reproduces the
            pre-resilience protocol bit for bit.
    """

    use_filter: bool = True
    dynamic_filter: bool = True
    cost_model: DeviceCostModel = PDA_2006
    query_timeout: float = 600.0
    completion_quorum: float = 0.8
    ack_timeout: float = 3.0
    result_retries: int = 3
    token_watchdog: float = 60.0
    token_reissues: int = 2
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)

    def __post_init__(self) -> None:
        if self.query_timeout <= 0:
            raise ValueError("query_timeout must be > 0")
        if not 0 < self.completion_quorum <= 1:
            raise ValueError("completion_quorum must be in (0, 1]")
        if not 0 < self.ack_timeout <= _ACK_BACKOFF_CAP:
            raise ValueError(f"ack_timeout must be in (0, {_ACK_BACKOFF_CAP}]")
        if self.result_retries < 0:
            raise ValueError("result_retries must be >= 0")
        if self.token_watchdog < 0:
            raise ValueError("token_watchdog must be >= 0")
        if self.token_reissues < 0:
            raise ValueError("token_reissues must be >= 0")
        if not isinstance(self.resilience, ResiliencePolicy):
            raise TypeError("resilience must be a ResiliencePolicy")

    @property
    def effective_deadline(self) -> float:
        """The per-query close budget in simulated seconds
        (``query_timeout``)."""
        return self.query_timeout


@dataclass
class DeviceContribution:
    """What one device contributed to one query (metrics input)."""

    device: int
    unreduced_size: int
    reduced_size: int
    skipped: Optional[str]
    processing_time: float
    arrival_time: Optional[float] = None


@dataclass
class QueryRecord:
    """Originator-side lifecycle record of one distributed query.

    Besides the merged result, the record carries the *coverage* inputs:
    which devices were network-reachable when the query was issued
    (``reachable_at_issue``) versus which actually contributed results
    (``contributions``). Their ratio quantifies how much of the
    attainable answer a query under faults actually gathered.
    """

    query: SkylineQuery
    issue_time: float
    originator: int
    local_unreduced: int
    local_reduced: int
    assembler: SkylineAssembler
    contributions: Dict[int, DeviceContribution] = field(default_factory=dict)
    completion_time: Optional[float] = None
    closed: bool = False
    closed_at: Optional[float] = None
    reachable_at_issue: FrozenSet[int] = frozenset()
    reissues: int = 0
    failovers: int = 0
    aborted_by_crash: bool = False
    report: Optional[CompletionReport] = None
    close_timer: Optional[EventHandle] = field(default=None, repr=False)
    crash_counts_at_issue: Dict[int, int] = field(
        default_factory=dict, repr=False
    )
    """Per-node crash counters snapshotted at issue time; the close path
    diffs them against the world's live counters to spot devices that
    crashed *and recovered* between issue and close (their volatile
    query state died in the fault, so they classify as lost-to-fault
    even though they are up again at close)."""

    @property
    def key(self) -> Tuple[int, int]:
        """``(origin, cnt)``."""
        return self.query.key

    @property
    def result(self) -> Relation:
        """The merged skyline so far."""
        return self.assembler.result()

    @property
    def contributing_devices(self) -> FrozenSet[int]:
        """Devices whose results were merged (the originator excluded)."""
        return frozenset(self.contributions)

    def coverage(self) -> Optional[float]:
        """Fraction of issue-time-reachable devices that contributed.

        1.0 when nothing besides the originator was reachable (the
        attainable answer was gathered in full, vacuously); None when
        the record predates coverage accounting (no reachability
        snapshot was taken).
        """
        if not self.reachable_at_issue:
            return None
        others = self.reachable_at_issue - {self.originator}
        if not others:
            return 1.0
        return len(self.contributing_devices & others) / len(others)

    def arrival_times(self) -> List[float]:
        """Sorted result-arrival times (BF's response-time input)."""
        return sorted(
            c.arrival_time
            for c in self.contributions.values()
            if c.arrival_time is not None
        )


class SkylineDevice(Node):
    """Common device machinery: storage, local skylines, query records.

    Args:
        world: The wireless world.
        device_id: Node id (also the index of the local relation).
        relation: The device's local relation ``R_i``.
        config: Protocol switches.
    """

    def __init__(
        self,
        world: World,
        device_id: int,
        relation: Relation,
        config: ProtocolConfig = ProtocolConfig(),
    ) -> None:
        super().__init__(world, device_id)
        #: The last materialized version of the local relation, and the
        #: updates applied since, oldest first; see :attr:`relation`.
        self._relation = relation
        self._unread: List[DataUpdate] = []
        #: Shared by every version of the relation: frame sizing and
        #: cost pricing read it without materializing pending updates.
        self.schema = relation.schema
        self.config = config
        self.query_counter = QueryCounter()
        self.query_log = QueryLog()
        self.records: Dict[Tuple[int, int], QueryRecord] = {}
        self._active_key: Optional[Tuple[int, int]] = None
        #: Energy meter; registered with the world so radio traffic is
        #: charged automatically, and charged CPU time by compute paths.
        self.meter = EnergyMeter()
        world.energy_meters[device_id] = self.meter
        #: Crash epoch: bumped on every crash so scheduled continuations
        #: from before the crash become no-ops (in-flight state is lost).
        self._epoch = 0
        #: Data-version counter: bumped by every ``apply_update``. The
        #: local cache and a subscription originator's own slice key on
        #: it — an unchanged epoch proves the data has not moved.
        self.data_epoch = 0
        #: Skyline-diagram-style memo of local evaluations. Keys embed
        #: ``data_epoch``; ``apply_update`` and crashes flush it
        #: explicitly.
        self.local_cache = LocalResultCache()
        #: Routed replies not yet acknowledged by their originator,
        #: keyed by the tag the ACK names: the query key for a RESULT
        #: (BF and DF→BF failover floods), ``(sub_key, epoch)`` for a
        #: subscription DELTA.
        self._pending: Dict[Tuple, _PendingReply] = {}

    # -- observability ------------------------------------------------------

    def _trace(self, key: Tuple[int, int]):
        """The causal trace context an outgoing message for ``key``
        should carry — None whenever observation is off, so unobserved
        payloads stay byte-for-byte what they always were."""
        obs = self.world.obs
        if not obs.enabled:
            return None
        return obs.trace_context(key, self.node_id)

    # -- fault hooks --------------------------------------------------------

    def _schedule_guarded(self, delay: float, fn, *args) -> EventHandle:
        """Schedule ``fn(*args)`` unless this device crashes first."""
        epoch = self._epoch

        def run() -> None:
            if self._epoch == epoch:
                fn(*args)

        return self.sim.schedule(delay, run)

    def on_crash(self) -> None:
        """World hook: this device just crashed.

        All in-flight query state dies with it — scheduled protocol
        continuations are epoch-invalidated, the routing table and the
        duplicate-suppression log are wiped, and an active originated
        query is closed (its record survives for metrics, flagged
        ``aborted_by_crash``). Data updates not yet read are storage,
        not protocol state, and stay pending.
        """
        for tag in list(self._pending):
            self._acked(tag)
        self._epoch += 1
        self.router.reset()
        self.query_log = QueryLog()
        self.local_cache.invalidate()
        if self._active_key is not None:
            record = self.records.get(self._active_key)
            if record is not None:
                record.aborted_by_crash = True
                if self.world.obs.enabled:
                    self.world.obs.query_aborted_by_crash(
                        self._active_key, self.node_id
                    )
            self._close_query(self._active_key)

    @property
    def relation(self) -> Relation:
        """The current version of the local relation.

        Reading it folds the updates applied since the last read into
        the stored version, oldest first, so data nothing reads is
        never computed.
        """
        if self._unread:
            relation = self._relation
            for update in self._unread:
                relation = update(relation)
            self._relation = relation
            self._unread.clear()
        return self._relation

    @property
    def sites_mbr(self) -> Optional[Tuple[float, float, float, float]]:
        """The MBR of this device's sites, None when it holds none.

        Updates are value-only and sites never move, so every version
        of the relation has this MBR, and reading it runs no pending
        update.
        """
        relation = self._relation
        return relation.mbr() if relation.cardinality else None

    def apply_update(self, update: DataUpdate) -> None:
        """Apply a data update: ``update`` maps the current version of
        the local relation to the next one.

        The version changes at once — ``data_epoch`` is bumped and the
        local cache flushed — but ``update`` runs only when
        :attr:`relation` is next read, so it must depend on nothing
        that can change in between. Updates land on storage, not
        volatile protocol state, so they apply to crashed devices too
        and survive recovery.
        """
        self._unread.append(update)
        self.data_epoch += 1
        self.local_cache.invalidate()

    def on_recover(self) -> None:
        """World hook: the device rebooted and rejoined clean.

        Nothing to restore — crash semantics are fail-stop with total
        loss of volatile protocol state. (A still-circulating copy of a
        query this device originated before the crash is ignored by the
        origin-check in the frame handlers, not by the wiped log.)
        """

    # -- frame dispatch -------------------------------------------------------

    def on_protocol_frame(self, frame: Frame, sender: int) -> None:
        payload = frame.payload
        handler = self.HANDLERS.get((ONE_HOP, frame.kind, type(payload)))
        if handler is None:
            self._unhandled(ONE_HOP, frame.kind, sender)
        else:
            handler(self, payload, sender)

    def on_data(self, packet: DataPacket) -> None:
        payload = packet.payload
        handler = self.HANDLERS.get((ROUTED, packet.kind, type(payload)))
        if handler is None:
            self._unhandled(ROUTED, packet.kind, packet.source)
        else:
            handler(self, payload, packet.source)

    def _unhandled(self, channel: str, kind: str, sender: int) -> None:
        """Drop a frame no ``HANDLERS`` row matches, counted once."""
        if self.world.obs.enabled:
            mismatch = any(row[:2] == (channel, kind) for row in self.HANDLERS)
            self.world.obs.event(
                "frame.unhandled", node=self.node_id, channel=channel,
                kind=kind, sender=sender,
                reason="type-mismatch" if mismatch else "unknown-kind",
            )

    #: ``(channel, kind, payload type) -> handler(self, payload, sender)``;
    #: each strategy class writes out its own table.
    HANDLERS: Dict[Tuple[str, str, type], Callable] = {}

    # -- local processing ---------------------------------------------------

    def compute_local(
        self, query: SkylineQuery, flt: Optional[FilteringTuple]
    ) -> LocalSkylineResult:
        """Run the Figure 4 local skyline over this device's relation
        with the vectorised kernel; the cost model prices its analytic
        operation estimate as device time (Section 5.2.3).

        A repeated ``(data_epoch, query, filter)`` signature returns the
        memoized result and re-charges the same deterministic delay, so
        every downstream observable matches a re-run bit for bit.
        """
        obs = self.world.obs
        wall0 = time.perf_counter() if obs.enabled else 0.0
        key = LocalResultCache.signature(self.data_epoch, query, flt)
        result = self.local_cache.get(key)
        if result is None:
            result = local_skyline_vectorized(
                self.relation, query, flt, estimation=_ESTIMATION
            )
            self.local_cache.put(key, result)
        delay = self.processing_delay(result)
        self.meter.on_compute(delay)
        if obs.enabled:
            obs.local_eval(
                query.key, self.node_id, result, delay,
                time.perf_counter() - wall0,
            )
        return result

    def processing_delay(self, result: LocalSkylineResult) -> float:
        """Simulated device time the run took."""
        return self.config.cost_model.time_for_result(
            result, dims=self.schema.dimensions
        )

    # -- query lifecycle ------------------------------------------------------

    @property
    def has_active_query(self) -> bool:
        """Is a query issued by this device still in progress? (The paper's
        one-query-at-a-time rule, Section 5.2.1.)

        A query stops being "in progress" once its strategy's completion
        condition fires (BF quorum / DF traversal end), even though late
        results keep being merged until the timeout closes the record.
        """
        if self._active_key is None:
            return False
        record = self.records.get(self._active_key)
        return (
            record is not None
            and not record.closed
            and record.completion_time is None
        )

    def issue_query(self, d: float) -> QueryRecord:
        """Issue a distributed skyline query with distance ``d``."""
        raise NotImplementedError

    def _open_record(self, d: float) -> Tuple[QueryRecord, LocalSkylineResult,
                                              Optional[FilteringTuple]]:
        """Shared issue path: build the query, compute the originator's
        local skyline, select the initial filtering tuple."""
        if self.has_active_query:
            raise RuntimeError(
                f"device {self.node_id} already has a query in progress"
            )
        query = self._fresh_query(
            SkylineQuery(origin=self.node_id, cnt=0, pos=self.position, d=d)
        )
        local = self.compute_local(query, None)
        flt = self._initial_filter(local.skyline)
        record = QueryRecord(
            query=query,
            issue_time=self.sim.now,
            originator=self.node_id,
            local_unreduced=local.unreduced_size,
            local_reduced=local.reduced_size,
            assembler=SkylineAssembler(self.schema, local.skyline),
            reachable_at_issue=frozenset(
                self.world.reachable_from(self.node_id)
            ),
            crash_counts_at_issue=self.world.crash_counts(),
        )
        self.records[query.key] = record
        self._active_key = query.key
        if self.world.obs.enabled:
            self.world.obs.query_issued(
                query.key, self.node_id, d=d,
                reachable=len(record.reachable_at_issue),
            )
        self._arm_close_timer(record, self.config.effective_deadline)
        return record, local, flt

    def _fresh_query(self, query: SkylineQuery) -> SkylineQuery:
        """A fresh identity for one more flood or walk of ``query``: a
        new ``cnt`` for the duplicate log, and a new sequence number so
        the reverse routes it installs supersede older ones. Logged
        here, so this device never processes its own query."""
        fresh = replace(
            query, cnt=self.query_counter.next_value(),
            origin_seq=self.router.advance_seq(),
        )
        self.query_log.record(fresh)
        return fresh

    def _initial_filter(self, skyline: Relation) -> Optional[FilteringTuple]:
        """The filtering tuple a query starts out with, picked from
        ``skyline`` (Section 3.2); None when filtering is off or the
        skyline is empty."""
        if not (self.config.use_filter and skyline.cardinality):
            return None
        local_highs = (
            self.relation.normalized_worst()
            if self.relation.cardinality
            else None
        )
        return select_filter(skyline, _ESTIMATION, local_highs=local_highs)

    def _arm_close_timer(self, record: QueryRecord, delay: float) -> None:
        """(Re-)arm ``record``'s deadline timer, cancelling any prior one.

        Every deadline (re-)arm goes through here — initial issue,
        subscription refresh epochs, any future budget extension. The
        cancel-before-schedule order is the point: a re-armed key that
        kept its stale engine timer would fire a spurious close into the
        new epoch and leak the replacement timer into the engine heap
        (``sim.live_pending``, which the chaos suite requires to drain
        to zero).
        """
        if record.close_timer is not None:
            record.close_timer.cancel()
        record.close_timer = self.sim.schedule(
            delay, self._close_query, record.query.key
        )

    def _close_query(self, key: Tuple[int, int]) -> None:
        record = self.records.get(key)
        if record is None or record.closed:
            return
        record.closed = True
        record.closed_at = self.sim.now
        if record.close_timer is not None:
            # Early closure (strategy completion, crash): the deadline
            # timer would otherwise sit armed until the budget expires.
            record.close_timer.cancel()
            record.close_timer = None
        self._cancel_query_timers(key, record)
        obs = self.world.obs
        if obs.enabled:
            coverage = record.coverage()
            if coverage is not None:
                obs.query_closed(key, coverage=coverage)
            else:
                obs.query_closed(key)
            if record.completion_time is None and not record.aborted_by_crash:
                obs.deadline_close(key, self.node_id)
        snapshot = record.crash_counts_at_issue
        record.report = build_completion_report(
            record,
            population=frozenset(self.world.node_ids),
            down_now=frozenset(self.world.down_nodes),
            closed_at=self.sim.now,
            crashed_during=frozenset(
                n for n in self.world.node_ids
                if self.world.crash_count(n) > snapshot.get(n, 0)
            ),
        )
        if self._active_key == key:
            self._active_key = None

    def _cancel_query_timers(
        self, key: Tuple[int, int], record: QueryRecord
    ) -> None:
        """Strategy hook: cancel per-query timers when ``key`` closes
        (the DF watchdog; the deadline timer is handled by the caller)."""

    def _complete_query(self, key: Tuple[int, int], close: bool = True) -> None:
        """Mark the strategy's completion condition as met.

        With ``close=False`` (BF) the record stays open so stragglers
        keep merging until the timeout; DF closes immediately — the
        token is home and nothing else is coming.
        """
        record = self.records.get(key)
        if record is None or record.closed:
            return
        if record.completion_time is None:
            record.completion_time = self.sim.now
            if self.world.obs.enabled:
                self.world.obs.query_completed(key, self.node_id)
        if close:
            self._close_query(key)
        elif self._active_key == key:
            self._active_key = None

    def _resolve_record_key(self, key: Tuple[int, int]) -> Tuple[int, int]:
        """Map a wire-level query key to the record it feeds (DF
        overrides this with its re-issue alias map)."""
        return key

    # -- flood machinery (BF strategy + DF→BF failover) ----------------------

    def _flood(self, kind: FrameKind, message) -> None:
        """Broadcast one flood frame (QUERY, SUBSCRIBE, UNSUBSCRIBE)."""
        self.world.broadcast(
            Frame(
                kind=kind,
                src=self.node_id,
                dst=None,
                payload=message,
                size_bytes=message.size_bytes(self.schema.dimensions),
            )
        )

    def _handle_flood_query(self, message: QueryMessage, sender: int) -> None:
        """Process one flooded QUERY frame: learn the reverse route,
        compute and reply (unless excluded), re-broadcast."""
        if message.query.origin == self.node_id:
            # Our own flood echoing back (possible after a crash wiped
            # the duplicate log): never answer ourselves.
            return
        if self._orphaned(message.query.origin):
            self._reap_orphan(message.query.key, "flood-query")
            return
        # The flood doubles as an AODV reverse-route advertisement.
        self.router.learn_route(
            message.query.origin, sender, message.hops,
            message.query.origin_seq,
        )
        if not self.query_log.check_and_record(message.query):
            return
        if self.node_id in message.exclude:
            # Failover residue flood and we already contributed via the
            # token walk: nothing to recompute, just keep the flood going.
            self._flood(FrameKind.QUERY, replace(
                message, hops=message.hops + 1,
                trace=self._trace(message.query.key),
            ))
            return
        flt = message.flt if self.config.use_filter else None
        result = self.compute_local(message.query, flt)
        delay = self.processing_delay(result)
        self._schedule_guarded(
            delay, self._respond_and_forward, message, result, delay
        )

    def _respond_and_forward(
        self, message: QueryMessage, result: LocalSkylineResult, proc_time: float
    ) -> None:
        if self._orphaned(message.query.origin):
            # The originator died while we were computing.
            self._reap_orphan(message.query.key, "result")
            return
        reply = ResultMessage(
            query_key=message.query.key,
            sender=self.node_id,
            skyline=result.skyline,
            unreduced_size=result.unreduced_size,
            skipped=result.skipped,
            processing_time=proc_time,
            trace=self._trace(message.query.key),
        )
        self._send_acked(
            message.query.key, FrameKind.RESULT, reply, message.query.origin
        )
        out_flt = message.flt
        if self.config.use_filter and self.config.dynamic_filter:
            out_flt = result.updated_filter
            if (
                out_flt is not None
                and out_flt is not message.flt
                and self.world.obs.enabled
            ):
                self.world.obs.event(
                    "filter.promoted", query=message.query.key,
                    node=self.node_id, vdr=out_flt.vdr,
                )
        self._flood(FrameKind.QUERY, replace(
            message, flt=out_flt, hops=message.hops + 1,
            trace=self._trace(message.query.key),
        ))

    # -- routed replies under ACK / retransmission ---------------------------

    def _send_acked(
        self, tag: Tuple, kind: FrameKind, payload, origin: int
    ) -> None:
        """Route a RESULT or DELTA home and, when retries are allowed,
        keep it pending under ``tag`` until the originator's ACK names
        it."""
        self._send_reply(kind, payload, origin)
        if self.config.result_retries > 0:
            pending = _PendingReply(kind=kind, payload=payload, origin=origin)
            self._pending[tag] = pending
            self._arm_retry(tag, pending)

    def _send_reply(self, kind: FrameKind, payload, origin: int) -> None:
        self.router.send_data(
            dest=origin,
            kind=kind,
            payload=payload,
            size_bytes=payload.size_bytes(self.schema.dimensions),
        )

    def _arm_retry(self, tag: Tuple, pending: "_PendingReply") -> None:
        backoff = min(
            self.config.ack_timeout * (2.0 ** pending.attempts),
            _ACK_BACKOFF_CAP,
        )
        pending.timer = self._schedule_guarded(backoff, self._retry, tag)

    def _retry(self, tag: Tuple) -> None:
        pending = self._pending.get(tag)
        if pending is None:
            return
        key = pending.payload.query_key
        stem = _REPLY_NAMES[pending.kind]
        if self._orphaned(pending.origin):
            # Dead letter box: the originator crashed, so no ACK can
            # ever come — stop burning radio on retransmissions.
            del self._pending[tag]
            self._reap_orphan(key, f"{stem}-retry")
            return
        obs = self.world.obs
        # A DELTA's telemetry names its epoch as well.
        epoch = {"epoch": tag[1]} if pending.kind == FrameKind.DELTA else {}
        if pending.attempts >= self.config.result_retries:
            del self._pending[tag]
            if obs.enabled:
                obs.event(f"{stem}.given-up", query=key, node=self.node_id,
                          **epoch, attempts=pending.attempts)
            self._reply_given_up(pending.kind, tag)
            return
        pending.attempts += 1
        if obs.enabled:
            obs.event(f"{stem}.retransmit", query=key, node=self.node_id,
                      **epoch, attempt=pending.attempts)
        self._send_reply(pending.kind, pending.payload, pending.origin)
        self._arm_retry(tag, pending)

    def _reply_given_up(self, kind: FrameKind, tag: Tuple) -> None:
        """Hook: the reply pending under ``tag`` ran out of retries."""

    def _acked(self, tag: Tuple) -> bool:
        """Retire the reply pending under ``tag``; False if none was."""
        pending = self._pending.pop(tag, None)
        if pending is None:
            return False
        pending.timer.cancel()
        return True

    def _retire_result(self, ack: ResultAckMessage, sender: int) -> None:
        if self._acked(ack.query_key) and self.world.obs.enabled:
            self.world.obs.event(
                "result.acked", query=ack.query_key, node=self.node_id
            )

    def _send_ack(self, dest: int, ack) -> None:
        """ACK one routed reply copy — every copy, even duplicates and
        post-closure stragglers: an unacknowledged sender keeps
        retransmitting."""
        self.router.send_data(
            dest=dest,
            kind=FrameKind.ACK,
            payload=ack,
            size_bytes=ack.size_bytes(),
        )

    def _accept_flood_result(self, reply: ResultMessage) -> Optional[QueryRecord]:
        """Originator side: ACK one routed RESULT copy and merge it into
        its (root) record. Returns the record when a fresh contribution
        was merged, else None."""
        self._send_ack(reply.sender, ResultAckMessage(
            query_key=reply.query_key, trace=self._trace(reply.query_key),
        ))
        record = self.records.get(self._resolve_record_key(reply.query_key))
        if record is None or record.closed:
            return None
        if reply.sender in record.contributions:
            return None
        record.contributions[reply.sender] = DeviceContribution(
            device=reply.sender,
            unreduced_size=reply.unreduced_size,
            reduced_size=reply.skyline.cardinality,
            skipped=reply.skipped,
            processing_time=reply.processing_time,
            arrival_time=self.sim.now,
        )
        record.assembler.add(reply.skyline)
        if self.world.obs.enabled:
            self.world.obs.event(
                "result.merged", query=record.query.key, node=self.node_id,
                sender=reply.sender, tuples=reply.skyline.cardinality,
            )
        return record

    def _orphaned(self, origin: int) -> bool:
        """Whether orphan suppression is on and ``origin`` is down: no
        work done for a dead originator can reach it."""
        return (
            self.config.resilience.orphan_suppression
            and not self.world.node_is_up(origin)
        )

    def _reap_orphan(self, key: Tuple[int, int], what: str) -> None:
        """Record the suppression of in-flight work for a dead originator
        (``what``: token / token-backtrack / flood-query / result /
        result-retry / subscribe-flood / delta-retry / subscription)."""
        if self.world.obs.enabled:
            self.world.obs.event(
                "orphan.reaped", query=key, node=self.node_id, what=what,
            )


@dataclass
class _PendingReply:
    """A routed RESULT or DELTA awaiting its application-level ACK."""

    kind: FrameKind
    payload: object
    origin: int
    attempts: int = 0
    timer: Optional[EventHandle] = None


class BFDevice(SkylineDevice):
    """Breadth-first (flooding) strategy."""

    def issue_query(self, d: float) -> QueryRecord:
        record, local, flt = self._open_record(d)
        delay = self.processing_delay(local)
        message = QueryMessage(query=record.query, flt=flt, hops=1,
                               trace=self._trace(record.query.key))
        self._schedule_guarded(delay, self._flood, FrameKind.QUERY, message)
        return record

    # -- originator side ----------------------------------------------------

    def _merge_flood_result(self, reply: ResultMessage, sender: int) -> None:
        record = self._accept_flood_result(reply)
        if record is None:
            return
        # The paper's completion rule: a quorum (80%) of the other
        # devices have sent results back.
        others = len(self.world.node_ids) - 1
        needed = math.ceil(self.config.completion_quorum * others)
        if len(record.contributions) >= needed:
            self._complete_query(record.key, close=False)

    HANDLERS = {
        **SkylineDevice.HANDLERS,
        (ONE_HOP, FrameKind.QUERY, QueryMessage): SkylineDevice._handle_flood_query,
        (ROUTED, FrameKind.RESULT, ResultMessage): _merge_flood_result,
        (ROUTED, FrameKind.ACK, ResultAckMessage): SkylineDevice._retire_result,
    }


class DFDevice(SkylineDevice):
    """Depth-first (token passing) strategy."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Re-issued query keys -> the root record key they feed.
        self._reissue_alias: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._watchdog: Optional[EventHandle] = None
        self._last_token_activity: float = 0.0
        #: Serials of token copies already processed — drops fault-
        #: injected duplicate deliveries (same payload object, same
        #: serial). Intentional re-sends always carry fresh serials.
        self._seen_token_serials: set = set()

    def _resolve_record_key(self, key: Tuple[int, int]) -> Tuple[int, int]:
        """Map a (possibly re-issued) query key to its root record key."""
        return self._reissue_alias.get(key, key)

    def _cancel_query_timers(
        self, key: Tuple[int, int], record: QueryRecord
    ) -> None:
        # Only the active query ever has an armed watchdog, and closing
        # any of this device's records means that query is over.
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None

    def issue_query(self, d: float) -> QueryRecord:
        record, local, flt = self._open_record(d)
        token = TokenMessage(
            query=record.query,
            flt=flt,
            result=local.skyline,
            visited=frozenset({self.node_id}),
            path=(),
            contributions=(),
            trace=self._trace(record.query.key),
        )
        delay = self.processing_delay(local)
        self._schedule_guarded(delay, self._pass_token, token)
        self._last_token_activity = self.sim.now
        if self.config.token_watchdog > 0:
            self._arm_watchdog(record.query.key, self.config.token_watchdog)
        return record

    # -- token watchdog -----------------------------------------------------

    def _arm_watchdog(self, root_key: Tuple[int, int], delay: float) -> None:
        self._watchdog = self._schedule_guarded(
            delay, self._check_watchdog, root_key
        )

    def _check_watchdog(self, root_key: Tuple[int, int]) -> None:
        """Re-issue the query if the token has gone quiet.

        "Quiet" is measured at the originator: no token has come home
        (or left) for a full watchdog period. Re-issue bumps ``cnt``, so
        the paper's ``(id, cnt)`` duplicate-suppression log treats the
        new walk as a fresh query everywhere — devices the lost token
        already visited simply contribute again, and the skyline merge
        deduplicates — while a zombie copy of the old token stays
        harmless (its results still alias back to the same record).
        """
        record = self.records.get(root_key)
        if (
            record is None
            or record.closed
            or record.completion_time is not None
        ):
            return
        quiet = self.sim.now - self._last_token_activity
        remaining = self.config.token_watchdog - quiet
        if remaining > 1e-9:
            # Not quiet long enough yet. (The epsilon matters: a residue
            # of ~1e-14 re-armed at a delay too small to advance float
            # simulation time, re-firing at the same instant forever.)
            self._arm_watchdog(root_key, remaining)
            return
        if record.reissues >= self.config.token_reissues:
            if self.config.resilience.df_failover:
                # Token recovery is spent: change strategy instead of
                # giving up. The watchdog retires either way — failover
                # replies route straight home under their own ACK
                # recovery, so token silence is no longer a signal —
                # which makes this the query's only failover.
                self._failover(record)
            # Without failover: leave closure to the deadline budget.
            return
        record.reissues += 1
        self._reissue(record)
        self._arm_watchdog(root_key, self.config.token_watchdog)

    def _reissue(self, record: QueryRecord) -> None:
        """Send a fresh token for ``record`` under an incremented cnt,
        seeded with everything merged so far."""
        query = self._fresh_query(record.query)
        self._reissue_alias[query.key] = record.query.key
        obs = self.world.obs
        if obs.enabled:
            obs.alias(query.key, record.query.key)
            obs.event("token.reissue", query=record.query.key,
                      new_cnt=query.key[1])
        merged = record.assembler.result()
        token = TokenMessage(
            query=query,
            flt=self._initial_filter(merged),
            result=merged,
            visited=frozenset({self.node_id}),
            path=(),
            contributions=(),
            trace=self._trace(query.key),
        )
        self._last_token_activity = self.sim.now
        self._pass_token(token)

    # -- DF→BF failover -----------------------------------------------------

    def _failover(self, record: QueryRecord) -> None:
        """Abandon the token walk: re-flood the query breadth-first over
        the unvisited residue.

        The flood travels under a fresh ``cnt`` aliased back to the root
        record (so the ``(id, cnt)`` log treats it as a new query
        everywhere), with devices that already contributed through the
        token excluded from recomputation. Replies come home as routed
        RESULT messages under the flood's ACK/retransmit recovery — a
        strategy change, charged explicitly as failover accounting
        (``resilience.failovers``, QUERY/RESULT/ACK frames in a DF run).
        """
        record.failovers += 1
        query = self._fresh_query(record.query)
        self._reissue_alias[query.key] = record.query.key
        flt = self._initial_filter(record.assembler.result())
        exclude = frozenset(record.contributions) | {self.node_id}
        obs = self.world.obs
        if obs.enabled:
            obs.alias(query.key, record.query.key)
            obs.event(
                "query.failover", query=record.query.key, node=self.node_id,
                new_cnt=query.key[1], excluded=len(exclude),
            )
        self._flood(FrameKind.QUERY, QueryMessage(
            query=query, flt=flt, hops=1, exclude=exclude,
            trace=self._trace(query.key),
        ))

    def _merge_failover_result(self, reply: ResultMessage, sender: int) -> None:
        record = self._accept_flood_result(reply)
        if record is None:
            return
        # DF completion after failover: every device reachable when the
        # query was issued has now contributed — nothing more can come.
        others = frozenset(record.reachable_at_issue) - {self.node_id}
        if others and others <= frozenset(record.contributions):
            self._complete_query(record.key)

    # -- token receipt --------------------------------------------------------

    def _handle_token_hop(self, token: TokenMessage, sender: int) -> None:
        # ``sender`` is a true one-hop neighbour here, so a route toward
        # the originator via it is safe to learn (hop count bounded by
        # the token's forward path).
        if token.query.origin != self.node_id:
            self.router.learn_route(
                token.query.origin, sender, len(token.path) + 1,
                token.query.origin_seq,
            )
        self._receive_token(token, sender)

    def _receive_token(self, token: TokenMessage, sender: int) -> None:
        if token.serial in self._seen_token_serials:
            # A fault-injected duplicate delivery of a copy we already
            # processed. Without this check the duplicate would fall
            # through the (origin, cnt) log into the pass-along branch
            # and spawn a second concurrent walk of the same token —
            # double-charging compute, messages, and metrics.
            if self.world.obs.enabled:
                self.world.obs.event(
                    "token.duplicate-dropped", query=token.query.key,
                    node=self.node_id, sender=sender,
                )
            return
        self._seen_token_serials.add(token.serial)
        if (
            token.query.origin != self.node_id
            and self._orphaned(token.query.origin)
        ):
            # The walk's originator is dead: the token is an orphan —
            # drop it here instead of walking it to a crashed home.
            self._reap_orphan(token.query.key, "token")
            return
        if self.world.obs.enabled:
            self.world.obs.event(
                "token.received", query=token.query.key, node=self.node_id,
                sender=sender, visited=len(token.visited),
            )
        if token.query.origin == self.node_id:
            self._last_token_activity = self.sim.now
            self._token_home(token)
            return
        if self.query_log.check_and_record(token.query):
            flt = token.flt if self.config.use_filter else None
            result = self.compute_local(token.query, flt)
            merged = merge_skylines(token.result, result.skyline)
            out_flt = token.flt
            if self.config.use_filter and self.config.dynamic_filter:
                out_flt = result.updated_filter
            token = replace(
                token,
                flt=out_flt,
                result=merged,
                visited=token.visited | {self.node_id},
                contributions=token.contributions
                + ((self.node_id, result.unreduced_size, result.reduced_size),),
                trace=self._trace(token.query.key),
            )
            delay = self.processing_delay(result)
            self._schedule_guarded(delay, self._pass_token, token)
        else:
            token = replace(
                token, visited=token.visited | {self.node_id},
                trace=self._trace(token.query.key),
            )
            self._pass_token(token)

    # -- token forwarding -------------------------------------------------------

    def _pass_token(self, token: TokenMessage, failed: FrozenSet[int] = frozenset()) -> None:
        """Forward to one unvisited neighbour, else backtrack."""
        if token.query.origin == self.node_id:
            self._last_token_activity = self.sim.now
        # World.neighbors is sorted by id (determinism contract), so the
        # lowest-id unvisited neighbour is simply the first survivor.
        candidates = [
            n
            for n in self.world.neighbors(self.node_id)
            if n not in token.visited and n not in failed
        ]
        if candidates:
            target = candidates[0]
            outgoing = replace(
                token, path=token.path + (self.node_id,),
                trace=self._trace(token.query.key),
            )
            frame = Frame(
                kind=FrameKind.TOKEN,
                src=self.node_id,
                dst=target,
                payload=outgoing,
                size_bytes=outgoing.size_bytes(self.schema.dimensions),
            )

            epoch = self._epoch

            def retry(_frame: Frame, _target=target, _token=token, _failed=failed) -> None:
                if self._epoch == epoch:
                    self._pass_token(_token, _failed | {_target})

            self.world.send(frame, on_failure=retry)
            return
        self._backtrack(token)

    def _backtrack(self, token: TokenMessage, budget: Optional[int] = None) -> None:
        """Unwind one step toward the originator.

        ``budget`` bounds how many vanished parents one unwinding chain
        may skip: each skip re-enters via a *scheduled* retry (never
        recursion in the same event-loop turn) and decrements the
        budget, so a fully partitioned path ends in a dead token — which
        the originator's watchdog or timeout then recovers — instead of
        unbounded re-backtracking.
        """
        if (
            token.query.origin != self.node_id
            and self._orphaned(token.query.origin)
        ):
            # Unwinding toward a crashed originator is pure waste.
            self._reap_orphan(token.query.key, "token-backtrack")
            return
        if budget is None:
            budget = len(token.path) + _BACKTRACK_SLACK
        if not token.path:
            if token.query.origin == self.node_id:
                # The originator ran out of reachable unvisited neighbours:
                # the traversal is over. (Results were already merged in
                # _token_home before the token was sent back out.)
                self._complete_query(self._resolve_record_key(token.query.key))
            # Otherwise: a dead end away from home — the token dies and
            # the originator's watchdog / timeout recovers the query.
            return
        parent = token.path[-1]
        if self.world.obs.enabled:
            self.world.obs.event(
                "token.backtrack", query=token.query.key, node=self.node_id,
                to=parent, depth=len(token.path),
            )
        returned = replace(
            token, path=token.path[:-1], trace=self._trace(token.query.key),
        )

        def undeliverable(
            _packet: DataPacket, _token=returned, _budget=budget - 1
        ) -> None:
            # The parent vanished: skip it and keep unwinding, if the
            # hop budget allows.
            if _budget >= 0:
                self._schedule_guarded(
                    _BACKTRACK_RETRY_DELAY,
                    self._backtrack, _token, _budget,
                )

        self.router.send_data(
            dest=parent,
            kind=FrameKind.TOKEN,
            payload=returned,
            size_bytes=returned.size_bytes(self.schema.dimensions),
            on_undeliverable=undeliverable,
        )

    # -- originator side ---------------------------------------------------------

    def _token_home(self, token: TokenMessage) -> None:
        record = self.records.get(self._resolve_record_key(token.query.key))
        if record is None or record.closed:
            return
        obs = self.world.obs
        if obs.enabled:
            obs.event(
                "token.home", query=record.query.key, node=self.node_id,
                visited=len(token.visited),
                contributions=len(token.contributions),
            )
        for device, unreduced, reduced in token.contributions:
            if device not in record.contributions:
                record.contributions[device] = DeviceContribution(
                    device=device,
                    unreduced_size=unreduced,
                    reduced_size=reduced,
                    skipped=None,
                    processing_time=0.0,
                    arrival_time=self.sim.now,
                )
                if obs.enabled:
                    obs.event(
                        "result.merged", query=record.query.key,
                        node=self.node_id, sender=device, tuples=reduced,
                    )
        record.assembler.add(token.result)
        token = replace(
            token,
            result=record.assembler.result(),
            visited=token.visited | {self.node_id},
            path=(),
            trace=self._trace(token.query.key),
        )
        unvisited = [
            n
            for n in self.world.neighbors(self.node_id)
            if n not in token.visited
        ]
        if unvisited:
            self._pass_token(token)
        else:
            self._complete_query(self._resolve_record_key(token.query.key))

    # QUERY, RESULT and ACK carry failover floods; a backtracking token
    # travels routed, as its parent may have moved.
    HANDLERS = {
        **SkylineDevice.HANDLERS,
        (ONE_HOP, FrameKind.QUERY, QueryMessage): SkylineDevice._handle_flood_query,
        (ROUTED, FrameKind.RESULT, ResultMessage): _merge_failover_result,
        (ROUTED, FrameKind.ACK, ResultAckMessage): SkylineDevice._retire_result,
        (ONE_HOP, FrameKind.TOKEN, TokenMessage): _handle_token_hop,
        (ROUTED, FrameKind.TOKEN, TokenMessage): _receive_token,
    }
