"""The continuous-subscription device: BF machinery + delta maintenance.

:class:`ContinuousDevice` extends the flood strategy device with a
subscription plane:

* **Originator side** — install/renew/cancel floods, per-epoch books
  (:class:`~repro.continuous.subscription.SubscriptionRecord`), DELTA
  acknowledgement, refresh-epoch deadline timers that re-arm through
  the cancel-before-schedule path.
* **Subscriber side** — enrollment with a full local in-range skyline
  report, then one wake timer on the shared epoch clock (``install_time
  + e * interval``; no per-epoch flood in delta mode), armed for the
  planned end and moved to the next epoch boundary by the only events
  that can change the slice: a data update or a given-up DELTA (the
  ``_reply_given_up`` hook). A wake reaps the subscription if its
  originator crashed, else ships a full report, an incremental DELTA,
  or nothing. DELTAs travel home on the ACK/retry path BF RESULTs use
  (``SkylineDevice._send_acked``), in the same pending table.

Fail-stop crash semantics carry over: a crashed subscriber loses its
subscription state (it never reports again until a renew or reflood
flood re-enrolls it); a crashed originator's subscription aborts and
its subscribers reap themselves at their next wake or at the planned
end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Optional, Tuple

from ..core.query import SkylineQuery
from ..net.engine import EventHandle
from ..net.messages import FrameKind
from ..protocol.device import ONE_HOP, ROUTED, BFDevice, DataUpdate
from ..storage.relation import Relation
from .messages import (
    DeltaAckMessage,
    DeltaMessage,
    SubscribeMessage,
    SubscriptionSpec,
    UnsubscribeMessage,
)
from .safe_region import SafeRegion, relation_rows
from .subscription import SubscriptionRecord

__all__ = ["ContinuousDevice"]


@dataclass
class _SubscriberState:
    """Contributor-side state for one enrolled subscription."""

    spec: SubscriptionSpec
    epochs_total: int
    region: SafeRegion
    #: Last epoch boundary processed (at enrollment, then each wake's).
    woke_epoch: int
    wake_epoch: int = 0
    wake_timer: Optional[EventHandle] = None


class ContinuousDevice(BFDevice):
    """Flood-strategy device with continuous-subscription support."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Originator-side records, keyed by subscription key.
        self.subscriptions: Dict[Tuple[int, int], SubscriptionRecord] = {}
        #: Contributor-side enrollment state, keyed by subscription key.
        self._subscriber: Dict[Tuple[int, int], _SubscriberState] = {}

    # -- fault hooks ---------------------------------------------------------

    def apply_update(self, update: DataUpdate) -> None:
        """Apply a data update and wake every subscription whose slice
        it can change at the next epoch boundary."""
        super().apply_update(update)
        for key, state in self._subscriber.items():
            if state.region.note_update():
                self._wake_early(key, state)

    def on_crash(self) -> None:
        for state in self._subscriber.values():
            if state.wake_timer is not None:
                state.wake_timer.cancel()
        self._subscriber.clear()
        for record in self.subscriptions.values():
            if not record.closed:
                record.status = "aborted"
                record.cancel_timers()
                if self.world.obs.enabled:
                    self.world.obs.subscription_cancelled(
                        record.key, self.node_id, "originator-crash"
                    )
        super().on_crash()

    # -- originator API ------------------------------------------------------

    def install_subscription(
        self,
        d: float,
        interval: float,
        epochs: int,
        epoch_budget: float,
        mode: str = "delta",
    ) -> SubscriptionRecord:
        """Register a continuous range-skyline subscription and flood
        its install message. Epoch 0 (the install epoch) closes after
        ``epoch_budget``; refresh epoch ``e`` ticks at ``install_time +
        e * interval``."""
        query = self._fresh_query(
            SkylineQuery(origin=self.node_id, cnt=0, pos=self.position, d=d)
        )
        if query.key in self.subscriptions:  # pragma: no cover - cnt wraps
            raise RuntimeError(f"subscription key {query.key} already live")
        spec = SubscriptionSpec(
            query=query,
            install_time=self.sim.now,
            interval=interval,
            epochs=epochs,
            epoch_budget=epoch_budget,
            mode=mode,
        )
        record = SubscriptionRecord(
            spec=spec, originator=self.node_id, epochs_total=epochs,
        )
        self.subscriptions[query.key] = record
        record.refresh_own_report(self.data_epoch, self.compute_local)
        record.reachable_at_tick = frozenset(
            self.world.reachable_from(self.node_id)
        )
        record.messages_at_open = self.world.stats.protocol_messages()
        if self.world.obs.enabled:
            self.world.obs.subscription_installed(
                query.key, self.node_id, d=d, interval=interval,
                epochs=epochs, mode=mode,
            )
        self._flood(FrameKind.SUBSCRIBE, SubscribeMessage(
            spec=spec, flood=query, kind="install", epoch=0,
            epochs_total=epochs, trace=self._trace(spec.key),
        ))
        self._arm_epoch_close(record, 0, spec.install_time)
        self._schedule_epoch_tick(record)
        return record

    def renew_subscription(
        self, key: Tuple[int, int], extra_epochs: int
    ) -> None:
        """Extend a live subscription by ``extra_epochs`` refresh epochs
        and flood the renewal (which also re-enrolls devices that lost
        their subscriber state to a crash)."""
        record = self.subscriptions.get(key)
        if record is None or record.closed:
            raise RuntimeError(f"no live subscription {key} to renew")
        if extra_epochs <= 0:
            raise ValueError("extra_epochs must be > 0")
        record.epochs_total += extra_epochs
        flood = self._fresh_query(record.spec.query)
        if self.world.obs.enabled:
            self.world.obs.event(
                "subscription.renew", query=key, node=self.node_id,
                epochs_total=record.epochs_total,
            )
        self._flood(FrameKind.SUBSCRIBE, SubscribeMessage(
            spec=record.spec, flood=flood, kind="renew",
            epoch=record.current_epoch, epochs_total=record.epochs_total,
            trace=self._trace(record.key),
        ))
        self._schedule_epoch_tick(record)

    def cancel_subscription(self, key: Tuple[int, int]) -> None:
        """Tear a subscription down: stop its timers and flood the
        unsubscribe so contributors drop their state."""
        record = self.subscriptions.get(key)
        if record is None or record.closed:
            raise RuntimeError(f"no live subscription {key} to cancel")
        record.status = "cancelled"
        record.cancel_timers()
        if self.world.obs.enabled:
            self.world.obs.subscription_cancelled(
                key, self.node_id, "cancelled"
            )
        self._flood(FrameKind.UNSUBSCRIBE, UnsubscribeMessage(
            sub_key=key, flood=self._fresh_query(record.spec.query),
            trace=self._trace(key),
        ))

    # -- originator epoch machinery ------------------------------------------

    def _arm_epoch_close(
        self, record: SubscriptionRecord, epoch: int, tick_time: float
    ) -> None:
        """(Re-)arm the per-epoch deadline, cancelling any prior timer —
        the same cancel-before-schedule contract as
        ``SkylineDevice._arm_close_timer``: a refresh epoch re-arms the
        subscription's deadline key, and the stale timer must not fire
        into the new epoch or linger in the engine heap."""
        if record.close_timer is not None:
            record.close_timer.cancel()
        delay = tick_time + record.spec.epoch_budget - self.sim.now
        record.close_timer = self._schedule_guarded(
            max(0.0, delay), self._close_epoch, record.key, epoch, tick_time
        )

    def _schedule_epoch_tick(self, record: SubscriptionRecord) -> None:
        """Arm the originator's next refresh tick (cancel-then-arm)."""
        if record.tick_timer is not None:
            record.tick_timer.cancel()
            record.tick_timer = None
        next_epoch = record.current_epoch + 1
        if next_epoch > record.epochs_total:
            return
        delay = record.spec.tick_time(next_epoch) - self.sim.now
        record.tick_timer = self._schedule_guarded(
            max(0.0, delay), self._epoch_tick, record.key, next_epoch
        )

    def _epoch_tick(self, key: Tuple[int, int], epoch: int) -> None:
        record = self.subscriptions.get(key)
        if record is None or record.closed:
            return
        record.current_epoch = epoch
        record.tick_timer = None
        record.reachable_at_tick = frozenset(
            self.world.reachable_from(self.node_id)
        )
        record.refresh_own_report(self.data_epoch, self.compute_local)
        if record.spec.mode == "reflood":
            self._flood(FrameKind.SUBSCRIBE, SubscribeMessage(
                spec=record.spec, flood=self._fresh_query(record.spec.query),
                kind="reflood", epoch=epoch,
                epochs_total=record.epochs_total,
                trace=self._trace(record.key),
            ))
        self._arm_epoch_close(record, epoch, record.spec.tick_time(epoch))
        self._schedule_epoch_tick(record)

    def _close_epoch(
        self, key: Tuple[int, int], epoch: int, tick_time: float
    ) -> None:
        record = self.subscriptions.get(key)
        if record is None or record.closed:
            return
        record.close_timer = None
        books = record.close_epoch(
            epoch=epoch,
            tick_time=tick_time,
            closed_at=self.sim.now,
            population=frozenset(self.world.node_ids),
            down_now=frozenset(self.world.down_nodes),
            crash_counts=self.world.crash_counts(),
            messages_now=self.world.stats.protocol_messages(),
        )
        if self.world.obs.enabled:
            self.world.obs.event(
                "subscription.refresh", query=key, node=self.node_id,
                epoch=epoch, reporters=len(books.reporters),
                covered=len(books.report.contributed),
                messages=books.messages,
            )
        if epoch >= record.epochs_total:
            record.status = "expired"
            record.cancel_timers()
            if self.world.obs.enabled:
                self.world.obs.subscription_cancelled(
                    key, self.node_id, "expired"
                )
            return
        if record.spec.mode == "delta":
            covered = set(books.report.contributed)
            missing = (
                set(self.world.node_ids) - {self.node_id} - covered
            )
            if missing:
                # Healing flood: devices the epoch could not account for
                # (partitioned at install, crashed and recovered, newly
                # in radio range) get another chance to enroll. Already-
                # enrolled devices dedup it in one hop via the query
                # log, so the cost is one flood — and only on epochs
                # with a coverage hole; reflood mode pays it always.
                flood = self._fresh_query(record.spec.query)
                if self.world.obs.enabled:
                    self.world.obs.event(
                        "subscription.heal-flood", query=key,
                        node=self.node_id, epoch=epoch,
                        missing=len(missing),
                    )
                self._flood(FrameKind.SUBSCRIBE, SubscribeMessage(
                    spec=record.spec, flood=flood, kind="renew",
                    epoch=epoch, epochs_total=record.epochs_total,
                    trace=self._trace(record.key),
                ))

    # -- subscriber side -----------------------------------------------------

    def _handle_subscribe_flood(
        self, message: SubscribeMessage, sender: int
    ) -> None:
        origin = message.spec.query.origin
        if origin == self.node_id:
            return
        if self._orphaned(origin):
            self._reap_orphan(message.sub_key, "subscribe-flood")
            return
        self.router.learn_route(
            origin, sender, message.hops, message.flood.origin_seq
        )
        if not self.query_log.check_and_record(message.flood):
            # Same flood via another path, or a fault-injected duplicate
            # delivery: either way it was fully handled the first time,
            # and the first copy's route hold already floors the
            # lifetime of every route ``learn_route`` installs.
            return
        # DELTAs and relayed DELTAs ride this route until the last
        # epoch closes, so it must not time out between refresh ticks.
        spec = message.spec
        self.router.hold_route(
            origin, spec.tick_time(message.epochs_total) + spec.epoch_budget
        )
        self._flood(FrameKind.SUBSCRIBE, replace(
            message, hops=message.hops + 1,
            trace=self._trace(message.sub_key),
        ))
        state = self._subscriber.get(message.sub_key)
        if state is None:
            self._enroll(message)
            return
        if message.kind == "renew":
            # A pending early wake stays where it is: the wake re-arms
            # for the new end itself.
            state.epochs_total = message.epochs_total
            if not state.region.needs_recompute:
                self._arm_wake(message.sub_key, state, state.epochs_total)
            return
        if message.kind == "reflood":
            # Naive mode: every epoch flood solicits a full report.
            local = self.compute_local(message.spec.query, None)
            state.region.note_report(relation_rows(local.skyline))
            self._ship_delta(message.spec, message.epoch, local.skyline)

    def _enroll(self, message: SubscribeMessage) -> None:
        """First contact with this subscription: full report + safe
        region + (delta mode) a wake timer for the planned end."""
        spec = message.spec
        local = self.compute_local(spec.query, None)
        region = SafeRegion.establish(
            relation=self.relation,
            pos=spec.query.pos,
            d=spec.query.d,
            reported=local.skyline,
        )
        state = _SubscriberState(
            spec=spec, epochs_total=message.epochs_total, region=region,
            woke_epoch=int(
                (self.sim.now - spec.install_time) // spec.interval
            ),
        )
        self._subscriber[spec.key] = state
        self._ship_delta(spec, message.epoch, local.skyline)
        if spec.mode == "delta":
            self._arm_wake(spec.key, state, state.epochs_total)

    def _arm_wake(
        self, key: Tuple[int, int], state: _SubscriberState, epoch: int
    ) -> None:
        """(Re-)arm the subscriber's one wake timer for ``epoch``'s
        boundary (cancel-then-arm; a no-op when already armed there)."""
        if state.wake_timer is not None:
            if state.wake_epoch == epoch:
                return
            state.wake_timer.cancel()
        state.wake_epoch = epoch
        delay = state.spec.tick_time(epoch) - self.sim.now
        state.wake_timer = self._schedule_guarded(
            max(0.0, delay), self._wake, key
        )

    def _wake_early(
        self, key: Tuple[int, int], state: _SubscriberState
    ) -> None:
        """The slice may have changed: move the wake to the first epoch
        boundary at or after now that this subscriber has not processed.
        An update landing exactly on a boundary is reported at that
        epoch (the update injector's events fire before wakes due at
        the same instant)."""
        if state.wake_timer is None:  # reflood mode: floods solicit reports
            return
        epoch = state.woke_epoch + 1
        while state.spec.tick_time(epoch) < self.sim.now:
            epoch += 1
        if epoch < state.wake_epoch:
            self._arm_wake(key, state, epoch)

    def _wake(self, key: Tuple[int, int]) -> None:
        state = self._subscriber[key]
        state.wake_timer = None
        epoch = state.woke_epoch = state.wake_epoch
        spec = state.spec
        if self._orphaned(spec.query.origin):
            # A dead originator orphans the whole subscription, not
            # just one message.
            del self._subscriber[key]
            self._reap_orphan(key, "subscription")
            return
        if state.region.needs_recompute:
            skyline = self.compute_local(spec.query, None).skyline
            rows = relation_rows(skyline)
            last = state.region.last_report_rows
            if last is None:
                self._ship_delta(spec, epoch, skyline)
            elif state.region.unchanged(rows):
                if self.world.obs.enabled:
                    self.world.obs.event(
                        "safe-region.silent", query=key, node=self.node_id,
                        epoch=epoch, reason="no-change",
                    )
            else:
                self._ship_incremental(spec, epoch, skyline, rows, last)
            state.region.note_report(rows)
        if epoch >= state.epochs_total:
            del self._subscriber[key]
        else:
            self._arm_wake(key, state, state.epochs_total)

    def _ship_incremental(
        self,
        spec: SubscriptionSpec,
        epoch: int,
        skyline: Relation,
        rows: FrozenSet[Tuple],
        last: FrozenSet[Tuple],
    ) -> None:
        """Diff the fresh local skyline against the last report and ship
        only the membership changes."""
        enter_rows = rows - last
        site_ids = skyline.site_ids.tolist()
        leaves = tuple(sorted({row[0] for row in last} - set(site_ids)))
        enters = [
            i for i, row in enumerate(zip(site_ids, *skyline.values.T.tolist()))
            if row in enter_rows
        ]
        self._ship_delta(
            spec, epoch, skyline.take(enters), leaves, full=False,
        )

    def _ship_delta(
        self, spec: SubscriptionSpec, epoch: int, enters: Relation,
        leaves: Tuple[int, ...] = (), full: bool = True,
    ) -> None:
        """Ship a report: the whole slice (install, renew, reflood,
        resync) or an incremental diff."""
        delta = DeltaMessage(
            sub_key=spec.key,
            sender=self.node_id,
            epoch=epoch,
            enters=enters,
            leaves=leaves,
            full=full,
            trace=self._trace(spec.key),
        )
        if self.world.obs.enabled:
            self.world.obs.event(
                "delta.sent", query=spec.key, node=self.node_id,
                epoch=epoch, enters=enters.cardinality, leaves=len(leaves),
            )
        self._send_acked(
            (spec.key, epoch), FrameKind.DELTA, delta, spec.query.origin
        )

    def _reply_given_up(self, kind: FrameKind, tag: Tuple) -> None:
        if kind != FrameKind.DELTA:
            return
        # The originator may hold a stale slice of ours, and an
        # incremental DELTA against it would keep it stale: resync with
        # a full report at the next epoch boundary.
        state = self._subscriber.get(tag[0])
        if state is not None:
            state.region.forget()
            self._wake_early(tag[0], state)

    def _handle_unsubscribe_flood(
        self, message: UnsubscribeMessage, sender: int
    ) -> None:
        if message.flood.origin == self.node_id:
            return
        if not self.query_log.check_and_record(message.flood):
            return
        self._flood(FrameKind.UNSUBSCRIBE, replace(
            message, hops=message.hops + 1,
            trace=self._trace(message.sub_key),
        ))
        state = self._subscriber.pop(message.sub_key, None)
        if state is not None:
            if state.wake_timer is not None:
                state.wake_timer.cancel()
            # A RESULT's tag is a flat ``(origin, cnt)``, so only this
            # subscription's ``(sub_key, epoch)`` DELTA tags match.
            for tag in [t for t in self._pending if t[0] == message.sub_key]:
                self._acked(tag)

    # -- originator DELTA intake ---------------------------------------------

    def _accept_delta(self, delta: DeltaMessage, sender: int) -> None:
        """ACK every copy (even duplicates — an unacknowledged sender
        keeps retransmitting), merge each ``(sender, epoch)`` once."""
        self._send_ack(delta.sender, DeltaAckMessage(
            sub_key=delta.sub_key, epoch=delta.epoch,
            trace=self._trace(delta.sub_key),
        ))
        record = self.subscriptions.get(delta.sub_key)
        if record is None or record.closed:
            return
        fresh = record.accept_delta(
            delta, self.world.crash_count(delta.sender)
        )
        if fresh and self.world.obs.enabled:
            self.world.obs.event(
                "delta.merged", query=delta.sub_key, node=self.node_id,
                sender=delta.sender, epoch=delta.epoch,
            )

    def _retire_delta(self, ack: DeltaAckMessage, sender: int) -> None:
        self._acked((ack.sub_key, ack.epoch))

    # ACK is the one kind with two payload types: a BF RESULT's and a
    # DELTA's.
    HANDLERS = {
        **BFDevice.HANDLERS,
        (ONE_HOP, FrameKind.SUBSCRIBE, SubscribeMessage): _handle_subscribe_flood,
        (ONE_HOP, FrameKind.UNSUBSCRIBE, UnsubscribeMessage): _handle_unsubscribe_flood,
        (ROUTED, FrameKind.DELTA, DeltaMessage): _accept_delta,
        (ROUTED, FrameKind.ACK, DeltaAckMessage): _retire_delta,
    }
