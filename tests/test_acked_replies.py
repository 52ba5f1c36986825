"""Routed replies under application-level ACKs: BF RESULTs, DF→BF
failover RESULTs and subscription DELTAs share one pending table and
one retry path in ``SkylineDevice``.

A reply that runs out of retries is counted (``result.given-up`` /
``delta.given-up``), never silently dropped, and a given-up DELTA
still forces the sender's full resync report.
"""

from dataclasses import replace
from functools import partial

import pytest

from repro.continuous import (
    ContinuousConfig,
    ContinuousDevice,
    DeltaAckMessage,
    UnsubscribeMessage,
    continuous_protocol_config,
    grid_placement,
    run_continuous_simulation,
    verify_continuous_run,
)
from repro.core.query import SkylineQuery
from repro.data import make_global_dataset
from repro.faults import FaultSchedule, perturb_relation
from repro.net import (
    FrameKind,
    RadioConfig,
    Simulator,
    StaticPlacement,
    World,
)
from repro.net.aodv import DataPacket
from repro.net.messages import Frame
from repro.obs.observer import Observer
from repro.protocol import BFDevice, ProtocolConfig
from repro.protocol.messages import QueryMessage, ResultAckMessage
from repro.resilience import ResiliencePolicy

from .staging import first_time, observe, quick_discovery, update_schedule

#: Orphan suppression off: the originator stays up, and the give-up
#: must come from the retry budget, not from the dead-letter check.
NO_SUPPRESSION = ResiliencePolicy(orphan_suppression=False)


def given_up(observer, name):
    return [
        (e.node, e.attrs.get("epoch"))
        for e in observer.events if e.name == name
    ]


class TestResultGivenUp:
    POSITIONS = [(0.0, 0.0), (200.0, 0.0), (9000.0, 0.0), (9300.0, 0.0)]
    CONFIG = ProtocolConfig(
        query_timeout=60.0, ack_timeout=2.0, result_retries=2,
        resilience=NO_SUPPRESSION,
    )

    @pytest.fixture(scope="class")
    def dataset(self):
        return make_global_dataset(
            1600, 2, 4, "independent", seed=31, value_step=1.0
        )

    def run(self, dataset, blackout_at=None, observed=True):
        sim = Simulator()
        world = World(
            sim, StaticPlacement(self.POSITIONS),
            RadioConfig(radio_range=250.0),
        )
        observer = observe(world) if observed else None
        devices = [
            BFDevice(world, i, dataset.local(i), config=self.CONFIG)
            for i in range(dataset.devices)
        ]
        if blackout_at is not None:
            # Device 1 heard the flood but its RESULT never gets home.
            sim.schedule_at(blackout_at, world.set_link_blackout, 0, 1, True)
        record = devices[0].issue_query(d=1.0e6)
        sim.run(until=120.0)
        signature = (
            sim.now, world.stats.transmissions, world.stats.deliveries,
            world.stats.drops, sorted(record.contributions),
            record.closed_at, record.report.outcome,
        )
        return signature, devices, observer

    def test_one_give_up_counted_per_reply(self, dataset, monkeypatch):
        quick_discovery(monkeypatch)
        _, _, clean = self.run(dataset)
        blackout_at = (
            first_time(clean, 0, "tx.query") + first_time(clean, 1, "tx.data")
        ) / 2.0
        signature, devices, observer = self.run(dataset, blackout_at)
        assert given_up(observer, "result.given-up") == [(1, None)]
        counter = observer.metrics.counter
        assert counter("protocol.results.given_up").value == 1
        assert counter("protocol.results.retransmits").value == 2
        assert counter("resilience.orphans_reaped").value == 0
        contributions = signature[4]
        assert contributions == []  # nothing ever reached the originator
        assert devices[1]._pending == {}
        unobserved, _, _ = self.run(dataset, blackout_at, observed=False)
        assert unobserved == signature


class TestDeltaGivenUp:
    """Device 1's epoch-1 DELTA is given up while its links are blacked
    out; the give-up is counted once and still forces the resync."""

    def run(self, observed):
        faults = FaultSchedule()
        for neighbour in (0, 2, 3, 4, 5):
            faults.link_blackout(29.9, 1, neighbour, duration=15.0)
        observer = Observer() if observed else None
        result = run_continuous_simulation(
            ContinuousConfig(
                devices=9, cardinality=270, epochs=3, d=600.0, seed=7,
                data_updates=0, static_grid=True, loss_rate=0.0,
                faults=faults,
                updates=update_schedule((22.0, 1, 0.6)),
                protocol=replace(
                    continuous_protocol_config(), resilience=NO_SUPPRESSION,
                ),
            ),
            observer=observer,
            keep_network=True,
        )
        signature = (
            result.traffic.transmissions, result.traffic.drops,
            [
                (e.epoch, e.closed_at, e.result_rows, e.reporters,
                 e.messages, e.report.outcome, e.report.contributed)
                for e in result.record.epochs
            ],
        )
        return result, observer, signature

    def test_one_give_up_counted_and_resync_forced(self):
        result, observer, signature = self.run(observed=True)
        assert given_up(observer, "delta.given-up") == [(1, 1)]
        counter = observer.metrics.counter
        assert counter("continuous.deltas.given_up").value == 1
        assert counter("continuous.deltas.retransmits").value == 2
        assert counter("resilience.orphans_reaped").value == 0
        # The resync: device 1's data does not change again, yet it
        # ships its whole slice at epoch 2 and the answer is exact.
        sent = [
            e.attrs["epoch"] for e in observer.events
            if e.name == "delta.sent" and e.node == 1
        ]
        assert sent == [0, 1, 2]
        for books in result.record.epochs[2:]:
            assert books.result_rows == books.reference_rows
        assert verify_continuous_run(result) == []
        assert result.network[0].live_pending == 0
        _, _, unobserved = self.run(observed=False)
        assert unobserved == signature


class TestSharedPendingTable:
    """One device holds a RESULT and DELTAs of two subscriptions in one
    table at once: each ACK, UNSUBSCRIBE and crash retires exactly the
    replies it names."""

    @pytest.fixture
    def grid(self):
        dataset = make_global_dataset(
            270, 2, 9, "independent", seed=31, value_step=1.0
        )
        sim = Simulator()
        world = World(
            sim, grid_placement(dataset.devices),
            RadioConfig(radio_range=250.0),
        )
        devices = [
            ContinuousDevice(
                world, i, dataset.local(i),
                config=replace(
                    continuous_protocol_config(), resilience=NO_SUPPRESSION,
                ),
            )
            for i in range(dataset.devices)
        ]
        subs = {}
        for origin in (0, 8):
            sim.schedule_at(10.0, lambda o=origin: subs.__setitem__(
                o, devices[o].install_subscription(
                    d=1.0e4, interval=20.0, epochs=3, epoch_budget=8.0,
                ).key
            ))
        sim.run(until=15.0)
        # Device 4, the grid's hub, is enrolled in both subscriptions.
        # From now on its radio reaches nobody, so nothing it routes
        # home is ever ACKed.
        hub = devices[4]
        assert set(hub._subscriber) == set(subs.values())
        for other in range(dataset.devices):
            if other != 4:
                world.set_link_blackout(4, other, True)
        return sim, world, devices, hub, subs

    def query_from(self, hub, origin, cnt):
        """Hand ``hub`` a BF QUERY flood frame from ``origin``."""
        query = SkylineQuery(origin=origin, cnt=cnt, pos=(300.0, 300.0),
                             d=1.0e4)
        frame = Frame(
            kind=FrameKind.QUERY, src=origin, dst=None,
            payload=QueryMessage(query=query, hops=1),
        )
        hub.on_protocol_frame(frame, sender=origin)
        return query.key

    def ack(self, hub, source, payload):
        hub.on_data(DataPacket(
            source=source, dest=hub.node_id, kind=FrameKind.ACK,
            payload=payload, size_bytes=payload.size_bytes(),
        ))

    def armed(self, hub):
        return {
            tag: pending.kind for tag, pending in hub._pending.items()
            if not pending.timer.cancelled
        }

    def test_ack_unsubscribe_and_crash_retire_what_they_name(self, grid):
        sim, world, devices, hub, subs = grid
        a, b = subs[0], subs[8]
        # New data: the hub's wake at the epoch-1 tick ships a DELTA
        # for each subscription; a BF query lands at the same instant.
        hub.apply_update(partial(
            perturb_relation, fraction=0.6, seed=5, value_step=1.0
        ))
        query_key = []
        sim.schedule_at(30.0, lambda: query_key.append(
            self.query_from(hub, 8, 200)
        ))
        sim.run(until=30.5)
        result_tag = query_key[0]
        assert self.armed(hub) == {
            result_tag: FrameKind.RESULT,
            (a, 1): FrameKind.DELTA,
            (b, 1): FrameKind.DELTA,
        }

        # An ACK retires the reply it names and leaves the rest armed.
        self.ack(hub, 8, ResultAckMessage(query_key=result_tag))
        self.ack(hub, 0, DeltaAckMessage(sub_key=a, epoch=2))  # no match
        assert self.armed(hub) == {
            (a, 1): FrameKind.DELTA, (b, 1): FrameKind.DELTA,
        }

        # UNSUBSCRIBE retires only that subscription's DELTAs.
        second = self.query_from(hub, 8, 201)
        sim.run(until=30.6)
        hub.on_protocol_frame(Frame(
            kind=FrameKind.UNSUBSCRIBE, src=8, dst=None,
            payload=UnsubscribeMessage(
                sub_key=b,
                flood=SkylineQuery(origin=8, cnt=202, pos=(0.0, 0.0), d=1.0),
            ),
        ), sender=8)
        assert b not in hub._subscriber
        assert self.armed(hub) == {
            second: FrameKind.RESULT, (a, 1): FrameKind.DELTA,
        }

        # A crash retires everything at once.
        timers = [pending.timer for pending in hub._pending.values()]
        world.fail_node(4)
        assert hub._pending == {}
        assert all(timer.cancelled for timer in timers)
        devices[8].cancel_subscription(b)
        sim.run()
        assert sim.live_pending == 0
