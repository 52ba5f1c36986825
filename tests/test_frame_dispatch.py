"""Frame dispatch: one handler table per device class, one for AODV.

Each device class lists the frames it accepts in ``HANDLERS``, keyed by
``(channel, FrameKind, payload type)``, and the router lists the kinds
it consumes in ``AodvRouter.HANDLERS``. The tables are pinned here as
literals, so adding or dropping a row has to edit this file. Every
other combination of channel, kind and payload type is delivered to
each class, and each one must be dropped with exactly one counted
``frame.unhandled`` event and no change to the device's state. Frames
handed to ``Node.on_frame``, as the world delivers them, reach the
router's handler for an AODV kind and the device's table for any other.
"""

import itertools

import pytest

from repro.continuous import ContinuousDevice
from repro.continuous.messages import (
    DeltaAckMessage,
    DeltaMessage,
    SubscribeMessage,
    UnsubscribeMessage,
)
from repro.data import make_global_dataset
from repro.net import FrameKind, RadioConfig, Simulator, StaticPlacement, World
from repro.net.aodv import AodvRouter, DataPacket
from repro.net.messages import Frame
from repro.protocol.device import ONE_HOP, ROUTED, BFDevice, DFDevice
from repro.protocol.messages import (
    QueryMessage,
    ResultAckMessage,
    ResultMessage,
    TokenMessage,
)

from .staging import observe

MESSAGES = (
    QueryMessage, ResultMessage, ResultAckMessage, TokenMessage,
    SubscribeMessage, DeltaMessage, DeltaAckMessage, UnsubscribeMessage,
)
PAYLOAD_TYPES = MESSAGES + (type(None), tuple)
KINDS = sorted(
    value for name, value in vars(FrameKind).items()
    if name.isupper() and isinstance(value, str)
)
CHANNELS = (ONE_HOP, ROUTED)

BF_ROWS = {
    (ONE_HOP, "query", "QueryMessage"): "_handle_flood_query",
    (ROUTED, "result", "ResultMessage"): "_merge_flood_result",
    (ROUTED, "ack", "ResultAckMessage"): "_retire_result",
}
TABLES = {
    BFDevice: BF_ROWS,
    DFDevice: {
        (ONE_HOP, "query", "QueryMessage"): "_handle_flood_query",
        (ROUTED, "result", "ResultMessage"): "_merge_failover_result",
        (ROUTED, "ack", "ResultAckMessage"): "_retire_result",
        (ONE_HOP, "token", "TokenMessage"): "_handle_token_hop",
        (ROUTED, "token", "TokenMessage"): "_receive_token",
    },
    ContinuousDevice: {
        **BF_ROWS,
        (ONE_HOP, "subscribe", "SubscribeMessage"): "_handle_subscribe_flood",
        (ONE_HOP, "unsubscribe", "UnsubscribeMessage"):
            "_handle_unsubscribe_flood",
        (ROUTED, "delta", "DeltaMessage"): "_accept_delta",
        (ROUTED, "ack", "DeltaAckMessage"): "_retire_delta",
    },
}


def payload_of(payload_type):
    """A payload of ``payload_type``; the miss path reads no field of
    it, so a message is built without running its constructor."""
    if payload_type is type(None):
        return None
    if payload_type is tuple:
        return ("stray", 1)
    return object.__new__(payload_type)


def deliver(device, channel, kind, payload, sender):
    if channel == ONE_HOP:
        device.on_protocol_frame(
            Frame(kind=kind, src=sender, dst=None, payload=payload), sender
        )
    else:
        device.on_data(DataPacket(
            source=sender, dest=device.node_id, kind=kind, payload=payload,
            size_bytes=0,
        ))


def state_of(device):
    """What a dropped frame must leave untouched."""
    return (
        {key: (r.closed, r.completion_time, dict(r.contributions),
               r.result.cardinality)
         for key, r in device.records.items()},
        {tag: (p.kind, p.attempts) for tag, p in device._pending.items()},
        dict(device.query_log._last),
        {key: (s.status, s.current_epoch, sorted(s.device_reports),
               set(s.delta_seen), set(s.epoch_reporters))
         for key, s in getattr(device, "subscriptions", {}).items()},
    )


@pytest.fixture(scope="module")
def dataset():
    return make_global_dataset(400, 2, 4, "independent", seed=3, value_step=1.0)


def build(dataset, cls):
    sim = Simulator()
    world = World(
        sim,
        StaticPlacement([(0.0, 0.0), (200.0, 0.0), (0.0, 200.0), (200.0, 200.0)]),
        RadioConfig(radio_range=250.0),
    )
    observer = observe(world)
    devices = [cls(world, i, dataset.local(i)) for i in range(dataset.devices)]
    return world, observer, devices


@pytest.mark.parametrize("cls", list(TABLES), ids=lambda cls: cls.__name__)
def test_handler_table_is_pinned(cls):
    assert {
        (channel, kind, payload_type.__name__): handler.__name__
        for (channel, kind, payload_type), handler in cls.HANDLERS.items()
    } == TABLES[cls]


@pytest.mark.parametrize("cls", list(TABLES), ids=lambda cls: cls.__name__)
def test_every_unhandled_frame_is_counted_and_dropped(dataset, cls):
    world, observer, devices = build(dataset, cls)
    device = devices[0]
    # Some live state for a stray frame to disturb.
    if cls is ContinuousDevice:
        device.install_subscription(d=1.0e4, interval=30.0, epochs=3,
                                    epoch_budget=20.0)
    else:
        device.issue_query(d=1.0e4)
    before = state_of(device)
    rows = TABLES[cls]
    handled = {(channel, kind) for channel, kind, _ in rows}
    expected = {"type-mismatch": 0, "unknown-kind": 0}
    for channel, kind, payload_type in itertools.product(
        CHANNELS, KINDS, PAYLOAD_TYPES
    ):
        if (channel, kind, payload_type.__name__) in rows:
            continue
        reason = (
            "type-mismatch" if (channel, kind) in handled else "unknown-kind"
        )
        seen = len(observer.events)
        deliver(device, channel, kind, payload_of(payload_type), sender=1)
        events = observer.events[seen:]
        assert [e.name for e in events] == ["frame.unhandled"], (
            channel, kind, payload_type,
        )
        assert events[0].node == device.node_id
        assert events[0].attrs == {
            "channel": channel, "kind": kind, "sender": 1, "reason": reason,
        }
        expected[reason] += 1
    assert state_of(device) == before
    counters = observer.metrics.counter_values()
    assert counters["protocol.frames.unhandled"] == sum(expected.values())
    for reason, count in expected.items():
        assert counters[f"protocol.frames.unhandled.{reason}"] == count
    # Both reasons occur for every class: ACK and QUERY rows
    # exist with one payload type each.
    assert all(expected.values())


# -- from the radio: Node.on_frame -------------------------------------------------

AODV_ROWS = {
    "rreq": "_on_rreq",
    "rrep": "_on_rrep",
    "rerr": "_on_rerr",
    "data": "_on_data_frame",
}
DEVICE_KINDS = sorted(FrameKind.PROTOCOL - {FrameKind.DATA})


def test_router_table_is_pinned():
    assert {
        kind: handler.__name__ for kind, handler in AodvRouter.HANDLERS.items()
    } == AODV_ROWS
    assert set(KINDS) == set(AODV_ROWS) | set(DEVICE_KINDS)


def spy_on(table, key, monkeypatch):
    """Replace ``table[key]`` for one test with a handler that records
    its ``(owner node, payload, sender)`` calls."""
    calls = []

    def spy(owner, payload, sender):
        calls.append((owner.node_id, payload, sender))

    monkeypatch.setitem(table, key, spy)
    return calls


@pytest.mark.parametrize("kind", sorted(AODV_ROWS))
def test_aodv_kinds_reach_their_router_handler(dataset, kind, monkeypatch):
    world, observer, devices = build(dataset, ContinuousDevice)
    device = devices[0]
    calls = spy_on(AodvRouter.HANDLERS, kind, monkeypatch)
    payload = ("stray", 1)
    device.on_frame(Frame(kind=kind, src=1, dst=0, payload=payload), 1)
    assert calls == [(0, payload, 1)]
    assert observer.events == []
    # Hearing the frame installed the 1-hop route to its transmitter.
    route = device.router.routes[1]
    assert (route.next_hop, route.hops) == (1, 1)


@pytest.mark.parametrize("kind", DEVICE_KINDS)
def test_protocol_kinds_fall_through_to_the_device_table(dataset, kind):
    world, observer, devices = build(dataset, ContinuousDevice)
    device = devices[0]
    device.on_frame(Frame(kind=kind, src=1, dst=None, payload=("stray", 1)), 1)
    assert [(e.name, e.attrs) for e in observer.events] == [(
        "frame.unhandled",
        {"channel": ONE_HOP, "kind": kind, "sender": 1,
         "reason": "type-mismatch"
         if (ONE_HOP, kind) in {row[:2] for row in TABLES[ContinuousDevice]}
         else "unknown-kind"},
    )]
    assert observer.metrics.counter_values()["protocol.frames.unhandled"] == 1


@pytest.mark.parametrize("cls", list(TABLES), ids=lambda cls: cls.__name__)
def test_every_row_is_reached_from_the_radio(dataset, cls, monkeypatch):
    """Each row's handler runs once for a frame the world hands the node:
    a one-hop frame directly, a routed one inside a DATA frame
    addressed to the node."""
    for channel, kind, payload_type in cls.HANDLERS:
        world, observer, devices = build(dataset, cls)
        device = devices[0]
        calls = spy_on(cls.HANDLERS, (channel, kind, payload_type), monkeypatch)
        payload = payload_of(payload_type)
        if channel == ONE_HOP:
            frame = Frame(kind=kind, src=1, dst=None, payload=payload)
        else:
            frame = Frame(kind=FrameKind.DATA, src=1, dst=0, payload=DataPacket(
                source=1, dest=0, kind=kind, payload=payload, size_bytes=0,
            ))
        device.on_frame(frame, 1)
        assert calls == [(0, payload, 1)], (channel, kind)
        assert observer.events == []


def test_handle_frame_says_whether_aodv_took_the_frame(dataset, monkeypatch):
    world, observer, devices = build(dataset, BFDevice)
    router = devices[0].router
    calls = {
        kind: spy_on(AodvRouter.HANDLERS, kind, monkeypatch) for kind in AODV_ROWS
    }
    for kind in KINDS:
        frame = Frame(kind=kind, src=1, dst=0, payload=("stray", 1))
        assert router.handle_frame(frame, 1) is (kind in AODV_ROWS), kind
    assert calls == {kind: [(0, ("stray", 1), 1)] for kind in AODV_ROWS}
    assert observer.events == []
