"""Tests for the wireless world (unit-disk links, delays, accounting)."""

import pytest

from repro.net import (
    Frame,
    FrameKind,
    RadioConfig,
    Simulator,
    StaticPlacement,
    World,
)


class Recorder:
    """Minimal node: records delivered frames."""

    def __init__(self, world, node_id):
        self.node_id = node_id
        self.received = []
        world.attach(self)

    def on_frame(self, frame, sender):
        self.received.append((frame, sender))


def make_world(positions, radio=None, seed=0):
    sim = Simulator()
    world = World(sim, StaticPlacement(positions), radio or RadioConfig(), seed=seed)
    nodes = [Recorder(world, i) for i in range(len(positions))]
    return sim, world, nodes


class TestRadioConfig:
    def test_transfer_delay(self):
        # 2 ms per hop plus 1000 bytes at 2 Mbit/s.
        assert RadioConfig().transfer_delay(1000) == pytest.approx(0.002 + 0.004)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadioConfig(radio_range=0)
        with pytest.raises(ValueError):
            RadioConfig(loss_rate=1.5)
        with pytest.raises(ValueError):
            RadioConfig(loss_rate=-0.1)
        # 1.0 (total blackout) is a legal fault-injection setting
        assert RadioConfig(loss_rate=1.0).loss_rate == 1.0


class TestTopology:
    def test_in_range_symmetric_and_irreflexive(self):
        _, world, _ = make_world([(0, 0), (100, 0), (400, 0)])
        assert world.in_range(0, 1) and world.in_range(1, 0)
        assert not world.in_range(0, 2)
        assert not world.in_range(0, 0)

    def test_neighbors(self):
        _, world, _ = make_world([(0, 0), (100, 0), (200, 0), (600, 0)])
        assert sorted(world.neighbors(1)) == [0, 2]
        assert world.neighbors(3) == []

    def test_attach_validation(self):
        sim = Simulator()
        world = World(sim, StaticPlacement([(0, 0)]), RadioConfig())
        node = Recorder(world, 0)
        with pytest.raises(ValueError, match="already attached"):
            world.attach(node)

        class Bad:
            node_id = 5

            def on_frame(self, frame, sender):
                pass

        with pytest.raises(ValueError, match="outside"):
            world.attach(Bad())


class TestUnicast:
    def test_delivery_with_delay(self):
        sim, world, nodes = make_world([(0, 0), (100, 0)])
        frame = Frame(kind=FrameKind.DATA, src=0, dst=1, size_bytes=250)
        world.send(frame)
        sim.run()
        assert len(nodes[1].received) == 1
        assert sim.now == pytest.approx(world.radio.transfer_delay(250))

    def test_out_of_range_dropped_with_callback(self):
        sim, world, nodes = make_world([(0, 0), (900, 0)])
        failures = []
        world.send(
            Frame(kind=FrameKind.DATA, src=0, dst=1), on_failure=failures.append
        )
        sim.run()
        assert nodes[1].received == []
        assert len(failures) == 1
        assert world.stats.drops == 1

    def test_unknown_destination(self):
        _, world, _ = make_world([(0, 0)])
        with pytest.raises(ValueError, match="unknown destination"):
            world.send(Frame(kind=FrameKind.DATA, src=0, dst=7))

    def test_broadcast_frame_rejected_in_send(self):
        _, world, _ = make_world([(0, 0), (1, 0)])
        with pytest.raises(ValueError, match="unicast"):
            world.send(Frame(kind=FrameKind.DATA, src=0, dst=None))


class TestUnattachedSource:
    """A frame whose source is a mobility slot with no attached node is
    rejected before anything is counted: no transmission, no energy,
    and no delivery."""

    class Meter:
        def __init__(self):
            self.sent = 0

        def on_transmit(self, size_bytes):
            self.sent += size_bytes

        def on_receive(self, size_bytes):
            pass

    def world_with_free_slot(self):
        sim = Simulator()
        world = World(
            sim, StaticPlacement([(0, 0), (100, 0), (50, 0)]), seed=0
        )
        nodes = [Recorder(world, i) for i in range(2)]
        meter = world.energy_meters[2] = self.Meter()
        return sim, world, nodes, meter

    @pytest.mark.parametrize("dst", [1, None], ids=["send", "broadcast"])
    def test_rejected_before_any_accounting(self, dst):
        sim, world, nodes, meter = self.world_with_free_slot()
        frame = Frame(kind=FrameKind.DATA, src=2, dst=dst, size_bytes=100)
        transmit = world.send if dst is not None else world.broadcast
        with pytest.raises(ValueError, match="unknown source node 2"):
            transmit(frame)
        sim.run()
        assert world.stats == type(world.stats)()
        assert meter.sent == 0
        assert [n.received for n in nodes] == [[], []]


class TestBroadcast:
    def test_reaches_all_neighbors_once(self):
        sim, world, nodes = make_world([(0, 0), (100, 0), (200, 0), (900, 0)])
        receivers = world.broadcast(Frame(kind=FrameKind.QUERY, src=0, dst=None))
        sim.run()
        assert sorted(receivers) == [1, 2]
        assert len(nodes[1].received) == 1
        assert len(nodes[2].received) == 1
        assert nodes[3].received == []
        # one transmission on the air
        assert world.stats.transmissions == 1

    def test_unicast_frame_rejected_in_broadcast(self):
        _, world, _ = make_world([(0, 0), (1, 0)])
        with pytest.raises(ValueError, match="dst=None"):
            world.broadcast(Frame(kind=FrameKind.QUERY, src=0, dst=1))


class TestLossInjection:
    def test_loss_rate_drops_frames(self):
        sim, world, nodes = make_world(
            [(0, 0), (100, 0)],
            radio=RadioConfig(loss_rate=0.5),
            seed=1,
        )
        for _ in range(200):
            world.send(Frame(kind=FrameKind.DATA, src=0, dst=1))
        sim.run()
        delivered = len(nodes[1].received)
        assert 50 < delivered < 150  # ~100 expected
        assert world.stats.drops == 200 - delivered


class TestStats:
    def test_by_kind_and_categories(self):
        sim, world, nodes = make_world([(0, 0), (100, 0)])
        world.send(Frame(kind=FrameKind.RREQ, src=0, dst=1, size_bytes=24))
        world.send(Frame(kind=FrameKind.RESULT, src=0, dst=1, size_bytes=100))
        world.send(Frame(kind=FrameKind.TOKEN, src=0, dst=1, size_bytes=50))
        sim.run()
        assert world.stats.by_kind == {"rreq": 1, "result": 1, "token": 1}
        assert world.stats.control_messages() == 1
        assert world.stats.protocol_messages() == 2
        assert world.stats.bytes_sent == 174
        assert world.stats.deliveries == 3


class TestFrames:
    def test_frame_ids_unique(self):
        a = Frame(kind=FrameKind.DATA, src=0, dst=1)
        b = Frame(kind=FrameKind.DATA, src=0, dst=1)
        assert a.frame_id != b.frame_id

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Frame(kind=FrameKind.DATA, src=0, dst=1, size_bytes=-1)

    def test_tuple_bytes(self):
        from repro.net import tuple_bytes

        assert tuple_bytes(2) == 16
        assert tuple_bytes(5) == 28
        with pytest.raises(ValueError):
            tuple_bytes(-1)
