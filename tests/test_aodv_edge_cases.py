"""Edge-case tests for AODV internals: sequence numbers, RERR paths,
route replacement rules, and discovery corner cases."""

from repro.net import (
    Frame,
    FrameKind,
    Node,
    RadioConfig,
    Simulator,
    StaticPlacement,
    World,
)
from repro.net import aodv
from repro.net.aodv import Route


class AppNode(Node):
    def __init__(self, world, node_id):
        super().__init__(world, node_id)
        self.delivered = []
        self.failed = []

    def on_data(self, packet):
        self.delivered.append(packet)

    def on_undeliverable(self, packet):
        self.failed.append(packet)


def line(n, spacing=200.0):
    sim = Simulator()
    world = World(
        sim,
        StaticPlacement([(i * spacing, 0.0) for i in range(n)]),
        RadioConfig(radio_range=250.0),
    )
    return sim, world, [AppNode(world, i) for i in range(n)]


class TestRouteEntry:
    def test_validity_window(self):
        route = Route(next_hop=1, hops=2, dest_seq=1, expires=10.0)
        assert route.valid_at(5.0)
        assert not route.valid_at(10.0)


class TestInstallRules:
    def test_newer_sequence_replaces(self):
        sim, world, nodes = line(3)
        r = nodes[0].router
        r.learn_route(2, next_hop=1, hops=3, seq=1)
        r.learn_route(2, next_hop=2, hops=5, seq=2)  # newer seq wins
        assert r.routes[2].next_hop == 2

    def test_older_sequence_ignored(self):
        sim, world, nodes = line(3)
        r = nodes[0].router
        r.learn_route(2, next_hop=1, hops=3, seq=5)
        r.learn_route(2, next_hop=2, hops=1, seq=4)
        assert r.routes[2].next_hop == 1

    def test_same_seq_fewer_hops_replaces(self):
        sim, world, nodes = line(3)
        r = nodes[0].router
        r.learn_route(2, next_hop=1, hops=5, seq=1)
        r.learn_route(2, next_hop=2, hops=2, seq=1)
        assert r.routes[2].next_hop == 2

    def test_install_to_self_ignored(self):
        sim, world, nodes = line(2)
        nodes[0].router.learn_route(0, next_hop=1, hops=1, seq=1)
        assert 0 not in nodes[0].router.routes

    def test_expired_route_freely_replaced(self, monkeypatch):
        monkeypatch.setattr(aodv, "ACTIVE_ROUTE_TIMEOUT", 1.0)
        sim, world, nodes = line(3)
        r = nodes[0].router
        r.learn_route(2, next_hop=1, hops=1, seq=1)
        sim.schedule(5.0, lambda: None)
        sim.run()
        r.learn_route(2, next_hop=2, hops=9, seq=1)
        assert r.routes[2].next_hop == 2


class TestDiscoveryCorners:
    def test_intermediate_with_fresh_route_answers(self):
        """Node 1 already has a fresh route to 3; a discovery by node 0
        should be answered by node 1 without the RREQ reaching node 3."""
        sim, world, nodes = line(4)
        # establish 1 -> 3 route the real way
        nodes[1].router.send_data(3, FrameKind.RESULT, "warm", 10)
        sim.run(until=5.0)
        rreqs_before = world.stats.by_kind.get("rreq", 0)
        nodes[0].router.send_data(3, FrameKind.RESULT, "x", 10)
        sim.run(until=10.0)
        assert len(nodes[3].delivered) == 2
        # node 0's discovery flood stopped at node 1 (at most origin +
        # one relay transmitted RREQs)
        assert world.stats.by_kind["rreq"] - rreqs_before <= 2

    def test_concurrent_packets_share_discovery(self):
        sim, world, nodes = line(4)
        nodes[0].router.send_data(3, FrameKind.RESULT, "a", 10)
        nodes[0].router.send_data(3, FrameKind.RESULT, "b", 10)
        sim.run(until=5.0)
        assert len(nodes[3].delivered) == 2
        # a single RREQ id covered both packets
        assert nodes[0].router._rreq_id == 1

    def test_per_packet_undeliverable_callback(self):
        sim, world, nodes = line(2, spacing=1000.0)
        custom = []
        nodes[0].router.send_data(
            1, FrameKind.RESULT, "gone", 10,
            on_undeliverable=lambda p: custom.append(p),
        )
        sim.run(until=20.0)
        assert len(custom) == 1
        assert nodes[0].failed == []  # per-packet callback wins


class TestRerrPropagation:
    def test_rerr_invalidates_route_at_receiver(self):
        sim, world, nodes = line(3)
        nodes[0].router.send_data(2, FrameKind.RESULT, "warm", 10)
        sim.run(until=5.0)
        assert nodes[0].router.has_route(2)
        # node 1 sends an RERR for destination 2 toward node 0
        world.send(Frame(
            kind=FrameKind.RERR, src=1, dst=0,
            payload={"dest": 2, "source": 0}, size_bytes=24,
        ))
        sim.run(until=6.0)
        assert not nodes[0].router.has_route(2)

    def test_rerr_from_non_next_hop_ignored(self):
        sim, world, nodes = line(3)
        nodes[0].router.send_data(2, FrameKind.RESULT, "warm", 10)
        sim.run(until=5.0)
        # an RERR arriving from a node that is NOT our next hop for the
        # destination must not clobber the route
        world.send(Frame(
            kind=FrameKind.RERR, src=2, dst=0,
            payload={"dest": 2, "source": 0}, size_bytes=24,
        ))
        # node 2 is out of range of node 0 (400 m), so deliver directly:
        nodes[0].router.handle_frame(
            Frame(kind=FrameKind.RERR, src=2, dst=0,
                  payload={"dest": 2, "source": 0}), sender=2,
        )
        assert nodes[0].router.has_route(2)


class TestRouteInvalidation:
    def test_neighbor_routing_back_through_requester_does_not_answer(self):
        """Two-node loop regression. B's route to D breaks; neighbour A,
        whose route to D runs through B, must not answer B's RREQ —
        else B would route via A and A via B."""
        sim = Simulator()
        # A(0) - B(1) - D(2), with A and D out of each other's range.
        world = World(
            sim, StaticPlacement([(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)]),
            RadioConfig(radio_range=250.0),
        )
        a, b, d = (AppNode(world, i) for i in range(3))
        a.router.send_data(2, FrameKind.RESULT, "warm", 10)
        sim.run(until=5.0)
        assert a.router.routes[2].next_hop == 1
        assert b.router.routes[2].next_hop == 2
        seq = b.router.routes[2].dest_seq
        rreps_before = world.stats.by_kind.get("rrep", 0)
        world.fail_node(2)
        b.router.send_data(2, FrameKind.RESULT, "lost", 10)
        sim.run(until=30.0)
        # B's RREQs asked for a route fresher than the broken one ...
        assert b.router.routes[2].dest_seq == seq + 1
        # ... which A's stale copy is not, so nobody answered.
        assert world.stats.by_kind.get("rrep", 0) == rreps_before
        assert not b.router.has_route(2)
        assert [p.payload for p in b.failed] == ["lost"]


class TestDataPacketDefaults:
    def test_hops_left_set_from_config(self, monkeypatch):
        monkeypatch.setattr(aodv, "NET_DIAMETER", 5)
        sim, world, nodes = line(2)
        sent = []
        original = world.send

        def spy(frame, on_failure=None):
            if frame.kind == FrameKind.DATA:
                sent.append(frame.payload)
            return original(frame, on_failure)

        world.send = spy
        nodes[0].router.learn_neighbor(1)
        nodes[0].router.send_data(1, FrameKind.RESULT, "x", 10)
        sim.run(until=2.0)
        assert sent and sent[0].hops_left == 5

