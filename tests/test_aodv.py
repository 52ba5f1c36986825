"""Tests for the AODV routing substrate."""

import pytest

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
from repro.net.messages import HEADER_BYTES, SEQ_BYTES
from repro.obs import Observer


class AppNode(Node):
    """Node recording routed payload deliveries and failures."""

    def __init__(self, world, node_id):
        super().__init__(world, node_id)
        self.delivered = []
        self.failed = []

    def on_data(self, packet):
        self.delivered.append((packet.payload, packet.source, self.sim.now))

    def on_undeliverable(self, packet):
        self.failed.append(packet)


def line_network(n, spacing=200.0):
    """n nodes in a line; adjacent pairs in range (range 250)."""
    sim = Simulator()
    positions = [(i * spacing, 0.0) for i in range(n)]
    world = World(sim, StaticPlacement(positions), RadioConfig(radio_range=250.0))
    nodes = [AppNode(world, i) for i in range(n)]
    return sim, world, nodes


class TestDiscoveryAndDelivery:
    def test_multi_hop_delivery(self):
        sim, world, nodes = line_network(5)
        nodes[0].router.send_data(4, FrameKind.RESULT, "payload", 100)
        sim.run(until=5.0)
        assert nodes[4].delivered
        assert nodes[4].delivered[0][0] == "payload"
        assert nodes[4].delivered[0][1] == 0

    def test_forward_routes_installed_along_path(self):
        sim, world, nodes = line_network(4)
        nodes[0].router.send_data(3, FrameKind.RESULT, "x", 10)
        sim.run(until=5.0)
        for i in range(3):
            assert nodes[i].router.has_route(3)

    def test_route_reuse_no_second_discovery(self):
        sim, world, nodes = line_network(4)
        nodes[0].router.send_data(3, FrameKind.RESULT, "a", 10)
        sim.run(until=5.0)
        rreqs_before = world.stats.by_kind.get("rreq", 0)
        nodes[0].router.send_data(3, FrameKind.RESULT, "b", 10)
        sim.run(until=10.0)
        assert world.stats.by_kind.get("rreq", 0) == rreqs_before
        assert len(nodes[3].delivered) == 2

    def test_rreq_dedup_bounded_flood(self):
        sim, world, nodes = line_network(6)
        nodes[0].router.send_data(5, FrameKind.RESULT, "z", 10)
        sim.run(until=5.0)
        # each node rebroadcasts one RREQ at most (origin + 4 relays;
        # the destination answers instead of forwarding)
        assert world.stats.by_kind["rreq"] <= 6

    def test_unreachable_destination_gives_up(self):
        sim, world, nodes = line_network(2, spacing=1000.0)  # out of range
        nodes[0].router.send_data(1, FrameKind.RESULT, "lost", 10)
        sim.run(until=(aodv.RREQ_RETRIES + 2) * aodv.NET_TRAVERSAL_TIME + 1)
        assert nodes[0].failed
        assert not nodes[1].delivered

    def test_send_to_self_rejected(self):
        _, _, nodes = line_network(2)
        with pytest.raises(ValueError):
            nodes[0].router.send_data(0, FrameKind.RESULT, "x", 1)


class TestRouteTable:
    def test_learn_route_and_has_route(self):
        sim, world, nodes = line_network(3)
        nodes[0].router.learn_route(2, next_hop=1, hops=2, seq=1)
        assert nodes[0].router.has_route(2)

    def test_route_expiry(self, monkeypatch):
        monkeypatch.setattr(aodv, "ACTIVE_ROUTE_TIMEOUT", 1.0)
        sim, world, nodes = line_network(3)
        nodes[0].router.learn_route(2, next_hop=1, hops=2, seq=1)
        assert nodes[0].router.has_route(2)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert not nodes[0].router.has_route(2)

    def test_learn_route_keeps_shorter(self):
        """At an equal sequence number the shorter route stays; a newer
        sequence number wins regardless of hops."""
        sim, world, nodes = line_network(3)
        r = nodes[0].router
        r.learn_route(2, next_hop=1, hops=1, seq=3)
        r.learn_route(2, next_hop=2, hops=5, seq=3)
        assert (r.routes[2].next_hop, r.routes[2].hops) == (1, 1)
        r.learn_route(2, next_hop=2, hops=5, seq=4)
        assert (r.routes[2].next_hop, r.routes[2].hops) == (2, 5)
        assert r.routes[2].dest_seq == 4

    def test_learn_route_no_equal_hop_replacement(self):
        """An equal sequence number replaces only with strictly fewer
        hops: swapping next hops between equal-length routes is how two
        nodes end up pointing at each other."""
        sim, world, nodes = line_network(4)
        r = nodes[0].router
        r.learn_route(3, next_hop=1, hops=2, seq=1)
        r.learn_route(3, next_hop=2, hops=2, seq=1)
        assert r.routes[3].next_hop == 1
        r.learn_route(3, next_hop=2, hops=1, seq=1)
        assert (r.routes[3].next_hop, r.routes[3].hops) == (2, 1)

    def test_learn_route_self_ignored(self):
        _, _, nodes = line_network(2)
        nodes[0].router.learn_route(0, next_hop=1, hops=1, seq=7)
        nodes[0].router.learn_neighbor(0)
        assert 0 not in nodes[0].router.routes

    def test_invalidated_route_refuses_older_seq(self):
        """A broken route is invalidated with its sequence number bumped,
        not deleted: the stale number it was learned at cannot revive
        it, but the bumped one (or newer) can."""
        sim, world, nodes = line_network(3)
        r = nodes[0].router
        r.learn_route(2, next_hop=1, hops=2, seq=5)
        r.handle_frame(
            Frame(kind=FrameKind.RERR, src=1, dst=0,
                  payload={"dest": 2, "source": 0}),
            sender=1,
        )
        assert not r.has_route(2)
        assert r.routes[2].dest_seq == 6
        r.learn_route(2, next_hop=1, hops=1, seq=5)
        assert not r.has_route(2)
        r.learn_route(2, next_hop=1, hops=2, seq=6)
        assert r.has_route(2)

    def test_overhearing_installs_neighbor_route(self):
        sim, world, nodes = line_network(2)
        world.send(Frame(kind=FrameKind.RESULT, src=0, dst=1, size_bytes=10))
        sim.run(until=1.0)
        assert nodes[1].router.has_route(0)


class TestReverseRoutes:
    def test_routed_result_teaches_every_hop_the_way_back(self):
        """A routed RESULT installs the route to its source at every hop,
        so the originator's ACK rides it without a route discovery."""
        sim, world, nodes = line_network(5)
        # Routes toward node 0, as a query flood from node 0 leaves them.
        for i in range(1, 5):
            nodes[i].router.learn_route(0, next_hop=i - 1, hops=i, seq=1)
        nodes[4].router.send_data(0, FrameKind.RESULT, "result", 10)
        sim.run(until=2.0)
        assert [p for p, *_ in nodes[0].delivered] == ["result"]
        for i in range(4):
            route = nodes[i].router.routes[4]
            assert (route.next_hop, route.hops) == (i + 1, 4 - i)
        nodes[0].router.send_data(4, FrameKind.ACK, "ack", 8)
        sim.run(until=4.0)
        assert [p for p, *_ in nodes[4].delivered] == ["ack"]
        assert world.stats.by_kind.get("rreq", 0) == 0

    def test_data_frame_charges_the_sequence_field(self):
        sim, world, nodes = line_network(2)
        sizes = []
        original = world.send

        def spy(frame, on_failure=None):
            sizes.append(frame.size_bytes)
            return original(frame, on_failure)

        world.send = spy
        nodes[0].router.learn_neighbor(1)
        nodes[0].router.send_data(1, FrameKind.RESULT, "x", 10)
        assert sizes == [HEADER_BYTES + SEQ_BYTES + 10]


class TestLoopProtection:
    def test_data_ttl_kills_loops(self, monkeypatch):
        """Force a two-node routing loop; the packet must die by TTL, not
        circulate forever."""
        monkeypatch.setattr(aodv, "NET_DIAMETER", 8)
        monkeypatch.setattr(aodv, "LOCAL_REPAIR_ATTEMPTS", 0)
        monkeypatch.setattr(aodv, "RREQ_RETRIES", 0)
        sim, world, nodes = line_network(3)
        # Manually corrupt tables: 0 -> 1 -> 0 for destination 2.
        nodes[0].router.learn_route(2, next_hop=1, hops=1, seq=1)
        nodes[1].router.learn_route(2, next_hop=0, hops=1, seq=1)
        # Prevent fixes: make node 2 unreachable physically is not needed;
        # just watch the frame count stay bounded.
        nodes[0].router.send_data(2, FrameKind.RESULT, "loop", 10)
        sim.run(until=30.0)
        assert world.stats.by_kind.get("data", 0) <= aodv.NET_DIAMETER + 1

    def test_ttl_expiry_is_counted_when_observed(self, monkeypatch):
        monkeypatch.setattr(aodv, "NET_DIAMETER", 4)
        monkeypatch.setattr(aodv, "LOCAL_REPAIR_ATTEMPTS", 0)
        monkeypatch.setattr(aodv, "RREQ_RETRIES", 0)
        sim, world, nodes = line_network(3)
        observer = Observer().bind(world)
        nodes[0].router.learn_route(2, next_hop=1, hops=1, seq=1)
        nodes[1].router.learn_route(2, next_hop=0, hops=1, seq=1)
        nodes[0].router.send_data(2, FrameKind.RESULT, "loop", 10)
        sim.run(until=30.0)
        assert observer.metrics.counter("aodv.ttl_expired").value == 1
        (event,) = [e for e in observer.events if e.name == "aodv.ttl-expired"]
        assert (event.attrs["source"], event.attrs["dest"]) == (0, 2)


class TestMobilityRepair:
    def test_broken_route_repaired_locally(self):
        """A route via a vanished node triggers local repair."""
        sim, world, nodes = line_network(4)
        nodes[0].router.send_data(3, FrameKind.RESULT, "one", 10)
        sim.run(until=5.0)
        assert len(nodes[3].delivered) == 1
        # Corrupt node 1's route to 3: next hop is a node that is out of
        # range (node 0 can't reach 3 either, but 1 can re-discover via 2).
        nodes[1].router.routes[3].next_hop = 3  # 1 -> 3 directly: too far
        nodes[0].router.send_data(3, FrameKind.RESULT, "two", 10)
        sim.run(until=15.0)
        assert len(nodes[3].delivered) == 2


class TestFailurePaths:
    """The maintenance branches: local repair, RERR, retry exhaustion."""

    def diamond(self):
        """0-1-{2,4}-3: node 1 has two disjoint ways to reach 3."""
        sim = Simulator()
        positions = [
            (0.0, 0.0), (200.0, 0.0), (400.0, 100.0),
            (600.0, 0.0), (400.0, -100.0),
        ]
        world = World(
            sim, StaticPlacement(positions), RadioConfig(radio_range=250.0)
        )
        nodes = [AppNode(world, i) for i in range(5)]
        return sim, world, nodes

    def test_hop_failure_repaired_via_alternate_path(self):
        """A forwarding node whose next hop crashed repairs locally and
        the packet still arrives."""
        sim, world, nodes = self.diamond()
        nodes[0].router.send_data(3, FrameKind.RESULT, "one", 10)
        sim.run(until=5.0)
        assert len(nodes[3].delivered) == 1
        on_path = nodes[1].router.routes[3].next_hop
        assert on_path in (2, 4)
        world.fail_node(on_path)
        nodes[0].router.send_data(3, FrameKind.RESULT, "two", 10)
        sim.run(until=20.0)
        assert [p for p, *_ in nodes[3].delivered] == ["one", "two"]
        assert nodes[0].failed == []
        # the repaired route goes around the crashed node
        assert nodes[1].router.routes[3].next_hop != on_path

    def test_repair_exhaustion_sends_rerr_to_source(self, monkeypatch):
        """With no repair budget, a forwarding node reports the break
        toward the source, which invalidates its route."""
        monkeypatch.setattr(aodv, "LOCAL_REPAIR_ATTEMPTS", 0)
        sim, world, nodes = line_network(4)
        nodes[0].router.send_data(3, FrameKind.RESULT, "one", 10)
        sim.run(until=5.0)
        assert nodes[0].router.has_route(3)
        world.fail_node(2)
        nodes[0].router.send_data(3, FrameKind.RESULT, "lost", 10)
        sim.run(until=20.0)
        assert world.stats.by_kind.get("rerr", 0) >= 1
        assert not nodes[0].router.has_route(3)
        assert [p for p, *_ in nodes[3].delivered] == ["one"]

    def test_source_side_hop_failure_reports_undeliverable(self, monkeypatch):
        monkeypatch.setattr(aodv, "LOCAL_REPAIR_ATTEMPTS", 0)
        monkeypatch.setattr(aodv, "RREQ_RETRIES", 0)
        sim, world, nodes = line_network(2)
        nodes[0].router.send_data(1, FrameKind.RESULT, "one", 10)
        sim.run(until=5.0)
        world.fail_node(1)
        nodes[0].router.send_data(1, FrameKind.RESULT, "lost", 10)
        sim.run(until=20.0)
        assert len(nodes[0].failed) == 1
        assert nodes[0].failed[0].payload == "lost"

    def test_discovery_retry_exhaustion(self, monkeypatch):
        """RREQ_RETRIES + 1 attempts, then every queued packet is
        surrendered and the pending queue is cleared."""
        monkeypatch.setattr(aodv, "NET_TRAVERSAL_TIME", 0.5)
        sim, world, nodes = line_network(2, spacing=1000.0)
        nodes[0].router.send_data(1, FrameKind.RESULT, "a", 10)
        nodes[0].router.send_data(1, FrameKind.RESULT, "b", 10)
        sim.run(until=10.0)
        assert world.stats.by_kind["rreq"] == 3  # initial + 2 retries
        assert [p.payload for p in nodes[0].failed] == ["a", "b"]
        assert nodes[0].router._pending == {}

    def test_reset_drops_routes_and_pending(self):
        sim, world, nodes = line_network(3)
        nodes[0].router.send_data(2, FrameKind.RESULT, "one", 10)
        sim.run(until=5.0)
        assert nodes[0].router.has_route(2)
        nodes[0].router.reset()
        assert nodes[0].router.routes == {}
        assert nodes[0].router._pending == {}
        assert nodes[0].router._seen_rreq == {}
        # still functional after the wipe
        nodes[0].router.send_data(2, FrameKind.RESULT, "two", 10)
        sim.run(until=10.0)
        assert [p for p, *_ in nodes[2].delivered] == ["one", "two"]


class TestPartition:
    def test_partitioned_network_both_sides_work_internally(self):
        sim = Simulator()
        positions = [(0, 0), (200, 0), (5000, 0), (5200, 0)]
        world = World(sim, StaticPlacement(positions), RadioConfig(radio_range=250))
        nodes = [AppNode(world, i) for i in range(4)]
        nodes[0].router.send_data(1, FrameKind.RESULT, "left", 10)
        nodes[2].router.send_data(3, FrameKind.RESULT, "right", 10)
        nodes[0].router.send_data(3, FrameKind.RESULT, "cross", 10)
        sim.run(until=20.0)
        assert nodes[1].delivered and nodes[1].delivered[0][0] == "left"
        assert nodes[3].delivered and nodes[3].delivered[0][0] == "right"
        assert all(p != "cross" for p, *_ in nodes[3].delivered)
        assert nodes[0].failed


class TestRouteHolds:
    """``hold_route``: a floor under a route's lifetime for as long as an
    upper-layer session needs the route."""

    def test_held_route_outlives_the_timeout(self, monkeypatch):
        monkeypatch.setattr(aodv, "ACTIVE_ROUTE_TIMEOUT", 1.0)
        sim, world, nodes = line_network(3)
        r = nodes[0].router
        r.learn_route(2, next_hop=1, hops=2, seq=1)
        r.hold_route(2, until=50.0)
        assert r.routes[2].expires == 50.0
        sim.schedule(49.0, lambda: None)
        sim.run()
        assert r.has_route(2)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert not r.has_route(2)

    def test_hold_never_shortens_a_route(self):
        sim, world, nodes = line_network(3)
        r = nodes[0].router
        r.learn_route(2, next_hop=1, hops=2, seq=1)
        timeout = aodv.ACTIVE_ROUTE_TIMEOUT
        r.hold_route(2, until=5.0)
        assert r.routes[2].expires == timeout
        r.hold_route(2, until=90.0)
        r.hold_route(2, until=70.0)  # a lower floor does not replace it
        assert r.routes[2].expires == 90.0
        # Re-learning or using the route keeps the higher of the two.
        r.learn_route(2, next_hop=1, hops=2, seq=1)
        assert r.routes[2].expires == 90.0
        sim.schedule(80.0, lambda: None)
        sim.run()
        r.learn_route(2, next_hop=1, hops=2, seq=1)
        assert r.routes[2].expires == 80.0 + timeout

    def test_hold_applies_to_later_routes(self, monkeypatch):
        """The hold is per destination, not per entry: a route learned
        later at a higher sequence number is held too."""
        monkeypatch.setattr(aodv, "ACTIVE_ROUTE_TIMEOUT", 1.0)
        sim, world, nodes = line_network(3)
        r = nodes[0].router
        r.hold_route(2, until=40.0)
        assert 2 not in r.routes
        r.learn_route(2, next_hop=1, hops=2, seq=1)
        assert r.routes[2].expires == 40.0
        r.learn_route(2, next_hop=1, hops=2, seq=9)
        assert (r.routes[2].dest_seq, r.routes[2].expires) == (9, 40.0)

    def test_hold_does_not_revive_a_broken_route(self):
        sim, world, nodes = line_network(3)
        r = nodes[0].router
        r.learn_route(2, next_hop=1, hops=2, seq=5)
        r.hold_route(2, until=500.0)
        r.handle_frame(
            Frame(kind=FrameKind.RERR, src=1, dst=0,
                  payload={"dest": 2, "source": 0}),
            sender=1,
        )
        assert not r.has_route(2)
        r.hold_route(2, until=600.0)
        assert not r.has_route(2)
        # The next route learned is held again.
        r.learn_route(2, next_hop=1, hops=2, seq=6)
        assert r.routes[2].expires == 600.0

    def test_held_route_is_repaired_after_a_hop_failure(self):
        """A detected hop failure still breaks a held route, and local
        repair installs the way around it, held again."""
        sim, world, nodes = TestFailurePaths().diamond()
        nodes[0].router.send_data(3, FrameKind.RESULT, "one", 10)
        sim.run(until=5.0)
        for node in nodes[:3] + nodes[4:]:
            node.router.hold_route(3, until=1000.0)
        on_path = nodes[1].router.routes[3].next_hop
        world.set_link_blackout(1, on_path, True)
        nodes[0].router.send_data(3, FrameKind.RESULT, "two", 10)
        sim.run(until=20.0)
        assert [p for p, *_ in nodes[3].delivered] == ["one", "two"]
        route = nodes[1].router.routes[3]
        assert route.next_hop != on_path
        assert route.expires == 1000.0

    def test_reset_drops_the_holds(self, monkeypatch):
        monkeypatch.setattr(aodv, "ACTIVE_ROUTE_TIMEOUT", 1.0)
        sim, world, nodes = line_network(3)
        r = nodes[0].router
        r.hold_route(2, until=100.0)
        r.reset()
        assert r._holds == {}
        r.learn_route(2, next_hop=1, hops=2, seq=1)
        assert r.routes[2].expires == 1.0

    def test_hold_to_self_ignored(self):
        _, _, nodes = line_network(2)
        nodes[0].router.hold_route(0, until=100.0)
        assert nodes[0].router._holds == {}


class TestDiscoveryCause:
    """``aodv.discovery`` says why a packet found no valid route and
    which packet kind started the discovery."""

    def discoveries(self, observer):
        return [
            (e.node, e.attrs["dest"], e.attrs["cause"], e.attrs["kind"],
             e.attrs["attempt"])
            for e in observer.events if e.name == "aodv.discovery"
        ]

    def test_no_route(self):
        sim, world, nodes = line_network(4)
        observer = Observer().bind(world)
        nodes[0].router.send_data(3, FrameKind.RESULT, "x", 10)
        sim.run(until=5.0)
        assert self.discoveries(observer) == [
            (0, 3, "no-route", FrameKind.RESULT, 1)
        ]

    def test_expired(self, monkeypatch):
        monkeypatch.setattr(aodv, "ACTIVE_ROUTE_TIMEOUT", 2.0)
        sim, world, nodes = line_network(4)
        observer = Observer().bind(world)
        nodes[0].router.send_data(3, FrameKind.RESULT, "one", 10)
        sim.run(until=5.0)
        nodes[0].router.send_data(3, FrameKind.ACK, "two", 10)
        sim.run(until=10.0)
        assert [p for p, *_ in nodes[3].delivered] == ["one", "two"]
        assert self.discoveries(observer)[1:] == [
            (0, 3, "expired", FrameKind.ACK, 1)
        ]

    def test_repair_and_its_retries(self, monkeypatch):
        monkeypatch.setattr(aodv, "RREQ_RETRIES", 1)
        sim, world, nodes = line_network(4)
        observer = Observer().bind(world)
        nodes[0].router.send_data(3, FrameKind.RESULT, "one", 10)
        sim.run(until=5.0)
        world.set_link_blackout(1, 2, True)
        nodes[0].router.send_data(3, FrameKind.DELTA, "two", 10)
        sim.run(until=20.0)
        assert self.discoveries(observer)[1:] == [
            (1, 3, "repair", FrameKind.DELTA, 1),
            (1, 3, "repair", FrameKind.DELTA, 2),
        ]
