"""Differential tests for the epoch-cached neighbor index.

The cached path (position memo + spatial hash grid + epoch
invalidation) must agree *bit for bit* with the uncached O(m²) world
and the Python-loop index build of :mod:`tests.oracles` — across
random-waypoint motion, node crashes and recoveries, link blackouts and
partitions, at hundreds of sampled times.
"""

import numpy as np
import pytest

from repro.net import (
    Frame,
    FrameKind,
    RadioConfig,
    RandomWaypoint,
    Simulator,
    StaticPlacement,
    World,
)
from repro.net.spatial_index import SKIN

from .oracles.spatial_index import reachable_from_lists
from .oracles.world import (
    ReferenceIndexWorld,
    UncachedWorld,
    install_world,
    uncached_neighbors,
    uncached_reachable_from,
)

#: Index build -> the world class that runs it.
BUILDS = {"bulk-build": World, "reference-build": ReferenceIndexWorld}


class Recorder:
    """Minimal node: records delivered frames."""

    def __init__(self, world, node_id):
        self.node_id = node_id
        self.received = []
        world.attach(self)

    def on_frame(self, frame, sender):
        self.received.append((frame, sender))


def waypoint_world(m=24, seed=11, radio_range=180.0, extent=(0, 0, 600, 600),
                   world_cls=World):
    sim = Simulator()
    mobility = RandomWaypoint(
        node_count=m, extent=extent, holding_time=5.0, seed=seed
    )
    world = world_cls(sim, mobility, RadioConfig(radio_range=radio_range),
                      seed=seed)
    nodes = [Recorder(world, i) for i in range(m)]
    return sim, world, nodes


def assert_world_agrees(world):
    """Cached answers == uncached reference answers, for every node."""
    ids = world.node_ids
    for i in ids:
        assert world.neighbors(i) == uncached_neighbors(world, i), (
            f"neighbors({i}) diverged at t={world.sim.now}"
        )
    for i in ids:
        assert (world.reachable_from(i)
                == uncached_reachable_from(world, i)), (
            f"reachable_from({i}) diverged at t={world.sim.now}"
        )
    # Every link read from either endpoint's list is a reference link:
    # the lists are symmetric and lose no edge.
    expected_edges = {
        (i, j) for i in ids for j in uncached_neighbors(world, i) if i < j
    }
    edges = {(min(i, j), max(i, j)) for i in ids for j in world.neighbors(i)}
    assert edges == expected_edges
    # The vectorised closure must match the frontier-expansion reference.
    for i in ids:
        assert (world._index.reachable_from(i)
                == reachable_from_lists(world._index, i)), (
            f"vectorised reachable_from({i}) != list reference "
            f"at t={world.sim.now}"
        )


class TestDifferential:
    @pytest.mark.parametrize("build", list(BUILDS))
    def test_motion_and_faults_200_sampled_times(self, build):
        """≥200 sampled times under RWP motion with churn and blackouts,
        for both the vectorised all-pairs build and the Python-loop
        reference build."""
        m = 24
        sim, world, _ = waypoint_world(m=m, seed=11, world_cls=BUILDS[build])
        rng = np.random.default_rng(42)
        times = np.sort(rng.uniform(0.0, 900.0, size=220))
        for k, t in enumerate(times):
            sim.run(until=float(t))  # empty queue: clamps now to t
            # Churn fault state between samples.
            action = k % 6
            node = int(rng.integers(m))
            if action == 0:
                world.fail_node(node)
            elif action == 1:
                world.restore_node(node)
            elif action == 2:
                a, b = rng.choice(m, size=2, replace=False)
                world.set_link_blackout(int(a), int(b), True)
            elif action == 3 and world._blackouts:
                a, b = sorted(next(iter(world._blackouts)))
                world.set_link_blackout(a, b, False)
            assert_world_agrees(world)

    def test_same_time_fault_transition_invalidates(self):
        """A crash between two queries at the *same* simulation time must
        be visible immediately (epoch invalidation, not time keying)."""
        positions = [(0, 0), (100, 0), (200, 0)]
        sim = Simulator()
        world = World(sim, StaticPlacement(positions), RadioConfig(radio_range=150))
        for i in range(3):
            Recorder(world, i)
        assert world.neighbors(0) == [1]
        assert world.reachable_from(0) == {0, 1, 2}
        epoch = world.connectivity_epoch
        world.fail_node(1)
        assert world.connectivity_epoch > epoch
        assert world.neighbors(0) == []
        assert world.reachable_from(0) == {0}
        world.restore_node(1)
        assert world.neighbors(0) == [1]
        world.set_link_blackout(0, 1, True)
        assert world.neighbors(0) == []
        assert world.reachable_from(0) == {0}
        world.set_link_blackout(0, 1, False)
        assert world.reachable_from(0) == {0, 1, 2}
        assert_world_agrees(world)

    def test_noop_fault_transitions_do_not_invalidate(self):
        sim, world, _ = waypoint_world(m=4)
        world.fail_node(2)
        epoch = world.connectivity_epoch
        world.fail_node(2)  # already down
        world.restore_node(3)  # already up
        world.set_link_blackout(0, 1, False)  # not blacked out
        assert world.connectivity_epoch == epoch

    def test_cache_disabled_world_matches_cached_world(self):
        """The public API of an uncached world equals a cached twin's."""
        m = 12
        mob_kwargs = dict(node_count=m, extent=(0, 0, 500, 500), seed=3)
        sim_a = Simulator()
        world_a = World(
            sim_a, RandomWaypoint(**mob_kwargs), RadioConfig(radio_range=200)
        )
        sim_b = Simulator()
        world_b = UncachedWorld(
            sim_b,
            RandomWaypoint(**mob_kwargs),
            RadioConfig(radio_range=200),
        )
        for i in range(m):
            Recorder(world_a, i)
            Recorder(world_b, i)
        for t in (0.0, 7.5, 31.2, 118.0, 407.9):
            sim_a.run(until=t)
            sim_b.run(until=t)
            for i in range(m):
                assert world_a.neighbors(i) == world_b.neighbors(i)
                assert world_a.reachable_from(i) == world_b.reachable_from(i)
                assert world_a.position(i) == world_b.position(i)
                for j in range(m):
                    assert world_a.in_range(i, j) == world_b.in_range(i, j)


class TestCacheBehaviour:
    def test_repeated_queries_build_once(self):
        sim, world, _ = waypoint_world(m=10)
        sim.run(until=50.0)
        before = world._index.rebuilds
        for _ in range(5):
            for i in world.node_ids:
                world.neighbors(i)
            world.reachable_from(0)
        assert world._index.rebuilds == before + 1

    def test_positions_memoised_per_time(self):
        sim, world, _ = waypoint_world(m=6)
        sim.run(until=10.0)
        arr1 = world.positions()
        arr2 = world.positions()
        assert arr1 is arr2
        sim.run(until=20.0)
        assert world.positions() is not arr1

    def test_adjacency_rows_match_per_node_queries(self):
        """The lists a full adjacency build serves equal the rows
        computed one node at a time before it."""
        sim, world, _ = waypoint_world(m=10)
        sim.run(until=33.0)
        world.fail_node(4)
        rows = {i: list(world.neighbors(i)) for i in world.node_ids}
        world.reachable_from(0)
        assert {i: world.neighbors(i) for i in world.node_ids} == rows

    def test_radio_range_change_invalidates(self):
        sim, world, _ = waypoint_world(m=10, radio_range=50.0)
        sim.run(until=5.0)
        sparse = {i: world.neighbors(i) for i in world.node_ids}
        world.radio = RadioConfig(radio_range=600.0)
        dense = {i: world.neighbors(i) for i in world.node_ids}
        assert any(len(dense[i]) > len(sparse[i]) for i in world.node_ids)
        assert_world_agrees(world)


class TestCandidateLists:
    def test_faults_keep_the_lists_and_expiry_renews_them(self):
        """Crashes, blackouts and partitions are applied when a question
        is answered, so they never start a new candidate window, and a
        build at ``t_c`` reads the window's pass; the window running out
        starts a new one."""
        sim, world, _ = waypoint_world(m=10)
        index = world._index
        sim.run(until=1.0)
        world.neighbors(1)
        pairs = index._pairs
        world.reachable_from(0)
        world.fail_node(3)
        world.neighbors(1)
        world.reachable_from(0)
        world.set_link_blackout(1, 2, True)
        world.neighbors(1)
        world.set_partition("x", 300.0, True)
        world.neighbors(2)
        world.reachable_from(0)
        assert_world_agrees(world)
        assert index._cand_time == 1.0
        assert index._pairs is pairs
        sim.run(until=1.0 + 2 * index._cand_window)
        world.neighbors(0)
        assert index._cand_time == sim.now
        assert index._pairs is not pairs
        assert_world_agrees(world)

    def test_build_opens_a_window_at_its_time(self):
        """A build asked after ``t_c`` inside the window opens a new
        window at its own time; rows asked later inside that window
        read its pass with no new sweep."""
        sim, world, _ = waypoint_world(m=10)
        index = world._index
        sim.run(until=1.0)
        world.neighbors(1)
        pairs = index._pairs
        sim.run(until=1.0 + index._cand_window / 4)
        world.reachable_from(0)
        assert index._cand_time == sim.now
        assert index._pairs is not pairs
        pairs = index._pairs
        sim.run(until=sim.now + index._cand_window / 4)
        for i in world.node_ids:
            assert world.neighbors(i) == uncached_neighbors(world, i)
        assert index._pairs is pairs

    def test_window_follows_the_speed_bound(self):
        sim, world, _ = waypoint_world(m=6, radio_range=200.0)
        world.neighbors(0)
        assert world._index._cand_window == SKIN * 200.0 / (2 * 10.0)
        sim, world, _ = static_world(m=6)
        world.neighbors(0)
        assert world._index._cand_window == float("inf")


class TestAttachOrderDeterminism:
    """Regression: connectivity answers and broadcast delivery order must
    depend only on node ids, never on attachment order."""

    POSITIONS = [(0, 0), (100, 0), (200, 0), (150, 100), (900, 900)]

    def build(self, order):
        sim = Simulator()
        world = World(
            sim, StaticPlacement(self.POSITIONS), RadioConfig(radio_range=160)
        )
        nodes = {i: Recorder(world, i) for i in order}
        return sim, world, nodes

    def test_neighbors_sorted_regardless_of_attach_order(self):
        m = len(self.POSITIONS)
        _, world_fwd, _ = self.build(range(m))
        _, world_rev, _ = self.build(reversed(range(m)))
        for i in range(m):
            fwd = world_fwd.neighbors(i)
            assert fwd == world_rev.neighbors(i)
            assert fwd == sorted(fwd)
            assert world_fwd.reachable_from(i) == world_rev.reachable_from(i)

    def test_broadcast_receiver_order_attach_order_independent(self):
        m = len(self.POSITIONS)
        results = []
        for order in (list(range(m)), list(reversed(range(m)))):
            sim, world, nodes = self.build(order)
            receivers = world.broadcast(
                Frame(kind=FrameKind.QUERY, src=1, dst=None, payload=None,
                      size_bytes=10)
            )
            sim.run()
            delivered = [
                i for i in sorted(nodes) for f, _ in nodes[i].received
            ]
            results.append((receivers, delivered))
        assert results[0] == results[1]
        assert results[0][0] == sorted(results[0][0])


class TestEndToEndDifferential:
    @pytest.mark.parametrize("strategy", ["bf", "df"])
    def test_full_simulation_identical_with_and_without_cache(
        self, strategy, monkeypatch
    ):
        """An entire MANET run (mobility, AODV, skyline protocol, fault
        schedule) replays bit-identically on cached and uncached worlds."""
        from repro.data import QueryRequest, make_global_dataset
        from repro.faults import FaultSchedule
        from repro.protocol import SimulationConfig, run_manet_simulation

        dataset = make_global_dataset(600, 2, 9, "independent", seed=17,
                                      value_step=1.0)
        workload = [
            QueryRequest(device=4, time=1.0, distance=500.0),
            QueryRequest(device=0, time=40.0, distance=400.0),
            QueryRequest(device=7, time=90.0, distance=600.0),
        ]
        faults = FaultSchedule.generate(
            node_count=9, sim_time=200.0, seed=23,
            crash_fraction=0.3, mean_downtime=40.0, link_blackouts=3,
            protect=(0, 4, 7),
        )
        base = SimulationConfig(
            strategy=strategy, sim_time=200.0, seed=99, faults=faults,
        )
        variants = {
            "cached-bulk": World,
            "cached-reference": ReferenceIndexWorld,
            "uncached": UncachedWorld,
        }
        outs = {}
        for name, world_cls in variants.items():
            with monkeypatch.context() as patch:
                install_world(patch, world_cls)
                outs[name] = run_manet_simulation(dataset, workload, base)
        a = outs["cached-bulk"]
        for b in (outs["cached-reference"], outs["uncached"]):
            assert a.events == b.events
            assert a.issued == b.issued and a.suppressed == b.suppressed
            assert a.fault_events == b.fault_events
            assert a.traffic.transmissions == b.traffic.transmissions
            assert a.traffic.deliveries == b.traffic.deliveries
            assert a.traffic.drops == b.traffic.drops
            assert a.traffic.by_kind == b.traffic.by_kind
            assert a.energy_joules == b.energy_joules
            assert len(a.records) == len(b.records)
            for ra, rb in zip(a.records, b.records):
                assert ra.issue_time == rb.issue_time
                assert ra.originator == rb.originator
                assert ra.completion_time == rb.completion_time


    @pytest.mark.parametrize("build", ["cached-reference", "uncached"])
    def test_subscription_run_identical_on_oracle_worlds(
        self, build, monkeypatch
    ):
        """A delta-maintained subscription under moving nodes replays
        identically on the reference-build and uncached worlds."""
        from repro.continuous import ContinuousConfig, run_continuous_simulation

        config = ContinuousConfig(
            mode="delta", devices=9, cardinality=600, epochs=3,
            interval=15.0, data_updates=4, seed=11,
        )
        fast = run_continuous_simulation(config)
        world_cls = (ReferenceIndexWorld if build == "cached-reference"
                     else UncachedWorld)
        with monkeypatch.context() as patch:
            install_world(patch, world_cls)
            ref = run_continuous_simulation(config)
        assert fast.traffic.transmissions == ref.traffic.transmissions
        assert fast.traffic.deliveries == ref.traffic.deliveries
        assert fast.traffic.drops == ref.traffic.drops
        assert fast.traffic.by_kind == ref.traffic.by_kind
        assert fast.update_events == ref.update_events
        assert [(e.epoch, e.messages, e.divergence) for e in fast.epochs] == [
            (e.epoch, e.messages, e.divergence) for e in ref.epochs
        ]
        assert fast.messages_per_refresh == ref.messages_per_refresh


class TestLargeWorld:
    """m=2,025 moving nodes, the smallest scale point of the 10k-node
    simulator, with a crash, a link blackout and a partition cut: the
    candidate rows and the full build both match the Python-loop
    reference build."""

    M = 2025

    def build(self, world_cls):
        side = 1000.0 * (self.M / 50.0) ** 0.5  # ~m/8 nodes per radio disk
        sim, world, _ = waypoint_world(
            m=self.M, seed=1234, radio_range=250.0,
            extent=(0.0, 0.0, side, side), world_cls=world_cls,
        )
        world.fail_node(7)
        world.set_link_blackout(*self.linked_pair(world), True)
        world.set_partition("x", side / 2, True)
        return sim, world

    @staticmethod
    def linked_pair(world):
        """Two nodes in range at time 0, so the blackout cuts a link."""
        m = world.mobility.node_count
        for i in range(m):
            for j in range(m):
                if world.in_range(i, j):
                    return i, j
        raise AssertionError("no link at time 0")

    def test_rows_and_full_build_match_reference_build(self):
        sim, world = self.build(World)
        ref_sim, ref = self.build(ReferenceIndexWorld)
        assert world._blackouts == ref._blackouts
        probes = list(range(0, self.M, 97))
        for t in (0.0, 45.0, 130.0, 400.0):
            sim.run(until=t)
            ref_sim.run(until=t)
            rebuilds = world._index.rebuilds
            # Rows: however many distinct rows a new time asks for, each
            # is answered from the node's candidates, with no build.
            for node in probes:
                assert world.neighbors(node) == ref.neighbors(node), (node, t)
            assert world._index.rebuilds == rebuilds
            # ``reachable_from`` builds the full adjacency once, and the
            # rows read afterwards come from it.
            for node in probes:
                assert world.reachable_from(node) == ref.reachable_from(node)
            assert world._index.rebuilds == rebuilds + 1
            for node in range(self.M):
                assert world.neighbors(node) == ref.neighbors(node), (node, t)


class TestUnattachedNodeFallback:
    def test_neighbors_of_unattached_mobility_slot(self):
        """A mobility slot with no attached device is not a node of the
        network: ``neighbors`` refuses it as ``reachable_from`` does,
        even when it lies in range of attached nodes, on either build."""
        for world_cls in BUILDS.values():
            world = world_cls(
                Simulator(),
                StaticPlacement([(0, 0), (100, 0), (120, 0)]),
                RadioConfig(radio_range=150),
            )
            Recorder(world, 0)
            Recorder(world, 1)
            # slot 2 never attached; query it anyway
            with pytest.raises(ValueError, match="unknown node 2"):
                world.neighbors(2)
            with pytest.raises(ValueError, match="unknown node 2"):
                world.reachable_from(2)
            assert world.neighbors(0) == [1]


def static_world(m=24, seed=5, radio_range=180.0, side=600.0,
                 world_cls=World):
    rng = np.random.default_rng(seed)
    positions = [tuple(p) for p in rng.uniform(0.0, side, size=(m, 2))]
    sim = Simulator()
    world = world_cls(sim, StaticPlacement(positions),
                      RadioConfig(radio_range=radio_range), seed=seed)
    nodes = [Recorder(world, i) for i in range(m)]
    return sim, world, nodes


class TestStaticTopology:
    """A static world keys its caches on the connectivity epoch alone:
    answers must still equal the uncached reference at every time and
    after every fault transition."""

    def test_model_types_declare_whether_they_move(self):
        assert StaticPlacement([(0, 0)]).static is True
        assert RandomWaypoint(2, seed=1).static is False

    @pytest.mark.parametrize("build", list(BUILDS))
    def test_faults_at_many_times_match_reference(self, build):
        m = 24
        sim, world, _ = static_world(m=m, world_cls=BUILDS[build])
        rng = np.random.default_rng(8)
        times = np.sort(rng.uniform(0.0, 900.0, size=120))
        for k, t in enumerate(times):
            sim.run(until=float(t))
            action = k % 8
            node = int(rng.integers(m))
            if action == 0:
                world.fail_node(node)
            elif action == 1:
                world.restore_node(node)
            elif action == 2:
                a, b = rng.choice(m, size=2, replace=False)
                world.set_link_blackout(int(a), int(b), True)
            elif action == 3 and world._blackouts:
                a, b = sorted(next(iter(world._blackouts)))
                world.set_link_blackout(a, b, False)
            elif action == 4:
                world.set_partition(str(rng.choice(["x", "y"])),
                                    float(rng.uniform(100.0, 500.0)), True)
            elif action == 5 and world._partitions:
                axis, coord = world._partitions[0]
                world.set_partition(axis, coord, False)
            # actions 6 and 7 only advance time
            assert_world_agrees(world)

    def test_rebuilds_follow_epoch_bumps_not_time(self):
        sim, world, _ = static_world()
        world.neighbors(0)
        world.reachable_from(0)
        before = world._index.rebuilds
        for t in (1.0, 2.5, 40.0, 300.0, 301.0):
            sim.run(until=t)
            for i in world.node_ids:
                world.neighbors(i)
                world.reachable_from(i)
        assert world._index.rebuilds == before
        world.fail_node(3)
        sim.run(until=302.0)
        world.reachable_from(0)
        world.neighbors(1)
        assert world._index.rebuilds == before + 1
        world.set_partition("x", 300.0, True)
        sim.run(until=400.0)
        world.reachable_from(0)
        assert world._index.rebuilds == before + 2

    def test_positions_swept_once(self):
        sim, world, _ = static_world()
        calls = []
        sweep = world.mobility.positions

        def counted(t):
            calls.append(t)
            return sweep(t)

        world.mobility.positions = counted
        for t in (0.0, 5.0, 60.0, 61.0):
            sim.run(until=t)
            world.positions()
            world.reachable_from(0)
        world.fail_node(0)
        world.reachable_from(1)
        assert len(calls) == 1

    def test_returned_reachable_set_is_a_copy(self):
        sim, world, _ = static_world()
        first = world.reachable_from(0)
        expected = set(first)
        first.clear()
        first.add(-1)
        sim.run(until=10.0)
        assert world.reachable_from(0) == expected
        again = world.reachable_from(0)
        assert again is not world.reachable_from(0)

    def test_moving_world_rebuilds_when_time_advances(self):
        sim, world, _ = waypoint_world(m=10)
        world.reachable_from(0)
        before = world._index.rebuilds
        for step, t in enumerate((5.0, 10.0, 15.0), start=1):
            sim.run(until=t)
            world.reachable_from(0)
            assert world._index.rebuilds == before + step
            assert_world_agrees(world)


class TestOneSweepPerQuery:
    def test_bf_issue_and_flood_sweep_positions_once(self):
        """At the paper's default point (m=25, r=250 m, d=500 m) the
        originator's reachability snapshot opens the candidate window
        that its flood's rows then read: one ``mobility.positions``
        sweep per query, and one adjacency build."""
        from repro.data import make_global_dataset
        from repro.protocol import SimulationConfig, build_network

        dataset = make_global_dataset(2_500, 2, 25, "independent", seed=3,
                                      value_step=1.0)
        sim, world, devices = build_network(
            dataset, SimulationConfig(strategy="bf", seed=5)
        )
        sweeps = []
        sweep = world.mobility.positions

        def counted(t):
            sweeps.append(t)
            return sweep(t)

        world.mobility.positions = counted
        origins = (4, 11, 19, 0, 23)
        for k, origin in enumerate(origins):
            sim.run(until=1200.0 * (k + 1))
            rebuilds = world._index.rebuilds
            record = devices[origin].issue_query(500.0)
            sim.run(until=sim.now + 1200.0)
            assert record.closed and record.contributions
            assert len(sweeps) == k + 1
            assert world._index.rebuilds == rebuilds + 1
