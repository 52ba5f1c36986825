"""Fault subsystem: schedules, the injector, world fault state, coverage.

The contract under test: fault schedules are deterministic data, the
injector replays them bit-for-bit against the world, crashed nodes
neither transmit nor receive (and lose their protocol state), and the
coverage metric reports exactly the contributing fraction of the
issue-time-reachable fleet.
"""

import pytest

from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.metrics import mean_coverage, query_coverage
from repro.net import (
    Frame,
    FrameKind,
    RadioConfig,
    Simulator,
    StaticPlacement,
    World,
)
from repro.obs import Observer

from .oracles.world import UncachedWorld


class Recorder:
    """Minimal node: records deliveries and crash/recover hook calls."""

    def __init__(self, world, node_id):
        self.node_id = node_id
        self.received = []
        self.crashes = 0
        self.recoveries = 0
        world.attach(self)

    def on_frame(self, frame, sender):
        self.received.append((frame, sender))

    def on_crash(self):
        self.crashes += 1

    def on_recover(self):
        self.recoveries += 1


def make_world(positions, radio=None, seed=0):
    sim = Simulator()
    world = World(sim, StaticPlacement(positions), radio or RadioConfig(), seed=seed)
    nodes = [Recorder(world, i) for i in range(len(positions))]
    return sim, world, nodes


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError, match="time"):
            FaultEvent(time=-1.0, kind="node-crash", node=0)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(time=0.0, kind="meteor-strike")
        with pytest.raises(ValueError, match="needs a node"):
            FaultEvent(time=0.0, kind="node-crash")
        with pytest.raises(ValueError, match="distinct"):
            FaultEvent(time=0.0, kind="link-down", link=(3, 3))
        with pytest.raises(ValueError, match="loss_rate"):
            FaultEvent(time=0.0, kind="loss-burst-start")
        with pytest.raises(ValueError, match="loss_rate"):
            FaultEvent(time=0.0, kind="loss-burst-start", loss_rate=1.5)

    def test_link_stored_sorted(self):
        event = FaultEvent(time=1.0, kind="link-down", link=(5, 2))
        assert event.link == (2, 5)

    def test_signature(self):
        event = FaultEvent(time=2.0, kind="node-crash", node=7)
        assert event.signature() == (
            2.0, "node-crash", 7, None, None, None, None, None,
        )

    def test_new_kind_validation(self):
        with pytest.raises(ValueError, match="axis"):
            FaultEvent(time=0.0, kind="partition-split", coord=10.0)
        with pytest.raises(ValueError, match="axis"):
            FaultEvent(time=0.0, kind="partition-split", axis="z", coord=1.0)
        with pytest.raises(ValueError, match="coord"):
            FaultEvent(time=0.0, kind="partition-heal", axis="x")
        with pytest.raises(ValueError, match="loss_rate"):
            FaultEvent(time=0.0, kind="dup-start")
        with pytest.raises(ValueError, match="loss_rate"):
            FaultEvent(time=0.0, kind="dup-start", loss_rate=1.5)
        with pytest.raises(ValueError, match="jitter"):
            FaultEvent(time=0.0, kind="jitter-start")
        with pytest.raises(ValueError, match="jitter"):
            FaultEvent(time=0.0, kind="jitter-start", jitter=0.0)


class TestFaultSchedule:
    def test_builders_chain_and_order(self):
        schedule = (
            FaultSchedule()
            .crash(10.0, node=3, downtime=5.0)
            .link_blackout(2.0, 1, 0, duration=4.0)
            .loss_burst(7.0, rate=0.9, duration=1.0)
        )
        kinds = [e.kind for e in schedule]
        times = [e.time for e in schedule]
        assert times == sorted(times)
        assert kinds == [
            "link-down", "link-up", "loss-burst-start",
            "loss-burst-end", "node-crash", "node-recover",
        ]
        assert len(schedule) == 6 and bool(schedule)

    def test_crash_without_downtime_never_recovers(self):
        schedule = FaultSchedule().crash(1.0, node=0)
        assert [e.kind for e in schedule] == ["node-crash"]

    def test_invalid_durations(self):
        with pytest.raises(ValueError):
            FaultSchedule().crash(1.0, node=0, downtime=0.0)
        with pytest.raises(ValueError):
            FaultSchedule().link_blackout(1.0, 0, 1, duration=-2.0)
        with pytest.raises(ValueError):
            FaultSchedule().loss_burst(1.0, rate=0.5, duration=0.0)

    def test_generate_deterministic(self):
        kwargs = dict(
            node_count=20, sim_time=300.0, crash_fraction=0.4,
            link_blackouts=3, loss_bursts=2,
        )
        a = FaultSchedule.generate(seed=42, **kwargs)
        b = FaultSchedule.generate(seed=42, **kwargs)
        c = FaultSchedule.generate(seed=43, **kwargs)
        assert a.signature() == b.signature()
        assert a.signature() != c.signature()

    def test_generate_crash_fraction_and_protect(self):
        schedule = FaultSchedule.generate(
            node_count=10, sim_time=100.0, seed=7,
            crash_fraction=0.5, protect=(0, 1),
        )
        crashed = {e.node for e in schedule if e.kind == "node-crash"}
        assert len(crashed) == 5
        assert not set(crashed) & {0, 1}
        assert all(0.0 <= e.time < 100.0 for e in schedule
                   if e.kind == "node-crash")

    def test_generate_window(self):
        schedule = FaultSchedule.generate(
            node_count=10, sim_time=100.0, seed=7,
            crash_fraction=1.0, window=(40.0, 60.0),
        )
        assert all(40.0 <= e.time < 60.0 for e in schedule
                   if e.kind == "node-crash")

    def test_generate_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule.generate(node_count=0, sim_time=10.0, seed=1)
        with pytest.raises(ValueError):
            FaultSchedule.generate(
                node_count=2, sim_time=10.0, seed=1, crash_fraction=1.5
            )
        with pytest.raises(ValueError):
            FaultSchedule.generate(
                node_count=2, sim_time=10.0, seed=1, window=(5.0, 20.0)
            )


class TestWorldFaults:
    def test_crashed_node_does_not_transmit(self):
        sim, world, nodes = make_world([(0, 0), (100, 0)])
        world.fail_node(0)
        failures = []
        world.send(
            Frame(kind=FrameKind.DATA, src=0, dst=1),
            on_failure=failures.append,
        )
        assert world.broadcast(Frame(kind=FrameKind.QUERY, src=0, dst=None)) == []
        sim.run()
        assert nodes[1].received == []
        # a dead transmitter radiates nothing: no drop stats, no callbacks
        assert failures == []
        assert world.stats.transmissions == 0

    def test_frame_to_crashed_node_dropped_with_callback(self):
        sim, world, nodes = make_world([(0, 0), (100, 0)])
        world.fail_node(1)
        failures = []
        world.send(
            Frame(kind=FrameKind.DATA, src=0, dst=1),
            on_failure=failures.append,
        )
        sim.run()
        assert nodes[1].received == []
        assert len(failures) == 1
        assert world.stats.drops == 1

    def test_crash_mid_flight_drops_inflight_frame(self):
        sim, world, nodes = make_world([(0, 0), (100, 0)])
        world.send(Frame(kind=FrameKind.DATA, src=0, dst=1))
        world.fail_node(1)  # crashes before the transfer delay elapses
        sim.run()
        assert nodes[1].received == []

    def test_crash_and_recover_hooks(self):
        sim, world, nodes = make_world([(0, 0), (100, 0)])
        world.fail_node(1)
        assert not world.node_is_up(1)
        assert list(world.down_nodes) == [1]
        world.restore_node(1)
        assert world.node_is_up(1)
        assert nodes[1].crashes == 1
        assert nodes[1].recoveries == 1
        world.send(Frame(kind=FrameKind.DATA, src=0, dst=1))
        sim.run()
        assert len(nodes[1].received) == 1

    def test_link_blackout_blocks_one_pair_only(self):
        sim, world, nodes = make_world([(0, 0), (100, 0), (200, 0)])
        world.set_link_blackout(0, 1, True)
        assert world.link_blacked_out(1, 0)
        assert not world.can_communicate(0, 1)
        assert world.can_communicate(1, 2)
        assert world.neighbors(1) == [2]
        failures = []
        world.send(
            Frame(kind=FrameKind.DATA, src=0, dst=1),
            on_failure=failures.append,
        )
        world.send(Frame(kind=FrameKind.DATA, src=1, dst=2))
        sim.run()
        assert nodes[1].received == []
        assert len(failures) == 1
        assert len(nodes[2].received) == 1
        world.set_link_blackout(0, 1, False)
        world.send(Frame(kind=FrameKind.DATA, src=0, dst=1))
        sim.run()
        assert len(nodes[1].received) == 1

    def test_loss_override(self):
        sim, world, nodes = make_world([(0, 0), (100, 0)])
        assert world.effective_loss_rate == 0.0
        world.set_loss_override(1.0)
        assert world.effective_loss_rate == 1.0
        for _ in range(20):
            world.send(Frame(kind=FrameKind.DATA, src=0, dst=1))
        sim.run()
        assert nodes[1].received == []
        world.set_loss_override(None)
        world.send(Frame(kind=FrameKind.DATA, src=0, dst=1))
        sim.run()
        assert len(nodes[1].received) == 1
        with pytest.raises(ValueError):
            world.set_loss_override(2.0)

    def test_reachable_from(self):
        # 0-1-2 a chain (adjacent pairs only, range 250), 3 isolated
        _, world, _ = make_world([(0, 0), (200, 0), (400, 0), (2000, 0)])
        assert world.reachable_from(0) == {0, 1, 2}
        world.fail_node(1)
        assert world.reachable_from(0) == {0}
        world.restore_node(1)
        world.set_link_blackout(1, 2, True)
        assert world.reachable_from(0) == {0, 1}
        with pytest.raises(ValueError):
            world.reachable_from(99)


class TestFaultInjector:
    def test_applies_schedule_and_records_trace(self):
        sim, world, nodes = make_world([(0, 0), (100, 0)])
        schedule = (
            FaultSchedule()
            .crash(1.0, node=1, downtime=2.0)
            .link_blackout(4.0, 0, 1, duration=1.0)
            .loss_burst(6.0, rate=0.7, duration=1.0)
        )
        observer = Observer().bind(world)
        injector = FaultInjector(schedule).install(world)
        seen = []
        sim.schedule_at(1.5, lambda: seen.append(world.node_is_up(1)))
        sim.schedule_at(3.5, lambda: seen.append(world.node_is_up(1)))
        sim.schedule_at(4.5, lambda: seen.append(world.link_blacked_out(0, 1)))
        sim.schedule_at(5.5, lambda: seen.append(world.link_blacked_out(0, 1)))
        sim.schedule_at(6.5, lambda: seen.append(world.effective_loss_rate))
        sim.schedule_at(7.5, lambda: seen.append(world.effective_loss_rate))
        sim.run()
        assert seen == [False, True, True, False, 0.7, 0.0]
        assert len(injector.applied) == len(schedule)
        assert all(applied[-1] for applied in injector.applied)
        assert [(f.name, f.time) for f in observer.faults] == [
            ("fault.node-crash", 1.0),
            ("fault.node-recover", 3.0),
            ("fault.link-down", 4.0),
            ("fault.link-up", 5.0),
            ("fault.loss-override", 6.0),
            ("fault.loss-override", 7.0),
        ]

    def test_redundant_transitions_marked_ineffective(self):
        sim, world, _ = make_world([(0, 0), (100, 0)])
        schedule = FaultSchedule().crash(1.0, node=1).crash(2.0, node=1)
        injector = FaultInjector(schedule).install(world)
        sim.run()
        assert [a[-1] for a in injector.applied] == [True, False]

    def test_nested_loss_bursts_restore_outer_rate(self):
        sim, world, _ = make_world([(0, 0), (100, 0)])
        schedule = (
            FaultSchedule()
            .loss_burst(1.0, rate=0.5, duration=10.0)
            .loss_burst(3.0, rate=0.9, duration=2.0)
        )
        FaultInjector(schedule).install(world)
        seen = []
        for t in (2.0, 4.0, 6.0, 12.0):
            sim.schedule_at(t, lambda: seen.append(world.effective_loss_rate))
        sim.run()
        assert seen == [0.5, 0.9, 0.5, 0.0]

    def test_double_install_rejected(self):
        sim, world, _ = make_world([(0, 0)])
        injector = FaultInjector(FaultSchedule()).install(world)
        with pytest.raises(RuntimeError):
            injector.install(world)

    def test_identical_runs_identical_applied_signature(self):
        def run():
            sim, world, _ = make_world([(0, 0), (100, 0), (200, 0)], seed=3)
            schedule = FaultSchedule.generate(
                node_count=3, sim_time=50.0, seed=11,
                crash_fraction=0.7, link_blackouts=1, loss_bursts=1,
            )
            injector = FaultInjector(schedule).install(world)
            sim.run()
            return injector.applied_signature()

        assert run() == run()


class TestOverlappingFaultWindows:
    """Faults stacked inside other faults' windows (satellite: the
    injector must compose transitions, not assume disjoint windows)."""

    def test_crash_inside_link_blackout(self):
        # Blackout 0-1 over [1, 10); node 1 crashes and recovers inside
        # that window. After both windows end, the pair communicates.
        sim, world, nodes = make_world([(0, 0), (100, 0)])
        schedule = (
            FaultSchedule()
            .link_blackout(1.0, 0, 1, duration=9.0)
            .crash(3.0, node=1, downtime=4.0)
        )
        injector = FaultInjector(schedule).install(world)
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(
            (world.node_is_up(1), world.can_communicate(0, 1))))
        sim.schedule_at(8.0, lambda: seen.append(
            (world.node_is_up(1), world.can_communicate(0, 1))))
        sim.schedule_at(11.0, lambda: seen.append(
            (world.node_is_up(1), world.can_communicate(0, 1))))
        sim.run()
        # crashed+blacked-out; recovered but still blacked-out; clean
        assert seen == [(False, False), (True, False), (True, True)]
        assert all(applied[-1] for applied in injector.applied)
        assert nodes[1].crashes == 1 and nodes[1].recoveries == 1

    def test_back_to_back_loss_bursts(self):
        # Second burst starts exactly when the first ends. The kind
        # order in FAULT_KINDS is the same-time tiebreak and lists
        # start before end, so at the shared instant the LIFO override
        # stack becomes [0.9, 0.4] and the end pops 0.4 — the first
        # burst's rate stays in force until the second burst's own end
        # empties the stack. Crucially, no instant ever sees rate 0.
        sim, world, _ = make_world([(0, 0), (100, 0)])
        schedule = (
            FaultSchedule()
            .loss_burst(1.0, rate=0.9, duration=4.0)
            .loss_burst(5.0, rate=0.4, duration=4.0)
        )
        FaultInjector(schedule).install(world)
        seen = []
        for t in (2.0, 6.0, 10.0):
            sim.schedule_at(t, lambda: seen.append(world.effective_loss_rate))
        sim.run()
        assert seen == [0.9, 0.9, 0.0]


class TestPartitionFaults:
    def test_partition_blocks_cross_side_communication(self):
        # Chain 0-1-2-3 along x; cut at x=350 separates {0,1} from {2,3}.
        sim, world, nodes = make_world(
            [(0, 0), (200, 0), (400, 0), (600, 0)]
        )
        assert world.can_communicate(1, 2)
        assert world.set_partition("x", 350.0, True)
        assert world._partitions == [("x", 350.0)]
        assert not world.can_communicate(1, 2)
        assert world.can_communicate(0, 1)
        assert world.can_communicate(2, 3)
        assert world.reachable_from(0) == {0, 1}
        failures = []
        world.send(
            Frame(kind=FrameKind.DATA, src=1, dst=2),
            on_failure=failures.append,
        )
        sim.run()
        assert nodes[2].received == []
        assert len(failures) == 1
        # healing an active cut is effective, healing again is not
        assert world.set_partition("x", 350.0, False)
        assert not world.set_partition("x", 350.0, False)
        assert world.can_communicate(1, 2)

    def test_cached_and_uncached_sides_agree(self):
        positions = [(50.0 * i, 40.0 * ((i * 7) % 5)) for i in range(12)]
        for cached in (True, False):
            sim = Simulator()
            world_cls = World if cached else UncachedWorld
            world = world_cls(
                sim, StaticPlacement(positions), RadioConfig(), seed=0,
            )
            for i in range(len(positions)):
                Recorder(world, i)
            world.set_partition("x", 260.0, True)
            world.set_partition("y", 90.0, True)
            answer = [world.neighbors(i) for i in range(len(positions))]
            if cached:
                cached_answer = answer
        assert answer == cached_answer

    def test_partition_validation(self):
        _, world, _ = make_world([(0, 0), (100, 0)])
        with pytest.raises(ValueError):
            world.set_partition("z", 100.0, True)

    def test_same_cut_windows_stack(self):
        # Two overlapping windows of the identical cut: splits stack,
        # each heal removes one copy, so the cut stays active until the
        # outer window's heal — and the inner heal is still "effective".
        sim, world, _ = make_world([(0, 0), (500, 0)])
        schedule = (
            FaultSchedule()
            .partition(1.0, "x", 250.0, duration=10.0)
            .partition(2.0, "x", 250.0, duration=3.0)
        )
        injector = FaultInjector(schedule).install(world)
        seen = []
        for t in (6.0, 12.0):
            sim.schedule_at(t, lambda: seen.append(len(world._partitions)))
        sim.run()
        assert seen == [1, 0]  # inner heal left the outer window active
        assert [a[-1] for a in injector.applied] == [True, True, True, True]


class TestDuplicationFaults:
    def test_rate_one_doubles_unicast_deliveries(self):
        sim, world, nodes = make_world([(0, 0), (100, 0)])
        world.set_duplication(1.0)
        world.send(Frame(kind=FrameKind.DATA, src=0, dst=1))
        sim.run()
        assert len(nodes[1].received) == 2
        assert world.stats.duplicates == 1
        world.set_duplication(None)
        world.send(Frame(kind=FrameKind.DATA, src=0, dst=1))
        sim.run()
        assert len(nodes[1].received) == 3
        with pytest.raises(ValueError):
            world.set_duplication(1.5)

    def test_rate_one_doubles_broadcast_deliveries(self):
        sim, world, nodes = make_world([(0, 0), (100, 0), (200, 0)])
        world.set_duplication(1.0)
        world.broadcast(Frame(kind=FrameKind.QUERY, src=1, dst=None))
        sim.run()
        assert len(nodes[0].received) == 2
        assert len(nodes[2].received) == 2
        assert world.stats.duplicates == 2

    def test_windows_stack_like_loss_bursts(self):
        sim, world, _ = make_world([(0, 0), (100, 0)])
        schedule = (
            FaultSchedule()
            .duplication(1.0, rate=0.5, duration=10.0)
            .duplication(3.0, rate=0.9, duration=2.0)
        )
        FaultInjector(schedule).install(world)
        seen = []
        for t in (2.0, 4.0, 6.0, 12.0):
            sim.schedule_at(t, lambda: seen.append(world._dup_rate))
        sim.run()
        assert seen == [0.5, 0.9, 0.5, 0.0]


class TestJitterFaults:
    def test_jitter_delays_but_delivers(self):
        sim, world, nodes = make_world([(0, 0), (100, 0)])
        base = world.radio.transfer_delay(
            Frame(kind=FrameKind.DATA, src=0, dst=1).size_bytes
        )
        world.set_delay_jitter(0.5)
        arrivals = []
        for _ in range(10):
            world.send(Frame(kind=FrameKind.DATA, src=0, dst=1))
        nodes[1].on_frame = lambda frame, sender: arrivals.append(sim.now)
        sim.run()
        assert len(arrivals) == 10
        assert all(base - 1e-12 <= t <= base + 0.5 + 1e-12 for t in arrivals)
        assert any(t > base + 1e-12 for t in arrivals)
        world.set_delay_jitter(None)
        with pytest.raises(ValueError):
            world.set_delay_jitter(-0.1)

    def test_jittered_runs_stay_deterministic(self):
        def run():
            sim, world, nodes = make_world([(0, 0), (100, 0)], seed=5)
            world.set_delay_jitter(0.3)
            arrivals = []
            nodes[1].on_frame = lambda frame, sender: arrivals.append(sim.now)
            for _ in range(5):
                world.send(Frame(kind=FrameKind.DATA, src=0, dst=1))
            sim.run()
            return arrivals

        assert run() == run()


class TestGenerateNewFamilies:
    def test_generate_draws_all_families(self):
        schedule = FaultSchedule.generate(
            node_count=9, sim_time=100.0, seed=5,
            crash_fraction=0.3, link_blackouts=1, loss_bursts=1,
            partitions=2, dup_windows=1, jitter_windows=1,
        )
        kinds = {e.kind for e in schedule}
        assert "partition-split" in kinds
        assert "dup-start" in kinds and "dup-end" in kinds
        assert "jitter-start" in kinds and "jitter-end" in kinds
        for event in schedule:
            if event.kind == "partition-split":
                assert event.axis in ("x", "y")
                span = 1000.0
                assert 0.25 * span <= event.coord <= 0.75 * span

    def test_generate_deterministic_with_new_families(self):
        kwargs = dict(
            node_count=9, sim_time=100.0, crash_fraction=0.3,
            partitions=1, dup_windows=1, jitter_windows=1,
        )
        a = FaultSchedule.generate(seed=5, **kwargs)
        b = FaultSchedule.generate(seed=5, **kwargs)
        assert a.signature() == b.signature()

    def test_original_families_unchanged_by_extension(self):
        # Appending the new draw families must not disturb schedules
        # generated with only the original arguments: the crash /
        # blackout / burst draws happen first, exactly as before.
        kwargs = dict(
            node_count=9, sim_time=100.0, seed=5,
            crash_fraction=0.3, link_blackouts=1, loss_bursts=1,
        )
        plain = FaultSchedule.generate(**kwargs)
        extended = FaultSchedule.generate(
            partitions=1, dup_windows=1, jitter_windows=1, **kwargs
        )
        old_kinds = (
            "node-crash", "node-recover", "link-down", "link-up",
            "loss-burst-start", "loss-burst-end",
        )
        assert tuple(
            e.signature() for e in extended if e.kind in old_kinds
        ) == plain.signature()


class _StubRecord:
    def __init__(self, coverage):
        self._coverage = coverage

    def coverage(self):
        return self._coverage


class TestCoverageMetrics:
    def test_query_record_coverage(self):
        from repro.core.query import SkylineQuery
        from repro.protocol.device import QueryRecord

        def record(reachable, contributing, originator=0):
            r = QueryRecord(
                query=SkylineQuery(origin=originator, cnt=1, pos=(0, 0), d=10.0),
                issue_time=0.0, originator=originator,
                local_unreduced=0, local_reduced=0, assembler=None,
                reachable_at_issue=frozenset(reachable),
            )
            r.contributions = {d: object() for d in contributing}
            return r

        assert record((), ()).coverage() is None  # pre-accounting record
        assert record((0,), ()).coverage() == 1.0  # nothing else reachable
        assert record((0, 1, 2, 3, 4), (1, 2)).coverage() == pytest.approx(0.5)
        # contributions from devices outside the snapshot don't inflate it
        assert record((0, 1, 2), (1, 2, 7)).coverage() == pytest.approx(1.0)

    def test_mean_coverage(self):
        records = [_StubRecord(1.0), _StubRecord(0.5), _StubRecord(None)]
        assert query_coverage(records[1]) == 0.5
        assert mean_coverage(records) == pytest.approx(0.75)
        assert mean_coverage([]) is None
        assert mean_coverage([_StubRecord(None)]) is None
