"""Differential tests for wave broadcast delivery.

:class:`~repro.net.World` fires one engine event per broadcast wave and
fans out to receivers inside it;
:class:`~tests.oracles.world.PerReceiverWorld` is the original
one-event-per-receiver reference. The two must replay *bit for bit* in
every result-bearing quantity — traffic counters, query records,
contributions, completion reports, energy, observability spans/metrics —
across full BF/DF/continuous runs under fault schedules (crashes,
blackouts, loss bursts, duplication, delay jitter, partitions) and
mobility. Only the engine's raw event tally may differ.
"""

import pytest

from repro.data import QueryRequest, make_global_dataset
from repro.faults import FaultSchedule
from repro.net import (
    Frame,
    FrameKind,
    RadioConfig,
    Simulator,
    StaticPlacement,
    World,
)
from repro.protocol import SimulationConfig, run_manet_simulation

from .oracles.engine import live_pending_scan
from .oracles.world import PerReceiverWorld, install_world

#: Delivery mode -> the world class that implements it.
WORLDS = {"wave": World, "per_receiver": PerReceiverWorld}


class Recorder:
    """Minimal attachable node: logs ``(sim_time, sender)`` deliveries."""

    def __init__(self, world, node_id):
        self.node_id = node_id
        self.world = world
        self.received = []
        world.attach(self)

    def on_frame(self, frame, sender):
        self.received.append((self.world.sim.now, sender))


def line_world(delivery, positions=((0, 0), (100, 0), (200, 0)),
               radio_range=250.0, seed=5):
    sim = Simulator()
    world = WORLDS[delivery](
        sim, StaticPlacement(list(positions)),
        RadioConfig(radio_range=radio_range), seed=seed,
    )
    nodes = [Recorder(world, i) for i in range(len(positions))]
    return sim, world, nodes


def qframe(src, size_bytes=64):
    return Frame(kind=FrameKind.QUERY, src=src, dst=None, payload=None,
                 size_bytes=size_bytes)


def snapshot(world, nodes):
    """Everything an edge-case test compares between delivery modes."""
    return {
        "received": [n.received for n in nodes],
        "tx": world.stats.transmissions,
        "deliveries": world.stats.deliveries,
        "drops": world.stats.drops,
        "duplicates": world.stats.duplicates,
        "by_kind": dict(world.stats.by_kind),
    }


# -- wave edge cases ---------------------------------------------------------


class TestWaveEdgeCases:
    """Frames in flight when fault state changes between schedule and
    fire must resolve identically in both delivery modes."""

    def both_modes(self, scenario):
        outs = {}
        for mode in WORLDS:
            outs[mode] = scenario(mode)
        assert outs["wave"] == outs["per_receiver"]
        return outs["wave"]

    def test_receiver_crashes_mid_wave(self):
        def scenario(mode):
            sim, world, nodes = line_world(mode)
            world.broadcast(qframe(0))
            # Crash receiver 2 after the wave is scheduled but before it
            # is delivered (transfer delay ≈ 2.3 ms).
            sim.schedule(0.001, world.fail_node, 2)
            sim.run()
            return snapshot(world, nodes)

        out = self.both_modes(scenario)
        assert out["received"][1] and not out["received"][2]
        assert out["drops"] == 1

    def test_blackout_opens_between_schedule_and_fire(self):
        def scenario(mode):
            sim, world, nodes = line_world(mode)
            world.broadcast(qframe(0))
            sim.schedule(0.001, world.set_link_blackout, 0, 1, True)
            sim.run()
            return snapshot(world, nodes)

        out = self.both_modes(scenario)
        assert not out["received"][1] and out["received"][2]
        assert out["drops"] == 1

    def test_earlier_receiver_callback_crashes_later_receiver(self):
        """Receiver callbacks run in sorted-id order inside one wave; a
        callback that crashes a later receiver of the *same* wave must
        suppress that delivery in both modes."""

        class Assassin(Recorder):
            def on_frame(self, frame, sender):
                super().on_frame(frame, sender)
                self.world.fail_node(2)

        def scenario(mode):
            sim = Simulator()
            world = WORLDS[mode](
                sim, StaticPlacement([(0, 0), (100, 0), (200, 0)]),
                RadioConfig(radio_range=250.0), seed=5,
            )
            nodes = [Assassin(world, 0), Assassin(world, 1),
                     Recorder(world, 2)]
            world.broadcast(qframe(0))
            sim.run()
            return snapshot(world, nodes)

        out = self.both_modes(scenario)
        assert out["received"][1] and not out["received"][2]
        assert out["drops"] == 1

    def test_duplication_window_delivers_in_reference_order(self):
        """With duplication at 1.0 every receiver hears the frame twice,
        the duplicate landing directly after its primary."""

        def scenario(mode):
            sim, world, nodes = line_world(mode)
            world.set_duplication(1.0)
            receivers = world.broadcast(qframe(0))
            sim.run()
            return (receivers, snapshot(world, nodes))

        receivers, out = self.both_modes(scenario)
        assert receivers == [1, 2]
        assert out["duplicates"] == 2
        assert len(out["received"][1]) == len(out["received"][2]) == 2

    def test_jitter_window_parity(self):
        """Delay jitter spreads one wave over distinct delivery times;
        the seeded draws and resulting order must match the reference."""

        def scenario(mode):
            sim, world, nodes = line_world(
                mode,
                positions=[(0, 0), (50, 0), (100, 0), (150, 0), (200, 0)],
                seed=123,
            )
            world.set_delay_jitter(0.5)
            world.broadcast(qframe(0))
            world.broadcast(qframe(4))
            sim.run()
            return snapshot(world, nodes)

        out = self.both_modes(scenario)
        # Every non-source node heard both broadcasts, at jittered times.
        times = {t for log in out["received"] for t, _ in log}
        assert len(times) > 2

    def test_jitter_and_duplication_stacked(self):
        def scenario(mode):
            sim, world, nodes = line_world(
                mode,
                positions=[(0, 0), (60, 0), (120, 0), (180, 0)],
                seed=77,
            )
            world.set_delay_jitter(0.25)
            world.set_duplication(0.5)
            for src in (0, 1, 2, 3):
                world.broadcast(qframe(src))
            sim.run()
            return snapshot(world, nodes)

        self.both_modes(scenario)

    def test_loss_draws_identical(self):
        def scenario(mode):
            sim, world, nodes = line_world(
                mode,
                positions=[(0, 0), (60, 0), (120, 0), (180, 0)],
                seed=31,
            )
            world.set_loss_override(0.4)
            for _ in range(10):
                world.broadcast(qframe(0))
            sim.run()
            return snapshot(world, nodes)

        self.both_modes(scenario)

    def test_wave_drains_engine_clean(self):
        sim, world, nodes = line_world("wave")
        world.set_duplication(1.0)
        world.broadcast(qframe(0))
        assert sim.live_pending > 0
        sim.run()
        assert sim.live_pending == 0 == live_pending_scan(sim)

    def test_crashed_source_radiates_nothing(self):
        def scenario(mode):
            sim, world, nodes = line_world(mode)
            world.fail_node(0)
            receivers = world.broadcast(qframe(0))
            sim.run()
            return (receivers, snapshot(world, nodes))

        receivers, out = self.both_modes(scenario)
        assert receivers == []
        assert out["tx"] == 0


# -- full-run differential ---------------------------------------------------


def _base_faults():
    return FaultSchedule.generate(
        node_count=9, sim_time=200.0, seed=23,
        crash_fraction=0.3, mean_downtime=40.0, link_blackouts=3,
        protect=(0, 4, 7),
    )


def _extended_faults():
    """All PR-6 fault families at once: churn, blackouts, loss bursts,
    duplication windows, jitter windows, and a partition cut."""
    return FaultSchedule.generate(
        node_count=9, sim_time=200.0, seed=31,
        crash_fraction=0.2, mean_downtime=20.0, link_blackouts=2,
        loss_bursts=1, dup_windows=2, dup_rate=0.5,
        jitter_windows=2, jitter_max=0.2, partitions=1,
        protect=(0, 4, 7),
    )


def assert_results_bit_identical(a, b):
    """Everything except the engine event tally must match exactly."""
    assert a.issued == b.issued and a.suppressed == b.suppressed
    assert a.fault_events == b.fault_events
    assert a.traffic.transmissions == b.traffic.transmissions
    assert a.traffic.deliveries == b.traffic.deliveries
    assert a.traffic.drops == b.traffic.drops
    assert a.traffic.duplicates == b.traffic.duplicates
    assert a.traffic.bytes_sent == b.traffic.bytes_sent
    assert a.traffic.by_kind == b.traffic.by_kind
    assert a.energy_joules == b.energy_joules
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.query.key == rb.query.key
        assert ra.issue_time == rb.issue_time
        assert ra.originator == rb.originator
        assert ra.completion_time == rb.completion_time
        assert ra.closed_at == rb.closed_at
        assert ra.reachable_at_issue == rb.reachable_at_issue
        assert (ra.reissues, ra.failovers, ra.aborted_by_crash) == \
               (rb.reissues, rb.failovers, rb.aborted_by_crash)
        assert sorted(ra.contributions) == sorted(rb.contributions)
        for dev, ca in ra.contributions.items():
            cb = rb.contributions[dev]
            assert (ca.unreduced_size, ca.reduced_size, ca.skipped,
                    ca.arrival_time) == \
                   (cb.unreduced_size, cb.reduced_size, cb.skipped,
                    cb.arrival_time)
        if ra.report is not None or rb.report is not None:
            assert ra.report is not None and rb.report is not None
            assert ra.report.outcome == rb.report.outcome
            assert ra.report.closed_at == rb.report.closed_at
            assert ra.report.contributed == rb.report.contributed
            assert (ra.report.unreachable_at_issue
                    == rb.report.unreachable_at_issue)
            assert ra.report.lost_to_fault == rb.report.lost_to_fault
            assert ra.report.deadline_expired == rb.report.deadline_expired


class TestFullRunDifferential:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_global_dataset(600, 2, 9, "independent", seed=17,
                                   value_step=1.0)

    @pytest.fixture(scope="class")
    def workload(self):
        return [
            QueryRequest(device=4, time=1.0, distance=500.0),
            QueryRequest(device=0, time=40.0, distance=400.0),
            QueryRequest(device=7, time=90.0, distance=600.0),
        ]

    @pytest.mark.parametrize("strategy", ["bf", "df"])
    @pytest.mark.parametrize("fault_family", ["base", "extended"])
    def test_simulation_identical_across_delivery_modes(
        self, dataset, workload, strategy, fault_family, monkeypatch
    ):
        faults = (_base_faults() if fault_family == "base"
                  else _extended_faults())
        base = SimulationConfig(
            strategy=strategy, sim_time=200.0, seed=99, faults=faults,
        )
        outs = {}
        for mode, world_cls in WORLDS.items():
            with monkeypatch.context() as patch:
                install_world(patch, world_cls)
                outs[mode] = run_manet_simulation(
                    dataset, workload, base, keep_network=True
                )
        assert_results_bit_identical(outs["wave"], outs["per_receiver"])
        for result in outs.values():
            # The run stops on the time bound, so timers may still be
            # pending — but the O(1) counter must agree with a scan.
            sim = result.network[0]
            assert sim.live_pending == live_pending_scan(sim)

    @pytest.mark.parametrize("strategy", ["bf", "df"])
    def test_obs_spans_and_metrics_identical(self, dataset, workload,
                                             strategy, monkeypatch):
        """Observability output (span structure in simulated time +
        metric counters) is delivery-mode independent."""
        from repro.obs import Observer

        base = SimulationConfig(
            strategy=strategy, sim_time=200.0, seed=99,
            faults=_extended_faults(),
        )
        summaries = {}
        for mode, world_cls in WORLDS.items():
            observer = Observer()
            with monkeypatch.context() as patch:
                install_world(patch, world_cls)
                run_manet_simulation(
                    dataset, workload, base, observer=observer,
                )
            summaries[mode] = (
                sorted(
                    (
                        (s.name, s.cat, s.query, s.node, s.t0, s.t1)
                        for s in observer.spans
                    ),
                    key=repr,
                ),
                {
                    name: value
                    for name, value in observer.metrics.snapshot().items()
                    # The raw event tally differs across modes by design,
                    # and wall-clock timings differ run to run.
                    if name != "sim.events" and "wall" not in name
                },
            )
        assert summaries["wave"][0] == summaries["per_receiver"][0]
        assert summaries["wave"][1] == summaries["per_receiver"][1]


class TestContinuousDifferential:
    def test_subscription_run_identical_across_delivery_modes(
        self, monkeypatch
    ):
        """A delta-maintained subscription (install flood, safe regions,
        routed deltas, refresh epochs) replays identically in both
        delivery modes."""
        from repro.continuous import ContinuousConfig, run_continuous_simulation

        base = ContinuousConfig(
            mode="delta", devices=9, cardinality=600, epochs=3,
            interval=15.0, data_updates=4, seed=11,
        )
        outs = {}
        for mode, world_cls in WORLDS.items():
            with monkeypatch.context() as patch:
                install_world(patch, world_cls)
                outs[mode] = run_continuous_simulation(
                    base, keep_network=True
                )
        a, b = outs["wave"], outs["per_receiver"]
        assert a.traffic.transmissions == b.traffic.transmissions
        assert a.traffic.deliveries == b.traffic.deliveries
        assert a.traffic.drops == b.traffic.drops
        assert a.traffic.by_kind == b.traffic.by_kind
        assert a.update_events == b.update_events
        assert len(a.epochs) == len(b.epochs)
        for ea, eb in zip(a.epochs, b.epochs):
            assert ea.epoch == eb.epoch
            assert ea.messages == eb.messages
            assert ea.divergence == eb.divergence
        assert a.messages_per_refresh == b.messages_per_refresh
        for result in outs.values():
            # The run stops on the time bound, so timers may still be
            # pending — but the O(1) counter must agree with a scan.
            sim = result.network[0]
            assert sim.live_pending == live_pending_scan(sim)


class TestAttachOrderDeterminismWave:
    """Wave fan-out must follow sorted-id order, never attach order."""

    POSITIONS = [(0, 0), (100, 0), (200, 0), (150, 100), (900, 900)]

    def test_wave_delivery_order_attach_order_independent(self):
        m = len(self.POSITIONS)
        results = []
        for order in (list(range(m)), list(reversed(range(m)))):
            sim = Simulator()
            world = World(
                sim, StaticPlacement(self.POSITIONS),
                RadioConfig(radio_range=160),
            )
            nodes = {i: Recorder(world, i) for i in order}
            receivers = world.broadcast(qframe(1, size_bytes=10))
            sim.run()
            delivered = [i for i in sorted(nodes) if nodes[i].received]
            results.append((receivers, delivered))
        assert results[0] == results[1]
        assert results[0][0] == sorted(results[0][0])
