"""The resilience layer: policies, completion reports, timer hygiene,
DF→BF failover, and orphan suppression.

Fault staging follows ``test_recovery.py``: run the scenario cleanly
under an observer, read off when the frame of interest flies on the
flight ring (``tests/staging.py``), then re-run the identical
simulation with a crash placed around that moment.
"""

import pytest

from repro.core import skyline_of_relation
from repro.core.query import SkylineQuery
from repro.data import make_global_dataset
from repro.net import (
    FrameKind,
    RadioConfig,
    Simulator,
    StaticPlacement,
    World,
)
from repro.protocol import BFDevice, DFDevice, ProtocolConfig
from repro.protocol.device import QueryRecord, _PendingReply
from repro.protocol.messages import ResultMessage
from repro.resilience import (
    CompletionReport,
    ResiliencePolicy,
    build_completion_report,
)
from repro.resilience.invariants import check_retransmission_bounds
from repro.resilience.policy import MAX_FAILOVERS
from repro.storage import union_all

from .staging import event_times, first_time, observe, quick_discovery


@pytest.fixture(scope="module")
def dataset():
    return make_global_dataset(
        1600, 2, 4, "independent", seed=31, value_step=1.0
    )


def build(dataset, cls, positions, config):
    sim = Simulator()
    world = World(
        sim, StaticPlacement(positions), RadioConfig(radio_range=250.0)
    )
    observer = observe(world)
    devices = [
        cls(world, i, dataset.local(i), config=config)
        for i in range(dataset.devices)
    ]
    return sim, world, devices, observer


def centralized(dataset, members, pos, d):
    return skyline_of_relation(
        union_all([dataset.local(i) for i in members]).restrict(pos, d)
    )


def result_values(relation):
    return sorted(map(tuple, relation.values.tolist()))


class TestResiliencePolicy:
    def test_defaults_are_inert(self):
        policy = ResiliencePolicy()
        assert not policy.df_failover
        assert not policy.orphan_suppression

    def test_effective_deadline(self):
        assert ProtocolConfig().effective_deadline == 600.0
        assert ProtocolConfig(query_timeout=45.0).effective_deadline == 45.0

    def test_config_requires_policy_instance(self):
        with pytest.raises(TypeError):
            ProtocolConfig(resilience={"df_failover": True})


class TestPromotedConfigFields:
    """The retry backoff: ``ack_timeout`` doubles per attempt up to the
    module's fixed cap, which also bounds ``ack_timeout`` itself."""

    def test_result_retry_backoff_actually_caps(self, dataset):
        config = ProtocolConfig(ack_timeout=2.0)
        sim, world, devices, _ = build(
            dataset, BFDevice, [(0, 0), (200, 0), (9000, 0), (9300, 0)],
            config,
        )
        reply = ResultMessage(
            query_key=(0, 1), sender=1,
            skyline=dataset.local(1),
            unreduced_size=1, skipped=0, processing_time=0.0,
        )
        delays = []
        for attempts in (0, 1, 2, 10):
            pending = _PendingReply(
                kind=FrameKind.RESULT, payload=reply, origin=0,
                attempts=attempts,
            )
            devices[1]._arm_retry((0, 1), pending)
            delays.append(pending.timer.time - sim.now)
            pending.timer.cancel()
        # 2, 4, 8, then clamped at the 60 s cap — never ack_timeout * 2**n
        assert delays == [2.0, 4.0, 8.0, 60.0]

    def test_ack_timeout_validated_against_the_cap(self):
        with pytest.raises(ValueError):
            ProtocolConfig(ack_timeout=0.0)
        with pytest.raises(ValueError):
            # an initial backoff above the cap could never apply
            ProtocolConfig(ack_timeout=61.0)


class TestCompletionReportUnit:
    def make_record(self, reachable, contributing, originator=0,
                    completion_time=None, aborted=False):
        record = QueryRecord(
            query=SkylineQuery(origin=originator, cnt=1, pos=(0, 0), d=10.0),
            issue_time=0.0, originator=originator,
            local_unreduced=0, local_reduced=0, assembler=None,
            reachable_at_issue=frozenset(reachable),
        )
        record.contributions = {d: object() for d in contributing}
        record.completion_time = completion_time
        record.aborted_by_crash = aborted
        return record

    def test_exact_partition_and_classes(self):
        # population {0..5}; 4,5 out of the originator's partition;
        # 1 contributed; 2 crashed and still down; 3 silent but up.
        record = self.make_record(
            reachable=(0, 1, 2, 3), contributing=(1,), completion_time=None,
        )
        report = build_completion_report(
            record, population=frozenset(range(6)),
            down_now=frozenset({2}), closed_at=30.0,
        )
        assert report.contributed == frozenset({1})
        assert report.unreachable_at_issue == frozenset({4, 5})
        assert report.lost_to_fault == frozenset({2})
        assert report.deadline_expired == frozenset({3})
        assert report.outcome == "deadline-expired"
        assert report.is_exact_partition(frozenset(range(6)))
        assert not report.is_exact_partition(frozenset(range(7)))
        assert report.coverage() == pytest.approx(1 / 3)

    def test_outcomes(self):
        completed = build_completion_report(
            self.make_record((0, 1), (1,), completion_time=5.0),
            population=frozenset({0, 1}), down_now=frozenset(), closed_at=5.0,
        )
        assert completed.outcome == "completed"
        aborted = build_completion_report(
            self.make_record((0, 1), (), aborted=True),
            population=frozenset({0, 1}), down_now=frozenset(), closed_at=9.0,
        )
        assert aborted.outcome == "aborted-by-crash"

    def test_late_contribution_from_outside_snapshot(self):
        # A device that rejoined mid-query and contributed is counted as
        # contributed, not unreachable — the partition property holds.
        record = self.make_record(reachable=(0,), contributing=(1,))
        report = build_completion_report(
            record, population=frozenset({0, 1, 2}),
            down_now=frozenset(), closed_at=10.0,
        )
        assert report.contributed == frozenset({1})
        assert report.unreachable_at_issue == frozenset({2})
        assert report.is_exact_partition(frozenset({0, 1, 2}))

    def test_vacuous_coverage(self):
        report = CompletionReport(
            query_key=(0, 1), originator=0, outcome="completed",
            closed_at=1.0, contributed=frozenset(),
            unreachable_at_issue=frozenset({1}),
            lost_to_fault=frozenset(), deadline_expired=frozenset(),
        )
        assert report.coverage() == 1.0


class TestTimerHygiene:
    """Satellite: closing a query cancels its timers — nothing armed
    survives in the engine queue."""

    def test_df_completion_retires_watchdog_and_deadline(self, dataset):
        config = ProtocolConfig(token_watchdog=60.0, query_timeout=300.0)
        sim, world, devices, _ = build(
            dataset, DFDevice,
            [(0, 0), (200, 0), (9000, 9000), (9200, 9000)], config,
        )
        record = devices[0].issue_query(d=1.0e6)
        sim.run(until=120.0)
        assert record.completion_time is not None
        assert record.closed and record.closed_at is not None
        assert record.close_timer is None
        assert devices[0]._watchdog is None
        # the deadline (t=300) and watchdog timers were cancelled at
        # completion: nothing in the queue will ever fire again
        assert sim.live_pending == 0

    def test_bf_run_drains_clean(self, dataset, monkeypatch):
        quick_discovery(monkeypatch)
        config = ProtocolConfig(
            query_timeout=60.0, ack_timeout=2.0, result_retries=2,
        )
        sim, world, devices, _ = build(
            dataset, BFDevice,
            [(0, 0), (200, 0), (400, 0), (9000, 9000)], config,
        )
        record = devices[0].issue_query(d=1.0e6)
        sim.run()  # drain completely: the t=60 deadline close fires
        assert record.closed
        assert sim.live_pending == 0
        for device in devices:
            assert device._pending == {}

    def test_deadline_close_cancels_pending_retries(self, dataset, monkeypatch):
        # Originator parked alone: responders' results never arrive and
        # never get ACKed. Retry timers must still wind down and the
        # deadline close must leave a drained queue.
        quick_discovery(monkeypatch)
        config = ProtocolConfig(
            query_timeout=30.0, ack_timeout=2.0, result_retries=2,
        )
        sim, world, devices, _ = build(
            dataset, BFDevice,
            [(0, 0), (9000, 0), (9200, 0), (9400, 0)], config,
        )
        record = devices[0].issue_query(d=1.0e6)
        sim.run()
        assert record.closed
        assert record.closed_at == pytest.approx(record.issue_time + 30.0)
        assert sim.live_pending == 0


class TestDeadlineClose:
    def test_query_timeout_closes_with_an_exact_report(self, dataset):
        config = ProtocolConfig(query_timeout=25.0)
        sim, world, devices, observer = build(
            dataset, BFDevice,
            [(0, 0), (200, 0), (9000, 9000), (9200, 9000)], config,
        )
        record = devices[0].issue_query(d=1.0e6)
        sim.run(until=100.0)
        assert record.closed
        assert record.closed_at == pytest.approx(record.issue_time + 25.0)
        report = record.report
        assert report is not None
        assert report.outcome in ("completed", "deadline-expired")
        assert report.is_exact_partition(frozenset(range(4)))
        assert report.unreachable_at_issue == frozenset({2, 3})
        if report.outcome == "deadline-expired":
            assert (
                observer.metrics.counter("resilience.deadline_closes").value
                >= 1
            )


class TestDFFailover:
    """Token lost to a crash, zero re-issues left: plain DF strands the
    query; DF→BF failover re-floods the residue and recovers it."""

    # Chain 0-1-2 (adjacent pairs in range); 3 parked out of reach.
    POSITIONS = [(0.0, 0.0), (200.0, 0.0), (400.0, 0.0), (9000.0, 9000.0)]

    def config(self, failover, watchdog=60.0):
        return ProtocolConfig(
            token_watchdog=watchdog,
            token_reissues=0,
            query_timeout=120.0,
            ack_timeout=2.0,
            result_retries=3,
            resilience=ResiliencePolicy(df_failover=failover),
        )

    def run(self, dataset, config, crash_at=None, downtime=None):
        sim, world, devices, observer = build(
            dataset, DFDevice, self.POSITIONS, config,
        )
        if crash_at is not None:
            sim.schedule_at(crash_at, world.fail_node, 1)
            if downtime is not None:
                sim.schedule_at(crash_at + downtime, world.restore_node, 1)
        record = devices[0].issue_query(d=1.0e6)
        sim.run(until=300.0)
        return record, world, devices, observer

    def measure(self, dataset):
        """Clean-run times: token leaves 0, arrives at 1, leaves 1."""
        _, _, _, observer = self.run(dataset, self.config(failover=True))
        t_out = first_time(observer, 0, "tx.token")
        t_in = first_time(observer, 1, "rx.token")
        t_fwd = first_time(observer, 1, "tx.token")
        assert t_out <= t_in < t_fwd
        return t_out, t_in, t_fwd

    def staged(self, dataset, failover):
        t_out, t_in, t_fwd = self.measure(dataset)
        crash_at = (t_in + t_fwd) / 2.0  # device 1 holds the token
        watchdog = crash_at + 3.0 - t_out  # fires after 1 rejoins
        return self.run(
            dataset, self.config(failover, watchdog=watchdog),
            crash_at=crash_at, downtime=1.0,
        )

    def test_failover_recovers_stranded_query(self, dataset):
        record, _, _, observer = self.staged(dataset, failover=True)
        assert record.failovers == 1
        assert record.reissues == 0  # budget was zero: strategy changed
        assert record.completion_time is not None
        assert record.report.outcome == "completed"
        assert set(record.contributions) == {1, 2}
        assert record.report.coverage() == pytest.approx(1.0)
        got = result_values(record.result)
        want = centralized(dataset, (0, 1, 2), record.query.pos,
                           record.query.d)
        assert got == result_values(want)
        assert observer.metrics.counter("resilience.failovers").value == 1

    def test_without_failover_the_query_strands(self, dataset):
        record, _, _, _ = self.staged(dataset, failover=False)
        assert record.failovers == 0
        assert record.completion_time is None
        assert record.closed
        assert record.closed_at == pytest.approx(record.issue_time + 120.0)
        assert record.report.outcome == "deadline-expired"
        assert record.report.coverage() == pytest.approx(0.0)

    def test_failover_budget_respected(self, dataset):
        """A failover flood that cannot complete is not repeated: a
        query fails over at most once."""
        t_out, t_in, t_fwd = self.measure(dataset)
        crash_at = (t_in + t_fwd) / 2.0
        watchdog = crash_at + 3.0 - t_out
        config = self.config(failover=True, watchdog=watchdog)
        record, _, _, _ = self.run(
            dataset, config, crash_at=crash_at,  # stays down
        )
        assert record.failovers == MAX_FAILOVERS == 1
        assert record.completion_time is None
        assert record.closed
        assert record.closed_at == pytest.approx(record.issue_time + 120.0)
        assert check_retransmission_bounds([record], config) == []


class TestOrphanSuppression:
    def test_bf_responder_drops_results_for_dead_originator(self, dataset):
        positions = [(0.0, 0.0), (200.0, 0.0), (9000.0, 0.0), (9300.0, 0.0)]
        config = ProtocolConfig(
            query_timeout=60.0, ack_timeout=2.0, result_retries=3,
            resilience=ResiliencePolicy(orphan_suppression=True),
        )
        sim, world, devices, observer = build(
            dataset, BFDevice, positions, config,
        )
        devices[0].issue_query(d=1.0e6)
        sim.run(until=120.0)
        t_query = first_time(observer, 0, "tx.query")
        t_result = first_time(observer, 1, "tx.data")

        sim, world, devices, observer = build(
            dataset, BFDevice, positions, config,
        )
        crash_at = (t_query + t_result) / 2.0
        sim.schedule_at(crash_at, world.fail_node, 0)
        devices[0].issue_query(d=1.0e6)
        sim.run(until=120.0)
        assert devices[1]._pending == {}
        assert (
            observer.metrics.counter("resilience.orphans_reaped").value >= 1
        )

    def test_df_token_for_dead_originator_is_reaped(self, dataset):
        # Crash the originator while the token is in flight on the 1->2
        # hop: device 2 then receives a token whose walk is orphaned.
        # (Crashing earlier would just drop the in-flight frame — a
        # sender that dies mid-transmit never completes the delivery.)
        positions = [(0.0, 0.0), (200.0, 0.0), (400.0, 0.0),
                     (9000.0, 9000.0)]
        config = ProtocolConfig(
            token_watchdog=0.0, query_timeout=60.0,
            resilience=ResiliencePolicy(orphan_suppression=True),
        )
        sim, world, devices, observer = build(
            dataset, DFDevice, positions, config,
        )
        devices[0].issue_query(d=1.0e6)
        sim.run(until=120.0)
        t_fwd = first_time(observer, 1, "tx.token")
        t_in = first_time(observer, 2, "rx.token")
        assert t_fwd < t_in

        sim, world, devices, observer = build(
            dataset, DFDevice, positions, config,
        )
        sim.schedule_at((t_fwd + t_in) / 2.0, world.fail_node, 0)
        devices[0].issue_query(d=1.0e6)
        sim.run(until=120.0)
        # the token died with its walk: device 2 never passed it on
        assert not event_times(observer, 2, "tx.token")
        assert (
            observer.metrics.counter("resilience.orphans_reaped").value >= 1
        )

    def test_suppression_off_keeps_legacy_retry_behaviour(self, dataset):
        positions = [(0.0, 0.0), (200.0, 0.0), (9000.0, 0.0), (9300.0, 0.0)]
        config = ProtocolConfig(
            query_timeout=60.0, ack_timeout=2.0, result_retries=2,
        )
        sim, world, devices, observer = build(
            dataset, BFDevice, positions, config,
        )
        devices[0].issue_query(d=1.0e6)
        sim.run(until=120.0)
        t_query = first_time(observer, 0, "tx.query")
        t_result = first_time(observer, 1, "tx.data")

        sim, world, devices, _ = build(
            dataset, BFDevice, positions, config,
        )
        sim.schedule_at((t_query + t_result) / 2.0, world.fail_node, 0)
        devices[0].issue_query(d=1.0e6)
        sim.run(until=120.0)
        # without the policy the responder burns its full retry budget
        # into the void, then gives up — the legacy behaviour
        assert devices[1]._pending == {}


class TestFaultFreeParity:
    """An active (non-default) resilience policy must not perturb a
    fault-free run: orphan checks never fire, failover never triggers,
    and with no deadline override close timing is identical."""

    @pytest.mark.parametrize("strategy", ["bf", "df"])
    def test_active_policy_is_bit_identical_without_faults(self, strategy):
        from repro.data import generate_workload
        from repro.protocol import SimulationConfig, run_manet_simulation

        dataset = make_global_dataset(
            400, 2, 4, "independent", seed=91, value_step=1.0
        )
        workload = generate_workload(
            devices=4, sim_time=80.0, distance=300.0,
            queries_per_device=(1, 2), seed=92,
        )

        def signature(policy):
            config = SimulationConfig(
                strategy=strategy, sim_time=80.0, seed=93,
                protocol=ProtocolConfig(
                    query_timeout=60.0, resilience=policy,
                ),
            )
            result = run_manet_simulation(dataset, workload, config)
            return (
                result.events,
                result.traffic.transmissions,
                result.traffic.deliveries,
                result.traffic.drops,
                [
                    (r.key, r.completion_time, r.closed_at,
                     sorted(r.contributions),
                     result_values(r.result))
                    for r in result.records
                ],
            )

        inert = signature(ResiliencePolicy())
        active = signature(
            ResiliencePolicy(df_failover=True, orphan_suppression=True)
        )
        assert inert == active


class TestDeadlineTimerRearm:
    """Satellite bugfix gate: re-arming a record's deadline goes through
    the cancel-before-schedule path — the stale engine timer is swapped
    out, never left to fire a spurious close or linger in the heap."""

    POSITIONS = [(0.0, 0.0), (200.0, 0.0), (9000.0, 0.0), (9300.0, 0.0)]

    def test_rearm_swaps_timer_without_leak_or_spurious_close(self, dataset):
        config = ProtocolConfig(
            query_timeout=120.0, ack_timeout=2.0, result_retries=2,
        )
        sim, world, devices, _ = build(
            dataset, BFDevice, self.POSITIONS, config,
        )
        record = devices[0].issue_query(d=1.0e6)
        # The only in-range responder dies with the flood in flight:
        # nothing can complete this query, only a deadline closes it.
        world.fail_node(1)
        sim.run(until=5.0)
        assert not record.closed
        before = sim.live_pending
        # Re-arm with a shorter budget, as a refresh epoch would.
        devices[0]._arm_close_timer(record, 30.0)
        assert sim.live_pending == before  # swapped, not leaked
        sim.run(until=300.0)
        assert record.closed
        # The re-armed budget closed it — not the original 120 s one.
        assert record.closed_at == pytest.approx(35.0)
        assert record.report.outcome == "deadline-expired"
        assert sim.live_pending == 0


class TestDuplicateDeliveryIdempotence:
    """Satellite bugfix gate: a run under a full-length duplicate-
    delivery window (loss 0) is semantically bit-identical to the clean
    run for both strategies — duplicated floods, tokens, results, and
    ACKs must all be absorbed by the dedup layers."""

    def run_signature(self, strategy, faults):
        from repro.data import generate_workload
        from repro.faults import FaultSchedule
        from repro.protocol import SimulationConfig, run_manet_simulation

        dataset = make_global_dataset(
            400, 2, 4, "independent", seed=81, value_step=1.0
        )
        workload = generate_workload(
            devices=4, sim_time=80.0, distance=300.0,
            queries_per_device=(1, 2), seed=82,
        )
        schedule = (
            FaultSchedule().duplication(0.0, 1.0, duration=250.0)
            if faults else None
        )
        config = SimulationConfig(
            strategy=strategy, sim_time=80.0, seed=83, faults=schedule,
            protocol=ProtocolConfig(
                query_timeout=60.0, ack_timeout=2.0, result_retries=2,
            ),
        )
        result = run_manet_simulation(dataset, workload, config)
        signature = [
            (r.key, r.completion_time, r.closed_at,
             sorted(r.contributions), result_values(r.result))
            for r in result.records
        ]
        return signature, result.traffic

    @pytest.mark.parametrize("strategy", ["bf", "df"])
    def test_dup_window_run_bit_identical(self, strategy):
        clean, _ = self.run_signature(strategy, faults=False)
        dup, traffic = self.run_signature(strategy, faults=True)
        assert traffic.duplicates > 0  # the window actually fired
        assert dup == clean
