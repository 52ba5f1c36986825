"""The seeded chaos harness: randomized fault schedules vs. the
resilience invariant suite, plus sanity checks that the invariant
checkers actually detect violations (a suite that can't fail proves
nothing)."""

from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.experiments.chaos_sweep import (
    SMOKE_SEEDS,
    chaos_suite,
    loss_curve,
    run_chaos_point,
)
from repro.net import Simulator
from repro.protocol import DFDevice
from repro.resilience import CompletionReport
from repro.resilience.invariants import (
    check_closed_by_deadline,
    check_completion_reports,
    check_no_live_timers,
    live_foreign_events,
)

from .staging import first_time, observe


class TestChaosSweep:
    """Acceptance criterion: the invariant suite holds on >= 50
    randomized seeds (here 50 seeds x 2 strategies = 100 runs)."""

    @pytest.fixture(scope="class")
    def report(self):
        return chaos_suite(range(100, 150))

    def test_all_invariants_hold(self, report):
        assert report.ok, "\n".join(report.violations)
        assert len(report.points) == 100

    def test_every_point_ran_real_chaos(self, report):
        for point in report.points:
            assert point.queries > 0
            assert point.fault_events >= 10, (
                f"seed {point.seed}: schedule too tame "
                f"({point.fault_events} fault events)"
            )
            assert 0.0 <= point.coverage <= 1.0

    def test_outcomes_are_graded_not_binary(self, report):
        # Chaos is harsh enough that some queries expire, mild enough
        # that some complete — the harness exercises graded completion,
        # not a wall of one outcome.
        assert sum(p.completed for p in report.points) > 0
        assert sum(p.deadline_expired for p in report.points) > 0

    def test_failover_path_is_exercised(self, report):
        df_points = [p for p in report.points if p.strategy == "df"]
        assert sum(p.failovers for p in df_points) >= 1

    def test_render_summarises_every_point(self, report):
        text = report.render()
        assert "coverage" in text
        assert str(report.points[0].seed) in text


class TestSmokeSeeds:
    """The 5 pinned CI smoke seeds stay clean (same seeds as
    ``repro chaos --smoke``)."""

    def test_pinned_seeds_clean(self):
        report = chaos_suite(SMOKE_SEEDS)
        assert report.ok, "\n".join(report.violations)
        assert len(report.points) == 2 * len(SMOKE_SEEDS)

    def test_point_determinism(self):
        a = run_chaos_point(SMOKE_SEEDS[0], "df")
        b = run_chaos_point(SMOKE_SEEDS[0], "df")
        assert a == b
        a = run_chaos_point(SMOKE_SEEDS[0], "df", loss_rate=0.3)
        b = run_chaos_point(SMOKE_SEEDS[0], "df", loss_rate=0.3)
        assert a == b


def noop_failover(monkeypatch):
    """The mutant the loss curve must catch: a watchdog that gives the
    token up but never re-floods."""
    monkeypatch.setattr(DFDevice, "_failover", lambda self, record: None)


class TestLossCurve:
    """Coverage against frame loss (``repro chaos --smoke`` prints it):
    failover must recover what plain DF loses."""

    def test_headline_checks_pass(self):
        figure, failures = loss_curve()
        assert failures == []
        assert figure.get("failovers")[-1] >= 1
        assert figure.get("DF+failover")[-1] > figure.get("DF")[-1]

    def test_noop_failover_is_caught(self, monkeypatch):
        noop_failover(monkeypatch)
        figure, failures = loss_curve()
        assert figure.get("failovers") == [0, 0, 0, 0]
        assert any("not above DF" in f for f in failures), failures
        assert any("never failed over" in f for f in failures), failures

    def test_cli_exits_nonzero_under_the_mutant(self, monkeypatch, capsys):
        noop_failover(monkeypatch)
        assert main(["chaos", "--smoke"]) == 1
        assert "never failed over" in capsys.readouterr().err


class TestInvariantCheckersDetectViolations:
    """Negative controls: feed each checker a known-bad input."""

    def record(self, report, closed=True, closed_at=5.0):
        return SimpleNamespace(
            key=(0, 1), closed=closed, closed_at=closed_at,
            issue_time=0.0, report=report,
        )

    def good_report(self):
        return CompletionReport(
            query_key=(0, 1), originator=0, outcome="completed",
            closed_at=5.0, contributed=frozenset({1}),
            unreachable_at_issue=frozenset(),
            lost_to_fault=frozenset(), deadline_expired=frozenset(),
        )

    def test_unclosed_record_flagged(self):
        good = self.record(self.good_report())
        bad = self.record(None, closed=False, closed_at=None)
        assert check_closed_by_deadline([good], deadline=60.0) == []
        assert check_closed_by_deadline([good, bad], deadline=60.0)

    def test_late_close_flagged(self):
        late = self.record(self.good_report(), closed_at=61.0)
        assert check_closed_by_deadline([late], deadline=60.0)

    def test_missing_report_flagged(self):
        assert check_completion_reports(
            [self.record(None)], population=frozenset({0, 1})
        )

    def test_tampered_partition_flagged(self):
        report = self.good_report()
        population = frozenset({0, 1})
        assert check_completion_reports(
            [self.record(report)], population
        ) == []
        # population grows by a device the report never classified
        assert check_completion_reports(
            [self.record(report)], population=frozenset({0, 1, 2})
        )
        # a device classified twice breaks the partition the other way
        double = CompletionReport(
            query_key=(0, 1), originator=0, outcome="completed",
            closed_at=5.0, contributed=frozenset({1}),
            unreachable_at_issue=frozenset({1}),
            lost_to_fault=frozenset(), deadline_expired=frozenset(),
        )
        assert not double.is_exact_partition(population)
        assert check_completion_reports([self.record(double)], population)

    def test_live_timer_flagged(self):
        sim = Simulator()
        assert check_no_live_timers(sim) == []
        sim.schedule(10.0, lambda: None)
        assert live_foreign_events(sim)
        assert check_no_live_timers(sim)


class TestRecoverMidQueryClassification:
    """Satellite bugfix gate: a device that crashes mid-query and
    recovers *before* the record closes is classified lost-to-fault
    (its volatile query state died in the crash), and the completion
    report still exactly partitions the population — the crash-counter
    snapshot diff, not the down-at-close set, drives the class."""

    POSITIONS = [(0.0, 0.0), (200.0, 0.0), (400.0, 0.0), (600.0, 0.0)]

    def build(self, dataset, config):
        from repro.net import RadioConfig, StaticPlacement, World
        from repro.protocol import BFDevice

        sim = Simulator()
        world = World(
            sim, StaticPlacement(self.POSITIONS),
            RadioConfig(radio_range=250.0),
        )
        observer = observe(world)
        devices = [
            BFDevice(world, i, dataset.local(i), config=config)
            for i in range(dataset.devices)
        ]
        return sim, world, devices, observer

    def test_recovered_device_stays_lost_to_fault(self):
        from repro.data import make_global_dataset
        from repro.protocol import ProtocolConfig

        dataset = make_global_dataset(
            400, 2, 4, "independent", seed=61, value_step=1.0
        )
        config = ProtocolConfig(
            query_timeout=40.0, ack_timeout=2.0, result_retries=2,
        )
        # Stage on a clean run: when does device 3 hear the query, and
        # when does it send its result home?
        sim, world, devices, observer = self.build(dataset, config)
        devices[0].issue_query(d=1.0e6)
        sim.run(until=100.0)
        t_in = first_time(observer, 3, "rx.query")
        t_out = first_time(observer, 3, "tx.data")
        assert t_in < t_out

        # Re-run with a crash in that window and a recovery well before
        # the 40 s deadline closes the record.
        sim, world, devices, _ = self.build(dataset, config)
        crash_at = (t_in + t_out) / 2.0
        sim.schedule_at(crash_at, world.fail_node, 3)
        sim.schedule_at(crash_at + 5.0, world.restore_node, 3)
        record = devices[0].issue_query(d=1.0e6)
        sim.run(until=100.0)

        assert world.node_is_up(3)  # recovered long before close
        report = record.report
        assert report.outcome == "deadline-expired"
        assert 3 in report.lost_to_fault
        assert 3 not in report.deadline_expired
        assert report.is_exact_partition(frozenset(range(4)))
        assert sim.live_pending == 0
