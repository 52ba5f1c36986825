"""Protocol-level recovery: BF result ACKs and the DF token watchdog.

These tests stage deterministic mid-query crashes by first running the
scenario cleanly under an observer, reading off exactly when the frame
of interest flies on the flight ring (``tests/staging.py``), and then
re-running the identical simulation with a crash window placed around
that moment. Simulations are deterministic given a seed, so the faulted
run replays the clean prefix bit for bit.
"""

import pytest

from repro.core import skyline_of_relation
from repro.core.query import SkylineQuery
from repro.data import make_global_dataset
from repro.net import (
    Frame,
    FrameKind,
    RadioConfig,
    Simulator,
    StaticPlacement,
    World,
)
from repro.protocol import BFDevice, DFDevice, ProtocolConfig
from repro.protocol.messages import QueryMessage
from repro.storage import union_all

from .staging import first_time, observe, quick_discovery


@pytest.fixture(scope="module")
def dataset():
    # 4 devices (perfect square); tests wire up only a subset of them.
    return make_global_dataset(1600, 2, 4, "independent", seed=31, value_step=1.0)


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


class TestBFResultAck:
    # Line 0-1-2 (adjacent pairs in range); 3 parked out of everyone's
    # reach. Device 2's result must relay through 1.
    POSITIONS = [(0.0, 0.0), (200.0, 0.0), (400.0, 0.0), (9000.0, 9000.0)]

    @pytest.fixture(autouse=True)
    def _quick_discovery(self, monkeypatch):
        quick_discovery(monkeypatch)

    def config(self, result_retries):
        return ProtocolConfig(
            ack_timeout=2.0,
            result_retries=result_retries,
            query_timeout=60.0,
        )

    def run(self, dataset, result_retries=3, crash_at=None):
        sim, world, devices, observer = build(
            dataset, BFDevice, self.POSITIONS,
            self.config(result_retries),
        )
        if crash_at is not None:
            # relay 1 is down while AODV repair runs dry, back up well
            # before the application-level retransmission fires
            sim.schedule_at(crash_at, world.fail_node, 1)
            sim.schedule_at(crash_at + 1.0, world.restore_node, 1)
        record = devices[0].issue_query(d=1.0e6)
        sim.run(until=120.0)
        return record, world, devices, observer

    def test_ack_clears_pending_on_clean_run(self, dataset):
        record, world, devices, _ = self.run(dataset)
        assert set(record.contributions) == {1, 2}
        for device in devices:
            assert device._pending == {}
        assert world.stats.by_kind.get("ack", 0) == 0  # ACKs ride DATA frames

    def test_retransmission_recovers_result_lost_to_crash(self, dataset):
        _, _, _, observer = self.run(dataset)
        # when device 2 first transmits its (routed) result
        t_result = first_time(observer, 2, "tx.data")

        record, _, devices, _ = self.run(dataset, crash_at=t_result - 1e-4)
        assert set(record.contributions) == {1, 2}
        assert record.coverage() == pytest.approx(1.0)
        # the copy that made it is the retransmission, after the relay
        # came back — not the original
        assert record.contributions[2].arrival_time > t_result + 1.0
        assert devices[2]._pending == {}

    def test_without_ack_the_result_is_lost(self, dataset):
        """With no retransmissions a RESULT lost to a crash is gone."""
        _, _, _, observer = self.run(dataset)
        t_result = first_time(observer, 2, "tx.data")

        record, _, _, _ = self.run(
            dataset, result_retries=0, crash_at=t_result - 1e-4
        )
        assert set(record.contributions) == {1}
        assert record.coverage() == pytest.approx(0.5)

    def test_retransmissions_are_capped(self, dataset):
        """A responder whose originator stays unreachable gives up after
        result_retries attempts instead of retransmitting forever."""
        positions = [(9000.0, 0.0), (0.0, 0.0), (18000.0, 0.0), (27000.0, 0.0)]
        config = ProtocolConfig(
            ack_timeout=0.5, result_retries=2, query_timeout=300.0,
        )
        sim, world, devices, _ = build(
            dataset, BFDevice, positions, config
        )
        query = SkylineQuery(origin=0, cnt=1, pos=(9000.0, 0.0), d=1.0e6)
        frame = Frame(
            kind=FrameKind.QUERY, src=0, dst=None,
            payload=QueryMessage(query=query, flt=None, hops=1),
        )
        devices[1].on_protocol_frame(frame, sender=0)
        while sim.live_pending:  # run until the reply is armed for retry
            sim.run(max_events=1)
            if devices[1]._pending:
                break
        assert devices[1]._pending
        sim.run(until=200.0)
        assert devices[1]._pending == {}


class TestDFTokenWatchdog:
    # Pair 0-1 in range; 2 and 3 partitioned away together.
    POSITIONS = [(0.0, 0.0), (200.0, 0.0), (9000.0, 9000.0), (9200.0, 9000.0)]

    def config(self, token_watchdog, token_reissues=2):
        return ProtocolConfig(
            token_watchdog=token_watchdog,
            token_reissues=token_reissues,
            query_timeout=400.0,
        )

    def run(self, dataset, config, crash_at=None, downtime=None):
        sim, world, devices, observer = build(
            dataset, DFDevice, self.POSITIONS, config
        )
        if crash_at is not None:
            sim.schedule_at(crash_at, world.fail_node, 1)
            if downtime is not None:
                sim.schedule_at(crash_at + downtime, world.restore_node, 1)
        record = devices[0].issue_query(d=1.0e6)
        sim.run(until=500.0)
        return record, world, devices, observer

    def measure(self, dataset):
        """Clean-run times: token leaves 0, arrives at 1, leaves 1."""
        _, _, _, observer = self.run(dataset, self.config(token_watchdog=60.0))
        t_out = first_time(observer, 0, "tx.token")
        t_in = first_time(observer, 1, "rx.token")
        t_back = first_time(observer, 1, "tx.data")
        assert t_out <= t_in < t_back
        return t_out, t_in, t_back

    def test_watchdog_reissue_recovers_lost_token(self, dataset):
        t_out, t_in, t_back = self.measure(dataset)
        # crash device 1 while it holds the token (mid local processing),
        # back up 1 s later; watchdog re-issues 2 s after it rejoins
        crash_at = (t_in + t_back) / 2.0
        watchdog = crash_at + 3.0 - t_out
        record, _, devices, _ = self.run(
            dataset, self.config(token_watchdog=watchdog),
            crash_at=crash_at, downtime=1.0,
        )
        assert record.reissues == 1
        assert record.completion_time is not None
        assert 1 in record.contributions
        assert record.coverage() == pytest.approx(1.0)
        got = sorted(map(tuple, record.result.values.tolist()))
        want = centralized(dataset, (0, 1), record.query.pos, record.query.d)
        assert got == sorted(map(tuple, want.values.tolist()))

    def test_reissue_terminates_early_when_peer_stays_down(self, dataset):
        t_out, t_in, t_back = self.measure(dataset)
        crash_at = (t_in + t_back) / 2.0
        watchdog = crash_at + 3.0 - t_out
        config = self.config(token_watchdog=watchdog)
        record, _, _, _ = self.run(dataset, config, crash_at=crash_at)
        # re-issue finds no reachable unvisited neighbour and completes
        # with the partial answer, well before query_timeout
        assert record.reissues == 1
        assert record.completion_time is not None
        assert (
            record.completion_time - record.issue_time < config.query_timeout
        )
        assert record.coverage() == pytest.approx(0.0)

    def test_disabled_watchdog_leaves_recovery_to_timeout(self, dataset):
        _, t_in, t_back = self.measure(dataset)
        crash_at = (t_in + t_back) / 2.0
        record, _, _, _ = self.run(
            dataset, self.config(token_watchdog=0.0),
            crash_at=crash_at, downtime=1.0,
        )
        assert record.reissues == 0
        assert record.completion_time is None
        assert record.closed
        assert 1 not in record.contributions

    def test_watchdog_respects_reissue_cap(self, dataset):
        """The watchdog stops re-issuing once token_reissues is spent."""
        sim, world, devices, _ = build(
            dataset, DFDevice, self.POSITIONS,
            self.config(token_watchdog=5.0, token_reissues=1),
        )
        record = devices[0].issue_query(d=1.0e6)
        record.reissues = 1  # pretend the budget is already spent
        devices[0]._last_token_activity = -1000.0
        devices[0]._check_watchdog(record.query.key)
        assert devices[0]._reissue_alias == {}
        assert record.reissues == 1
