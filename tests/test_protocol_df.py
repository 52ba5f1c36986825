"""Tests for the depth-first (token passing) strategy."""

import pytest

from repro.core import skyline_of_relation
from repro.data import make_global_dataset
from repro.net import RadioConfig, Simulator, StaticPlacement, World
from repro.protocol import DFDevice, ProtocolConfig
from repro.storage import union_all


def build_df(dataset, radio_range=360.0, config=None, positions=None):
    sim = Simulator()
    if positions is None:
        positions = [dataset.grid.cell_center(i) for i in range(dataset.devices)]
    world = World(sim, StaticPlacement(positions), RadioConfig(radio_range=radio_range))
    config = config or ProtocolConfig()
    devices = [
        DFDevice(world, i, dataset.local(i), config=config)
        for i in range(dataset.devices)
    ]
    return sim, world, devices


def centralized(dataset, pos, d):
    return skyline_of_relation(union_all(list(dataset.locals)).restrict(pos, d))


@pytest.fixture
def dataset():
    return make_global_dataset(4000, 2, 9, "independent", seed=43, value_step=1.0)


class TestDFCorrectness:
    def test_result_equals_centralized(self, dataset):
        sim, world, devices = build_df(dataset)
        record = devices[4].issue_query(d=450.0)
        sim.run(until=700.0)
        got = sorted(map(tuple, record.result.values.tolist()))
        want = sorted(
            map(tuple, centralized(dataset, record.query.pos, 450.0).values.tolist())
        )
        assert got == want

    def test_token_visits_every_device(self, dataset):
        sim, world, devices = build_df(dataset)
        record = devices[4].issue_query(d=450.0)
        sim.run(until=700.0)
        assert set(record.contributions) == set(range(9)) - {4}

    def test_completion(self, dataset):
        sim, world, devices = build_df(dataset)
        record = devices[4].issue_query(d=450.0)
        sim.run(until=700.0)
        assert record.completion_time is not None
        assert record.closed

    @pytest.mark.parametrize("use_filter,dynamic", [
        (False, False), (True, False), (True, True),
    ])
    def test_variants_correct(self, dataset, use_filter, dynamic):
        config = ProtocolConfig(use_filter=use_filter, dynamic_filter=dynamic)
        sim, world, devices = build_df(dataset, config=config)
        record = devices[0].issue_query(d=600.0)
        sim.run(until=700.0)
        got = sorted(map(tuple, record.result.values.tolist()))
        want = sorted(
            map(tuple, centralized(dataset, record.query.pos, 600.0).values.tolist())
        )
        assert got == want


class TestDFBehaviour:
    def test_token_count_bounded(self, dataset):
        """DF uses O(visits + backtracks) messages, far fewer than a
        quadratic blowup; tokens + routed data stay below ~6 per device."""
        sim, world, devices = build_df(dataset)
        devices[4].issue_query(d=450.0)
        sim.run(until=700.0)
        protocol_frames = world.stats.by_kind.get("token", 0) + world.stats.by_kind.get(
            "data", 0
        )
        assert protocol_frames <= 6 * dataset.devices

    def test_serial_processing_one_token(self, dataset):
        """At most one device processes at any time: the completion time
        is at least the sum of all processing delays."""
        sim, world, devices = build_df(dataset)
        record = devices[4].issue_query(d=450.0)
        sim.run(until=700.0)
        assert record.completion_time is not None
        total_proc = sum(
            devices[i].processing_delay(
                devices[i].compute_local(record.query, None)
            )
            for i in range(9)
        )
        # serial: response >= sum of (rough lower bound: half of) proc times
        assert record.completion_time - record.issue_time >= total_proc * 0.5

    def test_isolated_originator_completes_alone(self, dataset):
        positions = [(50_000.0 + i, 50_000.0) for i in range(9)]
        positions[4] = (0.0, 0.0)  # node 4 alone
        sim, world, devices = build_df(dataset, positions=positions)
        record = devices[4].issue_query(d=450.0)
        sim.run(until=700.0)
        assert record.completion_time is not None
        assert record.contributions == {}
        # result is its own local skyline only
        local = skyline_of_relation(
            dataset.local(4).restrict(record.query.pos, 450.0)
        )
        assert sorted(map(tuple, record.result.values.tolist())) == sorted(
            map(tuple, local.values.tolist())
        )

    def test_partition_returns_reachable_subset(self, dataset):
        """Devices 0-4 are connected; 5-8 are far away. The token must
        terminate with the skyline of the reachable side."""
        positions = [
            (i * 200.0, 0.0) if i <= 4 else (100_000.0 + i * 200.0, 0.0)
            for i in range(9)
        ]
        sim, world, devices = build_df(dataset, radio_range=250.0,
                                       positions=positions)
        record = devices[0].issue_query(d=1.0e6)
        sim.run(until=700.0)
        assert record.completion_time is not None
        assert set(record.contributions) == {1, 2, 3, 4}
        reachable = union_all([dataset.local(i) for i in range(5)])
        want = skyline_of_relation(reachable.restrict(record.query.pos, 1.0e6))
        assert sorted(map(tuple, record.result.values.tolist())) == sorted(
            map(tuple, want.values.tolist())
        )

    def test_contributions_carry_sizes(self, dataset):
        sim, world, devices = build_df(dataset)
        record = devices[4].issue_query(d=450.0)
        sim.run(until=700.0)
        for c in record.contributions.values():
            assert c.unreduced_size >= c.reduced_size >= 0

    def test_one_query_in_progress(self, dataset):
        sim, world, devices = build_df(dataset)
        devices[4].issue_query(d=450.0)
        with pytest.raises(RuntimeError):
            devices[4].issue_query(d=450.0)
