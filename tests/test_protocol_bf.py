"""Tests for the breadth-first (flooding) strategy."""

import numpy as np
import pytest

from repro.core import skyline_of_relation
from repro.core.filtering import normalize_values
from repro.data import make_global_dataset
from repro.data.workload import generate_workload
from repro.experiments.config import DEFAULT
from repro.net import RadioConfig, Simulator, StaticPlacement, World
from repro.protocol import (
    BFDevice,
    ProtocolConfig,
    SimulationConfig,
    run_manet_simulation,
)
from repro.protocol.device import SkylineDevice
from repro.storage import union_all


def grid_positions(dataset):
    """Place each device at its grid cell centre (fully determined)."""
    return [dataset.grid.cell_center(i) for i in range(dataset.devices)]


def build_bf(dataset, radio_range=360.0, config=None):
    sim = Simulator()
    world = World(
        sim,
        StaticPlacement(grid_positions(dataset)),
        RadioConfig(radio_range=radio_range),
    )
    config = config or ProtocolConfig()
    devices = [
        BFDevice(world, i, dataset.local(i), config=config)
        for i in range(dataset.devices)
    ]
    return sim, world, devices


def centralized(dataset, pos, d):
    return skyline_of_relation(
        union_all(list(dataset.locals)).restrict(pos, d)
    )


@pytest.fixture
def dataset():
    return make_global_dataset(4000, 2, 9, "independent", seed=42, value_step=1.0)


class TestBFCorrectness:
    def test_result_equals_centralized(self, dataset):
        sim, world, devices = build_bf(dataset)
        record = devices[4].issue_query(d=450.0)
        sim.run(until=700.0)
        got = sorted(map(tuple, record.result.values.tolist()))
        want = sorted(
            map(tuple, centralized(dataset, record.query.pos, 450.0).values.tolist())
        )
        assert got == want

    @pytest.mark.parametrize("use_filter,dynamic", [
        (False, False), (True, False), (True, True),
    ])
    def test_all_strategy_variants_correct(self, dataset, use_filter, dynamic):
        config = ProtocolConfig(use_filter=use_filter, dynamic_filter=dynamic)
        sim, world, devices = build_bf(dataset, config=config)
        record = devices[0].issue_query(d=600.0)
        sim.run(until=700.0)
        got = sorted(map(tuple, record.result.values.tolist()))
        want = sorted(
            map(tuple, centralized(dataset, record.query.pos, 600.0).values.tolist())
        )
        assert got == want

    def test_every_other_device_contributes(self, dataset):
        sim, world, devices = build_bf(dataset)
        record = devices[4].issue_query(d=450.0)
        sim.run(until=700.0)
        assert set(record.contributions) == set(range(9)) - {4}

    def test_completion_at_quorum(self, dataset):
        config = ProtocolConfig(completion_quorum=0.8)
        sim, world, devices = build_bf(dataset, config=config)
        record = devices[4].issue_query(d=450.0)
        sim.run(until=700.0)
        assert record.completion_time is not None
        # quorum of 8 others = ceil(6.4) = 7; all 8 eventually arrive
        assert len(record.arrival_times()) == 8


class TestBFBehaviour:
    def test_duplicate_queries_ignored(self, dataset):
        """Each device processes the flooded query exactly once: one
        result message per device."""
        sim, world, devices = build_bf(dataset)
        record = devices[4].issue_query(d=450.0)
        sim.run(until=700.0)
        for device, contribution in record.contributions.items():
            assert contribution.device == device
        # exactly 8 result arrivals, no duplicates
        assert len(record.contributions) == 8

    def test_query_broadcast_count(self, dataset):
        """Every device that processes the query re-broadcasts it once:
        m query transmissions in a fully reachable static grid."""
        sim, world, devices = build_bf(dataset)
        devices[4].issue_query(d=450.0)
        sim.run(until=700.0)
        assert world.stats.by_kind["query"] == 9

    def test_one_query_in_progress_rule(self, dataset):
        sim, world, devices = build_bf(dataset)
        devices[4].issue_query(d=450.0)
        assert devices[4].has_active_query
        with pytest.raises(RuntimeError, match="in progress"):
            devices[4].issue_query(d=450.0)
        sim.run(until=700.0)
        assert not devices[4].has_active_query
        devices[4].issue_query(d=450.0)  # now fine

    def test_timeout_closes_query(self, dataset):
        config = ProtocolConfig(query_timeout=0.001)
        sim, world, devices = build_bf(dataset, config=config)
        record = devices[4].issue_query(d=450.0)
        sim.run(until=700.0)
        assert record.closed

    def test_empty_region_still_answers(self, dataset):
        """Devices whose data is out of range send short messages;
        the result is just the originator's in-range skyline."""
        sim, world, devices = build_bf(dataset)
        record = devices[0].issue_query(d=50.0)
        sim.run(until=700.0)
        want = centralized(dataset, record.query.pos, 50.0)
        assert sorted(map(tuple, record.result.values.tolist())) == sorted(
            map(tuple, want.values.tolist())
        )
        # others replied even when they had nothing
        assert len(record.contributions) == 8

    def test_filter_reduces_transferred_tuples(self, dataset):
        sizes = {}
        for use_filter in (False, True):
            config = ProtocolConfig(use_filter=use_filter, dynamic_filter=True)
            sim, world, devices = build_bf(dataset, config=config)
            record = devices[4].issue_query(d=600.0)
            sim.run(until=700.0)
            sizes[use_filter] = sum(
                c.reduced_size for c in record.contributions.values()
            )
        assert sizes[True] <= sizes[False]

    def test_cnt_increments_between_queries(self, dataset):
        sim, world, devices = build_bf(dataset)
        r1 = devices[4].issue_query(d=450.0)
        sim.run(until=700.0)
        r2 = devices[4].issue_query(d=450.0)
        assert r2.query.cnt == r1.query.cnt + 1


class TestFilterPassInRun:
    """No tuple a BF responder ships is one the filter it received
    removes: none is dominated by that filter, none sits at its site
    (the class of dropped tuples that must be empty)."""

    def test_shipped_rows_survive_the_received_filter(self, monkeypatch):
        # The Fig. 10 default point that the ``paper_bf`` benchmark
        # workload runs: 25 moving devices, 100k independent tuples,
        # d=500 m, the default (under-estimated, dynamic) filter.
        dataset = make_global_dataset(
            DEFAULT.manet_fixed_cardinality, 2, DEFAULT.manet_devices,
            "independent", seed=20060403, value_step=1.0,
        )
        workload = generate_workload(
            DEFAULT.manet_devices, 600.0, 500.0, (1, 1), seed=1,
        )
        calls = []
        compute = SkylineDevice.compute_local

        def recording(self, query, flt):
            result = compute(self, query, flt)
            calls.append((flt, result))
            return result

        monkeypatch.setattr(SkylineDevice, "compute_local", recording)
        run = run_manet_simulation(
            dataset, workload,
            SimulationConfig(strategy="bf", sim_time=600.0, seed=1),
        )
        assert run.records

        filtered = [(flt, res) for flt, res in calls if flt is not None]
        shipped = 0
        for flt, res in filtered:
            sky = res.skyline
            if sky.cardinality == 0:
                continue
            shipped += sky.cardinality
            f = np.array(normalize_values(flt.values, sky.schema))
            values = sky.normalized_values()
            dominated = (f <= values).all(axis=1) & (f < values).any(axis=1)
            at_site = (sky.xy[:, 0] == flt.site.x) & (sky.xy[:, 1] == flt.site.y)
            assert not dominated.any()
            assert not at_site.any()
        # The check saw real traffic, and the filter did remove rows.
        assert shipped > 0
        assert any(res.reduced_size < res.unreduced_size for _, res in filtered)
