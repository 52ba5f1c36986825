"""Tests for the mobility-driven data redistribution extension
(:mod:`tests.extensions.redistribution`)."""

import numpy as np
import pytest

from repro.core import skyline_of_relation
from repro.data import make_global_dataset
from repro.core.query import SkylineQuery
from repro.net import RadioConfig, RandomWaypoint, StaticPlacement
from repro.net.messages import tuple_bytes
from repro.protocol import SimulationConfig
from repro.protocol.coordinator import build_network
from repro.storage import Relation

from .extensions.redistribution import (
    RedistributionProcess,
    locality_score,
    redistribute_once,
)


@pytest.fixture
def dataset():
    return make_global_dataset(3000, 2, 9, "independent", seed=7, value_step=1.0)


class TestRedistributeOnce:
    def test_conserves_tuples(self, dataset):
        positions = [dataset.grid.cell_center(i) for i in range(9)]
        neighbors = [dataset.grid.neighbors(i) for i in range(9)]
        new, moved = redistribute_once(list(dataset.locals), positions, neighbors)
        before = sorted(
            sid for rel in dataset.locals for sid in rel.site_ids.tolist()
        )
        after = sorted(sid for rel in new for sid in rel.site_ids.tolist())
        assert before == after

    def test_already_local_data_does_not_move(self, dataset):
        """Devices sitting at their cell centres hold exactly the right
        data: nothing should move."""
        positions = [dataset.grid.cell_center(i) for i in range(9)]
        neighbors = [dataset.grid.neighbors(i) for i in range(9)]
        new, moved = redistribute_once(
            list(dataset.locals), positions, neighbors, improvement=1.0
        )
        assert moved == 0

    def test_improves_locality_after_shuffle(self, dataset):
        """Shuffle device positions, then redistribute: the locality
        score must improve."""
        rng = np.random.default_rng(4)
        perm = rng.permutation(9)
        positions = [dataset.grid.cell_center(int(perm[i])) for i in range(9)]
        # fully connected neighbourhood for the test
        neighbors = [[j for j in range(9) if j != i] for i in range(9)]
        relations = list(dataset.locals)
        before = locality_score(relations, positions)
        for _ in range(5):
            relations, _ = redistribute_once(relations, positions, neighbors)
        after = locality_score(relations, positions)
        assert after < before

    def test_converges(self, dataset):
        """Repeated rounds reach a fixed point (no ping-ponging)."""
        rng = np.random.default_rng(5)
        perm = rng.permutation(9)
        positions = [dataset.grid.cell_center(int(perm[i])) for i in range(9)]
        neighbors = [[j for j in range(9) if j != i] for i in range(9)]
        relations = list(dataset.locals)
        for _ in range(20):
            relations, moved = redistribute_once(relations, positions, neighbors)
            if moved == 0:
                break
        relations, moved = redistribute_once(relations, positions, neighbors)
        assert moved == 0

    def test_validation(self, dataset):
        with pytest.raises(ValueError):
            redistribute_once(list(dataset.locals), [(0.0, 0.0)], [[]])
        positions = [dataset.grid.cell_center(i) for i in range(9)]
        neighbors = [dataset.grid.neighbors(i) for i in range(9)]
        with pytest.raises(ValueError):
            redistribute_once(
                list(dataset.locals), positions, neighbors, improvement=-1.0
            )


class TestLocalityScore:
    def test_zero_when_colocated(self, schema2):
        rel = Relation.from_rows(schema2, [(5, 5, 1, 1)])
        assert locality_score([rel], [(5.0, 5.0)]) == 0.0

    def test_empty_relations(self, schema2):
        assert locality_score([Relation.empty(schema2)], [(0.0, 0.0)]) == 0.0

    def test_mismatched_lengths(self, schema2):
        with pytest.raises(ValueError):
            locality_score([Relation.empty(schema2)], [])


class TestInSimulation:
    def test_queries_stay_correct_under_redistribution(self, dataset):
        """Redistribution must never lose or fabricate data: a wide query
        after several rounds still returns the global skyline."""
        sim, world, devices = build_network(
            dataset,
            SimulationConfig(strategy="bf", sim_time=2000.0, seed=31),
            mobility=RandomWaypoint(9, seed=31, holding_time=10.0),
        )
        RedistributionProcess(world, devices, period=100.0, improvement=20.0)
        sim.run(until=950.0)
        # all tuples still exist exactly once
        all_ids = np.concatenate([d.relation.site_ids for d in devices])
        assert sorted(all_ids.tolist()) == sorted(
            dataset.global_relation.site_ids.tolist()
        )
        record = devices[4].issue_query(d=1.0e6)
        sim.run(until=1500.0)
        if len(record.contributions) == 8:  # fully reachable run
            got = sorted(map(tuple, record.result.values.tolist()))
            want = sorted(map(tuple, skyline_of_relation(
                dataset.global_relation).values.tolist()))
            assert got == want

    def test_moved_data_is_not_served_from_the_local_cache(self, dataset):
        """A device whose relation changed hands must answer from its
        new data, not from a result it cached before the round."""
        positions = [dataset.grid.cell_center(8 - i) for i in range(9)]
        sim, world, devices = build_network(
            dataset,
            SimulationConfig(strategy="bf", sim_time=2000.0, seed=31,
                             radio=RadioConfig(radio_range=1.0e5)),
            mobility=StaticPlacement(positions),
        )
        query = SkylineQuery(origin=4, cnt=0, pos=(0.0, 0.0), d=1.0e6)
        for device in devices:
            device.compute_local(query, None)
        proc = RedistributionProcess(world, devices, period=10.0,
                                     improvement=1.0)
        sim.run(until=15.0)
        assert proc.stats.tuples_moved > 0
        for device in devices:
            got = device.compute_local(query, None).skyline
            want = skyline_of_relation(device.relation)
            assert sorted(got.site_ids.tolist()) == sorted(want.site_ids.tolist())

    def test_stats_and_traffic_accounting(self, dataset):
        sim, world, devices = build_network(
            dataset,
            SimulationConfig(strategy="bf", sim_time=2000.0, seed=32),
            mobility=RandomWaypoint(9, seed=99, holding_time=5.0),
        )
        proc = RedistributionProcess(world, devices, period=50.0,
                                     improvement=10.0)
        sim.run(until=600.0)
        assert proc.stats.rounds >= 10
        assert proc.stats.tuples_moved > 0
        assert proc.stats.bytes_moved == proc.stats.tuples_moved * tuple_bytes(2)

    def test_invalid_period(self, dataset):
        sim, world, devices = build_network(
            dataset, SimulationConfig(seed=1),
        )
        with pytest.raises(ValueError):
            RedistributionProcess(world, devices, period=0.0)
