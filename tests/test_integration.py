"""Cross-module integration tests.

These exercise the full pipeline — dataset -> storage -> protocol ->
metrics — in configurations the unit tests don't combine.
"""

import numpy as np
import pytest

from repro.core import skyline_of_relation
from repro.data import QueryRequest, make_global_dataset
from repro.net import RadioConfig, StaticPlacement
from repro.protocol import SimulationConfig, run_manet_simulation
from repro.storage import union_all


def grid_static(dataset, radio_range=360.0):
    positions = [dataset.grid.cell_center(i) for i in range(dataset.devices)]
    return StaticPlacement(positions)


@pytest.fixture(scope="module")
def dataset():
    return make_global_dataset(6000, 3, 9, "anticorrelated", seed=321,
                               value_step=1.0)


class TestBfDfEquivalence:
    def test_same_final_result(self, dataset):
        """Under full reachability and no mobility, BF and DF must return
        the exact same skyline for the same query."""
        results = {}
        for strategy in ("bf", "df"):
            wl = [QueryRequest(device=4, time=1.0, distance=500.0)]
            config = SimulationConfig(
                strategy=strategy, sim_time=400.0, seed=5,
                radio=RadioConfig(radio_range=360.0),
            )
            out = run_manet_simulation(
                dataset, wl, config, mobility=grid_static(dataset)
            )
            record = out.records[0]
            results[strategy] = sorted(
                map(tuple, record.result.values.tolist())
            )
        assert results["bf"] == results["df"]
        central = skyline_of_relation(
            union_all(list(dataset.locals)).restrict(
                dataset.grid.cell_center(4), 500.0
            )
        )
        assert results["bf"] == sorted(map(tuple, central.values.tolist()))


class TestBfMatchesCentralized:
    def test_corner_query_matches_centralized(self, dataset):
        """A BF query from a corner device returns the centralized
        skyline of its disk."""
        wl = [QueryRequest(device=0, time=1.0, distance=600.0)]
        config = SimulationConfig(
            strategy="bf", sim_time=400.0, seed=6,
            radio=RadioConfig(radio_range=360.0),
        )
        out = run_manet_simulation(
            dataset, wl, config, mobility=grid_static(dataset)
        )
        record = out.records[0]
        central = skyline_of_relation(
            union_all(list(dataset.locals)).restrict(record.query.pos, 600.0)
        )
        assert sorted(map(tuple, record.result.values.tolist())) == sorted(
            map(tuple, central.values.tolist())
        )


class TestOverlappingPartitions:
    def test_duplicates_from_replication_eliminated(self):
        """With replicated tuples across devices, the final skyline must
        contain each site exactly once."""
        dataset = make_global_dataset(
            4000, 2, 9, "independent", seed=9, value_step=1.0,
            replication=0.4,
        )
        wl = [QueryRequest(device=4, time=1.0, distance=1.0e6)]
        config = SimulationConfig(
            strategy="bf", sim_time=400.0, seed=7,
            radio=RadioConfig(radio_range=360.0),
        )
        out = run_manet_simulation(
            dataset, wl, config, mobility=grid_static(dataset)
        )
        record = out.records[0]
        result = record.result
        locations = list(map(tuple, result.xy.tolist()))
        assert len(locations) == len(set(locations))
        central = skyline_of_relation(dataset.global_relation)
        assert sorted(map(tuple, result.values.tolist())) == sorted(
            map(tuple, central.values.tolist())
        )


class TestMultiQueryWorkload:
    @pytest.mark.parametrize("strategy", ["bf", "df"])
    def test_interleaved_queries_all_correct(self, dataset, strategy):
        """Several devices query concurrently; every record must be a
        correct skyline of its own region."""
        wl = [
            QueryRequest(device=d, time=1.0 + 0.01 * d, distance=450.0)
            for d in (0, 4, 8)
        ]
        config = SimulationConfig(
            strategy=strategy, sim_time=500.0, seed=8,
            radio=RadioConfig(radio_range=360.0),
        )
        out = run_manet_simulation(
            dataset, wl, config, mobility=grid_static(dataset)
        )
        assert out.issued == 3
        union = union_all(list(dataset.locals))
        for record in out.records:
            want = skyline_of_relation(
                union.restrict(record.query.pos, record.query.d)
            )
            got = sorted(map(tuple, record.result.values.tolist()))
            assert got == sorted(map(tuple, want.values.tolist()))

    def test_query_log_separates_originators(self, dataset):
        """Two originators' concurrent queries do not collide in the
        per-device logs (distinct (id, cnt) keys)."""
        wl = [
            QueryRequest(device=0, time=1.0, distance=400.0),
            QueryRequest(device=8, time=1.0, distance=400.0),
        ]
        config = SimulationConfig(
            strategy="bf", sim_time=400.0, seed=9,
            radio=RadioConfig(radio_range=360.0),
        )
        out = run_manet_simulation(
            dataset, wl, config, mobility=grid_static(dataset)
        )
        assert out.issued == 2
        keys = {r.query.key for r in out.records}
        assert len(keys) == 2


class TestMixedPreferenceEndToEnd:
    def test_distributed_matches_centralized_with_max_attribute(self):
        """The tourist scenario's mixed schema, verified end to end."""
        from repro.storage import AttributeSpec, Preference, Relation, RelationSchema
        from repro.data.partition import GlobalDataset, GridPartition
        from repro.data.spatial import uniform_positions

        schema = RelationSchema(
            attributes=(
                AttributeSpec("price", 0.0, 100.0),
                AttributeSpec("rating", 0.0, 5.0, preference=Preference.MAX),
            ),
        )
        rng = np.random.default_rng(77)
        n = 3000
        xy = uniform_positions(n, schema.spatial_extent, rng)
        values = np.column_stack(
            [rng.uniform(0, 100, n), np.round(rng.uniform(0, 5, n), 1)]
        )
        global_rel = Relation(schema, xy, values)
        grid = GridPartition(k=3, extent=schema.spatial_extent)
        cells = grid.assign(xy)
        locals_ = tuple(
            Relation(schema, xy[cells == c], values[cells == c],
                     global_rel.site_ids[cells == c])
            for c in range(9)
        )
        dataset = GlobalDataset(
            schema=schema, global_relation=global_rel,
            locals=locals_, grid=grid,
        )
        wl = [QueryRequest(device=4, time=1.0, distance=600.0)]
        config = SimulationConfig(
            strategy="bf", sim_time=300.0, seed=3,
            radio=RadioConfig(radio_range=360.0),
        )
        out = run_manet_simulation(
            dataset, wl, config, mobility=grid_static(dataset)
        )
        record = out.records[0]
        central = skyline_of_relation(
            global_rel.restrict(record.query.pos, 600.0)
        )
        assert sorted(map(tuple, record.result.values.tolist())) == sorted(
            map(tuple, central.values.tolist())
        )
