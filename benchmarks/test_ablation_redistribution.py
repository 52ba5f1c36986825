"""Ablation — data redistribution under mobility (Section 7 future work).

Devices drift away from the data they host; periodic neighbour-to-
neighbour hand-offs restore locality. This bench quantifies the repair:
after heavy mobility, redistribution must cut the tuple-to-host distance
substantially, at a bounded (and reported) transfer cost.
"""

import pytest

from repro.data import make_global_dataset
from repro.net import RandomWaypoint
from repro.net.messages import tuple_bytes
from repro.protocol import SimulationConfig
from repro.protocol.coordinator import build_network
from tests.extensions.redistribution import (
    RedistributionProcess,
    locality_score,
)


@pytest.fixture(scope="module")
def dataset():
    return make_global_dataset(10_000, 2, 25, "independent", seed=404,
                               value_step=1.0)


def run_with_redistribution(dataset, enabled, until=1801.0, seed=77):
    """Pedestrian-speed mobility: redistribution can only restore
    locality when devices move slower than the repair period — at the
    paper's vehicular speeds (2-10 m/s) a device crosses the whole map
    between rounds and no placement survives. Locality is measured just
    after a round boundary."""
    sim, world, devices = build_network(
        dataset,
        SimulationConfig(strategy="bf", sim_time=until + 600.0, seed=seed),
        mobility=RandomWaypoint(
            dataset.devices, seed=seed,
            speed_range=(0.3, 1.0), holding_time=120.0,
        ),
    )
    proc = None
    if enabled:
        proc = RedistributionProcess(world, devices, period=120.0,
                                     improvement=25.0)
    sim.run(until=until)
    positions = [world.position(d.node_id) for d in devices]
    score = locality_score([d.relation for d in devices], positions)
    return score, proc


class TestRedistributionAblation:
    def test_redistribution_restores_locality(self, benchmark, dataset):
        with_score, proc = benchmark.pedantic(
            lambda: run_with_redistribution(dataset, True),
            rounds=1, iterations=1,
        )
        without_score, _ = run_with_redistribution(dataset, False)
        assert with_score < without_score * 0.8, (
            f"redistribution should cut tuple-to-host distance: "
            f"with={with_score:.1f} m, without={without_score:.1f} m"
        )
        assert proc.stats.tuples_moved > 0

    def test_transfer_cost_is_bounded(self, benchmark, dataset):
        """The mechanism must not thrash: total moved tuples over 30
        minutes stays within a small multiple of the dataset size, and
        every moved tuple is charged its wire size."""
        _, proc = benchmark.pedantic(
            lambda: run_with_redistribution(dataset, True),
            rounds=1, iterations=1,
        )
        assert proc.stats.tuples_moved < 5 * dataset.global_relation.cardinality
        assert proc.stats.bytes_moved > 0
        assert proc.stats.bytes_moved == proc.stats.tuples_moved * tuple_bytes(2)
