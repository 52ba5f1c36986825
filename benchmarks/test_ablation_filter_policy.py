"""Ablation — filter selection policy: max-VDR vs. random vs. none.

The paper's policy picks the local skyline tuple with the maximum volume
of dominating region (Section 3.2). This ablation checks that choice
against a random skyline member and against sending no filter at all,
using pooled static-grid DRR (with the same per-device filter cost
charged to both filtering policies).
"""

import numpy as np
import pytest

from repro.core import Estimation, FilteringTuple, SkylineQuery
from repro.core import local_skyline_vectorized, skyline_of_relation
from repro.data import make_global_dataset
from repro.metrics import data_reduction_rate, drr_of_pairs
from repro.protocol import run_static_grid


@pytest.fixture(scope="module")
def dataset():
    return make_global_dataset(30_000, 2, 25, "independent", seed=101,
                               value_step=1.0)


def drr_with_random_filter(dataset, seed=0):
    """Static-grid DRR when the originator picks a *random* skyline
    member instead of the max-VDR one (no dynamic updates, to isolate
    the selection policy)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for originator in range(dataset.devices):
        sky = skyline_of_relation(dataset.local(originator))
        if sky.cardinality == 0:
            continue
        pick = int(rng.integers(0, sky.cardinality))
        flt = FilteringTuple(site=sky.row(pick), vdr=0.0)
        # The pre-test ignores the query distance.
        query = SkylineQuery(
            origin=originator, cnt=0,
            pos=dataset.grid.cell_center(originator), d=1.0e12,
        )
        for device in range(dataset.devices):
            if device == originator:
                continue
            res = local_skyline_vectorized(dataset.local(device), query, flt)
            pairs.append((res.unreduced_size, res.reduced_size))
    return drr_of_pairs(pairs)


def drr_with_max_vdr(dataset):
    outcomes = run_static_grid(
        dataset, dynamic_filter=False, estimation=Estimation.EXACT
    )
    return data_reduction_rate(outcomes)


class TestFilterPolicy:
    def test_max_vdr_beats_random(self, benchmark, dataset):
        max_vdr = benchmark.pedantic(
            drr_with_max_vdr, args=(dataset,), rounds=1, iterations=1
        )
        random_picks = np.mean(
            [drr_with_random_filter(dataset, seed=s) for s in range(5)]
        )
        assert max_vdr > random_picks, (
            f"max-VDR ({max_vdr:.3f}) must beat a random skyline member "
            f"({random_picks:.3f})"
        )

    def test_any_filter_beats_none(self, benchmark, dataset):
        """No filter -> nothing pruned -> DRR 0 by definition (no filter
        cost charged either). Max-VDR must be positive to justify itself."""
        filtered = benchmark.pedantic(
            lambda: drr_with_max_vdr(dataset), rounds=1, iterations=1,
        )
        outcomes = run_static_grid(dataset, use_filter=False)
        unfiltered = data_reduction_rate(outcomes, filter_cost=0)
        assert unfiltered == 0.0
        assert filtered > unfiltered
