"""Ablation — the multi-filter extension (the paper's Section 7 future
work): "to generalize the filtering idea, using more than one filtering
tuple. Important questions include how many, and which, tuples should be
used as filters".

We implement the greedy max-union-volume selection
(:func:`tests.extensions.multifilter.select_filter_set`) and measure, on
the static grid, how pooled DRR moves with k when each shipped filter is
charged its own tuple cost (the honest version of Formula 1's "-1").
"""

import numpy as np
import pytest

from repro.core import Estimation
from repro.core.filtering import normalize_values
from repro.data import make_global_dataset
from repro.metrics import drr_of_pairs
from repro.protocol.static_grid import StaticGridCache
from tests.extensions.multifilter import select_filter_set


@pytest.fixture(scope="module")
def dataset():
    return make_global_dataset(30_000, 2, 25, "anticorrelated", seed=202,
                               value_step=1.0)


@pytest.fixture(scope="module")
def cache(dataset):
    return StaticGridCache(dataset)


def pruning_pairs(dataset, cache, k):
    """``(|SK_i|, |SK'_i|)`` pairs for every (originator, device) pair
    when the originator ships its greedy k-filter set."""
    schema = dataset.schema
    pairs = []
    for originator in range(dataset.devices):
        sky = cache.skylines[originator]
        if sky.cardinality == 0:
            continue
        filters = select_filter_set(sky, k, Estimation.EXACT)
        flt_norm = np.array(
            [normalize_values(f.values, schema) for f in filters]
        )
        for device in range(dataset.devices):
            if device == originator:
                continue
            local = cache.skylines[device]
            if local.cardinality == 0:
                continue
            values = local.normalized_values()
            dominated = np.zeros(local.cardinality, dtype=bool)
            for f in flt_norm:
                no_worse = (f[None, :] <= values).all(axis=1)
                better = (f[None, :] < values).any(axis=1)
                dominated |= no_worse & better
            pairs.append((local.cardinality, int((~dominated).sum())))
    return pairs


class TestMultiFilter:
    def test_net_drr_sweep(self, benchmark, dataset, cache):
        """The paper's open question, answered empirically: net DRR per
        k, charging k tuples of shipping cost per device."""
        net = benchmark.pedantic(
            lambda: {
                k: drr_of_pairs(pruning_pairs(dataset, cache, k), filter_cost=k)
                for k in (1, 2, 3, 4)
            },
            rounds=1, iterations=1,
        )
        assert all(v is not None for v in net.values())
        # the sweep must be well-behaved: going 1 -> 2 filters never
        # collapses the benefit (the second filter is greedy-optimal)
        assert net[2] > net[1] - 0.2, net

    def test_gross_pruning_monotone_in_k(self, benchmark, dataset, cache):
        """Ignoring shipping cost, the nested greedy sets prune
        monotonically more as k grows."""
        gross = benchmark.pedantic(lambda: {
            k: drr_of_pairs(pruning_pairs(dataset, cache, k), filter_cost=0)
            for k in (1, 2, 4)
        }, rounds=1, iterations=1)
        assert gross[2] >= gross[1] - 1e-9, gross
        assert gross[4] >= gross[2] - 1e-9, gross

    def test_extra_filters_help_most_on_anticorrelated(self, benchmark, cache, dataset):
        """On AC data one tuple's dominating region misses whole flanks
        of the anti-diagonal; extra filters must add real gross pruning."""
        gross1 = benchmark.pedantic(
            lambda: drr_of_pairs(pruning_pairs(dataset, cache, 1), filter_cost=0),
            rounds=1, iterations=1,
        )
        gross4 = drr_of_pairs(pruning_pairs(dataset, cache, 4), filter_cost=0)
        assert gross4 > gross1, (gross1, gross4)
