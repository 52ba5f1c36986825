"""Tests for the filter-set pruning oracle.

``tests/test_properties.py`` checks the Figure 4 pipeline's filtered
answer against :func:`~tests.oracles.skyline.prune_with_filters`; these
pin the oracle itself. The Section 7 filter-set choice
(:func:`repro.core.select_filter_set`) is swept by
``benchmarks/test_ablation_multifilter.py``.
"""

import numpy as np

from repro.core import FilteringTuple, skyline_of_relation
from repro.storage import Relation, SiteTuple, uniform_schema

from .oracles.skyline import prune_with_filters


def random_relation(n=100, dims=2, seed=0):
    rng = np.random.default_rng(seed)
    schema = uniform_schema(dims, high=1000.0)
    values = rng.integers(0, 1001, size=(n, dims)).astype(float)
    xy = rng.uniform(0, 1000, size=(n, 2))
    return Relation(schema, xy, values)


def make_filter(values, x=-1.0, y=-1.0):
    return FilteringTuple(site=SiteTuple(x=x, y=y, values=tuple(values)), vdr=0.0)


class TestPruneWithFilters:
    def test_empty_filters_identity(self):
        sky = skyline_of_relation(random_relation(seed=1))
        assert prune_with_filters(sky, []) is sky

    def test_union_of_filters_prunes_more(self):
        sky = skyline_of_relation(random_relation(seed=2))
        f1 = make_filter((100.0, 800.0))
        f2 = make_filter((800.0, 100.0))
        both = prune_with_filters(sky, [f1, f2]).cardinality
        only1 = prune_with_filters(sky, [f1]).cardinality
        only2 = prune_with_filters(sky, [f2]).cardinality
        assert both <= min(only1, only2)

    def test_same_site_filters_removed(self):
        schema = uniform_schema(2, high=10.0)
        rel = Relation.from_rows(schema, [(3, 3, 5, 5), (1, 1, 2, 9)])
        sky = skyline_of_relation(rel)
        flt = make_filter((5.0, 5.0), x=3.0, y=3.0)
        pruned = prune_with_filters(sky, [flt])
        assert (3.0, 3.0) not in {(s.x, s.y) for s in pruned.rows()}
