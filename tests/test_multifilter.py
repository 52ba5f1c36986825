"""Tests for the multi-filter local processing extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Estimation,
    FilteringTuple,
    SkylineQuery,
    local_skyline_vectorized,
    select_filter,
    select_filter_set,
    skyline_of_relation,
)
from repro.core.multifilter import (
    local_skyline_multifilter,
    prune_with_filters,
)
from repro.storage import Relation, SiteTuple, uniform_schema

WIDE = SkylineQuery(origin=0, cnt=0, pos=(500.0, 500.0), d=1.0e9)


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


def test_mbr_skip_keeps_edge_tuple():
    """The MBR skip agrees with the range test on a tuple where
    ``math.hypot`` reads one ulp beyond the query distance."""
    rel = Relation.from_rows(
        uniform_schema(2, high=10.0),
        [(33.67397851244425, 522.0060931059838, 1.0, 2.0)],
    )
    query = SkylineQuery(origin=0, cnt=0, pos=(0.0, 0.0), d=523.0910992060843)
    res = local_skyline_multifilter(rel, query)
    assert res.skipped is None
    assert res.skyline.rows() == rel.rows()


class TestMultiFilterLocal:
    def test_k1_matches_single_filter_path(self):
        """With one incoming filter and k=1, the multi-filter result's
        pruning matches the single-filter pipeline."""
        rel = random_relation(seed=3)
        other = skyline_of_relation(random_relation(seed=4))
        flt = select_filter(other, Estimation.EXACT)
        single = local_skyline_vectorized(rel, WIDE, flt,
                                          estimation=Estimation.EXACT)
        multi = local_skyline_multifilter(rel, WIDE, [flt], k=1,
                                          estimation=Estimation.EXACT)
        def key(r):
            return sorted(map(tuple, r.values.tolist()))
        assert key(single.skyline) == key(multi.skyline)
        assert single.unreduced_size == multi.unreduced_size

    def test_more_filters_never_increase_transfer(self):
        rel = random_relation(seed=5)
        other = skyline_of_relation(random_relation(seed=6))
        sizes = []
        for k in (1, 2, 4):
            filters = select_filter_set(other, k, Estimation.EXACT)
            res = local_skyline_multifilter(rel, WIDE, filters, k=k,
                                            estimation=Estimation.EXACT)
            sizes.append(res.reduced_size)
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_filter_safety(self):
        """No member of the combined skyline that only this device holds
        may be pruned by any filter set."""
        rel_a = random_relation(seed=7)
        rel_b = random_relation(seed=8)
        sky_b = skyline_of_relation(rel_b)
        filters = select_filter_set(sky_b, 3, Estimation.EXACT)
        res = local_skyline_multifilter(rel_a, WIDE, filters, k=3,
                                        estimation=Estimation.EXACT)
        combined = skyline_of_relation(rel_a.union(rel_b))
        kept = {(s.x, s.y) for s in res.skyline.rows()}
        a_sites = {(float(x), float(y)) for x, y in rel_a.xy}
        for site in combined.rows():
            if (site.x, site.y) in a_sites:
                assert (site.x, site.y) in kept

    def test_promotion_produces_k_filters(self):
        rel = random_relation(seed=9)
        res = local_skyline_multifilter(rel, WIDE, [], k=3)
        assert 1 <= len(res.updated_filters) <= 3

    def test_mbr_skip(self):
        rel = random_relation(seed=10)
        far = SkylineQuery(origin=0, cnt=0, pos=(90_000.0, 0.0), d=5.0)
        res = local_skyline_multifilter(rel, far, [])
        assert res.skipped == "mbr"

    def test_dominated_skip_with_any_filter(self):
        rel = random_relation(seed=11)
        killer = make_filter((-5.0, -5.0))
        weak = make_filter((900.0, 900.0))
        res = local_skyline_multifilter(rel, WIDE, [weak, killer])
        assert res.skipped == "dominated"
        assert res.reduced_size == 0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            local_skyline_multifilter(random_relation(), WIDE, [], k=0)

    def test_empty_relation(self, schema2):
        res = local_skyline_multifilter(Relation.empty(schema2), WIDE, [])
        assert res.skipped == "mbr"

    @given(st.integers(0, 10**6), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_result_subset_of_unfiltered_skyline(self, seed, k):
        rel = random_relation(n=40, seed=seed)
        other = skyline_of_relation(random_relation(n=40, seed=seed + 1))
        filters = select_filter_set(other, k, Estimation.EXACT)
        res = local_skyline_multifilter(rel, WIDE, filters, k=k)
        unfiltered = local_skyline_multifilter(rel, WIDE, [], k=k)
        kept = set(map(tuple, res.skyline.values.tolist()))
        full = set(map(tuple, unfiltered.skyline.values.tolist()))
        assert kept.issubset(full)
