"""Tests for the Figure 4 local skyline algorithm across storage paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuous import ContinuousConfig, run_continuous_simulation
from repro.core import (
    Estimation,
    FilteringTuple,
    LocalResultCache,
    LocalSkylineResult,
    SkylineQuery,
    estimation_bounds,
    local_skyline,
    local_skyline_vectorized,
    promote_filter,
    select_filter,
    skyline_of_relation,
)
from repro.core import local as local_module
from repro.core.dominance import dominated_mask
from repro.data import QueryRequest, make_global_dataset
from repro.protocol import SimulationConfig, run_manet_simulation
from repro.storage import (
    DomainStorage,
    FlatStorage,
    HybridStorage,
    Relation,
    RingStorage,
    SiteTuple,
    uniform_schema,
)

from .oracles.skyline import bnl_of_relation

QUERY = SkylineQuery(origin=0, cnt=0, pos=(500.0, 500.0), d=300.0)
WIDE = SkylineQuery(origin=0, cnt=0, pos=(500.0, 500.0), d=1.0e9)


def random_relation(n=150, dims=2, seed=0, distinct=20):
    rng = np.random.default_rng(seed)
    schema = uniform_schema(dims, low=0.0, high=1000.0)
    values = (
        rng.integers(0, distinct, size=(n, dims)).astype(float)
        * (1000.0 / max(distinct - 1, 1))
    )
    xy = np.column_stack([rng.uniform(0, 1000, n), rng.uniform(0, 1000, n)])
    return Relation(schema, xy, values)


def result_key(res):
    rel = res.skyline
    return sorted(map(tuple, np.column_stack([rel.xy, rel.values]).tolist()))


def random_filter(rel, seed=1):
    rng = np.random.default_rng(seed)
    vals = tuple(float(v) for v in rng.uniform(0, 600, rel.dimensions))
    site = SiteTuple(x=-1.0, y=-1.0, values=vals)
    return FilteringTuple(site=site, vdr=0.0)


class TestAgreementAcrossPaths:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("use_filter", [False, True])
    def test_all_paths_agree(self, seed, use_filter):
        rel = random_relation(seed=seed)
        flt = random_filter(rel, seed + 50) if use_filter else None
        results = [
            local_skyline(HybridStorage(rel), QUERY, flt),
            local_skyline(FlatStorage(rel), QUERY, flt),
            local_skyline(DomainStorage(rel), QUERY, flt),
            local_skyline(RingStorage(rel), QUERY, flt),
            local_skyline_vectorized(rel, QUERY, flt),
        ]
        keys = [result_key(r) for r in results]
        assert all(k == keys[0] for k in keys)
        sizes = {r.unreduced_size for r in results if r.skipped is None}
        assert len(sizes) <= 1

    @pytest.mark.parametrize("dims", [2, 3, 4])
    def test_dims_agree(self, dims):
        rel = random_relation(n=100, dims=dims, seed=dims)
        a = local_skyline(HybridStorage(rel), QUERY)
        b = local_skyline_vectorized(rel, QUERY)
        assert result_key(a) == result_key(b)


class TestCorrectness:
    def test_matches_restrict_then_skyline(self):
        rel = random_relation(seed=9)
        res = local_skyline_vectorized(rel, QUERY)
        expected = skyline_of_relation(rel.restrict(QUERY.pos, QUERY.d))
        assert result_key(res) == sorted(
            map(tuple, np.column_stack([expected.xy, expected.values]).tolist())
        )

    def test_unfiltered_unreduced_equals_reduced(self):
        rel = random_relation(seed=10)
        res = local_skyline_vectorized(rel, QUERY)
        assert res.unreduced_size == res.reduced_size

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_filter_never_removes_global_skyline_member(self, seed):
        """Safety: a filtering tuple from *real data elsewhere* must never
        prune a tuple that belongs to the combined skyline."""
        rel_a = random_relation(n=60, seed=seed)
        rel_b = random_relation(n=60, seed=seed + 10_000)
        sky_b = skyline_of_relation(rel_b.restrict(WIDE.pos, WIDE.d))
        if sky_b.cardinality == 0:
            return
        flt = select_filter(sky_b, Estimation.EXACT)
        res = local_skyline_vectorized(rel_a, WIDE, flt)
        combined = skyline_of_relation(rel_a.union(rel_b))
        kept = set(map(tuple, res.skyline.values.tolist()))
        # every combined-skyline member coming from rel_a must be kept
        a_rows = set(map(tuple, rel_a.values.tolist()))
        for row in map(tuple, combined.values.tolist()):
            if row in a_rows:
                assert row in kept


class TestSkips:
    def test_mbr_skip(self):
        rel = random_relation(seed=11)
        far = SkylineQuery(origin=0, cnt=0, pos=(50_000.0, 50_000.0), d=10.0)
        for storage in (HybridStorage(rel), FlatStorage(rel)):
            res = local_skyline(storage, far)
            assert res.skipped == "mbr"
            assert res.reduced_size == 0
        res = local_skyline_vectorized(rel, far)
        assert res.skipped == "mbr"

    def test_dominated_skip_hybrid(self):
        rel = random_relation(seed=12)
        site = SiteTuple(x=-1, y=-1, values=(-5.0, -5.0))
        flt = FilteringTuple(site=site, vdr=1e9)
        res = local_skyline(HybridStorage(rel), WIDE, flt)
        assert res.skipped == "dominated"
        assert res.reduced_size == 0
        # faithful path: never computed the skyline
        assert res.unreduced_size == 0

    def test_dominated_skip_vectorized_annotates_unreduced(self):
        rel = random_relation(seed=12)
        site = SiteTuple(x=-1, y=-1, values=(-5.0, -5.0))
        flt = FilteringTuple(site=site, vdr=1e9)
        res = local_skyline_vectorized(rel, WIDE, flt)
        assert res.skipped == "dominated"
        assert res.reduced_size == 0
        # metric annotation: the true |SK_i| for the DRR formula
        expected = skyline_of_relation(rel).cardinality
        assert res.unreduced_size == expected

    def test_tie_on_all_attributes_is_not_dominated_skip(self):
        """A filter exactly equal to the local lows must NOT wipe the
        relation: an equal-valued local tuple is a distinct site and
        belongs in the skyline."""
        schema = uniform_schema(2, high=10.0)
        rel = Relation.from_rows(schema, [(1, 1, 3, 3), (2, 2, 5, 5)])
        flt = FilteringTuple(
            site=SiteTuple(x=-1, y=-1, values=(3.0, 3.0)), vdr=0.0
        )
        for res in (
            local_skyline(HybridStorage(rel), WIDE, flt),
            local_skyline(FlatStorage(rel), WIDE, flt),
            local_skyline_vectorized(rel, WIDE, flt),
        ):
            assert res.skipped != "dominated"
            assert (3.0, 3.0) in set(map(tuple, res.skyline.values.tolist()))

    def test_same_site_duplicate_of_filter_removed(self):
        schema = uniform_schema(2, high=10.0)
        rel = Relation.from_rows(schema, [(7, 7, 3, 3), (2, 2, 1, 5)])
        flt = FilteringTuple(
            site=SiteTuple(x=7.0, y=7.0, values=(3.0, 3.0)), vdr=0.0
        )
        for res in (
            local_skyline(HybridStorage(rel), WIDE, flt),
            local_skyline(FlatStorage(rel), WIDE, flt),
            local_skyline_vectorized(rel, WIDE, flt),
        ):
            kept = set(map(tuple, np.column_stack(
                [res.skyline.xy, res.skyline.values]).tolist()))
            assert (7.0, 7.0, 3.0, 3.0) not in kept

    def test_empty_relation(self, schema2):
        rel = Relation.empty(schema2)
        res = local_skyline(HybridStorage(rel), WIDE)
        assert res.reduced_size == 0 and res.skipped == "mbr"


#: A tuple on the edge of the query disk where ``math.hypot`` reads one
#: ulp more than the squared-distance range test (``Relation.within``).
EDGE_ROW = (33.67397851244425, 522.0060931059838, 1.0, 2.0)
EDGE_QUERY = SkylineQuery(origin=0, cnt=0, pos=(0.0, 0.0), d=523.0910992060843)


class TestMbrSkipBoundary:
    """The MBR skip must use the range test's arithmetic, so it never
    rejects a relation holding a tuple that the range test keeps."""

    @pytest.mark.parametrize("processor", ["vectorized", "hybrid", "flat"])
    def test_edge_tuple_is_answered(self, processor):
        rel = Relation.from_rows(uniform_schema(2, high=10.0), [EDGE_ROW])
        assert rel.within(EDGE_QUERY.pos, EDGE_QUERY.d).all()
        if processor == "vectorized":
            res = local_skyline_vectorized(rel, EDGE_QUERY)
        else:
            storage_cls = HybridStorage if processor == "hybrid" else FlatStorage
            res = local_skyline(storage_cls(rel), EDGE_QUERY)
        assert res.skipped is None
        assert res.in_range == 1
        assert res.skyline.rows() == rel.rows()


class TestCachedSkylineView:
    """A range that holds the relation's whole skyline ``S`` is answered
    with ``S`` from the relation's cached view, without the kernel."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Row counts of the ``skyline_numpy`` runs made during a test."""
        import repro.core.skyline as skyline_module

        calls = []
        kernel = skyline_module.skyline_numpy

        def counting(values, *args, **kwargs):
            calls.append(values.shape[0])
            return kernel(values, *args, **kwargs)

        monkeypatch.setattr(skyline_module, "skyline_numpy", counting)
        return calls

    @staticmethod
    def fields(res):
        return (
            res.skyline.xy.tolist(), res.skyline.values.tolist(),
            res.skyline.site_ids.tolist(), res.unreduced_size, res.skipped,
            res.updated_filter, res.scanned, res.in_range,
        )

    def test_covered_repeat_runs_no_kernel(self, kernel_calls):
        # S = the two rows near the origin; the far rows are dominated.
        rel = Relation.from_rows(uniform_schema(2, high=10.0), [
            (10, 10, 1, 5), (20, 20, 5, 1), (900, 900, 6, 6), (800, 900, 7, 3),
        ])
        first = local_skyline_vectorized(rel, WIDE)
        assert kernel_calls == [4]
        assert rel.skyline_rows().tolist() == [0, 1]
        assert self.fields(local_skyline_vectorized(rel, WIDE)) == self.fields(first)
        only_s = SkylineQuery(origin=0, cnt=0, pos=(15.0, 15.0), d=20.0)
        res = local_skyline_vectorized(rel, only_s)
        assert kernel_calls == [4]
        assert res.in_range == 2 and res.skyline.rows() == first.skyline.rows()
        # A range missing a row of S runs the kernel on its in-range rows.
        partial = SkylineQuery(origin=0, cnt=0, pos=(10.0, 10.0), d=1.0)
        res = local_skyline_vectorized(rel, partial)
        assert kernel_calls == [4, 1]
        assert res.skyline.rows() == [rel.row(0)]

    @pytest.fixture
    def within_calls(self, monkeypatch):
        """Number of ``Relation.within`` range masks built during a test."""
        calls = []
        within = Relation.within

        def counting(rel, pos, d):
            calls.append(d)
            return within(rel, pos, d)

        monkeypatch.setattr(Relation, "within", counting)
        return calls

    def test_covering_disk_builds_no_range_mask(
        self, kernel_calls, within_calls
    ):
        rel = random_relation(seed=5)
        first = local_skyline_vectorized(rel, WIDE)
        again = local_skyline_vectorized(rel, WIDE)
        assert within_calls == [] and kernel_calls == [rel.cardinality]
        assert first.in_range == again.in_range == rel.cardinality
        assert self.fields(again) == self.fields(first)
        assert first.skyline.rows() == bnl_of_relation(rel).rows()

    def test_cut_runs_kernel_on_rows_s_leaves(self, kernel_calls, within_calls):
        rel = random_relation(n=400, seed=8)
        local_skyline_vectorized(rel, WIDE)
        sky = rel.skyline_rows()
        # A disk around one skyline row that misses some of the others.
        x, y = rel.xy[sky[0]]
        cut = SkylineQuery(origin=0, cnt=0, pos=(float(x), float(y)), d=350.0)
        mask = rel.within(cut.pos, cut.d)
        within_calls.clear()
        assert 0 < mask[sky].sum() < sky.shape[0]
        res = local_skyline_vectorized(rel, cut)
        assert len(within_calls) == 1
        values = rel.normalized_values()
        dominated = dominated_mask(values[sky[mask[sky]]], values)
        left = int((mask & ~dominated).sum())
        assert kernel_calls == [rel.cardinality, left]
        assert left < res.in_range == int(mask.sum())
        expected = bnl_of_relation(rel.restrict(cut.pos, cut.d))
        assert res.skyline.rows() == expected.rows()

    def test_partial_range_stores_no_view(self, kernel_calls):
        rel = random_relation(seed=21)
        fresh = random_relation(seed=21)
        for _ in range(2):
            res = local_skyline_vectorized(rel, QUERY)
            assert rel.skyline_rows() is None
            assert self.fields(res) == self.fields(
                local_skyline_vectorized(fresh, QUERY))
        assert len(kernel_calls) == 4


class TestFilterPromotion:
    def test_promotes_stronger_local_tuple(self):
        schema = uniform_schema(2, high=10.0)
        rel = Relation.from_rows(schema, [(1, 1, 1, 1)])
        weak = FilteringTuple(
            site=SiteTuple(x=-1, y=-1, values=(9.0, 9.0)), vdr=1.0
        )
        res = local_skyline(HybridStorage(rel), WIDE, weak,
                            estimation=Estimation.EXACT)
        assert res.updated_filter.values == (1.0, 1.0)

    def test_keeps_stronger_incoming(self):
        schema = uniform_schema(2, high=10.0)
        rel = Relation.from_rows(schema, [(1, 1, 8, 8)])
        strong = FilteringTuple(
            site=SiteTuple(x=-1, y=-1, values=(2.0, 2.0)), vdr=64.0
        )
        res = local_skyline(HybridStorage(rel), WIDE, strong,
                            estimation=Estimation.EXACT)
        assert res.updated_filter.values == (2.0, 2.0)

    def test_no_filter_yields_candidate(self):
        rel = random_relation(seed=20)
        res = local_skyline(HybridStorage(rel), WIDE, None)
        assert res.updated_filter is not None

    def test_incoming_vdr_reevaluated_under_local_bounds(self):
        """Promotion compares VDRs under *this* device's bounds, not the
        stale score computed elsewhere."""
        schema = uniform_schema(2, high=10.0)
        rel = Relation.from_rows(schema, [(1, 1, 4, 4)])
        # Incoming filter claims a huge stale VDR but its values are weak.
        stale = FilteringTuple(
            site=SiteTuple(x=-1, y=-1, values=(9.0, 9.0)), vdr=1e9
        )
        res = local_skyline(HybridStorage(rel), WIDE, stale,
                            estimation=Estimation.EXACT)
        assert res.updated_filter.values == (4.0, 4.0)


class TestDeferredPromotion:
    """The vectorised path promotes the filter on the first read of
    ``updated_filter``; the value is the one an eager promotion under
    the same bounds picks."""

    FILTERS = {
        "none": None,
        "weak": FilteringTuple(
            site=SiteTuple(x=-1.0, y=-1.0, values=(990.0, 990.0)), vdr=0.0
        ),
        "strong": FilteringTuple(
            site=SiteTuple(x=-1.0, y=-1.0, values=(200.0, 200.0)), vdr=0.0
        ),
    }

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("incoming", sorted(FILTERS))
    @pytest.mark.parametrize("estimation", list(Estimation))
    def test_lazy_value_equals_eager_promotion(self, seed, incoming, estimation):
        rel = random_relation(seed=seed)
        flt = self.FILTERS[incoming]
        res = local_skyline_vectorized(rel, QUERY, flt, estimation=estimation)
        bounds = estimation_bounds(
            rel.schema, estimation, local_highs=rel.normalized_worst()
        )
        got = res.updated_filter
        assert got == promote_filter(res.skyline, flt, bounds)
        assert res.updated_filter is got
        if flt is None:
            assert got is not None

    def test_cache_hit_reads_the_same_value(self):
        rel = random_relation(seed=7)
        cache = LocalResultCache()
        key = LocalResultCache.signature(0, QUERY, None)
        cache.put(key, local_skyline_vectorized(rel, QUERY))
        eager = promote_filter(
            local_skyline_vectorized(rel, QUERY).skyline, None,
            estimation_bounds(rel.schema, Estimation.UNDER,
                              local_highs=rel.normalized_worst()),
        )
        assert cache.get(key).updated_filter == eager
        assert cache.get(key).updated_filter is cache.get(key).updated_filter


class TestPromotionReaders:
    """Only readers that forward a filter pay for promotion: subscribers
    ship the skyline alone, BF responders forward the promoted filter."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"deferred": 0, "promoted": 0}
        defer, promote = LocalSkylineResult.defer_promotion, local_module._promote_filter

        def counting_defer(self, fn):
            counts["deferred"] += 1
            return defer(self, fn)

        def counting_promote(*args):
            counts["promoted"] += 1
            return promote(*args)

        monkeypatch.setattr(LocalSkylineResult, "defer_promotion", counting_defer)
        monkeypatch.setattr(local_module, "_promote_filter", counting_promote)
        return counts

    def test_continuous_run_never_promotes(self, counts):
        result = run_continuous_simulation(ContinuousConfig(
            mode="delta", devices=25, cardinality=25_000, d=500.0,
            epochs=30, data_updates=60, static_grid=True, seed=1,
            capture_reference=False,
        ))
        assert len(result.epochs) == 31
        assert counts["deferred"] > 0
        assert counts["promoted"] == 0

    def test_bf_run_promotes(self, counts):
        dataset = make_global_dataset(2000, 2, 9, "independent", seed=3)
        result = run_manet_simulation(
            dataset, [QueryRequest(device=4, time=1.0, distance=2000.0)],
            SimulationConfig(strategy="bf", sim_time=300.0, seed=0),
        )
        assert result.records
        assert 0 < counts["promoted"] <= counts["deferred"]


class TestCounters:
    def test_hybrid_counts_id_comparisons(self):
        rel = random_relation(seed=30)
        res = local_skyline(HybridStorage(rel), WIDE)
        assert res.comparisons.id_comparisons > 0
        assert res.comparisons.distance_checks == rel.cardinality

    def test_flat_counts_value_comparisons(self):
        rel = random_relation(seed=30)
        res = local_skyline(FlatStorage(rel), WIDE)
        assert res.comparisons.value_comparisons > 0

    def test_pointer_storages_count_indirections(self):
        rel = random_relation(seed=30)
        ds, rs = DomainStorage(rel), RingStorage(rel)
        local_skyline(ds, WIDE)
        local_skyline(rs, WIDE)
        assert ds.stats.indirections > 0
        assert rs.stats.indirections >= ds.stats.indirections
