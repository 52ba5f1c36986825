"""Tests for filtering tuples, VDR, and estimation modes (Sections 3.2-3.3)."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Estimation,
    FilteringTuple,
    estimation_bounds,
    promote_filter,
    select_filter,
    vdr,
    vdr_matrix,
)
from repro.storage import uniform_schema
from repro.storage.schema import (
    AttributeSpec,
    Preference,
    RelationSchema,
    SiteTuple,
)

from .conftest import relation_from_values
from .extensions.multifilter import select_filter_set, union_dominating_volume


class TestVdr:
    def test_basic(self):
        assert vdr((60, 3), (200, 10)) == (200 - 60) * (10 - 3)

    def test_clamped_at_zero(self):
        assert vdr((250, 3), (200, 10)) == 0.0
        assert vdr((250, 12), (200, 10)) == 0.0  # no negative*negative

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            vdr((1, 2), (1,))

    def test_matrix_matches_scalar(self, rng):
        values = rng.uniform(0, 100, (50, 3))
        bounds = (120.0, 110.0, 100.0)
        m = vdr_matrix(values, bounds)
        for i in range(50):
            assert m[i] == pytest.approx(vdr(tuple(values[i]), bounds))

    @pytest.mark.parametrize("dims", [1, 2, 3, 5])
    def test_matrix_matches_the_broadcast_product(self, dims):
        """Bit for bit what ``max(bounds - values, 0).prod(axis=1)``
        over a broadcast bounds row gave."""
        rng = np.random.default_rng(dims)
        values = rng.uniform(-50.0, 150.0, size=(200, dims))
        bounds = tuple(rng.uniform(0.0, 100.0, size=dims))
        expected = np.maximum(np.asarray(bounds)[None, :] - values, 0.0)
        got = vdr_matrix(values, bounds)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.prod(axis=1).tobytes()

    def test_matrix_shape_check(self):
        with pytest.raises(ValueError):
            vdr_matrix(np.zeros((3, 2)), (1.0, 1.0, 1.0))

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=4))
    @settings(max_examples=50)
    def test_nonnegative(self, values):
        bounds = [50.0] * len(values)
        assert vdr(values, bounds) >= 0.0


class TestEstimationBounds:
    def test_exact(self):
        schema = uniform_schema(2, high=1000.0)
        assert estimation_bounds(schema, Estimation.EXACT) == (1000.0, 1000.0)

    def test_over_exceeds_exact(self):
        schema = uniform_schema(2, high=1000.0)
        over = estimation_bounds(schema, Estimation.OVER)
        assert all(o > 1000.0 for o in over)

    def test_under_uses_local_highs(self):
        schema = uniform_schema(2, high=1000.0)
        under = estimation_bounds(schema, Estimation.UNDER, local_highs=(800.0, 900.0))
        assert under == (800.0, 900.0)

    def test_under_requires_local_highs(self):
        schema = uniform_schema(2)
        with pytest.raises(ValueError, match="local maxima"):
            estimation_bounds(schema, Estimation.UNDER)

    def test_under_wrong_arity(self):
        schema = uniform_schema(2)
        with pytest.raises(ValueError):
            estimation_bounds(schema, Estimation.UNDER, local_highs=(1.0,))


class TestSelectFilter:
    def test_picks_max_vdr(self):
        schema = uniform_schema(2, high=10.0)
        rel = relation_from_values([[1, 9], [5, 5], [9, 1]], schema)
        flt = select_filter(rel, Estimation.EXACT)
        # VDRs: (9)(1)=9, (5)(5)=25, (1)(9)=9 -> picks (5,5)
        assert flt.values == (5.0, 5.0)
        assert flt.vdr == 25.0

    def test_empty_skyline_returns_none(self, schema2):
        from repro.storage import Relation

        assert select_filter(Relation.empty(schema2)) is None

    def test_under_with_explicit_local_highs(self):
        schema = uniform_schema(2, high=10.0)
        rel = relation_from_values([[1, 4], [4, 1]], schema)
        # with relation-wide highs (8, 5): VDRs (7)(1)=7 vs (4)(4)=16
        flt = select_filter(rel, Estimation.UNDER, local_highs=(8.0, 5.0))
        assert flt.values == (4.0, 1.0)

    def test_estimation_changes_pick(self):
        """Different bounding modes may legitimately pick different tuples."""
        schema = uniform_schema(2, high=10.0)
        rel = relation_from_values([[0, 9], [6, 2]], schema)
        exact = select_filter(rel, Estimation.EXACT)       # (10)(1)=10 vs (4)(8)=32
        under = select_filter(rel, Estimation.UNDER, local_highs=(6.0, 9.0))
        # under: (6)(0)=0 vs (0)(7)=0 -> both zero, argmax -> first
        assert exact.values == (6.0, 2.0)
        assert under.values == (0.0, 9.0)


class TestPromoteFilter:
    """Section 3.4: the incoming filter is scored under the device's own
    bounds and replaced only by a strictly larger VDR."""

    def _incoming(self, values):
        return FilteringTuple(
            site=SiteTuple(x=-1.0, y=-1.0, values=values), vdr=1e9
        )

    def test_tie_keeps_incoming(self):
        schema = uniform_schema(2, high=10.0)
        rel = relation_from_values([[4, 4]], schema)
        incoming = self._incoming((4.0, 4.0))
        bounds = estimation_bounds(schema, Estimation.EXACT)
        assert promote_filter(rel, incoming, bounds) is incoming

    def test_strictly_larger_replaces(self):
        schema = uniform_schema(2, high=10.0)
        rel = relation_from_values([[3, 4]], schema)
        bounds = estimation_bounds(schema, Estimation.EXACT)
        got = promote_filter(rel, self._incoming((4.0, 4.0)), bounds)
        assert got.values == (3.0, 4.0)
        assert got.vdr == 42.0

    def test_scores_in_minimization_space(self):
        """A MAX attribute counts its larger values as better: raw-value
        scores would be 0 for both rows here and pick the first."""
        schema = RelationSchema(
            attributes=(
                AttributeSpec("a", 0.0, 10.0, Preference.MIN),
                AttributeSpec("b", 0.0, 10.0, Preference.MAX),
            ),
            spatial_extent=(0.0, 0.0, 1000.0, 1000.0),
        )
        rel = relation_from_values([[4, 2], [4, 6]], schema)
        bounds = estimation_bounds(schema, Estimation.EXACT)
        got = promote_filter(rel, None, bounds)
        assert got.values == (4.0, 6.0)
        assert got.vdr == 36.0
        # The incoming filter is normalized the same way: (4, 8) scores
        # 6 * 8 = 48 and stays.
        incoming = self._incoming((4.0, 8.0))
        assert promote_filter(rel, incoming, bounds) is incoming


class TestUnionDominatingVolume:
    def test_single_equals_vdr(self):
        assert union_dominating_volume([(2, 2)], (10, 10)) == vdr((2, 2), (10, 10))

    def test_nested_regions(self):
        # (1,1) region contains (5,5) region entirely
        u = union_dominating_volume([(1, 1), (5, 5)], (10, 10))
        assert u == vdr((1, 1), (10, 10))

    def test_disjointish_regions_add_up(self):
        u = union_dominating_volume([(0, 8), (8, 0)], (10, 10))
        # overlap corner is (8,8): 2*2=4
        assert u == pytest.approx(10 * 2 + 2 * 10 - 4)

    def test_monte_carlo_agreement(self, rng):
        tuples = [tuple(t) for t in rng.uniform(0, 8, (4, 2))]
        bounds = (10.0, 10.0)
        exact = union_dominating_volume(tuples, bounds)
        samples = rng.uniform(0, 10, (20000, 2))
        covered = np.zeros(20000, dtype=bool)
        for t in tuples:
            covered |= (samples >= np.array(t)).all(axis=1)
        mc = covered.mean() * 100.0
        assert exact == pytest.approx(mc, rel=0.05)

    def test_empty(self):
        assert union_dominating_volume([], (10, 10)) == 0.0

    def test_too_many_tuples(self):
        with pytest.raises(ValueError):
            union_dominating_volume([(0, 0)] * 17, (1, 1))


class TestSelectFilterSet:
    def test_first_pick_matches_single_filter(self):
        schema = uniform_schema(2, high=10.0)
        rel = relation_from_values([[1, 9], [5, 5], [9, 1]], schema)
        single = select_filter(rel, Estimation.EXACT)
        multi = select_filter_set(rel, 3, Estimation.EXACT)
        assert multi[0].values == single.values

    def test_k_bounded_by_skyline(self):
        schema = uniform_schema(2, high=10.0)
        rel = relation_from_values([[1, 9], [9, 1]], schema)
        assert len(select_filter_set(rel, 5)) <= 2

    def test_marginal_gain_positive(self):
        """Each added filter increases the union volume."""
        schema = uniform_schema(2, high=10.0)
        rel = relation_from_values([[1, 8], [4, 4], [8, 1]], schema)
        picks = select_filter_set(rel, 3, Estimation.EXACT)
        volumes = [
            union_dominating_volume([p.values for p in picks[: i + 1]], (10, 10))
            for i in range(len(picks))
        ]
        assert all(b > a for a, b in zip(volumes, volumes[1:]))

    def test_greedy_beats_or_ties_single(self):
        schema = uniform_schema(2, high=10.0)
        rel = relation_from_values([[0, 9], [3, 3], [9, 0]], schema)
        picks = select_filter_set(rel, 2, Estimation.EXACT)
        u2 = union_dominating_volume([p.values for p in picks], (10, 10))
        u1 = vdr(select_filter(rel, Estimation.EXACT).values, (10, 10))
        assert u2 >= u1

    def test_invalid_k(self):
        schema = uniform_schema(2)
        rel = relation_from_values([[1, 1]], schema)
        with pytest.raises(ValueError):
            select_filter_set(rel, 0)

    def test_empty_relation(self, schema2):
        from repro.storage import Relation

        assert select_filter_set(Relation.empty(schema2), 3) == []
