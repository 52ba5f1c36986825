"""Unit and property tests for dominance predicates."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ComparisonCounter, dominates_values
from repro.core.dominance import dominated_mask
from repro.storage import Preference

vectors = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=6,
)
pair_of_vectors = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=n, max_size=n),
        st.lists(st.floats(0, 100, allow_nan=False), min_size=n, max_size=n),
    )
)


class TestDominatesValues:
    def test_basic_dominance(self):
        assert dominates_values((1, 2), (2, 3))
        assert dominates_values((1, 3), (2, 3))
        assert not dominates_values((1, 4), (2, 3))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates_values((1, 2), (1, 2))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            dominates_values((1,), (1, 2))

    def test_with_preferences(self):
        prefs = (Preference.MIN, Preference.MAX)
        # low price, high rating dominates high price, low rating
        assert dominates_values((10, 9), (20, 5), prefs)
        assert not dominates_values((10, 5), (20, 9), prefs)

    def test_preferences_arity_mismatch(self):
        with pytest.raises(ValueError, match="preferences"):
            dominates_values((1, 2), (3, 4), (Preference.MIN,))

    @given(pair_of_vectors)
    def test_antisymmetry(self, pair):
        a, b = pair
        assert not (dominates_values(a, b) and dominates_values(b, a))

    @given(vectors)
    def test_irreflexive(self, v):
        assert not dominates_values(v, v)

    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(*[
            st.lists(st.floats(0, 10, allow_nan=False), min_size=n, max_size=n)
            for _ in range(3)
        ])
    ))
    def test_transitivity(self, triple):
        a, b, c = triple
        if dominates_values(a, b) and dominates_values(b, c):
            assert dominates_values(a, c)


class TestVectorised:
    @given(pair_of_vectors)
    def test_mask_matches_scalar(self, pair):
        a, b = pair
        mask = dominated_mask(np.array([a]), np.array([b]))
        assert bool(mask[0]) == dominates_values(a, b)


class TestComparisonCounter:
    def test_counts(self):
        c = ComparisonCounter()
        c.count_id(5)
        c.count_id()
        c.count_value(2)
        c.count_distance()
        assert (c.id_comparisons, c.value_comparisons, c.distance_checks) == (6, 2, 1)

    def test_repr(self):
        assert "id=0" in repr(ComparisonCounter())
