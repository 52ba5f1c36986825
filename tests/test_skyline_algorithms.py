"""Oracle and property tests for the centralized skyline kernel.

The kernel, and the BNL oracle the other suites compare against, must
agree exactly with the quadratic brute-force oracle on arbitrary inputs
— including duplicates and degenerate shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import skyline_numpy, skyline_of_relation
from repro.core.skyline import sfs_sort_order
from repro.data import generate
from repro.storage import Relation

from .conftest import relation_from_values
from .oracles.skyline import skyline_bnl, skyline_bruteforce

ALGORITHMS = {
    "bnl": skyline_bnl,
    "numpy": skyline_numpy,
}

matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=1, max_value=5),
    ),
    elements=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
# Small integer grids maximize duplicate values — the nasty case.
tie_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=4),
    ),
    elements=st.integers(min_value=0, max_value=3).map(float),
)


@pytest.mark.parametrize("name,fn", list(ALGORITHMS.items()))
class TestAgainstOracle:
    def test_empty(self, name, fn):
        assert list(fn(np.empty((0, 3)))) == []

    def test_single(self, name, fn):
        assert list(fn(np.array([[1.0, 2.0]]))) == [0]

    def test_all_duplicates_kept(self, name, fn):
        values = np.ones((5, 2))
        assert list(fn(values)) == [0, 1, 2, 3, 4]

    def test_chain(self, name, fn):
        values = np.array([[3.0, 3.0], [2.0, 2.0], [1.0, 1.0]])
        assert list(fn(values)) == [2]

    def test_anti_chain(self, name, fn):
        values = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        assert list(fn(values)) == [0, 1, 2]

    @pytest.mark.parametrize("dist", ["independent", "anticorrelated", "correlated"])
    def test_random_distributions(self, name, fn, dist):
        rng = np.random.default_rng(42)
        values = generate(dist, 400, 3, rng)
        expected = skyline_bruteforce(values)
        assert np.array_equal(fn(values), expected)

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_property_matches_oracle(self, name, fn, values):
        expected = skyline_bruteforce(values)
        assert np.array_equal(fn(values), expected)

    @given(tie_matrices)
    @settings(max_examples=40, deadline=None)
    def test_property_matches_oracle_with_ties(self, name, fn, values):
        expected = skyline_bruteforce(values)
        assert np.array_equal(fn(values), expected)


class TestSkylineAxioms:
    @given(matrices)
    @settings(max_examples=30, deadline=None)
    def test_no_internal_dominance(self, values):
        idx = skyline_numpy(values)
        sky = values[idx]
        for i in range(sky.shape[0]):
            others = np.delete(sky, i, axis=0)
            no_worse = (others <= sky[i]).all(axis=1)
            better = (others < sky[i]).any(axis=1)
            assert not (no_worse & better).any()

    @given(matrices)
    @settings(max_examples=30, deadline=None)
    def test_external_coverage(self, values):
        """Every excluded point is dominated by some skyline point."""
        idx = set(skyline_numpy(values).tolist())
        sky = values[sorted(idx)]
        for i in range(values.shape[0]):
            if i in idx:
                continue
            no_worse = (sky <= values[i]).all(axis=1)
            better = (sky < values[i]).any(axis=1)
            assert (no_worse & better).any()

    @given(matrices)
    @settings(max_examples=20, deadline=None)
    def test_idempotence(self, values):
        idx = skyline_numpy(values)
        again = skyline_numpy(values[idx])
        assert list(again) == list(range(len(idx)))


class TestSfsOrder:
    def test_monotone_invariant(self):
        """No tuple may be dominated by a later tuple in SFS order."""
        rng = np.random.default_rng(3)
        values = rng.integers(0, 5, size=(200, 3)).astype(float)
        order = sfs_sort_order(values)
        ordered = values[order]
        for i in range(0, 200, 17):
            later = ordered[i + 1 :]
            no_worse = (later <= ordered[i]).all(axis=1)
            better = (later < ordered[i]).any(axis=1)
            assert not (no_worse & better).any()


class TestRelationLevel:
    def test_skyline_of_relation(self):
        rel = relation_from_values([[1, 3], [2, 2], [3, 1], [3, 3]])
        sky = skyline_of_relation(rel)
        assert sky.cardinality == 3

    def test_skyline_of_relation_honours_preferences(self):
        from repro.storage import AttributeSpec, Preference, RelationSchema

        schema = RelationSchema(
            attributes=(
                AttributeSpec("price"),
                AttributeSpec("rating", high=10.0, preference=Preference.MAX),
            )
        )
        rel = Relation.from_rows(
            schema, [(0, 0, 100, 9), (1, 1, 100, 5), (2, 2, 50, 3)]
        )
        sky = skyline_of_relation(rel)
        # (100,5) is dominated by (100,9): same price, lower rating;
        # (100,9) and (50,3) trade off price against rating.
        assert sky.cardinality == 2

    def test_empty_relation(self, schema2):
        rel = Relation.empty(schema2)
        assert skyline_of_relation(rel).cardinality == 0

    def test_empty_relation_returns_fresh_copy(self, schema2):
        """Regression: the documented contract is "a new relation" — the
        empty case must not alias the input."""
        rel = Relation.empty(schema2)
        sky = skyline_of_relation(rel)
        assert sky is not rel
        assert sky.cardinality == 0
        assert sky.schema is rel.schema
        # The copy's arrays are independent of the source's.
        assert sky.values is not rel.values
        assert sky.xy is not rel.xy


class TestNumpyBlockSizes:
    @pytest.mark.parametrize("block", [1, 7, 64, 1024])
    def test_block_size_irrelevant_to_result(self, block):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 20, size=(300, 3)).astype(float)
        expected = skyline_bruteforce(values)
        assert np.array_equal(skyline_numpy(values, block=block), expected)

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            skyline_numpy(np.ones((3, 2)), block=0)
