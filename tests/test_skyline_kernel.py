"""Property and memory tests for the vectorised skyline kernel.

``skyline_numpy`` drops rows dominated by the minimum-sum row, sorts the
survivors into SFS order and resolves them in ``block``-row chunks. These
tests pin it to the brute-force oracle over the inputs that stress each
step (ties, duplicates, tiny blocks, collapsed float sums, MAX
preferences), and check that it never allocates an all-pairs matrix.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import skyline_numpy, skyline_of_relation
from repro.data import generate
from repro.storage import AttributeSpec, Preference, Relation, RelationSchema

from .oracles.skyline import skyline_bruteforce

BLOCKS = st.sampled_from([1, 7, 256])

#: Small integer grids: many ties and exact duplicate rows.
grid_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=1, max_value=5),
    ),
    elements=st.integers(min_value=0, max_value=4).map(float),
)

#: Values whose row sums collapse: ``1.0 + 1e-190 == 1.0`` in float64, so
#: the row ``argmin`` picks as the pivot can itself be dominated.
collapse_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=2, max_value=4),
    ),
    elements=st.sampled_from([0.0, 1e-190, 1.0, 2.0]),
)


class TestMatchesOracle:
    @settings(deadline=None)
    @given(grid_matrices, BLOCKS)
    def test_integer_grids(self, values, block):
        assert np.array_equal(
            skyline_numpy(values, block=block), skyline_bruteforce(values)
        )

    @settings(deadline=None)
    @given(collapse_matrices, BLOCKS)
    def test_collapsed_sums(self, values, block):
        assert np.array_equal(
            skyline_numpy(values, block=block), skyline_bruteforce(values)
        )

    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_dominated_pivot(self, block):
        values = np.array([[1.0, 1e-190], [1.0, 0.0], [0.5, 2.0], [3.0, 3.0]])
        # Both leading rows sum to 1.0; argmin picks row 0, which row 1
        # dominates.
        assert int(np.argmin(values.sum(axis=1))) == 0
        assert skyline_numpy(values, block=block).tolist() == [1, 2]

    @pytest.mark.parametrize("block", [1, 7, 256])
    @pytest.mark.parametrize("dims", [1, 3, 5])
    def test_empty_and_single_row(self, block, dims):
        empty = skyline_numpy(np.empty((0, dims)), block=block)
        assert empty.dtype == np.int64 and empty.shape == (0,)
        single = skyline_numpy(np.ones((1, dims)), block=block)
        assert single.dtype == np.int64 and single.tolist() == [0]

    @settings(deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda d: st.tuples(
                hnp.arrays(
                    dtype=np.float64,
                    shape=st.tuples(st.integers(0, 60), st.just(d)),
                    elements=st.integers(0, 4).map(float),
                ),
                st.lists(
                    st.sampled_from([Preference.MIN, Preference.MAX]),
                    min_size=d,
                    max_size=d,
                ),
            )
        )
    )
    def test_max_preferences(self, case):
        values, prefs = case
        n, d = values.shape
        schema = RelationSchema(
            tuple(
                AttributeSpec(f"a{i}", preference=pref)
                for i, pref in enumerate(prefs)
            )
        )
        rel = Relation(
            schema,
            np.column_stack([np.arange(n, dtype=float), np.zeros(n)]),
            values,
            np.arange(n, dtype=np.int64),
        )
        fast = skyline_of_relation(rel)
        oracle = rel.take(skyline_bruteforce(rel.normalized_values()))
        assert fast.site_ids.tolist() == oracle.site_ids.tolist()


class TestMemoryBound:
    """Peak allocation stays O(block² + n·d); an n×n boolean matrix over
    20k rows would need ~400 MB."""

    LIMIT_BYTES = 8 * 1024 * 1024

    @pytest.mark.parametrize("n,dims", [(20_000, 2), (5_000, 4)])
    def test_peak_allocation_anticorrelated(self, n, dims):
        values = generate("anticorrelated", n, dims, np.random.default_rng(7))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            skyline_numpy(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.LIMIT_BYTES, f"peak {peak / 1e6:.2f} MB"
