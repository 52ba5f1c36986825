"""Tests for originator-side result assembly (Section 4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SkylineAssembler, merge_skylines, skyline_of_relation
from repro.storage import Relation, uniform_schema, union_all


def rel_of(schema, rows):
    return Relation.from_rows(schema, rows)


@pytest.fixture
def schema():
    return uniform_schema(2, high=10.0)


class TestMergeSkylines:
    def test_dominated_incoming_removed(self, schema):
        current = rel_of(schema, [(0, 0, 1, 1)])
        incoming = rel_of(schema, [(1, 1, 2, 2)])
        merged = merge_skylines(current, incoming)
        assert merged.cardinality == 1
        assert tuple(merged.values[0]) == (1.0, 1.0)

    def test_dominated_current_removed(self, schema):
        current = rel_of(schema, [(0, 0, 2, 2)])
        incoming = rel_of(schema, [(1, 1, 1, 1)])
        merged = merge_skylines(current, incoming)
        assert merged.cardinality == 1
        assert tuple(merged.values[0]) == (1.0, 1.0)

    def test_incomparable_kept(self, schema):
        current = rel_of(schema, [(0, 0, 1, 5)])
        incoming = rel_of(schema, [(1, 1, 5, 1)])
        assert merge_skylines(current, incoming).cardinality == 2

    def test_duplicates_by_location_removed(self, schema):
        current = rel_of(schema, [(3, 3, 1, 5)])
        incoming = rel_of(schema, [(3, 3, 1, 5), (4, 4, 5, 1)])
        merged = merge_skylines(current, incoming)
        assert merged.cardinality == 2

    def test_equal_values_different_sites_both_kept(self, schema):
        """Distinct sites with identical attribute values are both skyline
        members (strict dominance does not remove ties)."""
        current = rel_of(schema, [(1, 1, 2, 2)])
        incoming = rel_of(schema, [(9, 9, 2, 2)])
        assert merge_skylines(current, incoming).cardinality == 2

    def test_internal_duplicates_in_incoming(self, schema):
        current = Relation.empty(schema)
        incoming = rel_of(schema, [(1, 1, 2, 2), (1, 1, 2, 2)])
        assert merge_skylines(current, incoming).cardinality == 1

    def test_empty_cases(self, schema):
        empty = Relation.empty(schema)
        other = rel_of(schema, [(1, 1, 2, 2)])
        assert merge_skylines(empty, other).cardinality == 1
        assert merge_skylines(other, empty).cardinality == 1
        assert merge_skylines(empty, empty).cardinality == 0

    def test_schema_mismatch(self, schema):
        with pytest.raises(ValueError):
            merge_skylines(Relation.empty(schema),
                           Relation.empty(uniform_schema(3)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_merge_equals_centralized(self, seed):
        """Merging partial skylines == skyline of the union (after
        location dedup).

        Sites come from a shared pool so a location always carries the
        same attribute values — the paper's "no two tuples represent the
        same geographic location" assumption, without which
        location-keyed duplicate elimination is ill-defined.
        """
        rng = np.random.default_rng(seed)
        schema = uniform_schema(2, high=8.0)
        pool_n = 20
        pool_xy = np.column_stack(
            [np.arange(pool_n, dtype=float), np.arange(pool_n, dtype=float)]
        )
        pool_values = rng.integers(0, 8, size=(pool_n, 2)).astype(float)
        parts = []
        for p in range(3):
            n = int(rng.integers(0, 12))
            if n == 0:
                parts.append(Relation.empty(schema))
                continue
            pick = rng.choice(pool_n, size=n, replace=False)
            rel = Relation(schema, pool_xy[pick], pool_values[pick])
            parts.append(skyline_of_relation(rel))
        merged = parts[0]
        for p in parts[1:]:
            merged = merge_skylines(merged, p)
        # oracle: dedup union by location (first copy wins), then skyline
        union = union_all(parts)
        seen = {}
        keep = []
        for i in range(union.cardinality):
            key = (union.xy[i, 0], union.xy[i, 1])
            if key not in seen:
                seen[key] = i
                keep.append(i)
        dedup = union.take(keep)
        expected = skyline_of_relation(dedup)
        got = sorted(map(tuple, np.column_stack(
            [merged.xy, merged.values]).tolist()))
        want = sorted(map(tuple, np.column_stack(
            [expected.xy, expected.values]).tolist()))
        assert got == want


class TestAssembler:
    def test_incremental_merging(self, schema):
        asm = SkylineAssembler(schema, rel_of(schema, [(0, 0, 5, 5)]))
        asm.add(rel_of(schema, [(1, 1, 1, 9)]))
        asm.add(rel_of(schema, [(2, 2, 9, 1)]))
        asm.add(rel_of(schema, [(3, 3, 4, 4)]))  # dominates (5,5)
        result = asm.result()
        assert asm.merges == 3
        vals = set(map(tuple, result.values.tolist()))
        assert vals == {(1.0, 9.0), (9.0, 1.0), (4.0, 4.0)}

    def test_seed_deduped(self, schema):
        asm = SkylineAssembler(
            schema, rel_of(schema, [(1, 1, 2, 2), (1, 1, 2, 2)])
        )
        assert asm.result().cardinality == 1

    def test_no_seed(self, schema):
        asm = SkylineAssembler(schema)
        assert asm.result().cardinality == 0
        asm.add_all([rel_of(schema, [(1, 1, 3, 3)])])
        assert asm.result().cardinality == 1

    def test_order_independence(self, schema):
        parts = [
            rel_of(schema, [(0, 0, 1, 8)]),
            rel_of(schema, [(1, 1, 8, 1)]),
            rel_of(schema, [(2, 2, 3, 3)]),
            rel_of(schema, [(3, 3, 9, 9)]),
        ]
        import itertools

        results = set()
        for perm in itertools.permutations(parts):
            asm = SkylineAssembler(schema)
            asm.add_all(perm)
            results.add(
                tuple(sorted(map(tuple, asm.result().values.tolist())))
            )
        assert len(results) == 1


class TestDedupWithin:
    """``_dedup_within`` keeps the first copy of each location, in
    order: the rows the sorted first indices of ``np.unique(axis=0)``
    would keep."""

    @staticmethod
    def unique_first(relation):
        if relation.cardinality <= 1:
            return relation
        _, first = np.unique(relation.xy, axis=0, return_index=True)
        return relation.take(np.sort(first))

    @given(
        sites=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4),
                      st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_unique_first_copies(self, sites):
        from repro.core.assembly import _dedup_within

        schema = uniform_schema(2, high=10.0)
        rel = rel_of(schema, sites) if sites else Relation.empty(schema)
        got = _dedup_within(rel)
        want = self.unique_first(rel)
        assert got.xy.tolist() == want.xy.tolist()
        assert got.values.tolist() == want.values.tolist()
        assert got.site_ids.tolist() == want.site_ids.tolist()

    def test_repeated_locations_keep_first_rows_in_order(self, schema):
        from repro.core.assembly import _dedup_within

        rel = rel_of(schema, [(2, 2, 1, 9), (1, 1, 2, 2), (2, 2, 5, 5),
                              (0, 0, 9, 1), (1, 1, 3, 3)])
        got = _dedup_within(rel)
        assert got.xy.tolist() == [[2, 2], [1, 1], [0, 0]]
        assert got.values.tolist() == [[1, 9], [2, 2], [9, 1]]
        assert got.xy.tolist() == self.unique_first(rel).xy.tolist()
