"""Unit tests for the Relation container."""

import numpy as np
import pytest

from repro.storage import Relation, union_all

from .conftest import relation_from_values


class TestConstruction:
    def test_from_rows(self, schema2):
        rel = Relation.from_rows(schema2, [(1, 2, 30, 40), (5, 6, 70, 80)])
        assert rel.cardinality == 2
        assert rel.dimensions == 2
        assert rel.values[1, 0] == 70.0

    def test_from_rows_empty(self, schema2):
        rel = Relation.from_rows(schema2, [])
        assert rel.cardinality == 0

    def test_shape_validation(self, schema2):
        with pytest.raises(ValueError, match="xy must be"):
            Relation(schema2, np.zeros((3, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="values must be"):
            Relation(schema2, np.zeros((3, 2)), np.zeros((3, 5)))
        with pytest.raises(ValueError, match="rows"):
            Relation(schema2, np.zeros((3, 2)), np.zeros((4, 2)))

    def test_site_ids_default(self, schema2):
        rel = Relation.from_rows(schema2, [(1, 2, 3, 4)] * 5)
        assert list(rel.site_ids) == [0, 1, 2, 3, 4]

    def test_site_ids_shape_validated(self, schema2):
        with pytest.raises(ValueError, match="site_ids"):
            Relation(
                schema2, np.zeros((3, 2)), np.zeros((3, 2)),
                site_ids=np.zeros(4, dtype=np.int64),
            )

    def test_arrays_read_only(self, small_relation):
        with pytest.raises(ValueError):
            small_relation.values[0, 0] = -1.0


class TestAccessors:
    def test_row(self, schema2):
        rel = Relation.from_rows(schema2, [(1, 2, 30, 40)])
        row = rel.row(0)
        assert row.x == 1.0 and row.y == 2.0
        assert row.values == (30.0, 40.0)

    def test_iteration(self, small_relation):
        rows = list(small_relation)
        assert len(rows) == small_relation.cardinality
        assert rows[5].values == tuple(small_relation.values[5])

    def test_len(self, small_relation):
        assert len(small_relation) == 200


class TestSpatial:
    def test_within(self, schema2):
        rel = Relation.from_rows(
            schema2, [(0, 0, 1, 1), (3, 4, 1, 1), (100, 100, 1, 1)]
        )
        mask = rel.within((0.0, 0.0), 5.0)
        assert list(mask) == [True, True, False]

    def test_within_boundary_inclusive(self, schema2):
        rel = Relation.from_rows(schema2, [(3, 4, 1, 1)])
        assert rel.within((0.0, 0.0), 5.0)[0]

    def test_restrict(self, schema2):
        rel = Relation.from_rows(
            schema2, [(0, 0, 1, 1), (3, 4, 2, 2), (100, 100, 3, 3)]
        )
        sub = rel.restrict((0.0, 0.0), 10.0)
        assert sub.cardinality == 2
        assert list(sub.site_ids) == [0, 1]

    def test_mbr(self, schema2):
        rel = Relation.from_rows(
            schema2, [(1, 20, 0, 0), (5, 2, 0, 0), (3, 10, 0, 0)]
        )
        assert rel.mbr() == (1.0, 2.0, 5.0, 20.0)

    def test_mbr_empty_raises(self, schema2):
        with pytest.raises(ValueError, match="empty"):
            Relation.empty(schema2).mbr()


class TestBoundsAndViews:
    def test_local_bounds(self, schema2):
        rel = Relation.from_rows(
            schema2, [(0, 0, 10, 400), (0, 1, 30, 200), (0, 2, 20, 300)]
        )
        lows, highs = rel.local_bounds()
        assert lows == (10.0, 200.0)
        assert highs == (30.0, 400.0)

    def test_local_bounds_empty_raises(self, schema2):
        with pytest.raises(ValueError):
            Relation.empty(schema2).local_bounds()

    def test_take(self, small_relation):
        sub = small_relation.take([3, 1, 7])
        assert sub.cardinality == 3
        assert sub.row(0).values == small_relation.row(3).values
        assert list(sub.site_ids) == [3, 1, 7]

    def test_identity_take_shares_skyline_view(self, small_relation):
        from repro.core import skyline_numpy

        rel = small_relation
        assert rel.skyline_rows() is None
        sky = skyline_numpy(rel.normalized_values())
        rel.store_skyline_rows(sky)
        assert not sky.flags.writeable
        n = rel.cardinality
        assert rel.take(np.arange(n)).skyline_rows() is sky
        assert rel.restrict((500.0, 500.0), 1.0e9).skyline_rows() is sky
        # Any other row set is a different relation with its own skyline.
        assert rel.take(np.arange(n - 1)).skyline_rows() is None
        assert rel.take(np.arange(n)[::-1]).skyline_rows() is None

    def test_normalized_values_all_min_is_identity(self, small_relation):
        assert small_relation.normalized_values() is small_relation.values

    def test_normalized_values_negates_max(self):
        from repro.storage import AttributeSpec, Preference, RelationSchema

        schema = RelationSchema(
            attributes=(
                AttributeSpec("price"),
                AttributeSpec("rating", preference=Preference.MAX),
            )
        )
        rel = Relation.from_rows(schema, [(0, 0, 10, 5)])
        norm = rel.normalized_values()
        assert norm[0, 0] == 10.0
        assert norm[0, 1] == -5.0


class TestUnion:
    def test_union(self, schema2):
        a = Relation.from_rows(schema2, [(0, 0, 1, 1)])
        b = Relation.from_rows(schema2, [(1, 1, 2, 2), (2, 2, 3, 3)])
        u = a.union(b)
        assert u.cardinality == 3

    def test_union_schema_mismatch(self, schema2, schema3):
        a = Relation.empty(schema2)
        b = Relation.empty(schema3)
        with pytest.raises(ValueError, match="different schemas"):
            a.union(b)

    def test_union_all(self, schema2):
        rels = [
            Relation.from_rows(schema2, [(i, i, i, i)]) for i in range(4)
        ]
        u = union_all(rels)
        assert u.cardinality == 4

    def test_union_all_empty_list(self):
        with pytest.raises(ValueError):
            union_all([])


class TestReprAndMisc:
    def test_repr(self, small_relation):
        text = repr(small_relation)
        assert "n=200" in text and "dims=2" in text

    def test_helper_relation_from_values(self):
        rel = relation_from_values([[1, 2], [3, 4]])
        assert rel.cardinality == 2
        assert rel.dimensions == 2
