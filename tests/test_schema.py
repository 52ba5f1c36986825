"""Unit tests for the relation schema and tuple model."""


import pytest

from repro.storage import (
    AttributeSpec,
    Preference,
    RelationSchema,
    SiteTuple,
    uniform_schema,
)


class TestPreference:
    def test_min_better(self):
        assert Preference.MIN.better(1.0, 2.0)
        assert not Preference.MIN.better(2.0, 1.0)
        assert not Preference.MIN.better(1.0, 1.0)

    def test_max_better(self):
        assert Preference.MAX.better(2.0, 1.0)
        assert not Preference.MAX.better(1.0, 2.0)

    def test_better_or_equal(self):
        assert Preference.MIN.better_or_equal(1.0, 1.0)
        assert Preference.MAX.better_or_equal(2.0, 2.0)
        assert not Preference.MIN.better_or_equal(2.0, 1.0)

    def test_normalize_min_identity(self):
        assert Preference.MIN.normalize(5.0) == 5.0

    def test_normalize_max_negates(self):
        assert Preference.MAX.normalize(5.0) == -5.0


class TestAttributeSpec:
    def test_valid(self):
        spec = AttributeSpec("price", 0.0, 200.0)
        assert spec.width == 200.0
        assert spec.contains(100.0)
        assert not spec.contains(300.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            AttributeSpec("", 0.0, 1.0)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError, match="strictly below"):
            AttributeSpec("p", 5.0, 5.0)
        with pytest.raises(ValueError):
            AttributeSpec("p", 10.0, 5.0)

    def test_contains_boundaries(self):
        spec = AttributeSpec("p", 0.0, 10.0)
        assert spec.contains(0.0)
        assert spec.contains(10.0)


class TestRelationSchema:
    def test_uniform_schema(self):
        schema = uniform_schema(3, low=1.0, high=1000.0)
        assert schema.dimensions == 3
        assert schema.names == ("p1", "p2", "p3")
        assert schema.lows == (1.0, 1.0, 1.0)
        assert schema.highs == (1000.0, 1000.0, 1000.0)
        assert schema.all_min

    def test_uniform_schema_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            uniform_schema(0)

    def test_empty_attributes_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            RelationSchema(attributes=())

    def test_duplicate_names_rejected(self):
        attrs = (AttributeSpec("p"), AttributeSpec("p"))
        with pytest.raises(ValueError, match="duplicate"):
            RelationSchema(attributes=attrs)

    def test_degenerate_extent_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            RelationSchema(
                attributes=(AttributeSpec("p"),),
                spatial_extent=(0.0, 0.0, 0.0, 100.0),
            )

    def test_index_of(self):
        schema = uniform_schema(3)
        assert schema.index_of("p2") == 1
        with pytest.raises(KeyError):
            schema.index_of("missing")

    def test_validate_values(self):
        schema = uniform_schema(2)
        schema.validate_values((1.0, 2.0))
        with pytest.raises(ValueError):
            schema.validate_values((1.0,))

    def test_all_min_false_with_max_attribute(self):
        attrs = (
            AttributeSpec("price"),
            AttributeSpec("rating", preference=Preference.MAX),
        )
        schema = RelationSchema(attributes=attrs)
        assert not schema.all_min
        assert schema.preferences == (Preference.MIN, Preference.MAX)


class TestSiteTuple:
    def test_basic(self):
        t = SiteTuple(x=3.0, y=4.0, values=(10.0, 20.0), site_id=7)
        assert t.position == (3.0, 4.0)
        assert t.value(1) == 20.0
        assert len(t) == 2

    def test_distance(self):
        t = SiteTuple(x=3.0, y=4.0, values=(1.0,))
        assert t.distance_to((0.0, 0.0)) == pytest.approx(5.0)

    def test_same_site_by_location_only(self):
        a = SiteTuple(x=1.0, y=2.0, values=(10.0,))
        b = SiteTuple(x=1.0, y=2.0, values=(99.0,))
        c = SiteTuple(x=1.0, y=3.0, values=(10.0,))
        assert a.same_site(b)
        assert not a.same_site(c)

    def test_site_id_not_in_equality(self):
        a = SiteTuple(x=1.0, y=2.0, values=(3.0,), site_id=1)
        b = SiteTuple(x=1.0, y=2.0, values=(3.0,), site_id=2)
        assert a == b
