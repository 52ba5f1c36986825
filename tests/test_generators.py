"""Tests for the synthetic attribute generators."""

import numpy as np
import pytest

from repro.data import (
    anticorrelated,
    correlated,
    generate,
    independent,
    quantize,
    scale_to_domain,
)
from repro.storage import uniform_schema


class TestShapes:
    @pytest.mark.parametrize("fn", [independent, correlated, anticorrelated])
    def test_shape_and_range(self, fn, rng):
        pts = fn(500, 3, rng)
        assert pts.shape == (500, 3)
        assert pts.min() >= 0.0 and pts.max() <= 1.0

    @pytest.mark.parametrize("fn", [independent, correlated, anticorrelated])
    def test_zero_points(self, fn, rng):
        assert fn(0, 2, rng).shape == (0, 2)

    @pytest.mark.parametrize("fn", [independent, correlated, anticorrelated])
    def test_one_dimension(self, fn, rng):
        pts = fn(100, 1, rng)
        assert pts.shape == (100, 1)

    @pytest.mark.parametrize("fn", [independent, correlated, anticorrelated])
    def test_invalid_args(self, fn, rng):
        with pytest.raises(ValueError):
            fn(-1, 2, rng)
        with pytest.raises(ValueError):
            fn(10, 0, rng)


class TestDistributionCharacter:
    def test_anticorrelated_negative_correlation(self, rng):
        pts = anticorrelated(5000, 2, rng)
        r = np.corrcoef(pts[:, 0], pts[:, 1])[0, 1]
        assert r < -0.3, f"expected strong anti-correlation, got r={r:.3f}"

    def test_correlated_positive_correlation(self, rng):
        pts = correlated(5000, 2, rng)
        r = np.corrcoef(pts[:, 0], pts[:, 1])[0, 1]
        assert r > 0.5, f"expected strong correlation, got r={r:.3f}"

    def test_independent_near_zero_correlation(self, rng):
        pts = independent(5000, 2, rng)
        r = np.corrcoef(pts[:, 0], pts[:, 1])[0, 1]
        assert abs(r) < 0.1

    def test_skyline_sizes_reflect_distributions(self, rng):
        """AC skylines are much larger than IN, which beat CO."""
        from repro.core import skyline_numpy

        sizes = {}
        for dist in ("anticorrelated", "independent", "correlated"):
            pts = generate(dist, 3000, 2, rng)
            sizes[dist] = len(skyline_numpy(pts))
        assert sizes["anticorrelated"] > sizes["independent"] >= sizes["correlated"]


class TestDispatch:
    @pytest.mark.parametrize(
        "alias,canonical",
        [("in", "independent"), ("AC", "anticorrelated"), ("corr", "correlated"),
         ("anti-correlated", "anticorrelated")],
    )
    def test_aliases(self, alias, canonical, rng):
        a = generate(alias, 10, 2, np.random.default_rng(1))
        b = generate(canonical, 10, 2, np.random.default_rng(1))
        assert np.array_equal(a, b)

    def test_unknown_distribution(self, rng):
        with pytest.raises(ValueError, match="unknown distribution"):
            generate("zipfian", 10, 2, rng)

    def test_determinism(self):
        a = generate("ac", 50, 3, np.random.default_rng(9))
        b = generate("ac", 50, 3, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestScaling:
    def test_scale_to_domain(self):
        schema = uniform_schema(2, low=10.0, high=20.0)
        unit = np.array([[0.0, 0.5], [1.0, 1.0]])
        scaled = scale_to_domain(unit, schema)
        assert scaled[0, 0] == 10.0
        assert scaled[0, 1] == 15.0
        assert scaled[1, 0] == 20.0

    def test_scale_shape_check(self):
        schema = uniform_schema(3)
        with pytest.raises(ValueError):
            scale_to_domain(np.zeros((5, 2)), schema)

    def test_quantize(self):
        vals = np.array([0.0, 0.04, 0.06, 9.87])
        q = quantize(vals, 0.1)
        assert np.allclose(q, [0.0, 0.0, 0.1, 9.9])

    def test_quantize_integer_step(self):
        q = quantize(np.array([1.2, 3.7]), 1.0)
        assert list(q) == [1.0, 4.0]

    def test_quantize_rounds_half_to_even(self):
        q = quantize(np.array([0.5, 1.5, 2.5, -0.5]), 1.0)
        assert list(q) == [0.0, 2.0, 2.0, -0.0]

    def test_quantize_invalid_step(self):
        with pytest.raises(ValueError):
            quantize(np.array([1.0]), 0.0)

    def test_device_domain_has_100_distinct_values(self):
        """Section 5.1: the {0.0..9.9} domain has 100 distinct values."""
        rng = np.random.default_rng(0)
        schema = uniform_schema(2, low=0.0, high=9.9)
        vals = scale_to_domain(independent(50_000, 2, rng), schema)
        q = np.clip(quantize(vals, 0.1), 0.0, 9.9)
        assert len(np.unique(q)) == 100
