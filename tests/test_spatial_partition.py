"""Tests for spatial utilities, grid partitioning, and workloads."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    GridPartition,
    QueryRequest,
    generate_workload,
    make_global_dataset,
    mindist_point_rect,
    point_in_rect,
    rect_overlaps_circle,
    single_query_workload,
    uniform_positions,
)


class TestMindist:
    def test_inside_is_zero(self):
        assert mindist_point_rect((5, 5), (0, 0, 10, 10)) == 0.0

    def test_on_border_is_zero(self):
        assert mindist_point_rect((0, 5), (0, 0, 10, 10)) == 0.0

    def test_left_of_rect(self):
        assert mindist_point_rect((-3, 5), (0, 0, 10, 10)) == 3.0

    def test_corner_diagonal(self):
        assert mindist_point_rect((-3, -4), (0, 0, 10, 10)) == pytest.approx(5.0)

    @given(
        st.floats(-100, 100), st.floats(-100, 100),
        st.floats(-50, 0), st.floats(-50, 0),
        st.floats(0.1, 50), st.floats(0.1, 50),
    )
    @settings(max_examples=50)
    def test_lower_bounds_distance_to_any_interior_point(
        self, px, py, x0, y0, w, h
    ):
        rect = (x0, y0, x0 + w, y0 + h)
        d = mindist_point_rect((px, py), rect)
        # distance to rect centre must be >= mindist
        cx, cy = (rect[0] + rect[2]) / 2, (rect[1] + rect[3]) / 2
        assert math.hypot(px - cx, py - cy) >= d - 1e-9


class TestRectHelpers:
    def test_point_in_rect(self):
        assert point_in_rect((1, 1), (0, 0, 2, 2))
        assert not point_in_rect((3, 1), (0, 0, 2, 2))

    def test_rect_overlaps_circle(self):
        assert rect_overlaps_circle((0, 0, 10, 10), (15, 5), 5.0)
        assert not rect_overlaps_circle((0, 0, 10, 10), (20, 5), 5.0)

    def test_rect_overlaps_circle_matches_squared_range_test(self):
        # math.hypot gives 523.0910992060844 here; the squared test keeps it.
        x, y, d = 33.67397851244425, 522.0060931059838, 523.0910992060843
        assert x * x + y * y <= d * d
        assert mindist_point_rect((0.0, 0.0), (x, y, x, y)) > d
        assert rect_overlaps_circle((x, y, x, y), (0.0, 0.0), d)


class TestUniformPositions:
    def test_bounds_and_count(self, rng):
        pts = uniform_positions(1000, (0, 0, 100, 50), rng)
        assert pts.shape == (1000, 2)
        assert pts[:, 0].min() >= 0 and pts[:, 0].max() <= 100
        assert pts[:, 1].min() >= 0 and pts[:, 1].max() <= 50

    def test_distinct(self, rng):
        pts = uniform_positions(5000, (0, 0, 10, 10), rng)
        assert len(np.unique(pts, axis=0)) == 5000

    def test_zero(self, rng):
        assert uniform_positions(0, (0, 0, 1, 1), rng).shape == (0, 2)

    def test_degenerate_extent(self, rng):
        with pytest.raises(ValueError):
            uniform_positions(10, (0, 0, 0, 1), rng)


class TestGridPartition:
    def test_basic_geometry(self):
        grid = GridPartition(k=5, extent=(0, 0, 1000, 1000))
        assert grid.cells == 25
        assert grid.cell_width == 200.0
        assert grid.cell_rect(0) == (0, 0, 200, 200)
        assert grid.cell_rect(24) == (800, 800, 1000, 1000)
        assert grid.cell_center(12) == (500.0, 500.0)

    def test_cell_of_matches_rect(self):
        grid = GridPartition(k=4, extent=(0, 0, 100, 100))
        for cell in range(16):
            cx, cy = grid.cell_center(cell)
            assert grid.cell_of(cx, cy) == cell

    def test_cell_of_max_border(self):
        grid = GridPartition(k=4, extent=(0, 0, 100, 100))
        assert grid.cell_of(100.0, 100.0) == 15

    def test_cell_of_outside(self):
        grid = GridPartition(k=4, extent=(0, 0, 100, 100))
        with pytest.raises(ValueError):
            grid.cell_of(101.0, 0.0)

    def test_neighbors_corner_edge_interior(self):
        grid = GridPartition(k=3, extent=(0, 0, 9, 9))
        assert sorted(grid.neighbors(0)) == [1, 3]
        assert sorted(grid.neighbors(1)) == [0, 2, 4]
        assert sorted(grid.neighbors(4)) == [1, 3, 5, 7]

    def test_neighbors_symmetric(self):
        grid = GridPartition(k=5, extent=(0, 0, 10, 10))
        for c in range(25):
            for n in grid.neighbors(c):
                assert c in grid.neighbors(n)

    def test_assign_matches_cell_of(self, rng):
        grid = GridPartition(k=6, extent=(0, 0, 600, 600))
        pts = uniform_positions(500, grid.extent, rng)
        assigned = grid.assign(pts)
        for i in range(500):
            assert assigned[i] == grid.cell_of(pts[i, 0], pts[i, 1])

    def test_index_bounds(self):
        grid = GridPartition(k=2, extent=(0, 0, 1, 1))
        with pytest.raises(IndexError):
            grid.cell_rect(4)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            GridPartition(k=0, extent=(0, 0, 1, 1))


class TestGlobalDataset:
    def test_partition_is_exact_cover(self, small_dataset):
        total = sum(r.cardinality for r in small_dataset.locals)
        assert total == small_dataset.global_relation.cardinality
        seen = set()
        for rel in small_dataset.locals:
            for sid in rel.site_ids:
                assert sid not in seen
                seen.add(int(sid))

    def test_tuples_live_in_their_cell(self, small_dataset):
        grid = small_dataset.grid
        for cell, rel in enumerate(small_dataset.locals):
            rect = grid.cell_rect(cell)
            for i in range(rel.cardinality):
                assert point_in_rect((rel.xy[i, 0], rel.xy[i, 1]), rect)

    def test_devices_must_be_square(self):
        with pytest.raises(ValueError, match="perfect square"):
            make_global_dataset(100, 2, 10, "independent")

    def test_value_step_quantizes(self):
        ds = make_global_dataset(500, 2, 9, "independent", seed=1, value_step=1.0)
        values = ds.global_relation.values
        assert np.allclose(values, np.round(values))

    def test_replication_creates_overlap(self):
        ds = make_global_dataset(
            2000, 2, 9, "independent", seed=2, replication=0.5
        )
        total = sum(r.cardinality for r in ds.locals)
        assert total > ds.global_relation.cardinality
        # replicated tuples keep their site id
        all_ids = np.concatenate([r.site_ids for r in ds.locals])
        assert len(np.unique(all_ids)) == ds.global_relation.cardinality

    def test_determinism(self):
        a = make_global_dataset(1000, 3, 9, "anticorrelated", seed=5)
        b = make_global_dataset(1000, 3, 9, "anticorrelated", seed=5)
        assert np.array_equal(a.global_relation.values, b.global_relation.values)
        for ra, rb in zip(a.locals, b.locals):
            assert np.array_equal(ra.xy, rb.xy)

    def test_schema_dimension_mismatch(self, schema2):
        with pytest.raises(ValueError, match="schema has"):
            make_global_dataset(10, 3, 9, "independent", schema=schema2)

    def test_invalid_replication(self):
        with pytest.raises(ValueError):
            make_global_dataset(10, 2, 9, "independent", replication=1.5)


class TestWorkload:
    def test_counts_in_range(self):
        wl = generate_workload(10, 100.0, 250.0, queries_per_device=(1, 5), seed=3)
        per_device = {}
        for req in wl:
            per_device[req.device] = per_device.get(req.device, 0) + 1
        assert set(per_device) == set(range(10))
        assert all(1 <= c <= 5 for c in per_device.values())

    def test_sorted_by_time(self):
        wl = generate_workload(20, 500.0, 100.0, seed=4)
        times = [r.time for r in wl]
        assert times == sorted(times)
        assert all(0 <= t <= 500 for t in times)

    def test_determinism(self):
        a = generate_workload(5, 100.0, 250.0, seed=7)
        b = generate_workload(5, 100.0, 250.0, seed=7)
        assert a == b

    def test_single_query_workload(self):
        wl = single_query_workload(3, 500.0, time=2.0)
        assert len(wl) == 1
        assert wl[0] == QueryRequest(device=3, time=2.0, distance=500.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryRequest(device=-1, time=0.0, distance=1.0)
        with pytest.raises(ValueError):
            QueryRequest(device=0, time=-1.0, distance=1.0)
        with pytest.raises(ValueError):
            QueryRequest(device=0, time=0.0, distance=0.0)
        with pytest.raises(ValueError):
            generate_workload(0, 100.0, 250.0)
        with pytest.raises(ValueError):
            generate_workload(5, 100.0, 250.0, queries_per_device=(3, 1))
