"""Tests for the mobility models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import RandomWaypoint, StaticPlacement

from .oracles.mobility import positions_reference


class TestStaticPlacement:
    def test_positions_fixed(self):
        m = StaticPlacement([(1.0, 2.0), (3.0, 4.0)])
        assert m.node_count == 2
        assert m.position(0, 0.0) == (1.0, 2.0)
        assert m.position(0, 999.0) == (1.0, 2.0)

    def test_positions_array(self):
        m = StaticPlacement([(1.0, 2.0), (3.0, 4.0)])
        arr = m.positions(5.0)
        assert arr.shape == (2, 2)

    def test_negative_time_rejected(self):
        m = StaticPlacement([(0.0, 0.0)])
        with pytest.raises(ValueError):
            m.position(0, -1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StaticPlacement([])


class TestRandomWaypoint:
    def test_determinism(self):
        a = RandomWaypoint(4, seed=42)
        b = RandomWaypoint(4, seed=42)
        for node in range(4):
            for t in (0.0, 10.0, 1000.0, 7200.0):
                assert a.position(node, t) == b.position(node, t)

    def test_adding_nodes_preserves_existing_trajectories(self):
        a = RandomWaypoint(3, seed=42)
        b = RandomWaypoint(5, seed=42)
        for node in range(3):
            assert a.position(node, 500.0) == b.position(node, 500.0)

    def test_stays_in_extent(self):
        m = RandomWaypoint(5, extent=(0, 0, 100, 50), seed=7)
        for node in range(5):
            for t in np.linspace(0, 5000, 60):
                x, y = m.position(node, float(t))
                assert 0 <= x <= 100
                assert 0 <= y <= 50

    def test_initial_holding_time(self):
        m = RandomWaypoint(2, holding_time=120.0, seed=1)
        start = m.position(0, 0.0)
        assert m.position(0, 60.0) == start
        assert m.position(0, 119.9) == start

    def test_speed_bound(self):
        """Displacement over any interval never exceeds v_max * dt."""
        m = RandomWaypoint(3, speed_range=(2.0, 10.0), holding_time=0.0, seed=3)
        for node in range(3):
            prev = m.position(node, 0.0)
            for t in np.arange(1.0, 600.0, 7.0):
                cur = m.position(node, float(t))
                dist = math.hypot(cur[0] - prev[0], cur[1] - prev[1])
                assert dist <= 10.0 * 7.0 + 1e-6
                prev = cur

    def test_movement_actually_happens(self):
        m = RandomWaypoint(2, holding_time=0.0, seed=5)
        p0 = m.position(0, 0.0)
        p1 = m.position(0, 300.0)
        assert p0 != p1

    def test_out_of_order_queries_consistent(self):
        m = RandomWaypoint(2, seed=9)
        late = m.position(1, 3000.0)
        _early = m.position(1, 5.0)
        assert m.position(1, 3000.0) == late

    def test_start_positions_respected(self):
        starts = [(10.0, 10.0), (20.0, 20.0)]
        m = RandomWaypoint(2, start_positions=starts, seed=1)
        assert m.position(0, 0.0) == (10.0, 10.0)
        assert m.position(1, 0.0) == (20.0, 20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWaypoint(0)
        with pytest.raises(ValueError):
            RandomWaypoint(2, speed_range=(0.0, 5.0))
        with pytest.raises(ValueError):
            RandomWaypoint(2, speed_range=(5.0, 2.0))
        with pytest.raises(ValueError):
            RandomWaypoint(2, holding_time=-1.0)
        with pytest.raises(ValueError):
            RandomWaypoint(2, extent=(0, 0, 0, 1))
        with pytest.raises(ValueError):
            RandomWaypoint(2, start_positions=[(0.0, 0.0)])
        m = RandomWaypoint(2, seed=1)
        with pytest.raises(ValueError):
            m.position(0, -5.0)

    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 10_000.0))
    @settings(max_examples=30, deadline=None)
    def test_property_in_bounds(self, seed, t):
        m = RandomWaypoint(2, extent=(0, 0, 1000, 1000), seed=seed)
        x, y = m.position(0, t)
        assert 0 <= x <= 1000 and 0 <= y <= 1000


class TestVectorisedPositions:
    """The SoA `positions` sweep must replay the scalar path bit for bit."""

    def test_positions_match_reference_over_random_times(self):
        a = RandomWaypoint(30, seed=7, holding_time=4.0)
        b = RandomWaypoint(30, seed=7, holding_time=4.0)
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, 800.0, size=150))
        for t in times:
            va = a.positions(float(t))
            vb = positions_reference(b, float(t))
            assert (va == vb).all(), f"diverged at t={t}"

    def test_positions_match_scalar_on_same_instance(self):
        m = RandomWaypoint(12, seed=19, holding_time=0.0)
        for t in (0.0, 3.7, 3.7, 120.4, 55.5, 0.0, 999.9):
            arr = m.positions(t)
            for i in range(12):
                assert m.position(i, t) == (arr[i, 0], arr[i, 1])

    def test_non_monotone_queries_refresh_soa_rows(self):
        m = RandomWaypoint(8, seed=2, holding_time=1.0)
        late = m.positions(400.0).copy()
        early = m.positions(5.0).copy()
        again = m.positions(400.0)
        assert (late == again).all()
        assert (early == positions_reference(m, 5.0)).all()

    def test_zero_holding_time_degenerate_legs(self):
        m = RandomWaypoint(6, seed=11, holding_time=0.0)
        ref = RandomWaypoint(6, seed=11, holding_time=0.0)
        for t in (0.0, 0.5, 10.0, 200.0):
            assert (m.positions(t) == positions_reference(ref, t)).all()

    def test_advance_rejects_negative_time(self):
        with pytest.raises(ValueError):
            RandomWaypoint(2, seed=1).advance(-1.0)
