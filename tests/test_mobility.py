"""Tests for the mobility models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import RandomWaypoint, StaticPlacement

from .oracles.mobility import ReferenceWaypoint, positions_reference


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
        """Displacement over any interval never exceeds v_max * dt, and
        ``max_speed`` is that v_max."""
        m = RandomWaypoint(3, speed_range=(2.0, 10.0), holding_time=0.0, seed=3)
        assert m.max_speed == 10.0
        assert StaticPlacement([(0.0, 0.0)]).max_speed == 0.0
        for node in range(3):
            prev = m.position(node, 0.0)
            for t in np.arange(1.0, 600.0, 7.0):
                cur = m.position(node, float(t))
                dist = math.hypot(cur[0] - prev[0], cur[1] - prev[1])
                assert dist <= m.max_speed * 7.0 + 1e-6
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


#: ``RandomWaypoint(4, seed=42).position(node, t)`` for nodes 0-3, as the
#: scalar-draw model generated them. Any change to the order or form of
#: the waypoint draws moves these.
GOLDEN_SEED_42 = {
    0.0: [(916.7441575549085, 910.9866676343232),
          (467.4907799518424, 46.44889644868733),
          (71.23920291270869, 710.1597228953526),
          (763.9328676507446, 971.3361041904083)],
    119.0: [(916.7441575549085, 910.9866676343232),
            (467.4907799518424, 46.44889644868733),
            (71.23920291270869, 710.1597228953526),
            (763.9328676507446, 971.3361041904083)],
    250.0: [(876.5925046098457, 309.31840961414457),
            (595.5100095961371, 107.27525115747005),
            (71.80046455623234, 319.32759405679633),
            (738.590643853695, 489.81240102301854)],
    777.7: [(175.4584087032055, 249.3631720443419),
            (625.3843298227079, 177.9511934899033),
            (289.68412405405684, 586.7890183676702),
            (106.79458577346446, 236.38861392801547)],
    3000.0: [(882.3637832432535, 620.9528243165034),
             (740.8536944694732, 789.0564584275735),
             (855.0193453534881, 308.85568556414313),
             (659.6613124073085, 523.8414452622884)],
    50000.0: [(688.9667808591807, 583.424080965244),
              (687.9001365345302, 640.3183737635507),
              (455.3964327204059, 902.1698747396485),
              (589.240728154868, 128.11315038681624)],
}

#: A query time: a plain time, or ``(leg, ulps)`` meaning the end time
#: of the queried node's ``leg``-th leg moved by ``ulps`` units in the
#: last place.
_QUERY = st.one_of(
    st.floats(0.0, 5_000.0),
    st.just(0.0),
    st.tuples(st.integers(0, 60), st.integers(-1, 1)),
)


def _leg_end(ref: ReferenceWaypoint, node: int, leg: int, ulps: int) -> float:
    while len(ref._ends[node]) <= leg:
        ref._extend(node)
    t = ref._ends[node][leg]
    for _ in range(abs(ulps)):
        t = math.nextafter(t, math.inf if ulps > 0 else 0.0)
    return t


class TestScalarPositions:
    """Scalar `position` (current-leg cache, block-drawn waypoints) must
    equal the scalar-draw, bisect-and-interpolate reference bit for bit."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        # 1e-14 s pauses vanish once 1000 + 1e-14 == 1000: zero-length legs.
        holding=st.sampled_from([0.0, 1e-14, 4.0, 120.0]),
        queries=st.lists(st.tuples(st.integers(0, 2), _QUERY), max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, seed, holding, queries):
        model = RandomWaypoint(3, seed=seed, holding_time=holding)
        batch = RandomWaypoint(3, seed=seed, holding_time=holding)
        ref = ReferenceWaypoint(3, seed=seed, holding_time=holding)
        for node, query in queries:
            t = _leg_end(ref, node, *query) if isinstance(query, tuple) else query
            assert model.position(node, t) == ref.position(node, t), (node, t)
            others = [node, (node + 1) % 3]
            assert batch.positions_of(others, t) == [
                ref.position(other, t) for other in others
            ], (node, t)

    @pytest.mark.parametrize("holding", [0.0, 120.0])
    def test_leg_ends_after_the_next_leg(self, holding):
        """At a leg's exact end time the covering leg is that leg, not
        the next one, even when the next one was the last answered."""
        model = RandomWaypoint(3, seed=8, holding_time=holding)
        ref = ReferenceWaypoint(3, seed=8, holding_time=holding)
        for node in range(3):
            for leg in range(40):
                for ulps in (1, 0, -1):
                    t = _leg_end(ref, node, leg, ulps)
                    assert model.position(node, t) == ref.position(node, t), \
                        (node, leg, ulps)

    def test_golden_positions(self):
        m = RandomWaypoint(4, seed=42)
        for t, expected in GOLDEN_SEED_42.items():
            assert [m.position(node, t) for node in range(4)] == expected, t

    def test_far_query_spans_many_draw_blocks(self):
        far = RandomWaypoint(3, seed=5)
        stepped = RandomWaypoint(3, seed=5)
        ahead = [far.position(node, 1e6) for node in range(3)]
        # Each trip reads three draws from its node's block, so the
        # answer at 1e6 s needs thousands of refills per node.
        assert all(len(far._ends[node]) > 1000 for node in range(3))
        for t in np.arange(0.0, 1e6 + 1.0, 1000.0):
            for node in range(3):
                assert stepped.position(node, float(t)) == far.position(node, float(t))
        assert [stepped.position(node, 1e6) for node in range(3)] == ahead
