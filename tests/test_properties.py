"""Cross-cutting property-based tests (hypothesis).

Deeper invariants than the per-module suites: end-to-end distributed
correctness under arbitrary layouts, hybrid-storage encode/decode laws,
filter-safety across estimation modes, merge algebra, and loop-free
routing over small moving worlds.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuous import ContinuousConfig, run_continuous_simulation
from repro.core import (
    Estimation,
    FilteringTuple,
    SkylineQuery,
    local_skyline_vectorized,
    merge_skylines,
    select_filter,
    skyline_of_relation,
)
from repro.core.skyline import skyline_rows_within
from repro.data import QueryRequest, make_global_dataset
from repro.data.spatial import rect_within_circle
from repro.net.aodv import AodvRouter
from repro.obs import Observer
from repro.protocol import SimulationConfig, run_manet_simulation
from repro.protocol.static_grid import StaticGridCache, run_static_query
from repro.storage import (
    AttributeSpec,
    HybridStorage,
    Preference,
    Relation,
    RelationSchema,
    uniform_schema,
)

from .oracles.skyline import (
    bnl_of_relation,
    prune_with_filters,
    skyline_bnl,
    skyline_bruteforce,
)

# -- strategies -------------------------------------------------------------

small_relation_args = st.tuples(
    st.integers(min_value=1, max_value=40),   # rows
    st.integers(min_value=1, max_value=4),    # dims
    st.integers(min_value=0, max_value=10**6),  # seed
)


def build_relation(rows, dims, seed, distinct=6):
    rng = np.random.default_rng(seed)
    schema = uniform_schema(dims, high=float(distinct))
    values = rng.integers(0, distinct + 1, size=(rows, dims)).astype(float)
    xy = rng.uniform(0, 1000, size=(rows, 2))
    return Relation(schema, xy, values)


# -- hybrid storage laws ------------------------------------------------------


class TestHybridStorageLaws:
    @given(small_relation_args)
    @settings(max_examples=40, deadline=None)
    def test_encode_decode_roundtrip(self, args):
        rel = build_relation(*args)
        hs = HybridStorage(rel)
        for row in range(min(rel.cardinality, 10)):
            ids = tuple(int(i) for i in hs.ids[row])
            assert hs.encode_values(hs.decode_ids(ids)) == ids

    @given(small_relation_args)
    @settings(max_examples=40, deadline=None)
    def test_skyline_on_ids_equals_skyline_on_values(self, args):
        """Computing the skyline in ID space is exactly equivalent to
        computing it on raw values — the core Section 4.2 claim."""
        rel = build_relation(*args)
        hs = HybridStorage(rel)
        by_value = skyline_bruteforce(hs.values_matrix())
        by_id = skyline_bruteforce(hs.ids.astype(float))
        assert np.array_equal(by_value, by_id)

    @given(small_relation_args, st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_threshold_encoding_law(self, args, probe_seed):
        rel = build_relation(*args)
        hs = HybridStorage(rel)
        rng = np.random.default_rng(probe_seed)
        probe = tuple(float(v) for v in rng.uniform(-2, 9, rel.dimensions))
        thr = hs.encode_threshold(probe)
        vm = hs.values_matrix()
        for row in range(min(rel.cardinality, 10)):
            for j in range(rel.dimensions):
                assert (hs.ids[row, j] >= thr[j]) == (vm[row, j] >= probe[j])


# -- filter safety across estimations ---------------------------------------


class TestFilterSafety:
    @given(
        st.integers(0, 10**6),
        st.sampled_from(list(Estimation)),
    )
    @settings(max_examples=30, deadline=None)
    def test_filter_preserves_union_skyline(self, seed, estimation):
        """For ANY estimation mode, filtering must preserve every member
        of the union skyline that lives on the filtered device."""
        rel_a = build_relation(30, 3, seed)
        rel_b = build_relation(30, 3, seed + 1)
        query = SkylineQuery(origin=0, cnt=0, pos=(500.0, 500.0), d=1e9)
        sky_b = skyline_of_relation(rel_b)
        if sky_b.cardinality == 0:
            return
        flt = select_filter(sky_b, estimation, local_highs=(
            rel_b.normalized_worst() if estimation is Estimation.UNDER else None
        ))
        res = local_skyline_vectorized(rel_a, query, flt, estimation=estimation)
        combined = skyline_of_relation(rel_a.union(rel_b))
        kept_sites = {(s.x, s.y) for s in res.skyline.rows()}
        a_sites = {(float(x), float(y)) for x, y in rel_a.xy}
        b_sites = {(float(x), float(y)) for x, y in rel_b.xy}
        for site in combined.rows():
            key = (site.x, site.y)
            if key in a_sites and key not in b_sites:
                # a tuple only device A holds must survive A's filter
                if res.skipped != "dominated":
                    assert key in kept_sites
                else:
                    # a dominated-skip wipes everything; it is only safe
                    # if no union-skyline member lived uniquely on A
                    pytest.fail(
                        "dominated-skip removed a union skyline member"
                    )


# -- the cached skyline view --------------------------------------------------


def _view_relation(kind, rows, dims, seed, max_pref):
    """A relation whose skyline rows sit in [0, 100]^2 and whose other
    rows sit in [500, 1000]^2, so one disk holds exactly the skyline."""
    rng = np.random.default_rng(seed)
    schema = RelationSchema(attributes=tuple(
        AttributeSpec(
            f"p{j}", high=6.0,
            preference=Preference.MAX if max_pref and j == 0 else Preference.MIN,
        )
        for j in range(dims)
    ))
    if kind == "all_skyline":
        # Rows on an anti-diagonal (equal rows for one attribute): no
        # row dominates another.
        up = np.arange(rows, dtype=float) * 6.0 / rows
        cols = [up] + [up[::-1]] * (dims - 1) if dims > 1 else [np.zeros(rows)]
        values = np.column_stack(cols)
        if max_pref:
            values[:, 0] = 6.0 - values[:, 0]
    else:
        values = rng.integers(0, 7, size=(rows, dims)).astype(float)
        if kind == "duplicates":
            values = np.repeat(values[: max(rows // 2, 1)], 2, axis=0)[:rows]
    sky = np.zeros(values.shape[0], dtype=bool)
    sky[skyline_bnl(Relation(schema, np.zeros((values.shape[0], 2)),
                             values).normalized_values())] = True
    if kind == "all_skyline":
        assert sky.all()
    xy = np.where(
        sky[:, None],
        rng.uniform(0, 100, size=(values.shape[0], 2)),
        rng.uniform(500, 1000, size=(values.shape[0], 2)),
    )
    return Relation(schema, xy, values)


def _result_fields(res):
    return (
        res.skyline.xy.tolist(), res.skyline.values.tolist(),
        res.skyline.site_ids.tolist(), res.unreduced_size, res.skipped,
        res.updated_filter, res.scanned, res.in_range,
    )


class TestCachedSkylineView:
    @given(
        st.sampled_from(["random", "duplicates", "all_skyline"]),
        st.integers(1, 30),
        st.integers(1, 3),
        st.integers(0, 10**6),
        st.booleans(),
        st.tuples(st.floats(0, 1000), st.floats(0, 1000), st.floats(1.0, 800)),
    )
    @settings(max_examples=40, deadline=None)
    def test_answers_equal_bnl_and_a_fresh_relation(
        self, kind, rows, dims, seed, max_pref, disk
    ):
        """Every row covered, then only the skyline, then a partial and a
        missing disk, each with and without a filter, on one relation:
        each answer is the BNL skyline of the in-range rows and equals,
        field for field, the answer of a relation with no cached view."""
        rel = _view_relation(kind, rows, dims, seed, max_pref)
        queries = [
            ((500.0, 500.0), 1.0e9),   # every row
            ((50.0, 50.0), 71.0),      # exactly the skyline rows
            ((disk[0], disk[1]), disk[2]),  # partial (or any) disk
            ((50.0, 50.0), 0.5),       # partial: most skyline rows missed
            ((5000.0, 5000.0), 10.0),  # misses the MBR
        ]
        rng = np.random.default_rng(seed + 1)
        flt_row = rel.row(int(rng.integers(rel.cardinality)))
        filters = [None, FilteringTuple(site=flt_row, vdr=0.0),
                   FilteringTuple(site=replace(flt_row, x=-1.0, y=-1.0), vdr=0.0)]
        for pos, d in queries:
            query = SkylineQuery(origin=0, cnt=0, pos=pos, d=d)
            expected = bnl_of_relation(rel.restrict(pos, d))
            for flt in filters:
                res = local_skyline_vectorized(rel, query, flt)
                fresh_rel = Relation(rel.schema, rel.xy.copy(),
                                     rel.values.copy(), rel.site_ids.copy())
                fresh = local_skyline_vectorized(fresh_rel, query, flt)
                assert _result_fields(res) == _result_fields(fresh)
                assert res.unreduced_size == expected.cardinality
                if flt is None:
                    assert res.skyline.rows() == expected.rows()
                elif res.skipped is None:
                    pruned = prune_with_filters(expected, [flt])
                    assert res.skyline.rows() == pruned.rows()
        # The first query covered every row, so the view holds the
        # skyline and the "exactly the skyline" disk was served by it.
        assert rel.skyline_rows().tolist() == skyline_bnl(
            rel.normalized_values()).tolist()
        assert rel.within((50.0, 50.0), 71.0)[rel.skyline_rows()].all()


class TestCellCover:
    """A disk that passes the cover test holds every row of the
    relation under the per-row range test, to the last ulp."""

    @staticmethod
    def assert_exact(rel, pos, d):
        covered = rect_within_circle(rel.mbr(), pos, d)
        inside = rel.within(pos, d)
        if covered:
            assert inside.all()
        # With a row on every MBR corner the farthest corner is a row,
        # so the test is exact both ways.
        assert covered == inside.all()

    @staticmethod
    def corner_relation(xy):
        x_min, y_min = xy.min(axis=0)
        x_max, y_max = xy.max(axis=0)
        corners = [[x_min, y_min], [x_min, y_max], [x_max, y_min],
                   [x_max, y_max]]
        xy = np.vstack([xy, corners])
        return Relation(uniform_schema(1), xy, np.zeros((xy.shape[0], 1)))

    @given(
        st.integers(1, 30),
        st.integers(0, 10**6),
        st.tuples(st.floats(-500, 1500), st.floats(-500, 1500)),
        st.floats(0.0, 2000.0),
    )
    @settings(deadline=None)
    def test_cover_implies_every_row_in_range(self, rows, seed, pos, d):
        rng = np.random.default_rng(seed)
        rel = self.corner_relation(rng.uniform(0, 1000, size=(rows, 2)))
        self.assert_exact(rel, pos, d)
        # The radius that puts the farthest corner on the circle, and
        # one ulp either side of it.
        x_min, y_min, x_max, y_max = rel.mbr()
        fx = max(pos[0] - x_min, x_max - pos[0])
        fy = max(pos[1] - y_min, y_max - pos[1])
        edge = float(np.sqrt(fx * fx + fy * fy))
        for r in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)):
            self.assert_exact(rel, pos, float(r))

    def test_corner_exactly_on_the_circle(self):
        # 3-4-5: the far corner (3, 4) lies exactly on the circle of
        # radius 5 around the origin.
        rel = self.corner_relation(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert rect_within_circle(rel.mbr(), (0.0, 0.0), 5.0)
        self.assert_exact(rel, (0.0, 0.0), 5.0)
        inside = float(np.nextafter(5.0, 0.0))
        assert not rect_within_circle(rel.mbr(), (0.0, 0.0), inside)
        self.assert_exact(rel, (0.0, 0.0), inside)
        self.assert_exact(rel, (0.0, 0.0), float(np.nextafter(5.0, np.inf)))


class TestSkylineFirstElimination:
    """``skyline_rows_within`` is the BNL skyline of the masked rows,
    whether or not the relation's skyline ``S`` is stored and however
    much of ``S`` the mask holds."""

    @given(
        st.integers(1, 200),
        st.integers(1, 3),
        st.sampled_from(["independent", "correlated", "anticorrelated"]),
        st.integers(0, 10**6),
        st.sampled_from(["all", "some", "none"]),
        st.floats(0.0, 1.0),
    )
    @settings(deadline=None)
    def test_equals_bnl_of_masked_rows(
        self, rows, dims, dist, seed, share, density
    ):
        # value_step=1 over a 0..4 domain: many equal value vectors.
        rel = make_global_dataset(
            rows, dims, 1, dist, schema=uniform_schema(dims, high=4.0),
            seed=seed, value_step=1.0,
        ).local(0)
        values = rel.normalized_values()
        sky = skyline_bnl(values)
        rng = np.random.default_rng(seed)
        mask = rng.random(rel.cardinality) < density
        if share == "all":
            mask[sky] = True
        elif share == "none":
            mask[sky] = False
        else:
            mask[sky] = rng.random(sky.shape[0]) < 0.5
        idx = np.flatnonzero(mask)
        expected = idx[skyline_bnl(values[idx])].tolist()
        assert skyline_rows_within(rel, mask).tolist() == expected
        assert rel.skyline_rows() is None or mask.all()
        assert skyline_rows_within(rel).tolist() == sky.tolist()
        assert rel.skyline_rows().tolist() == sky.tolist()
        assert skyline_rows_within(rel, mask).tolist() == expected


# -- merge algebra -----------------------------------------------------------


class TestMergeAlgebra:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_merge_idempotent(self, seed):
        rel = skyline_of_relation(build_relation(25, 2, seed))
        merged = merge_skylines(rel, rel)
        assert sorted(map(tuple, merged.xy.tolist())) == sorted(
            map(tuple, rel.xy.tolist())
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_merge_commutative_as_sets(self, seed):
        a = skyline_of_relation(build_relation(20, 2, seed))
        b = skyline_of_relation(build_relation(20, 2, seed + 99))
        ab = merge_skylines(a, b)
        ba = merge_skylines(b, a)
        def key(r):
            return sorted(
                map(tuple, np.column_stack([r.xy, r.values]).tolist())
            )
        assert key(ab) == key(ba)


# -- distributed correctness over random partitionings -----------------------


class TestDistributedCorrectness:
    @given(
        st.integers(0, 10**6),
        st.sampled_from([9, 16, 25]),
        st.sampled_from(["independent", "anticorrelated"]),
        st.booleans(),
        st.sampled_from(list(Estimation)),
    )
    @settings(max_examples=15, deadline=None)
    def test_static_grid_always_returns_global_skyline(
        self, seed, devices, distribution, dynamic, estimation
    ):
        dataset = make_global_dataset(
            1500, 2, devices, distribution, seed=seed, value_step=1.0
        )
        cache = StaticGridCache(dataset)
        outcome = run_static_query(
            dataset, originator=seed % devices,
            dynamic_filter=dynamic, estimation=estimation, cache=cache,
        )
        want = skyline_of_relation(dataset.global_relation)
        assert sorted(map(tuple, outcome.result.values.tolist())) == sorted(
            map(tuple, want.values.tolist())
        )


# -- routing: loop freedom over small moving worlds --------------------------


def _next_hop_cycle(world, dest):
    """A cycle in the valid next-hop graph toward ``dest``, or None."""
    now = world.sim.now
    nxt = {}
    for node_id, node in world._nodes.items():
        route = node.router.routes.get(dest)
        if route is not None and route.valid_at(now):
            nxt[node_id] = route.next_hop
    for start in nxt:
        path, node = [start], start
        while node in nxt:
            node = nxt[node]
            if node in path:
                return path[path.index(node):]
            path.append(node)
    return None


class _LoopWatch:
    """Checks the next-hop graph toward a DATA frame's destination at
    every forward, for the duration of a ``with`` block."""

    def __enter__(self):
        self.loops = []
        self._original = original = AodvRouter._forward
        loops = self.loops

        def checked(router, packet, route, on_undeliverable):
            cycle = _next_hop_cycle(router.world, packet.dest)
            if cycle is not None:
                loops.append((router.sim.now, packet.kind, packet.dest, cycle))
            return original(router, packet, route, on_undeliverable)

        AodvRouter._forward = checked
        return self

    def __exit__(self, *exc):
        AodvRouter._forward = self._original
        return False


def _assert_routing_sound(watch, observer):
    assert watch.loops == []
    assert observer.metrics.counter("aodv.ttl_expired").value == 0


moving_world = st.fixed_dictionaries({
    "seed": st.integers(0, 10**6),
    "slow": st.floats(0.5, 10.0),
    "spread": st.floats(0.0, 20.0),
    "holding": st.floats(0.0, 60.0),
})


class TestRoutingLoopFreedom:
    """Every route the routers learn (floods, RREQ/RREP, routed DATA,
    overhearing) keeps the valid next-hop graph toward each destination
    acyclic, so no DATA frame ever dies of TTL expiry. Examples come
    from the active hypothesis profile (``--hypothesis-profile=deep``
    runs ten times as many)."""

    @given(moving_world, st.integers(6, 16), st.sampled_from(["bf", "df"]))
    @settings(
        max_examples=settings.default.max_examples // 4,
        deadline=None,
    )
    def test_one_shot_queries(self, world, devices, strategy):
        # Grid partitioning needs a square device count: keep the first
        # ``devices`` partitions of a 16-device dataset.
        full = make_global_dataset(
            100 * 16, 2, 16, "independent", seed=world["seed"],
            value_step=1.0,
        )
        dataset = replace(full, locals=full.locals[:devices])
        config = SimulationConfig(
            strategy=strategy, sim_time=120.0, drain_time=30.0,
            speed_range=(world["slow"], world["slow"] + world["spread"]),
            holding_time=world["holding"], seed=world["seed"],
        )
        workload = [
            QueryRequest(device=(world["seed"] + i) % devices,
                         time=1.0 + 25.0 * i, distance=600.0)
            for i in range(4)
        ]
        observer = Observer()
        with _LoopWatch() as watch:
            run_manet_simulation(dataset, workload, config, observer=observer)
        _assert_routing_sound(watch, observer)

    @given(moving_world, st.sampled_from([9, 16]))
    @settings(
        max_examples=settings.default.max_examples // 8,
        deadline=None,
    )
    def test_subscriptions(self, world, devices):
        # The runner builds its own grid-partitioned dataset, whose
        # device count must be a perfect square.
        config = ContinuousConfig(
            devices=devices, cardinality=60 * devices, d=600.0,
            originator=world["seed"] % devices, epochs=4,
            seed=world["seed"],
            speed_range=(world["slow"], world["slow"] + world["spread"]),
            holding_time=world["holding"],
        )
        observer = Observer()
        with _LoopWatch() as watch:
            run_continuous_simulation(config, observer=observer)
        _assert_routing_sound(watch, observer)
