"""Cross-cutting property-based tests (hypothesis).

Deeper invariants than the per-module suites: end-to-end distributed
correctness under arbitrary layouts, hybrid-storage encode/decode laws,
filter-safety across estimation modes, merge algebra, and loop-free
routing over small moving worlds.
"""

import math
from dataclasses import replace
from functools import partial
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuous import (
    ContinuousConfig,
    ContinuousDevice,
    run_continuous_simulation,
)
from repro.core import (
    Estimation,
    FilteringTuple,
    SkylineAssembler,
    SkylineQuery,
    local_skyline_vectorized,
    merge_skylines,
    select_filter,
    skyline_numpy,
    skyline_of_relation,
)
from repro.core.dominance import dominated_mask
from repro.core.skyline import SMALL, skyline_rows_within
from repro.data import QueryRequest, make_global_dataset
from repro.data.spatial import rect_within_circle
from repro.faults import perturb_relation
from repro.net import (
    MobilityModel,
    RadioConfig,
    RandomWaypoint,
    Simulator,
    StaticPlacement,
    World,
)
from repro.net.aodv import AodvRouter
from repro.net.spatial_index import _SLACK, SKIN
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

from .oracles.assembly import LegacyAssembler
from .oracles.skyline import (
    bnl_of_relation,
    prune_with_filters,
    skyline_bnl,
    skyline_bruteforce,
)
from .oracles.spatial_index import window_lists
from .oracles.updates import EagerStore
from .oracles.world import (
    uncached_can_communicate,
    uncached_in_range,
    uncached_neighbors,
    uncached_reachable_from,
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


class TestVersionChainReads:
    """Reads along a chain of ``perturb_relation`` versions, as a device
    that takes data updates makes them: each version is read in full,
    through random masks, or not at all, and every read is the BNL
    skyline of its masked rows."""

    @given(
        st.integers(1, 120),
        st.integers(1, 3),
        st.integers(0, 10**6),
        st.lists(
            st.tuples(
                st.floats(1e-3, 1.0),
                # Per read: None reads every row, a float is the mask
                # density; an empty list leaves the version unread.
                st.lists(st.one_of(st.none(), st.floats(0.0, 1.0)),
                         max_size=3),
            ),
            min_size=1, max_size=6,
        ),
    )
    @settings(deadline=None)
    def test_every_read_equals_bnl_of_its_rows(self, rows, dims, seed, chain):
        # value_step=1 over a 0..4 domain: many equal value vectors.
        rel = make_global_dataset(
            rows, dims, 1, "independent",
            schema=uniform_schema(dims, high=4.0), seed=seed, value_step=1.0,
        ).local(0)
        rng = np.random.default_rng(seed)
        for version, (fraction, reads) in enumerate(chain):
            rel = perturb_relation(rel, fraction, seed + version, value_step=1.0)
            values = rel.normalized_values()
            for density in reads:
                if density is None:
                    mask, idx = None, np.arange(rel.cardinality)
                else:
                    mask = rng.random(rel.cardinality) < density
                    idx = np.flatnonzero(mask)
                expected = idx[skyline_bnl(values[idx])].tolist()
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


def waypoints(world, devices):
    """The random waypoint model a run builds for itself from this
    draw's speeds, pause and seed over the default dataset extent."""
    return RandomWaypoint(
        node_count=devices, extent=uniform_schema(2).spatial_extent,
        speed_range=(world["slow"], world["slow"] + world["spread"]),
        holding_time=world["holding"], seed=world["seed"],
    )


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
            seed=world["seed"],
        )
        workload = [
            QueryRequest(device=(world["seed"] + i) % devices,
                         time=1.0 + 25.0 * i, distance=600.0)
            for i in range(4)
        ]
        observer = Observer()
        with _LoopWatch() as watch:
            run_manet_simulation(
                dataset, workload, config,
                mobility=waypoints(world, devices), observer=observer,
            )
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
        )
        observer = Observer()
        with _LoopWatch() as watch:
            run_continuous_simulation(
                config, mobility=waypoints(world, devices), observer=observer,
            )
        _assert_routing_sound(watch, observer)


# -- neighbor candidate lists ---------------------------------------------------


class _Recorder:
    """A node that ignores its frames."""

    def __init__(self, world, node_id):
        self.node_id = node_id
        world.attach(self)

    def on_frame(self, frame, sender):
        pass


def _assert_rows_exact(world):
    """Every node's row and closure equal the uncached answers."""
    for node in world.node_ids:
        assert world.neighbors(node) == uncached_neighbors(world, node), (
            node, world.sim.now,
        )
    for node in world.node_ids:
        assert world.reachable_from(node) == uncached_reachable_from(
            world, node
        ), (node, world.sim.now)


#: One step of a candidate-window schedule: where the next query time
#: falls relative to the current window, a fraction placing it there,
#: and the fault event applied at that time.
window_step = st.tuples(
    st.sampled_from(["inside", "end", "across"]),
    st.floats(0.0, 1.0),
    st.sampled_from(
        ["none", "crash", "recover", "blackout", "lift", "split", "heal"]
    ),
    st.integers(0, 10**6),
)


class TestCandidateRows:
    """Rows and closures read from speed-bounded candidate lists equal
    the uncached world's at query times inside a list's window, exactly
    at its end and past it, with crashes, blackouts and partitions in
    between. Examples come from the active hypothesis profile
    (``--hypothesis-profile=deep`` runs ten times as many)."""

    @given(
        m=st.integers(2, 12),
        seed=st.integers(0, 10**6),
        band=st.sampled_from([(2.0, 10.0), (50.0, 100.0)]),
        holding=st.sampled_from([0.0, 1.0, 30.0]),
        side=st.sampled_from([400.0, 1000.0]),
        radio_range=st.sampled_from([100.0, 250.0]),
        steps=st.lists(window_step, min_size=1, max_size=8),
    )
    @settings(deadline=None)
    def test_rows_equal_uncached_answers(
        self, m, seed, band, holding, side, radio_range, steps
    ):
        sim = Simulator()
        mobility = RandomWaypoint(
            node_count=m, extent=(0.0, 0.0, side, side), speed_range=band,
            holding_time=holding, seed=seed,
        )
        world = World(sim, mobility, RadioConfig(radio_range=radio_range),
                      seed=seed)
        for i in range(m):
            _Recorder(world, i)
        _assert_rows_exact(world)
        index = world._index
        for where, frac, event, pick in steps:
            start, window = index._cand_time, index._cand_window
            if where == "inside":
                t = start + frac * window
            elif where == "end":
                t = start + window
            else:
                t = start + window * (1.0 + 3.0 * frac) + 1e-9
            sim.run(until=max(t, sim.now))
            node = pick % m
            other = (node + 1 + pick // m % (m - 1)) % m
            if event == "crash":
                world.fail_node(node)
            elif event == "recover" and world.down_nodes:
                world.restore_node(world.down_nodes[0])
            elif event == "blackout":
                world.set_link_blackout(node, other, True)
            elif event == "lift" and world._blackouts:
                world.set_link_blackout(*sorted(next(iter(world._blackouts))),
                                        False)
            elif event == "split":
                world.set_partition("xy"[pick % 2], frac * side, True)
            elif event == "heal" and world._partitions:
                world.set_partition(*world._partitions[0], False)
            _assert_rows_exact(world)

    def test_head_on_pairs_at_and_past_the_window_end(self):
        """Two pairs close head-on at ``max_speed``: one is exactly
        ``r + skin`` apart when the lists are built and touches range at
        the window's end; the other starts ``skin / 2`` farther out and
        enters range half a window later, when only rebuilt lists hold
        it."""
        r, v = 250.0, 10.0
        skin = SKIN * r
        window = skin / (2.0 * v)

        class HeadOn(MobilityModel):
            #: (start x, y, direction) per node; pairs 0-1 and 2-3 close.
            starts = (
                (-(r + skin) / 2, 0.0, 1.0), ((r + skin) / 2, 0.0, -1.0),
                (-(r + 1.5 * skin) / 2, 5000.0, 1.0),
                ((r + 1.5 * skin) / 2, 5000.0, -1.0),
            )

            @property
            def node_count(self):
                return len(self.starts)

            @property
            def max_speed(self):
                return v

            def position(self, node, t):
                x, y, sign = self.starts[node]
                return (x + sign * v * t, y)

        sim = Simulator()
        world = World(sim, HeadOn(), RadioConfig(radio_range=r), seed=0)
        for i in range(4):
            _Recorder(world, i)
        assert world.neighbors(0) == [] and world.neighbors(2) == []
        sim.run(until=window)
        assert world.neighbors(0) == [1]
        assert world.neighbors(2) == []
        sim.run(until=1.5 * window)
        assert world.neighbors(2) == [3]
        _assert_rows_exact(world)


# -- the window's pair pass -------------------------------------------------------


def _closure(adjacency, node):
    seen = {node}
    todo = [node]
    while todo:
        for other in adjacency[todo.pop()]:
            if other not in seen:
                seen.add(other)
                todo.append(other)
    return seen


#: A planted pair: its orientation (``across`` a column edge in ``x``,
#: ``along`` one in ``y``, or ``back`` from one into the column before),
#: its separation (the candidate radius ``(1 + SKIN) * r`` as the index
#: pads it, or the radio range ``r``) and a step of -1, 0 or +1 ulp.
PLANTS = [
    (orient, kind, ulps)
    for orient in ("across", "along", "back")
    for kind in ("reach", "range")
    for ulps in (-1, 0, 1)
]


class TestWindowPass:
    """The window's one pair pass (its candidate lists, the rows at
    ``t_c`` and the ``t_c`` adjacency) and ``reachable_from`` equal an
    all-pairs Python enumeration of scalar positions, with the fault rule
    applied pair by pair. Worlds are static or moving, with m in
    {1, 2, 25, 400}, unattached
    mobility slots, a crash, a blackout on a planted pair and a
    partition cut on a column edge. Pairs are planted at the candidate
    radius and at the radio range, one ulp in, on it and one ulp out,
    anchored on column edges. Examples come from the active hypothesis
    profile."""

    @given(
        m=st.sampled_from([1, 2, 25, 400]),
        static=st.booleans(),
        seed=st.integers(0, 10**6),
        radio_range=st.sampled_from([100.0, 250.0]),
        rot=st.integers(0, len(PLANTS) - 1),
        unattached=st.integers(0, 2),
        faults=st.lists(st.sampled_from(["crash", "blackout", "split"]),
                        max_size=3, unique=True),
        times=st.lists(st.floats(0.0, 60.0), max_size=2),
    )
    @settings(max_examples=max(settings.default.max_examples // 4, 1),
              deadline=None)
    def test_pass_equals_all_pairs_enumeration(
        self, m, static, seed, radio_range, rot, unattached, faults, times,
    ):
        r = radio_range
        reach = math.sqrt((r + SKIN * r) ** 2 * (1.0 + _SLACK))
        width = reach * (1.0 + 1e-9)  # the column pass's column width

        def separation(kind, ulps):
            d = reach if kind == "reach" else r
            for _ in range(abs(ulps)):
                d = math.nextafter(d, math.inf if ulps > 0 else 0.0)
            return d

        slots = m + unattached
        side = max(1000.0 * math.sqrt(slots / 25.0), 10.0 * width)
        rng = np.random.default_rng(seed)
        starts = [tuple(p) for p in rng.uniform(1.0, side, size=(slots, 2))]
        # Node 0 at the origin pins the columns' edges to multiples of
        # ``width``; with m=2 node 1 is planted from it.
        starts[0] = (0.0, 0.0)
        if slots == 2:
            starts[1] = (separation(*PLANTS[rot][1:]), 0.0)
        for k in range(min(len(PLANTS), (slots - 1) // 2)):
            orient, kind, ulps = PLANTS[(k + rot) % len(PLANTS)]
            d = separation(kind, ulps)
            x = (1 + k % 3) * width
            y = (1 + k // 3) * 1.25 * width
            starts[1 + 2 * k] = (x, y)
            starts[2 + 2 * k] = {
                "across": (x + d, y), "along": (x, y + d), "back": (x - d, y),
            }[orient]
        if static:
            mobility = StaticPlacement(starts)
        else:
            mobility = RandomWaypoint(
                node_count=slots, extent=(0.0, 0.0, side, side),
                holding_time=5.0, seed=seed, start_positions=starts,
            )
        sim = Simulator()
        world = World(sim, mobility, RadioConfig(radio_range=r), seed=seed)
        # Unattached slots sit before the last one, so the attached ids
        # are not ``0..n-1``.
        free = set(range(slots - 1 - unattached, slots - 1))
        attached = [i for i in range(slots) if i not in free]
        for i in attached:
            _Recorder(world, i)
        if "crash" in faults:
            world.fail_node(attached[int(rng.integers(len(attached)))])
        if "blackout" in faults and len(attached) >= 2:
            world.set_link_blackout(attached[0], attached[1], True)
        if "split" in faults:
            world.set_partition("x", width, True)
        index = world._index
        for t in [0.0] + sorted(times):
            sim.run(until=max(t, sim.now))
            closure = world.reachable_from(attached[0])
            assert index._cand_time == index._now()
            cands, near = window_lists(index)
            ptr = index._cand_ptr
            expected = {}
            for i in attached:
                k = index._idx(i)
                lo, hi = ptr[k], ptr[k + 1]
                assert index._cand_ids[lo:hi] == cands[i], (i, t)
                assert list(compress(cands[i], index._cand_near[lo:hi])) \
                    == near[i], (i, t)
                expected[i] = [
                    j for j in near[i] if uncached_can_communicate(world, i, j)
                ]
            assert closure == _closure(expected, attached[0])
            for i in attached:
                assert world.neighbors(i) == expected[i], (i, t)
                assert index._compute_row(i) == expected[i], (i, t)
                assert world.reachable_from(i) == _closure(expected, i)


# -- link questions from the window's speed bound ---------------------------------


def _assert_links_exact(world, mobility_ids):
    """Every pair's ``in_range`` and ``can_communicate`` equal the scalar
    answers, ``in_range`` for unattached mobility slots too."""
    for a in mobility_ids:
        for b in mobility_ids:
            assert world.in_range(a, b) == uncached_in_range(world, a, b), (
                a, b, world.sim.now,
            )
            assert world.can_communicate(a, b) == uncached_can_communicate(
                world, a, b
            ), (a, b, world.sim.now)


#: One step of a link-question schedule: where the next query time falls
#: relative to the current window, and a fraction placing it there.
link_step = st.tuples(
    st.sampled_from(["at", "inside", "end", "past"]), st.floats(0.0, 1.0),
)


class TestLinkBound:
    """Pair questions read from the candidate window (``in_range``,
    ``can_communicate``) and rows equal the scalar answers. Nodes come in
    pairs planted about ``r`` apart, within ``2 * max_speed * dt`` of the
    radio range for every ``dt`` up to the window's length, so many
    pairs sit inside the band that the bound leaves to the exact test.
    Questions are asked with no window open, at ``t_c``, inside the
    window, at its end and past it (before a row opens the next one),
    on random-waypoint worlds at 2-10 m/s and on a static placement,
    with and without an active partition cut and blackout. Examples come
    from the active hypothesis profile."""

    @given(
        pairs=st.integers(1, 5),
        spare=st.booleans(),
        seed=st.integers(0, 10**6),
        speeds=st.tuples(st.floats(2.0, 10.0), st.floats(2.0, 10.0)),
        holding=st.sampled_from([0.0, 1.0]),
        radio_range=st.sampled_from([100.0, 250.0]),
        offsets=st.lists(st.floats(-1.5, 1.5), min_size=5, max_size=5),
        static=st.booleans(),
        faults=st.booleans(),
        steps=st.lists(link_step, min_size=1, max_size=6),
    )
    @settings(deadline=None)
    def test_pair_answers_equal_scalar_answers(
        self, pairs, spare, seed, speeds, holding, radio_range, offsets,
        static, faults, steps,
    ):
        r = radio_range
        lo, hi = sorted(speeds)
        skin = SKIN * r
        rng = np.random.default_rng(seed)
        starts = []
        for k in range(pairs):
            cx, cy = rng.uniform(r, 1000.0 - r, size=2)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            # ``skin`` is ``2 * max_speed`` times the window's length.
            d = r + offsets[k] * skin
            starts += [(cx, cy), (cx + d * np.cos(angle), cy + d * np.sin(angle))]
        if spare:
            starts.append((500.0, 500.0))
        if static:
            mobility = StaticPlacement(starts)
        else:
            mobility = RandomWaypoint(
                node_count=len(starts), extent=(0.0, 0.0, 1000.0, 1000.0),
                speed_range=(lo, hi), holding_time=holding, seed=seed,
                start_positions=starts,
            )
        sim = Simulator()
        world = World(sim, mobility, RadioConfig(radio_range=r), seed=seed)
        attached = range(2 * pairs)
        for i in attached:
            _Recorder(world, i)
        if faults:
            world.set_partition("x", 500.0, True)
            if pairs > 1:
                world.set_link_blackout(0, 1, True)
        ids = range(len(starts))
        _assert_links_exact(world, ids)  # no window yet
        index = world._index
        for where, frac in steps:
            for node in attached:
                assert world.neighbors(node) == uncached_neighbors(world, node)
            _assert_links_exact(world, ids)  # at t_c after a fresh window
            start, window = index._cand_time, index._cand_window
            if static or where == "at":
                t = sim.now
            elif where == "inside":
                t = start + frac * window
            elif where == "end":
                t = start + window
            else:
                t = start + window * (1.0 + 3.0 * frac) + 1e-9
            sim.run(until=max(t, sim.now))
            _assert_links_exact(world, ids)

    def test_pair_moving_apart_at_max_speed(self):
        """A pair that parts at exactly ``2 * max_speed`` from ``r - drift``
        is in range at the ask time and out just after, the band's two
        edges, read both from a row and from a pair question."""
        r, v = 250.0, 10.0
        dt = 2.0

        class Parting(MobilityModel):
            starts = ((0.0, 0.0, -1.0), (r - 2.0 * v * dt, 0.0, 1.0),
                      (0.0, 3000.0, 0.0))

            @property
            def node_count(self):
                return len(self.starts)

            @property
            def max_speed(self):
                return v

            def position(self, node, t):
                x, y, sign = self.starts[node]
                return (x + sign * v * t, y)

        sim = Simulator()
        world = World(sim, Parting(), RadioConfig(radio_range=r), seed=0)
        for i in range(3):
            _Recorder(world, i)
        assert world.neighbors(2) == []  # opens the window at t = 0
        for t, linked in ((dt, True), (dt + 1e-6, False)):
            sim.run(until=t)
            assert world.in_range(0, 1) is linked
            assert world.can_communicate(1, 0) is linked
            assert world.neighbors(0) == ([1] if linked else [])
            _assert_links_exact(world, range(3))


# -- answer-sized dominance ---------------------------------------------------


def _broadcast_dominated(by, targets):
    """The unbounded ``(B, T, d)`` broadcast: the definition, once."""
    if by.shape[0] == 0 or targets.shape[0] == 0:
        return np.zeros(targets.shape[0], dtype=bool)
    no_worse = (by[:, None, :] <= targets[None, :, :]).all(axis=2)
    better = (by[:, None, :] < targets[None, :, :]).any(axis=2)
    return (no_worse & better).any(axis=0)


def _tied_rows(rng, n, dims, distinct):
    """``n`` rows over a few distinct values, so ties and duplicate
    rows are common."""
    return rng.integers(0, distinct, size=(n, dims)).astype(float)


class TestAnswerSizedDominance:
    """The one-tile path of ``dominated_mask``, the small-n path of
    ``skyline_numpy`` and the assembler's merge each equal an
    independent answer on both sides of their switch-over."""

    @given(
        block=st.integers(1, 6),
        side=st.sampled_from([-1, 0, 1]),
        lopsided=st.booleans(),
        dims=st.integers(1, 5),
        seed=st.integers(0, 10**6),
    )
    @settings(deadline=None)
    def test_dominated_mask_on_both_sides_of_one_tile(
        self, block, side, lopsided, dims, seed
    ):
        pairs = block * block + side
        if pairs < 1:
            return
        n_by = 1 if lopsided else max(1, int(pairs ** 0.5))
        n_targets = max(1, pairs // n_by)
        rng = np.random.default_rng(seed)
        by = _tied_rows(rng, n_by, dims, 3)
        targets = np.concatenate((by[: n_targets // 2],
                                  _tied_rows(rng, n_targets, dims, 3)))
        want = _broadcast_dominated(by, targets)
        assert (dominated_mask(by, targets, None) == want).all()
        assert (dominated_mask(by, targets, block) == want).all()
        assert (dominated_mask(targets, by, block)
                == _broadcast_dominated(targets, by)).all()

    @given(
        offset=st.sampled_from([-1, 0, 1]),
        dims=st.integers(1, 5),
        distinct=st.sampled_from([2, 4, 1000]),
        seed=st.integers(0, 10**6),
    )
    @settings(deadline=None)
    def test_skyline_numpy_around_small(self, offset, dims, distinct, seed):
        rng = np.random.default_rng(seed)
        values = _tied_rows(rng, SMALL + offset, dims, distinct)
        assert skyline_numpy(values).tolist() == skyline_bnl(values).tolist()

    @given(
        seed=st.integers(0, 10**6),
        sizes=st.lists(st.integers(0, 8), min_size=1, max_size=6),
    )
    @settings(deadline=None)
    def test_assembler_equals_left_fold(self, seed, sizes):
        rng = np.random.default_rng(seed)
        schema = uniform_schema(2, high=4.0)
        sites = rng.uniform(0, 1000, size=(12, 2))

        def contribution(n):
            # Sites from a small pool: duplicate coordinates inside one
            # contribution and across contributions.
            pick = rng.integers(0, len(sites), size=n)
            return Relation(schema, sites[pick], _tied_rows(rng, n, 2, 5))

        seed_rel = contribution(int(rng.integers(0, 6)))
        parts = [contribution(n) for n in sizes]
        # A contribution the running answer wholly dominates, after one
        # that sweeps the board (evicting what came before).
        best = Relation(schema, rng.uniform(2000, 3000, size=(1, 2)),
                        np.zeros((1, 2)))
        worst = Relation(schema, rng.uniform(2000, 3000, size=(2, 2)),
                         np.full((2, 2), 4.0))
        parts[len(parts) // 2:len(parts) // 2] = [best, worst]
        assembler = SkylineAssembler(schema, seed_rel)
        folded = LegacyAssembler(schema, seed_rel)
        for part in parts:
            assembler.add(part)
            folded.add(part)
            got, want = assembler.result(), folded.result()
            assert np.array_equal(got.xy, want.xy)
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.site_ids, want.site_ids)


# -- data updates: deferred equals eager -------------------------------------

update_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("perturb"),
            st.floats(1e-3, 1.0),
            st.sampled_from([None, 1.0]),
            st.integers(0, 2**31 - 2),
        ),
        st.tuples(st.just("replace"), st.integers(1, 30),
                  st.integers(0, 10**6)),
        st.tuples(st.sampled_from(["read", "crash", "recover"])),
    ),
    max_size=25,
)


def _replaced_by(new, _current):
    """An update step that installs a precomputed next version."""
    return new


class TestDeferredUpdates:
    """A device runs each data update at the next read of its relation;
    every read must equal the relation an eager fold of the same updates
    holds, and the version count must move at apply time."""

    @given(rows=st.integers(1, 30), dims=st.integers(1, 3),
           seed=st.integers(0, 10**6), steps=update_steps)
    @settings(deadline=None)
    def test_every_read_equals_the_eager_fold(self, rows, dims, seed, steps):
        start = build_relation(rows, dims, seed)
        world = World(Simulator(), StaticPlacement([(0.0, 0.0)]),
                      RadioConfig(radio_range=250.0))
        device = ContinuousDevice(world, 0, start)
        eager = EagerStore(start)
        for step in steps:
            kind = step[0]
            if kind == "perturb":
                _, fraction, value_step, update_seed = step
                update = partial(perturb_relation, fraction=fraction,
                                 seed=update_seed, value_step=value_step)
            elif kind == "replace":
                update = partial(_replaced_by,
                                 build_relation(step[1], dims, step[2]))
            elif kind == "crash":
                world.fail_node(0)
                continue
            elif kind == "recover":
                world.restore_node(0)
                continue
            else:
                got, want = device.relation, eager.relation
                assert np.array_equal(got.values, want.values)
                assert np.array_equal(got.xy, want.xy)
                assert np.array_equal(got.site_ids, want.site_ids)
                assert got.mbr() == want.mbr()
                continue
            device.apply_update(update)
            eager.apply_update(update)
            assert device.data_epoch == eager.data_epoch
        assert np.array_equal(device.relation.values, eager.relation.values)
