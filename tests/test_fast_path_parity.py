"""Differential suite pinning the fast query path to its reference paths.

Several independent fast paths each have a slow reference
implementation that defines correctness:

* the incremental :class:`~repro.core.assembly.SkylineAssembler`
  (running array triple with chunked dominance) versus the legacy
  rebuild-per-merge assembler of :mod:`tests.oracles.assembly` —
  compared bit for bit, both on synthetic merge sequences and through
  full MANET simulations (BF and DF, both distributions, with faults
  injected);
* the **device-side result cache**
  (:class:`~repro.core.local.LocalResultCache`) versus a cache that
  always misses (:func:`tests.oracles.local.install_uncached_local`) —
  full runs must agree on every record, metric and span;
* the **parallel** experiment executor versus the serial reference path
  (``workers=1``), including the persistent on-disk run cache;
* the **cached** derived views of :class:`~repro.storage.relation.Relation`
  versus fresh computation.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SkylineAssembler, merge_skylines, skyline_of_relation
from repro.experiments.config import SMOKE
from repro.experiments.executor import (
    RunCache,
    cache_root,
    configure,
    default_cache,
    resolve_workers,
    run_points,
)
from repro.experiments.manet_common import (
    _RUN_CACHE,
    ManetPoint,
    run_manet_point,
)
from repro.faults import FaultSchedule
from repro.data import make_global_dataset
from repro.data.workload import generate_workload
from repro.metrics.collector import RunMetrics, collect_metrics
from repro.metrics.messages import MessageCounts
from repro.protocol.coordinator import SimulationConfig, run_manet_simulation
from repro.protocol.device import ProtocolConfig
from repro.storage import Relation, uniform_schema
from repro.storage.schema import AttributeSpec, Preference, RelationSchema

from .oracles.assembly import (
    LegacyAssembler,
    install_legacy_assembler,
    legacy_merge,
)
from .oracles.local import install_uncached_local

# ---------------------------------------------------------------------------
# Assembler: synthetic merge sequences
# ---------------------------------------------------------------------------


def _pool_partials(seed, pool_n=24, parts=4, high=8.0):
    """Partial local skylines drawn from one shared site pool.

    Sites are shared so a location always carries the same values — the
    paper's assumption that makes location-keyed duplicate elimination
    well-defined — and partials overlap, so merges exercise both the
    duplicate and the dominance branches.
    """
    rng = np.random.default_rng(seed)
    schema = uniform_schema(2, high=high)
    pool_xy = np.column_stack(
        [np.arange(pool_n, dtype=float), np.arange(pool_n, dtype=float)]
    )
    pool_values = rng.integers(0, int(high), size=(pool_n, 2)).astype(float)
    out = []
    for _ in range(parts):
        n = int(rng.integers(0, pool_n // 2))
        if n == 0:
            out.append(Relation.empty(schema))
            continue
        pick = rng.choice(pool_n, size=n, replace=False)
        # Site ids follow the pool, not the partial: a location always
        # denotes the same site, so duplicate elimination (first copy
        # wins) keeps an identical row whichever copy arrives first.
        rel = Relation(schema, pool_xy[pick], pool_values[pick], pick)
        out.append(skyline_of_relation(rel))
    return schema, out


def _rows(relation):
    """Canonical row set of a relation (order-independent comparison)."""
    return sorted(
        map(
            tuple,
            np.column_stack(
                [
                    relation.xy,
                    relation.values,
                    relation.site_ids.astype(float)[:, None],
                ]
            ).tolist(),
        )
    )


def _assert_bit_identical(a: Relation, b: Relation):
    """Exact array equality, order included."""
    assert np.array_equal(a.xy, b.xy)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.site_ids, b.site_ids)


class TestAssemblerDifferential:
    @pytest.mark.parametrize("mode", ["incremental"])
    @pytest.mark.parametrize("block", [1, 2, 512])
    def test_legacy_vs_fast_modes_exact(self, mode, block):
        """Same merge sequence → bit-identical result, any chunk size."""
        for seed in range(20):
            schema, parts = _pool_partials(seed)
            fast = SkylineAssembler(schema, parts[0], block=block)
            slow = LegacyAssembler(schema, parts[0])
            for part in parts[1:]:
                fast.add(part)
                slow.add(part)
                _assert_bit_identical(fast.result(), slow.result())
            assert fast.merges == slow.merges

    @pytest.mark.parametrize("block", [1, 3, None])
    def test_merge_skylines_blocked_vs_unbounded(self, block):
        """``None`` leaves the block at merge_skylines' default."""
        kwargs = {} if block is None else {"block": block}
        for seed in range(20):
            _, parts = _pool_partials(seed, parts=2)
            merged = merge_skylines(parts[0], parts[1], **kwargs)
            reference = legacy_merge(parts[0], parts[1])
            _assert_bit_identical(merged, reference)

    def test_empty_contribution_counts_but_keeps_result(self):
        schema, parts = _pool_partials(3)
        asm = SkylineAssembler(schema, parts[0])
        before = asm.result()
        asm.add(Relation.empty(schema))
        assert asm.merges == 1
        assert asm.result() is before

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_merge_order_invariance(self, seed):
        """The merged skyline is a set: any arrival order of the same
        contributions yields the same rows, and the legacy path agrees."""
        schema, parts = _pool_partials(seed, parts=5)
        fast = SkylineAssembler(schema)
        fast.add_all(parts)
        want = _rows(fast.result())

        rng = np.random.default_rng(seed + 1)
        for _ in range(3):
            perm = rng.permutation(len(parts))
            asm = SkylineAssembler(schema)
            asm.add_all([parts[i] for i in perm])
            assert _rows(asm.result()) == want

        slow = LegacyAssembler(schema)
        slow.add_all(parts)
        assert _rows(slow.result()) == want


# ---------------------------------------------------------------------------
# Assembler: full simulations (BF / DF, both distributions, with faults)
# ---------------------------------------------------------------------------


def _simulate(strategy, distribution):
    dataset = make_global_dataset(
        1500, 2, 9, distribution, seed=101, value_step=1.0
    )
    workload = generate_workload(
        devices=9,
        sim_time=300.0,
        distance=350.0,
        queries_per_device=(1, 2),
        seed=102,
    )
    faults = FaultSchedule.generate(
        node_count=9,
        sim_time=300.0,
        seed=103,
        crash_fraction=0.2,
        link_blackouts=2,
        loss_bursts=1,
    )
    config = SimulationConfig(
        strategy=strategy,
        sim_time=300.0,
        protocol=ProtocolConfig(use_filter=True, dynamic_filter=True),
        seed=104,
        faults=faults,
    )
    return run_manet_simulation(dataset, workload, config)


def _assert_runs_identical(fast, slow, strategy):
    """Two simulation results agree on every observable."""
    assert fast.fault_events == slow.fault_events
    assert fast.issued == slow.issued
    assert fast.suppressed == slow.suppressed
    assert fast.events == slow.events
    assert fast.energy_joules == slow.energy_joules
    assert len(fast.records) == len(slow.records)
    for rf, rs in zip(fast.records, slow.records):
        assert rf.key == rs.key
        assert rf.issue_time == rs.issue_time
        assert rf.originator == rs.originator
        assert rf.completion_time == rs.completion_time
        assert rf.closed == rs.closed
        assert rf.reissues == rs.reissues
        assert rf.aborted_by_crash == rs.aborted_by_crash
        assert rf.reachable_at_issue == rs.reachable_at_issue
        assert set(rf.contributions) == set(rs.contributions)
        assert rf.local_unreduced == rs.local_unreduced
        assert rf.local_reduced == rs.local_reduced
        _assert_bit_identical(rf.result, rs.result)
    assert collect_metrics(fast, strategy) == collect_metrics(slow, strategy)


@pytest.mark.parametrize("strategy", ["bf", "df"])
@pytest.mark.parametrize("distribution", ["independent", "anticorrelated"])
def test_simulation_assembler_parity(strategy, distribution, monkeypatch):
    """A faulty MANET run is bit-identical with the legacy assembler
    installed: every QueryRecord field, every result table, and the
    aggregated metrics."""
    fast = _simulate(strategy, distribution)
    with monkeypatch.context() as patch:
        install_legacy_assembler(patch)
        slow = _simulate(strategy, distribution)
    _assert_runs_identical(fast, slow, strategy)


# ---------------------------------------------------------------------------
# Device-side local result cache
# ---------------------------------------------------------------------------


def _cached_run(strategy, observer=None):
    """One faulty MANET run that keeps its devices."""
    dataset = make_global_dataset(
        800, 2, 9, "independent", seed=201, value_step=1.0
    )
    workload = generate_workload(
        devices=9, sim_time=200.0, distance=350.0,
        queries_per_device=(1, 2), seed=202,
    )
    faults = FaultSchedule.generate(
        node_count=9, sim_time=200.0, seed=203,
        crash_fraction=0.2, link_blackouts=1, loss_bursts=1,
    )
    config = SimulationConfig(
        strategy=strategy, sim_time=200.0, seed=204, faults=faults,
    )
    return run_manet_simulation(
        dataset, workload, config, observer=observer, keep_network=True,
    )


def _cache_hits(devices) -> int:
    return sum(device.local_cache.hits for device in devices)


class TestLocalCacheParity:
    """The result cache may only change wall time — every simulated
    observable (records, metrics, spans) must match a run whose cache
    always misses, bit for bit."""

    @pytest.mark.parametrize("strategy", ["bf", "df"])
    def test_simulation_cache_parity(self, strategy, monkeypatch):
        from repro.obs import Observer

        summaries = {}
        for cached in (True, False):
            observer = Observer()
            with monkeypatch.context() as patch:
                if not cached:
                    install_uncached_local(patch)
                result = _cached_run(strategy, observer=observer)
            spans = sorted(
                (
                    (s.name, s.cat, s.query, s.node, s.t0, s.t1)
                    for s in observer.spans
                ),
                key=repr,
            )
            metrics = {
                name: value
                for name, value in observer.metrics.snapshot().items()
                if "wall" not in name
            }
            summaries[cached] = (result, spans, metrics)

        on, off = summaries[True], summaries[False]
        _assert_runs_identical(on[0], off[0], strategy)
        assert on[1] == off[1]
        assert on[2] == off[2]
        assert _cache_hits(off[0].network[2]) == 0

    def test_continuous_cache_parity_and_hits(self, monkeypatch):
        """A re-flood subscription re-issues the same signature every
        epoch: the cache must hit without moving a single epoch book."""
        from repro.continuous import ContinuousConfig, run_continuous_simulation

        config = ContinuousConfig(mode="reflood", epochs=5, data_updates=4,
                                  seed=7)
        on = run_continuous_simulation(config, keep_network=True)
        with monkeypatch.context() as patch:
            install_uncached_local(patch)
            off = run_continuous_simulation(config, keep_network=True)

        assert _cache_hits(on.network[2]) > 0
        assert _cache_hits(off.network[2]) == 0

        assert len(on.record.epochs) == len(off.record.epochs)
        for ea, eb in zip(on.record.epochs, off.record.epochs):
            assert ea.epoch == eb.epoch
            assert ea.tick_time == eb.tick_time
            assert ea.closed_at == eb.closed_at
            assert sorted(ea.result_rows) == sorted(eb.result_rows)
            assert sorted(ea.reporters) == sorted(eb.reporters)
            assert ea.messages == eb.messages
        assert on.traffic.transmissions == off.traffic.transmissions
        assert on.traffic.bytes_sent == off.traffic.bytes_sent
        assert on.traffic.by_kind == off.traffic.by_kind


# ---------------------------------------------------------------------------
# Relation derived-view caches
# ---------------------------------------------------------------------------


def _mixed_relation(n=64, seed=5):
    schema = RelationSchema(
        attributes=(
            AttributeSpec("price", 0.0, 100.0, Preference.MIN),
            AttributeSpec("rating", 0.0, 100.0, Preference.MAX),
        ),
        spatial_extent=(0.0, 0.0, 1000.0, 1000.0),
    )
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0, 1000, (n, 2))
    values = rng.uniform(0, 100, (n, 2))
    return Relation(schema, xy, values)


class TestRelationCacheContract:
    def test_normalized_values_cached_and_read_only(self):
        rel = _mixed_relation()
        norm = rel.normalized_values()
        assert rel.normalized_values() is norm
        assert not norm.flags.writeable
        # MAX attribute negated, MIN attribute untouched.
        assert np.array_equal(norm[:, 0], rel.values[:, 0])
        assert np.array_equal(norm[:, 1], -rel.values[:, 1])

    def test_bounds_cached(self):
        rel = _mixed_relation()
        assert rel.normalized_best() is rel.normalized_best()
        assert rel.normalized_worst() is rel.normalized_worst()
        assert rel.mbr() is rel.mbr()
        norm = rel.normalized_values()
        assert rel.normalized_best() == tuple(norm.min(axis=0))
        assert rel.normalized_worst() == tuple(norm.max(axis=0))

    def test_identity_take_shares_caches(self):
        rel = _mixed_relation()
        norm = rel.normalized_values()
        best = rel.normalized_best()
        view = rel.take(np.arange(rel.cardinality))
        assert view is not rel
        assert view.normalized_values() is norm
        assert view.normalized_best() is best

    def test_subset_take_recomputes(self):
        rel = _mixed_relation()
        norm = rel.normalized_values()
        sub = rel.take([0, 2])
        sub_norm = sub.normalized_values()
        assert sub_norm is not norm
        assert np.array_equal(sub_norm, norm[[0, 2]])


# ---------------------------------------------------------------------------
# Executor: disk cache + serial/parallel parity
# ---------------------------------------------------------------------------

#: A deliberately tiny scale so each grid point simulates in well under
#: a second; points must carry its name.
TINY = dataclasses.replace(
    SMOKE, name="tiny", sim_time=180.0, queries_per_device=(1, 1)
)


def _tiny_point(strategy="bf", seed=901):
    return ManetPoint(
        strategy=strategy,
        distance=250.0,
        cardinality=1200,
        dimensions=2,
        devices=4,
        distribution="independent",
        scale_name="tiny",
        seed=seed,
    )


def _forget(points):
    """Drop only these points from the in-process memo layer."""
    for point in points:
        _RUN_CACHE.pop(point, None)


def _dummy_metrics():
    return RunMetrics(
        strategy="bf",
        drr=0.5,
        response_time=1.25,
        messages=MessageCounts(protocol_total=12, control_total=7, queries=3),
        issued=3,
        suppressed=1,
        completed=2,
        participants_per_query=4.0,
        coverage=0.9,
    )


class TestRunCache:
    def test_round_trip_is_bit_identical(self, tmp_path):
        cache = RunCache(tmp_path / "c")
        point, metrics = _tiny_point(), _dummy_metrics()
        assert cache.get(point, TINY) is None
        cache.put(point, TINY, metrics)
        assert cache.get(point, TINY) == metrics

    def test_key_material_distinguishes_point_and_scale(self, tmp_path):
        cache = RunCache(tmp_path / "c")
        cache.put(_tiny_point(), TINY, _dummy_metrics())
        assert cache.get(_tiny_point(seed=902), TINY) is None
        assert cache.get(_tiny_point(), SMOKE) is None

    def test_corrupt_and_tampered_entries_miss(self, tmp_path):
        cache = RunCache(tmp_path / "c")
        point = _tiny_point()
        cache.put(point, TINY, _dummy_metrics())
        (path,) = (tmp_path / "c").glob("run-*.json")

        doc = json.loads(path.read_text())
        doc["key"]["point"]["seed"] = 999  # simulated hash collision
        path.write_text(json.dumps(doc))
        assert cache.get(point, TINY) is None

        path.write_text("{not json")
        assert cache.get(point, TINY) is None

    def test_clear_counts_entries(self, tmp_path):
        cache = RunCache(tmp_path / "c")
        cache.put(_tiny_point(), TINY, _dummy_metrics())
        cache.put(_tiny_point(seed=902), TINY, _dummy_metrics())
        assert cache.clear() == 2
        assert cache.clear() == 0

    def test_cache_dir_off_disables_disk(self, monkeypatch):
        for value in ("off", "none", "0", ""):
            monkeypatch.setenv("REPRO_CACHE_DIR", value)
            assert cache_root() is None
            assert default_cache() is None

    def test_configure_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        configure(cache_dir=str(tmp_path / "override"))
        assert cache_root() == tmp_path / "override"


class TestWorkerResolution:
    def test_explicit_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        configure(workers=5)
        assert resolve_workers(3) == 3

    def test_configure_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        configure(workers=5)
        assert resolve_workers() == 5

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers() == 7
        for bad in ("garbage", "0", "-3"):
            monkeypatch.setenv("REPRO_WORKERS", bad)
            with pytest.raises(ValueError, match=f"REPRO_WORKERS={bad!r}"):
                resolve_workers()

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            configure(workers=0)


class TestRunPointParity:
    def test_disk_round_trip_skips_recompute(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        point = _tiny_point()
        _forget([point])
        computed = run_manet_point(point, TINY)
        assert run_manet_point(point, TINY) is computed  # memo layer

        _forget([point])  # drop the memo; only the disk copy remains
        monkeypatch.setattr(
            "repro.experiments.manet_common.compute_manet_point",
            lambda *a, **k: pytest.fail("disk cache missed"),
        )
        reloaded = run_manet_point(point, TINY)
        assert reloaded == computed
        assert reloaded is not computed

    def test_serial_vs_parallel_bit_identical(self, monkeypatch, tmp_path):
        """The tentpole guarantee: fanning a grid over the pool returns
        exactly what the serial reference path returns."""
        grid = [
            _tiny_point("bf", 901),
            _tiny_point("df", 901),
            _tiny_point("bf", 902),
        ]

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        _forget(grid)
        serial = run_points(grid, TINY, workers=1)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        _forget(grid)
        parallel = run_points(grid, TINY, workers=2)

        assert list(serial) == list(parallel) == grid
        assert serial == parallel
        # The fan-out persisted every point to disk as it completed.
        assert len(list((tmp_path / "parallel").glob("run-*.json"))) == 3
        _forget(grid)

    def test_duplicate_points_deduplicated(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        point = _tiny_point()
        _forget([point])
        results = run_points([point, point, point], TINY, workers=1)
        assert list(results) == [point]
