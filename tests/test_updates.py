"""The data-update event path: seeded relation perturbation, update
schedules and the injector.

Updates are the continuous layer's only source of answer change (tuple
sites are static), so this file pins the properties the subscription
machinery leans on: determinism, value-only perturbation, epoch bumps,
and crash-transparency (data lives on storage, not in volatile
protocol state).
"""

from functools import partial

import numpy as np
import pytest

from repro.continuous import (
    ContinuousConfig,
    grid_placement,
    min_distance_to_mbr,
    run_continuous_simulation,
    runner,
    verify_continuous_run,
)
from repro.core import SkylineQuery
from repro.data import make_global_dataset
from repro.data.spatial import rect_overlaps_circle
from repro.faults import (
    DataUpdateSchedule,
    UpdateEvent,
    UpdateInjector,
    perturb_relation,
)
from repro.faults import updates as updates_module
from repro.net import RadioConfig, Simulator, StaticPlacement, World
from repro.net.messages import FrameKind
from repro.protocol import BFDevice, ProtocolConfig
from repro.protocol.messages import QueryMessage, ResultMessage

from .staging import update_schedule


@pytest.fixture(scope="module")
def dataset():
    return make_global_dataset(
        400, 2, 4, "independent", seed=11, value_step=1.0
    )


@pytest.fixture(scope="module")
def relation(dataset):
    return dataset.local(0)


class TestPerturbRelation:
    def test_deterministic(self, relation):
        a = perturb_relation(relation, 0.3, seed=5)
        b = perturb_relation(relation, 0.3, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self, relation):
        a = perturb_relation(relation, 0.3, seed=5)
        b = perturb_relation(relation, 0.3, seed=6)
        assert not np.array_equal(a.values, b.values)

    def test_value_only(self, relation):
        out = perturb_relation(relation, 0.5, seed=7)
        assert out is not relation
        assert np.array_equal(out.site_ids, relation.site_ids)
        assert np.array_equal(out.xy, relation.xy)
        assert out.cardinality == relation.cardinality

    def test_changes_bounded_row_count(self, relation):
        out = perturb_relation(relation, 0.25, seed=3)
        changed = np.any(out.values != relation.values, axis=1).sum()
        assert 0 < changed <= int(np.ceil(0.25 * relation.cardinality))

    def test_any_positive_fraction_touches_a_row(self, relation):
        out = perturb_relation(relation, 1e-6, seed=9)
        assert np.any(out.values != relation.values)

    def test_values_stay_in_schema_bounds(self, relation):
        out = perturb_relation(relation, 1.0, seed=13)
        lows = np.asarray(relation.schema.lows)
        highs = np.asarray(relation.schema.highs)
        assert np.all(out.values >= lows - 1e-12)
        assert np.all(out.values <= highs + 1e-12)

    def test_value_step_quantizes(self, relation):
        out = perturb_relation(relation, 1.0, seed=13, value_step=1.0)
        lows = np.asarray(relation.schema.lows)
        steps = (out.values - lows) / 1.0
        assert np.allclose(steps, np.round(steps))

    @pytest.mark.parametrize("seed", range(20))
    def test_fresh_values_are_seeded_uniform_draws(self, relation, seed):
        """The rows and values ``Generator.choice`` then
        ``Generator.uniform`` draw from the seed, bit for bit."""
        out = perturb_relation(relation, 0.2, seed=seed)
        rng = np.random.default_rng(seed)
        count = int(np.ceil(0.2 * relation.cardinality))
        rows = rng.choice(relation.cardinality, size=count, replace=False)
        expected = rng.uniform(relation.schema.lows, relation.schema.highs,
                               size=(count, relation.schema.dimensions))
        assert np.array_equal(out.values[rows], expected)

    def test_source_relation_unchanged(self, relation):
        before = relation.values.copy()
        perturb_relation(relation, 1.0, seed=17)
        assert np.array_equal(relation.values, before)

    def test_zero_fraction_is_identity(self, relation):
        assert perturb_relation(relation, 0.0, seed=1) is relation

    def test_fraction_validated(self, relation):
        with pytest.raises(ValueError):
            perturb_relation(relation, -0.1, seed=1)
        with pytest.raises(ValueError):
            perturb_relation(relation, 1.5, seed=1)


class TestUpdateEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            UpdateEvent(-1.0, 0, 0.5, 1)
        with pytest.raises(ValueError):
            UpdateEvent(1.0, 0, 0.0, 1)
        with pytest.raises(ValueError):
            UpdateEvent(1.0, 0, 1.5, 1)

    def test_signature(self):
        event = UpdateEvent(2.0, 3, 0.25, 42)
        assert event.signature() == (2.0, 3, 0.25, 42)


class TestDataUpdateSchedule:
    def test_builder_keeps_time_order(self):
        schedule = update_schedule((45.0, 1, 0.5), (20.0, 3, 0.2))
        assert [(e.time, e.device) for e in schedule] == [(20.0, 3), (45.0, 1)]
        assert len(schedule) == 2

    def test_chained_ties_keep_insertion_order(self):
        calls = [(5.0, 2, 0.1, 11), (1.0, 3, 0.2, 12), (5.0, 2, 0.3, 13),
                 (5.0, 1, 0.4, 14), (1.0, 3, 0.5, 15), (5.0, 2, 0.6, 16)]
        built = DataUpdateSchedule([UpdateEvent(*call) for call in calls])
        assert [e.update_seed for e in built] == [12, 15, 14, 11, 13, 16]

    def test_guarded_updates_match_a_sort_per_insert(self):
        """The runner's schedule, built with one sort, against the
        schedule as it was built: a full sort after every insert."""
        for seed in range(1, 21):
            config = ContinuousConfig(devices=25, epochs=30,
                                      data_updates=60, seed=seed)
            rng = np.random.default_rng(seed + 5)
            events = []
            for _ in range(config.data_updates):
                device = int(rng.integers(config.devices))
                slot = int(rng.integers(config.epochs))
                offset = float(rng.uniform(
                    runner._UPDATE_GUARD, 1.0 - runner._UPDATE_GUARD
                )) * config.interval
                fraction = min(1.0, max(1e-3, float(
                    rng.exponential(runner._UPDATE_FRACTION)
                )))
                update_seed = int(rng.integers(0, 2**31 - 1))
                events.append(UpdateEvent(
                    runner.INSTALL_TIME + slot * config.interval + offset,
                    device, fraction, update_seed,
                ))
                events.sort(key=lambda e: (e.time, e.device))
            assert runner._guarded_updates(config).signature() == tuple(
                e.signature() for e in events
            )

    def test_empty_schedule_is_falsy(self):
        assert not DataUpdateSchedule()
        assert update_schedule((1.0, 0, 0.1))


def build_world(dataset, positions):
    sim = Simulator()
    world = World(
        sim, StaticPlacement(positions), RadioConfig(radio_range=250.0)
    )
    devices = [
        BFDevice(world, i, dataset.local(i), config=ProtocolConfig())
        for i in range(dataset.devices)
    ]
    return sim, world, devices


class TestUpdateInjector:
    POSITIONS = [(0.0, 0.0), (200.0, 0.0), (400.0, 0.0), (600.0, 0.0)]

    def test_applies_at_scheduled_time_and_bumps_epoch(self, dataset):
        sim, world, devices = build_world(dataset, self.POSITIONS)
        schedule = update_schedule((10.0, 1, 0.5), (30.0, 1, 0.5))
        injector = UpdateInjector(schedule).install(world, devices)
        before = devices[1].relation
        sim.run(until=20.0)
        assert devices[1].data_epoch == 1
        assert devices[1].relation is not before
        assert devices[0].data_epoch == 0
        sim.run(until=40.0)
        assert devices[1].data_epoch == 2
        assert injector.applied_signature() == tuple(
            e.signature() + (True,) for e in schedule
        )

    def test_update_drops_the_cached_skyline(self, dataset):
        from repro.core import SkylineQuery, skyline_of_relation

        sim, world, devices = build_world(dataset, self.POSITIONS)
        dev = devices[1]
        everything = SkylineQuery(origin=0, cnt=0, pos=(0.0, 0.0), d=1.0e9)
        dev.compute_local(everything, None)
        assert dev.relation.skyline_rows() is not None
        dev.apply_update(partial(perturb_relation, fraction=0.5, seed=3))
        assert dev.relation.skyline_rows() is None
        res = dev.compute_local(everything, None)
        assert res.skyline.rows() == skyline_of_relation(dev.relation).rows()

    def test_crashed_device_still_updated(self, dataset):
        # Data lives on storage, not volatile protocol state: fail-stop
        # crashes must not shield a device from data updates.
        sim, world, devices = build_world(dataset, self.POSITIONS)
        schedule = update_schedule((10.0, 2, 0.5))
        UpdateInjector(schedule).install(world, devices)
        world.fail_node(2)
        sim.run(until=20.0)
        assert devices[2].data_epoch == 1

    def test_unknown_device_recorded_ineffective(self, dataset):
        sim, world, devices = build_world(dataset, self.POSITIONS)
        schedule = update_schedule((10.0, 99, 0.5))
        injector = UpdateInjector(schedule).install(world, devices)
        sim.run(until=20.0)
        assert injector.applied_signature()[0][-1] is False

    def test_double_install_rejected(self, dataset):
        sim, world, devices = build_world(dataset, self.POSITIONS)
        injector = UpdateInjector(DataUpdateSchedule())
        injector.install(world, devices)
        with pytest.raises(RuntimeError):
            injector.install(world, devices)

    def test_value_step_propagates(self, dataset):
        sim, world, devices = build_world(dataset, self.POSITIONS)
        schedule = update_schedule((10.0, 1, 1.0))
        UpdateInjector(schedule, value_step=1.0).install(world, devices)
        sim.run(until=20.0)
        lows = np.asarray(devices[1].relation.schema.lows)
        steps = devices[1].relation.values - lows
        assert np.allclose(steps, np.round(steps))


class TestDeferredApply:
    """An update bumps the device's version at once but runs
    :func:`perturb_relation` only when the device's data is next read."""

    POSITIONS = TestUpdateInjector.POSITIONS

    @pytest.fixture
    def calls(self, monkeypatch):
        """The seeds of every :func:`perturb_relation` the injector's
        updates run, in call order."""
        seeds = []

        def counted(relation, fraction, seed, value_step=None):
            seeds.append(seed)
            return perturb_relation(relation, fraction, seed, value_step)

        monkeypatch.setattr(updates_module, "perturb_relation", counted)
        return seeds

    def test_first_read_after_k_updates_runs_k(self, dataset, calls):
        sim, world, devices = build_world(dataset, self.POSITIONS)
        schedule = update_schedule((10.0, 1, 0.5), (20.0, 1, 0.2), (30.0, 1, 1.0))
        UpdateInjector(schedule).install(world, devices)
        sim.run(until=40.0)
        dev = devices[1]
        assert dev.data_epoch == 3 and calls == []
        # Frame sizing and cost pricing read the schema, not the data.
        everything = SkylineQuery(origin=0, cnt=0, pos=(0.0, 0.0), d=1.0e9)
        result = devices[0].compute_local(everything, None)
        dev.processing_delay(result)
        dev._flood(FrameKind.QUERY, QueryMessage(everything))
        dev._send_reply(FrameKind.RESULT, ResultMessage(
            (0, 0), 1, result.skyline, result.unreduced_size,
        ), origin=0)
        assert calls == []
        dev.relation  # the first read runs the three, oldest first
        assert calls == [e.update_seed for e in schedule]
        dev.relation
        assert len(calls) == 3

    def test_spatially_exempt_devices_never_run_theirs(self, calls):
        config = ContinuousConfig(
            mode="delta", devices=9, cardinality=270, epochs=3, d=400.0,
            seed=7, data_updates=12, static_grid=True,
            capture_reference=False,
        )
        result = run_continuous_simulation(config)
        pos = grid_placement(config.devices).position(config.originator, 0.0)
        exempt = {
            i for i in range(config.devices)
            if min_distance_to_mbr(pos, result.dataset.local(i).mbr())
            > config.d
        }
        device_of = {seed: device for _, device, _, seed, _
                     in result.update_events}
        updated = set(device_of.values())
        assert updated & exempt and updated - exempt
        assert not {device_of[seed] for seed in calls} & exempt
        assert len(calls) < len(result.update_events)

    def test_reference_capture_reads_only_devices_the_disk_meets(self, calls):
        config = ContinuousConfig(
            mode="delta", devices=9, cardinality=270, epochs=3, d=400.0,
            seed=7, data_updates=12, static_grid=True,
        )
        result = run_continuous_simulation(config)
        assert verify_continuous_run(result) == []
        assert result.max_divergence == 0.0
        pos = grid_placement(config.devices).position(config.originator, 0.0)
        missed = {
            i for i in range(config.devices)
            if not rect_overlaps_circle(
                result.dataset.local(i).mbr(), pos, config.d
            )
        }
        device_of = {seed: device for _, device, _, seed, _
                     in result.update_events}
        assert set(device_of.values()) & missed
        assert not {device_of[seed] for seed in calls} & missed
