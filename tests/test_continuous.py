"""Continuous skyline subscriptions: wire payloads, delta folding, safe
regions, the end-to-end grid exactness/dominance gates, and the
subscription lifecycle's edge cases (cancel, originator crash, renew,
crash-recovery re-enrollment, retried deltas, duplicate deliveries).

Fault staging follows ``test_resilience.py``: fully connected static
grids make delivery deterministic, and faults are placed around the
subscription's known epoch clock (``install_time + e * interval``).
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.continuous import (
    ContinuousConfig,
    ContinuousDevice,
    DeltaMessage,
    SafeRegion,
    SubscriptionRecord,
    SubscriptionSpec,
    apply_delta,
    continuous_protocol_config,
    grid_placement,
    min_distance_to_mbr,
    relation_rows,
    run_continuous_simulation,
    verify_continuous_run,
)
from repro.core import skyline_of_relation
from repro.core.query import SkylineQuery
from repro.data import make_global_dataset
from repro.faults import FaultSchedule, perturb_relation
from repro.continuous import runner
from repro.net import RadioConfig, Simulator, World, aodv
from repro.obs.observer import Observer
from repro.storage import (
    AttributeSpec,
    Preference,
    Relation,
    RelationSchema,
    uniform_schema,
    union_all,
)

from .staging import update_schedule


@pytest.fixture(scope="module")
def dataset():
    return make_global_dataset(
        270, 2, 9, "independent", seed=31, value_step=1.0
    )


def local_skyline(relation, pos, d):
    return skyline_of_relation(relation.restrict(pos, d))


def sample_query(origin=0, cnt=1, pos=(500.0, 500.0), d=400.0):
    return SkylineQuery(origin=origin, cnt=cnt, pos=pos, d=d)


def sample_spec(**overrides):
    fields = dict(
        query=sample_query(), install_time=10.0, interval=20.0,
        epochs=3, epoch_budget=8.0,
    )
    fields.update(overrides)
    return SubscriptionSpec(**fields)


class TestMessages:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            sample_spec(interval=0.0)
        with pytest.raises(ValueError):
            sample_spec(epochs=-1)
        with pytest.raises(ValueError):
            sample_spec(epoch_budget=0.0)
        with pytest.raises(ValueError):
            sample_spec(epoch_budget=25.0)  # exceeds the interval
        with pytest.raises(ValueError):
            sample_spec(mode="eager")

    def test_spec_key_and_clock(self):
        spec = sample_spec()
        assert spec.key == spec.query.key
        assert spec.tick_time(1) == 30.0
        assert spec.tick_time(3) == 70.0

    def test_delta_wire_size(self, dataset):
        enters = dataset.local(0).take(np.arange(3))
        delta = DeltaMessage(
            sub_key=(0, 1), sender=2, epoch=1, enters=enters,
            leaves=(4, 5),
        )
        from repro.net.messages import tuple_bytes

        assert delta.size_bytes(2) == 12 + 3 * tuple_bytes(2) + 8

    def test_observer_attribution_key(self):
        spec = sample_spec()
        from repro.continuous import (
            DeltaAckMessage,
            SubscribeMessage,
            UnsubscribeMessage,
        )

        sub = SubscribeMessage(
            spec=spec, flood=spec.query, kind="install", epoch=0,
            epochs_total=3,
        )
        assert sub.query_key == spec.key
        assert DeltaAckMessage(sub_key=spec.key, epoch=1).query_key \
            == spec.key
        assert UnsubscribeMessage(
            sub_key=spec.key, flood=spec.query
        ).query_key == spec.key


class TestApplyDelta:
    def test_full_replaces_slice(self, dataset):
        stored = dataset.local(0).take(np.arange(5))
        fresh = dataset.local(0).take(np.arange(5, 9))
        delta = DeltaMessage(
            sub_key=(0, 1), sender=1, epoch=1, enters=fresh, full=True,
        )
        assert apply_delta(stored, delta) is fresh

    def test_enters_and_leaves(self, dataset):
        relation = dataset.local(0)
        stored = relation.take(np.arange(4))
        enter = relation.take(np.array([5]))
        leave_sid = int(stored.site_ids[0])
        delta = DeltaMessage(
            sub_key=(0, 1), sender=1, epoch=1, enters=enter,
            leaves=(leave_sid,),
        )
        out_rows = relation_rows(apply_delta(stored, delta))
        want = (relation_rows(stored) - {
            row for row in relation_rows(stored) if row[0] == leave_sid
        }) | relation_rows(enter)
        assert out_rows == want

    def test_value_change_replaces_same_site(self, dataset):
        # A site that stays in the skyline with new values arrives as an
        # enter under the same id; the stale row must not survive.
        relation = dataset.local(0)
        stored = relation.take(np.arange(4))
        changed = perturb_relation(
            relation, 1.0, seed=3
        ).take(np.arange(1))
        assert int(changed.site_ids[0]) == int(stored.site_ids[0])
        delta = DeltaMessage(
            sub_key=(0, 1), sender=1, epoch=1, enters=changed,
        )
        out = apply_delta(stored, delta)
        assert out.cardinality == stored.cardinality
        sid = int(changed.site_ids[0])
        rows = {row for row in relation_rows(out) if row[0] == sid}
        assert rows == relation_rows(changed)

    def test_empty_delta_is_identity(self, dataset):
        stored = dataset.local(0).take(np.arange(4))
        empty = dataset.local(0).take(np.empty(0, dtype=np.int64))
        delta = DeltaMessage(
            sub_key=(0, 1), sender=1, epoch=1, enters=empty,
        )
        assert relation_rows(apply_delta(stored, delta)) \
            == relation_rows(stored)


#: All-MIN, and one MAX attribute beside a MIN one.
ANSWER_SCHEMAS = (
    uniform_schema(2),
    RelationSchema(attributes=(
        AttributeSpec("p1"),
        AttributeSpec("p2", preference=Preference.MAX),
    )),
)


@st.composite
def stored_slices(draw):
    """An originator slice plus up to four device slices, some empty,
    over a small integer domain (``value_step=1`` data, so rows tie)."""
    schema = draw(st.sampled_from(ANSWER_SCHEMAS))
    row = st.tuples(
        st.integers(0, 40),
        *[st.integers(0, 4).map(float)] * schema.dimensions,
    )
    slices = []
    for _ in range(draw(st.integers(1, 5))):
        rows = draw(st.lists(row, max_size=6))
        site_ids = np.array([r[0] for r in rows], dtype=np.int64)
        values = np.array([r[1:] for r in rows], dtype=np.float64)
        xy = np.zeros((len(rows), 2))
        slices.append(Relation(
            schema, xy, values.reshape(len(rows), schema.dimensions),
            site_ids,
        ))
    return slices


def python_typed(rows):
    return all(
        type(row[0]) is int and all(type(v) is float for v in row[1:])
        for row in rows
    )


class TestEpochAnswer:
    @given(stored_slices())
    def test_result_rows_is_skyline_of_the_union(self, slices):
        record = SubscriptionRecord(
            spec=sample_spec(), originator=0, epochs_total=3,
        )
        record.own_report = slices[0]
        # Device ids out of order: the answer reads them sorted.
        for device, part in zip((7, 2, 9, 4), slices[1:]):
            record.device_reports[device] = part
        ordered = [slices[0]] + [
            record.device_reports[device]
            for device in sorted(record.device_reports)
        ]
        expected = relation_rows(skyline_of_relation(union_all(ordered)))
        got = record.result_rows()
        assert got == expected
        # ``np.float64`` hashes equal to ``float``, so only the exact
        # type shows whether numpy scalars leaked into the identities.
        assert python_typed(got)
        assert python_typed(expected)


class TestSafeRegion:
    def test_min_distance_to_mbr(self):
        mbr = (0.0, 0.0, 10.0, 10.0)
        assert min_distance_to_mbr((5.0, 5.0), mbr) == 0.0
        assert min_distance_to_mbr((13.0, 14.0), mbr) == 5.0
        assert min_distance_to_mbr((-3.0, 5.0), mbr) == 3.0

    def test_row_one_ulp_inside_the_disk_is_not_exempt(self):
        # ``math.hypot`` puts this row a hair past ``d`` while the range
        # test keeps it: a subscriber that reports the row must wake
        # when it changes.
        rel = Relation.from_rows(
            uniform_schema(2),
            [(252.64191028980022, 294.50112899127583, 1.0, 1.0)],
        )
        pos, d = (0.0, 0.0), 388.01913588380603
        assert min_distance_to_mbr(pos, rel.mbr()) > d
        assert rel.within(pos, d).all()
        region = SafeRegion.establish(
            relation=rel, pos=pos, d=d, reported=rel,
        )
        assert not region.spatially_exempt
        assert region.note_update()

    def test_empty_relation_is_exempt(self, dataset):
        empty = dataset.local(0).take(np.empty(0, dtype=np.int64))
        region = SafeRegion.establish(
            relation=empty, pos=(0.0, 0.0), d=100.0, reported=empty,
        )
        assert region.spatially_exempt
        # No update can change an empty in-range set: none wakes it.
        assert not region.note_update()
        assert not region.needs_recompute

    def test_epoch_clause(self, dataset):
        relation = dataset.local(0)
        pos = tuple(map(float, relation.xy[0]))
        reported = local_skyline(relation, pos, 200.0)
        region = SafeRegion.establish(
            relation=relation, pos=pos, d=200.0, reported=reported,
        )
        assert not region.spatially_exempt
        # Clause 2 holds until the data changes; an update breaks it
        # and wakes the subscriber.
        assert not region.needs_recompute
        assert region.note_update()
        assert region.needs_recompute
        region.note_report(relation_rows(reported))
        assert not region.needs_recompute

    def test_value_clause_and_note_report(self, dataset):
        relation = dataset.local(0)
        pos = tuple(map(float, relation.xy[0]))
        reported = local_skyline(relation, pos, 200.0)
        region = SafeRegion.establish(
            relation=relation, pos=pos, d=200.0, reported=reported,
        )
        rows = relation_rows(reported)
        assert region.unchanged(rows)
        fresh = frozenset(list(rows)[1:])
        assert not region.unchanged(fresh)
        region.note_update()
        region.note_report(fresh)
        assert not region.stale
        assert region.unchanged(fresh)

    def test_forget_proves_nothing_until_the_next_report(self, dataset):
        empty = dataset.local(0).take(np.empty(0, dtype=np.int64))
        region = SafeRegion.establish(
            relation=empty, pos=(0.0, 0.0), d=100.0, reported=empty,
        )
        # Even a spatially exempt slice must be re-sent in full.
        region.forget()
        assert region.needs_recompute
        assert not region.unchanged(frozenset())
        region.note_report(frozenset())
        assert not region.needs_recompute


class TestSafeRegionSoundness:
    """Seeded randomized property: a device whose safe region proves
    silence never changes the global answer — substituting its stored
    report with a fresh recomputation leaves the maintained skyline
    bit-identical."""

    def global_rows(self, slices):
        return relation_rows(skyline_of_relation(union_all(slices)))

    @pytest.mark.parametrize("seed", range(40))
    def test_silence_is_sound(self, seed):
        rng = np.random.default_rng(seed)
        data = make_global_dataset(
            180, 2, 9, "independent", seed=seed, value_step=1.0
        )
        device = int(rng.integers(9))
        relation = data.local(device)
        anchor = data.local(int(rng.integers(9)))
        pos = tuple(map(float, anchor.xy[int(rng.integers(
            anchor.cardinality
        ))]))
        d = float(rng.uniform(100.0, 900.0))
        reported = local_skyline(relation, pos, d)
        region = SafeRegion.establish(
            relation=relation, pos=pos, d=d, reported=reported,
        )
        # A data update lands on the device.
        updated = perturb_relation(
            relation, float(rng.uniform(0.05, 0.8)),
            seed=int(rng.integers(2**31 - 1)), value_step=1.0,
        )
        others = [
            local_skyline(data.local(i), pos, d)
            for i in range(9) if i != device
        ]
        fresh = local_skyline(updated, pos, d)
        if region.spatially_exempt:
            # Clause 1: sites are static, so the in-range set stays
            # empty no matter how values move.
            assert fresh.cardinality == 0
            assert self.global_rows(others + [reported]) \
                == self.global_rows(others)
        rows = relation_rows(fresh)
        if region.unchanged(rows):
            # Clause 3: identical recomputation — silence changes
            # nothing.
            assert self.global_rows(others + [reported]) \
                == self.global_rows(others + [fresh])
        # Clause 2 (epoch unchanged) is sound by determinism:
        assert relation_rows(local_skyline(relation, pos, d)) \
            == relation_rows(reported)


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ContinuousConfig(mode="eager")

    def test_bad_originator(self):
        with pytest.raises(ValueError):
            ContinuousConfig(devices=9, originator=9)

    @pytest.mark.parametrize("field, value", [
        ("data_updates", -3),
        ("epochs", -1),
    ])
    def test_negative_counts_and_times(self, field, value):
        """A negative update count would run with no updates and a
        negative epoch count with no schedule at all."""
        with pytest.raises(ValueError, match=field):
            ContinuousConfig(**{field: value})

    def test_interval_shorter_than_the_epoch_budget(self):
        """The schedule is checked when the config is built, not when
        the engine installs the subscription after the dataset and the
        network were built."""
        with pytest.raises(ValueError, match="interval"):
            ContinuousConfig(interval=runner.EPOCH_BUDGET - 3.0)
        assert ContinuousConfig(interval=runner.EPOCH_BUDGET).interval \
            == runner.EPOCH_BUDGET

    def test_default_protocol_is_shared(self):
        """Both dataclasses are frozen, so every default config can hold
        the one protocol instance instead of building its own."""
        a, b = ContinuousConfig(), ContinuousConfig(seed=8)
        assert a.protocol is b.protocol
        assert a.protocol == continuous_protocol_config()

    def test_horizon(self):
        config = ContinuousConfig(interval=20.0, epochs=3)
        assert config.last_close == 10.0 + 3 * 20.0 + 8.0
        assert config.horizon == config.last_close + 30.0


def grid_config(**overrides):
    fields = dict(
        devices=9, cardinality=270, epochs=3, d=600.0, seed=7,
        data_updates=6, static_grid=True, loss_rate=0.0,
    )
    fields.update(overrides)
    return ContinuousConfig(**fields)


class TestEndToEndGrid:
    """The exactness + dominance gates on a fully connected static
    grid, fault-free."""

    @pytest.fixture(scope="class")
    def runs(self):
        return {
            mode: run_continuous_simulation(
                grid_config(mode=mode), keep_network=True
            )
            for mode in ("delta", "reflood")
        }

    def test_invariants_clean(self, runs):
        for mode, result in runs.items():
            assert verify_continuous_run(result) == [], mode

    def test_every_epoch_exact_and_complete(self, runs):
        for mode, result in runs.items():
            assert result.record.status == "expired"
            assert [e.epoch for e in result.record.epochs] == [0, 1, 2, 3]
            assert result.max_divergence == 0.0
            for books in result.record.epochs:
                assert books.report.outcome == "completed"
                assert books.report.is_exact_partition(frozenset(range(9)))

    def test_delta_dominates_reflood(self, runs):
        assert runs["delta"].messages_per_refresh \
            < runs["reflood"].messages_per_refresh

    def test_engine_heap_drains(self, runs):
        for result in runs.values():
            assert result.network[0].live_pending == 0

    def test_deterministic_replay(self):
        def signature():
            result = run_continuous_simulation(grid_config())
            return [
                (e.epoch, e.closed_at, e.result_rows, e.reporters,
                 e.messages)
                for e in result.record.epochs
            ]

        assert signature() == signature()


class TestDuplicateDeltaIdempotence:
    """Satellite bugfix gate: a run under a full-length duplicate-
    delivery window is bit-identical to the clean run (loss 0) — every
    duplicated SUBSCRIBE flood, DELTA, and ACK must be absorbed by the
    dedup layers, not double-merged."""

    def books_signature(self, result):
        return [
            (e.epoch, e.tick_time, e.closed_at, e.result_rows,
             e.reporters,
             (e.report.outcome, e.report.contributed,
              e.report.lost_to_fault, e.report.deadline_expired))
            for e in result.record.epochs
        ]

    def test_dup_window_run_bit_identical(self):
        clean = run_continuous_simulation(
            grid_config(), keep_network=True
        )
        config = grid_config()
        dup = run_continuous_simulation(
            grid_config(faults=FaultSchedule().duplication(
                0.0, 1.0, duration=config.horizon
            )),
            keep_network=True,
        )
        assert dup.traffic.duplicates > 0
        assert self.books_signature(dup) == self.books_signature(clean)
        assert dup.max_divergence == 0.0
        assert dup.network[0].live_pending == 0


class TestRetriedDelta:
    """A DELTA whose first copy dies in a loss burst at the refresh
    tick is retransmitted and still lands inside the epoch budget."""

    def test_loss_burst_at_tick_recovers_via_retry(self):
        updates = update_schedule((22.0, 1, 0.6))
        observer = Observer()
        result = run_continuous_simulation(
            grid_config(
                data_updates=0, updates=updates,
                faults=FaultSchedule().loss_burst(
                    29.9, rate=1.0, duration=1.2
                ),
            ),
            observer=observer,
            keep_network=True,
        )
        retransmits = observer.metrics.counter(
            "continuous.deltas.retransmits"
        ).value
        assert retransmits >= 1
        epoch1 = result.record.epochs[1]
        assert epoch1.report.outcome == "completed"
        assert epoch1.divergence == 0.0
        assert result.network[0].live_pending == 0


class TestLostDeltaResync:
    """A DELTA given up after its retries leaves the originator's copy
    of the sender's slice unknown: the sender's next tick ships a full
    report instead of staying silent or diffing against the lost one."""

    @pytest.fixture(scope="class")
    def run(self):
        # Device 1's only links are to 0, 2, 3, 4 and 5. Its data changes
        # before the epoch-1 tick (30 s), and it is cut off from 29.9 s
        # until after the DELTA's last retry is given up (~40.5 s).
        faults = FaultSchedule()
        for neighbour in (0, 2, 3, 4, 5):
            faults.link_blackout(29.9, 1, neighbour, duration=15.0)
        observer = Observer()
        result = run_continuous_simulation(
            grid_config(
                data_updates=0, faults=faults,
                updates=update_schedule((22.0, 1, 0.6)),
            ),
            observer=observer,
            keep_network=True,
        )
        return result, observer

    def test_next_epoch_after_a_given_up_delta_is_exact(self, run):
        result, observer = run
        sent = [
            (e.attrs["epoch"], e.attrs["leaves"])
            for e in observer.events
            if e.name == "delta.sent" and e.node == 1
        ]
        merged = [
            e.attrs["epoch"] for e in observer.events
            if e.name == "delta.merged" and e.attrs["sender"] == 1
        ]
        # Epoch 1's incremental DELTA (it has leaves) never lands and is
        # given up after two retransmits. Device 1's data does not
        # change again, yet the epoch-2 tick ships its whole slice.
        assert sent[1][0] == 1 and sent[1][1] > 0
        assert sent[2] == (2, 0)
        assert merged == [0, 2]
        assert observer.metrics.counter(
            "continuous.deltas.retransmits"
        ).value == 2
        epochs = result.record.epochs
        assert epochs[1].divergence > 0.0
        for books in epochs[2:]:
            assert books.result_rows == books.reference_rows
        assert verify_continuous_run(result) == []

    def test_silent_again_after_the_resync(self, run):
        # Nothing changes after the epoch-2 resync, so device 1 sleeps
        # through epoch 3 and ships nothing more.
        result, observer = run
        epochs = [
            e.attrs["epoch"] for e in observer.events
            if e.name == "delta.sent" and e.node == 1
        ]
        assert epochs == [0, 1, 2]


class TestRouteHold:
    """Subscribers hold their route to the originator for the whole
    subscription, so DELTAs never rediscover a timed-out route."""

    def test_no_route_discovery_over_a_long_subscription(self):
        config = ContinuousConfig(
            devices=25, cardinality=2500, d=500.0, epochs=30,
            data_updates=30, static_grid=True, seed=1,
        )
        assert config.last_close - runner.INSTALL_TIME \
            > 5 * aodv.ACTIVE_ROUTE_TIMEOUT
        result = run_continuous_simulation(config, keep_network=True)
        assert verify_continuous_run(result) == []
        assert result.max_divergence == 0.0
        assert all(
            books.report.outcome == "completed"
            for books in result.record.epochs
        )
        by_kind = result.traffic.by_kind
        assert by_kind.get("data", 0) > 0
        assert all(by_kind.get(kind, 0) == 0 for kind in ("rreq", "rrep", "rerr"))
        _, _, devices = result.network
        hold = runner.INSTALL_TIME + config.epochs * config.interval \
            + runner.EPOCH_BUDGET
        assert all(
            device.router._holds == {config.originator: hold}
            for device in devices if device.node_id != config.originator
        )

    def test_broken_held_route_is_repaired(self):
        # On the 3x3 grid, device 1 is the originator's neighbour.
        # Cutting that link for good breaks the held route at the
        # epoch-1 DELTA; local repair goes around it, and every later
        # epoch is exact.
        observer = Observer()
        result = run_continuous_simulation(
            grid_config(
                data_updates=0,
                faults=FaultSchedule().link_blackout(29.0, 1, 0),
                updates=update_schedule((22.0, 1, 0.6)),
            ),
            observer=observer,
            keep_network=True,
        )
        events = [
            (e.name, e.attrs.get("cause"))
            for e in observer.events
            if e.node == 1 and e.name.startswith("aodv.")
        ]
        assert events[:2] == [
            ("aodv.route-break", None), ("aodv.discovery", "repair")
        ]
        router = result.network[2][1].router
        assert router.routes[0].next_hop != 0
        assert router.routes[0].expires >= result.config.last_close
        assert router._holds == {0: result.config.last_close}
        assert verify_continuous_run(result) == []
        for books in result.record.epochs[1:]:
            assert 1 in books.report.contributed
            assert books.result_rows == books.reference_rows


def build_grid(dataset, observe=False):
    sim = Simulator()
    world = World(
        sim, grid_placement(dataset.devices),
        RadioConfig(radio_range=250.0),
    )
    observer = Observer().bind(world) if observe else None
    devices = [
        ContinuousDevice(
            world, i, dataset.local(i),
            config=continuous_protocol_config(),
        )
        for i in range(dataset.devices)
    ]
    return sim, world, devices, observer


class TestWakeOnChange:
    """A subscriber holds one wake timer, armed for the planned end and
    moved to the next epoch boundary only when its slice can change."""

    def install(self, sim, devices, epochs=3):
        records = []
        sim.schedule_at(10.0, lambda: records.append(
            devices[0].install_subscription(
                d=600.0, interval=20.0, epochs=epochs, epoch_budget=8.0,
            )
        ))
        return records

    def update(self, device, seed=5):
        device.apply_update(partial(
            perturb_relation, fraction=0.6, seed=seed, value_step=1.0
        ))

    def test_update_on_a_tick_is_reported_at_that_epoch(self):
        # The update lands exactly on the epoch-1 tick (30 s). The
        # injector's event fires before the wake due at that instant,
        # so the change belongs to epoch 1, not epoch 2.
        observer = Observer()
        result = run_continuous_simulation(
            grid_config(
                data_updates=0,
                updates=update_schedule((30.0, 1, 0.6)),
            ),
            observer=observer,
            keep_network=True,
        )
        sent = [
            (e.time, e.attrs["epoch"]) for e in observer.events
            if e.name == "delta.sent" and e.node == 1
        ]
        assert sent[1] == (30.0, 1)
        assert result.record.epochs[1].divergence == 0.0
        assert verify_continuous_run(result) == []

    def test_renew_keeps_a_pending_early_wake(self, dataset):
        sim, world, devices, observer = build_grid(dataset, observe=True)
        records = self.install(sim, devices, epochs=2)
        sim.schedule_at(22.0, self.update, devices[1])
        sim.schedule_at(
            25.0, lambda: devices[0].renew_subscription(records[0].key, 2)
        )
        sim.run(until=160.0)
        sent = [
            (e.time, e.attrs["epoch"]) for e in observer.events
            if e.name == "delta.sent" and e.node == 1
        ]
        assert sent[1] == (30.0, 1)
        assert 1 in records[0].epochs[1].reporters
        assert records[0].status == "expired"
        assert sim.live_pending == 0

    def test_one_timer_per_subscriber(self, dataset):
        sim, world, devices, _ = build_grid(dataset)
        records = self.install(sim, devices)
        sim.run(until=15.0)
        spec = records[0].spec
        states = {
            device.node_id: device._subscriber[spec.key]
            for device in devices[1:]
        }
        # The originator holds its epoch close and tick; each
        # subscriber holds its wake for the planned end, nothing else.
        assert sim.live_pending == 2 + len(states)
        for state in states.values():
            assert state.wake_timer.time == spec.tick_time(3)
        exempt = [i for i, st in states.items() if st.region.spatially_exempt]
        covering = [i for i, st in states.items() if i not in exempt]
        assert exempt and covering
        timer = states[exempt[0]].wake_timer
        self.update(devices[exempt[0]])
        assert states[exempt[0]].wake_timer is timer
        assert not timer.cancelled
        self.update(devices[covering[0]])
        assert states[covering[0]].wake_timer.time == spec.tick_time(1)
        assert sim.live_pending == 2 + len(states)


class TestLifecycleEdges:
    def install(self, sim, devices, at=10.0, epochs=3, **kwargs):
        records = []

        def do_install():
            records.append(
                devices[0].install_subscription(
                    d=600.0, interval=20.0, epochs=epochs,
                    epoch_budget=8.0, **kwargs,
                )
            )

        sim.schedule_at(at, do_install)
        return records

    def assert_all_quiet(self, sim, devices):
        assert sim.live_pending == 0
        for device in devices:
            assert device._subscriber == {}
            assert device._pending == {}

    def test_install_then_immediate_cancel(self, dataset):
        sim, world, devices, _ = build_grid(dataset)
        records = self.install(sim, devices)
        sim.schedule_at(
            10.2, lambda: devices[0].cancel_subscription(records[0].key)
        )
        sim.run(until=120.0)
        record = records[0]
        assert record.status == "cancelled"
        assert record.closed
        # Cancellation pre-empted the install epoch's close: no books.
        assert record.epochs == []
        self.assert_all_quiet(sim, devices)

    def test_cancel_api_validation(self, dataset):
        sim, world, devices, _ = build_grid(dataset)
        with pytest.raises(RuntimeError):
            devices[0].cancel_subscription((0, 99))
        with pytest.raises(RuntimeError):
            devices[0].renew_subscription((0, 99), 2)

    def test_originator_crash_mid_refresh(self, dataset):
        # Crash the originator exactly at the epoch-1 tick: subscriber
        # DELTAs for that epoch are in flight toward a dead device, so
        # the ACK/retry path and the per-tick orphan check must both
        # reap cleanly (PR 6's suppression contract, per-epoch).
        sim, world, devices, observer = build_grid(dataset, observe=True)
        records = self.install(sim, devices)
        sim.schedule_at(30.0, world.fail_node, 0)
        sim.run(until=150.0)
        record = records[0]
        assert record.status == "aborted"
        assert [e.epoch for e in record.epochs] == [0]
        self.assert_all_quiet(sim, devices)
        assert (
            observer.metrics.counter("resilience.orphans_reaped").value >= 1
        )

    def test_renewal_extends_epoch_schedule(self, dataset):
        sim, world, devices, _ = build_grid(dataset)
        records = self.install(sim, devices, epochs=2)
        sim.schedule_at(
            45.0, lambda: devices[0].renew_subscription(records[0].key, 2)
        )
        sim.run(until=160.0)
        record = records[0]
        assert record.status == "expired"
        assert record.epochs_total == 4
        assert [e.epoch for e in record.epochs] == [0, 1, 2, 3, 4]
        # The renew flood kept subscribers ticking past the original
        # expiry: the extension epochs still have full coverage.
        final = record.epochs[-1]
        assert final.report.outcome == "completed"
        self.assert_all_quiet(sim, devices)

    def test_renewal_validation(self, dataset):
        sim, world, devices, _ = build_grid(dataset)
        records = self.install(sim, devices)
        sim.run(until=15.0)
        with pytest.raises(ValueError):
            devices[0].renew_subscription(records[0].key, 0)

    def test_subscriber_crash_recovery_reenrolls_via_heal_flood(
        self, dataset
    ):
        # Device 4 crashes after enrollment and recovers mid-run. Its
        # epoch-1 books mark it lost-to-fault; the close-time healing
        # flood re-enrolls it once it is back up, so the final epoch
        # covers it again.
        sim, world, devices, observer = build_grid(dataset, observe=True)
        records = self.install(sim, devices)
        sim.schedule_at(25.0, world.fail_node, 4)
        sim.schedule_at(45.0, world.restore_node, 4)
        sim.run(until=150.0)
        record = records[0]
        assert record.status == "expired"
        epoch1 = record.epochs[1]
        assert 4 in epoch1.report.lost_to_fault
        assert epoch1.report.is_exact_partition(frozenset(range(9)))
        final = record.epochs[-1]
        assert final.report.outcome == "completed"
        assert 4 in final.report.contributed
        assert (
            observer.metrics.counter("continuous.heal_floods").value >= 1
        )
        self.assert_all_quiet(sim, devices)

    def test_unsubscribe_drops_foreign_state_only(self, dataset):
        # Two originators, one cancels: the other's subscription keeps
        # running untouched.
        sim, world, devices, _ = build_grid(dataset)
        first = self.install(sim, devices, at=10.0)
        second = []

        def install_second():
            second.append(
                devices[8].install_subscription(
                    d=600.0, interval=20.0, epochs=3, epoch_budget=8.0,
                )
            )

        sim.schedule_at(10.0, install_second)
        sim.schedule_at(
            20.0, lambda: devices[0].cancel_subscription(first[0].key)
        )
        sim.run(until=150.0)
        assert first[0].status == "cancelled"
        assert second[0].status == "expired"
        assert [e.epoch for e in second[0].epochs] == [0, 1, 2, 3]
        assert second[0].epochs[-1].report.outcome == "completed"
        self.assert_all_quiet(sim, devices)


class TestMaintenanceCurve:
    """Messages per refresh against update intensity on the static grid
    (``repro continuous --smoke --grid`` prints it)."""

    def test_headline_checks_pass(self):
        from repro.experiments import maintenance_curve

        figure, failures = maintenance_curve()
        assert failures == []
        assert figure.x_values == [0, 4, 8, 16]
        assert figure.get("delta") == [
            0.0, 0.26666666666666666, 0.5333333333333333, 1.0666666666666667,
        ]
        assert figure.get("reflood") == [35.0] * 4

    def test_check_flags_delta_not_beating_reflood(self):
        from repro.experiments import FigureResult
        from repro.experiments.continuous_sweep import check_maintenance_curve

        figure = FigureResult(
            figure="f", title="t", x_label="data updates",
            x_values=[0, 4, 8],
        )
        figure.add_series("delta", [0.0, 35.0, 36.0])
        figure.add_series("reflood", [35.0, 35.0, 35.0])
        failures = check_maintenance_curve(figure)
        assert len(failures) == 2
        assert "at 4 data updates" in failures[0]
        assert "at 8 data updates" in failures[1]


class TestSuiteReport:
    """The suite footer says how many scenarios it left uncompared."""

    @staticmethod
    def point(seed, mode, enrolled, per_refresh, faulty=False):
        from repro.experiments import ContinuousPoint

        return ContinuousPoint(
            seed=seed, mode=mode, faulty=faulty, violations=[],
            status="expired", epochs_closed=5, complete_epochs=0,
            enrolled=enrolled, messages_per_refresh=per_refresh,
            max_divergence=None,
        )

    def test_isolated_originator_is_counted_not_compared(self):
        from repro.experiments import ContinuousReport

        report = ContinuousReport([
            self.point(7, "delta", 3, 2.0),
            self.point(7, "reflood", 3, 4.0),
            self.point(7, "delta", 3, 2.5, faulty=True),
            # Isolated: equal cost in both modes, which a compared
            # scenario would report as a dominance failure.
            self.point(9, "delta", 0, 1.0),
            self.point(9, "reflood", 0, 1.0),
        ])
        assert report.isolated_scenarios == 1
        assert report.dominance_failures == []
        assert report.ok
        assert report.render().splitlines()[-1] == (
            "-- 5 runs, 5 clean, 0 with violations, 0 dominance failures, "
            "1 not compared (isolated originator)"
        )

    def test_enrolled_scenario_is_compared(self):
        from repro.experiments import ContinuousReport

        report = ContinuousReport([
            self.point(9, "delta", 1, 1.0),
            self.point(9, "reflood", 1, 1.0),
        ])
        assert report.isolated_scenarios == 0
        assert len(report.dominance_failures) == 1
        assert not report.ok
        assert report.render().endswith(
            "1 dominance failures, 0 not compared (isolated originator)"
        )


class TestMobileSuite:
    """The sweep harness holds its invariants on mobile topologies too
    (partitions allowed, exactness gated only on covered epochs)."""

    def test_smoke_seed_clean(self):
        from repro.experiments import run_continuous_point

        point = run_continuous_point(3, "delta", faulty=False)
        assert point.ok, point.violations
        point = run_continuous_point(3, "delta", faulty=True)
        assert point.ok, point.violations

    def test_point_determinism(self):
        from repro.experiments import run_continuous_point

        a = run_continuous_point(17, "delta", faulty=True)
        b = run_continuous_point(17, "delta", faulty=True)
        assert (a.status, a.epochs_closed, a.complete_epochs,
                a.messages_per_refresh, a.max_divergence) == \
               (b.status, b.epochs_closed, b.complete_epochs,
                b.messages_per_refresh, b.max_divergence)
