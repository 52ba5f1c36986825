"""A network that nobody holds is freed by refcounting.

The world owns its nodes and its neighbor index, and a node owns its
router. Every reference back up is weak: node and router to world,
router to node, index to world. An observer keeps the engine, not the
world. So once the caller drops ``(sim, world, devices)`` and the
engine's queue is empty, no reference cycle is left. The tests run with
the cyclic garbage collector off, so only refcounting can free what
they drop.
"""

import gc
import weakref

import pytest

from repro.continuous import ContinuousConfig, run_continuous_simulation
from repro.data import QueryRequest, make_global_dataset
from repro.obs import Observer
from repro.protocol import SimulationConfig, build_network, run_manet_simulation


@pytest.fixture
def no_gc():
    """Collect what earlier tests left, then keep the collector off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(scope="module")
def dataset():
    return make_global_dataset(2_000, 2, 25, "independent", seed=3,
                               value_step=1.0)


def refs_to(world, devices):
    return [weakref.ref(world), weakref.ref(devices[0]),
            weakref.ref(devices[-1]), weakref.ref(devices[0].router)]


def test_dropped_bf_network_is_freed(no_gc, dataset):
    sim, world, devices = build_network(
        dataset, SimulationConfig(strategy="bf", seed=5)
    )
    records = []
    for origin in (0, 7, 12):
        records.append(devices[origin].issue_query(500.0))
        sim.run(until=sim.now + 30.0)
    sim.run()
    assert all(record.closed for record in records)
    assert world.stats.deliveries > 0
    refs = refs_to(world, devices)
    del sim, world, devices, records
    assert [ref() for ref in refs] == [None] * len(refs)


def test_kept_continuous_network_is_freed(no_gc):
    result = run_continuous_simulation(
        ContinuousConfig(devices=9, cardinality=270, epochs=3, d=600.0,
                         data_updates=6, static_grid=True),
        keep_network=True,
    )
    sim, world, devices = result.network
    assert result.record.closed and sim.live_pending == 0
    refs = refs_to(world, devices)
    del sim, world, devices, result
    assert [ref() for ref in refs] == [None] * len(refs)


def test_observed_network_is_freed_and_observer_keeps_its_clock(no_gc, dataset):
    observer = Observer()
    result = run_manet_simulation(
        dataset, [QueryRequest(time=5.0, device=4, distance=500.0)],
        SimulationConfig(strategy="bf", seed=5, sim_time=30.0,
                         drain_time=60.0),
        observer=observer, keep_network=True,
    )
    sim, world, devices = result.network
    end = sim.now
    refs = refs_to(world, devices)
    del sim, world, devices, result
    assert [ref() for ref in refs] == [None] * len(refs)
    assert observer.now == end


def test_node_used_after_its_world_is_dropped_raises(dataset):
    sim, world, devices = build_network(
        dataset, SimulationConfig(strategy="bf", seed=5)
    )
    device = devices[3]
    assert device.world.node_is_up(3)
    del world, devices
    gc.collect()
    with pytest.raises(ReferenceError):
        device.world.node_is_up(3)
    with pytest.raises(ReferenceError):
        device.router.world.node_is_up(3)


def test_returned_result_pins_no_engine_or_device(dataset, monkeypatch):
    """Without ``keep_network`` a held result reaches no engine handle:
    a query still open when the run ends (its close timer armed past
    ``sim_time + drain_time``) must not keep its device or the engine
    alive through the record."""
    import repro.protocol.coordinator as coordinator

    small = make_global_dataset(2_500, 2, 9, "independent", seed=3,
                                value_step=1.0)
    built = []
    real = coordinator.build_network

    def capture(*args, **kwargs):
        sim, world, devices = real(*args, **kwargs)
        built.extend(weakref.ref(obj) for obj in (sim, world, *devices))
        return sim, world, devices

    monkeypatch.setattr(coordinator, "build_network", capture)
    result = run_manet_simulation(
        small,
        [QueryRequest(time=5.0, device=4, distance=500.0),
         QueryRequest(time=10.0, device=8, distance=500.0)],
        SimulationConfig(strategy="bf", seed=5, sim_time=60.0),
    )
    assert result.issued == 2
    assert not any(record.closed for record in result.records)
    gc.collect()
    assert [ref() for ref in built] == [None] * len(built)
    assert len(result.records) == 2
