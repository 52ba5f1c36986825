"""The benchmark's workloads, driven through the public ``repro`` API.

Every workload is a closed loop from one client: it issues one op,
waits until the op has finished in simulated time (the event queue has
drained), and only then issues the next. A run times a fixed set of
ops: how many follows from ``--seconds`` through the workload's nominal
rate, never from how many ops the host manages in that time, so every
run of one seed times the same ops. Each op's inputs are drawn from the
run's seed before the op is timed, and every op is checked against a
centralized oracle after the timed phase.

``paper_bf``
    BF queries at the Fig. 10 default point of the ``DEFAULT``
    experiment scale: m=25 devices, 100k independent 2-attribute
    tuples, d=500 m, random waypoint at 2-10 m/s, under-estimated
    dynamic filter. Originators and the idle gaps between queries come
    from the repo's query-arrival model (``generate_workload``: 1-2
    queries per device at uniform times over 1800 s), so nodes move
    between queries. It loads the network side: delivery, AODV result
    routing, mobility, the neighbor index, and with them the local
    skyline and result assembly.
``continuous_updates``
    One op is one delta-mode subscription lifetime on a 25-device
    static grid (25k tuples, d=500 m, 30 epochs, 60 seeded data
    updates): the write path (updates, cache invalidation, safe-region
    checks, DELTA routing) beside the refresh reads.
    ``run_continuous_simulation`` takes no dataset or network, so each
    op builds its own 25k-tuple dataset and network inside the timed
    window, and this workload's set-up is only its seeded configs.
"""

from __future__ import annotations

import hashlib
import itertools
import statistics
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from repro import continuous
from repro.core import skyline_numpy, skyline_of_relation
from repro.data import generate_workload, partition
from repro.experiments import DEFAULT
from repro.metrics.coverage import mean_coverage
from repro.metrics.drr import data_reduction_rate
from repro.metrics.response import bf_response_time
from repro.obs import Observer
from repro.protocol import ProtocolConfig, SimulationConfig, coordinator
from repro.resilience.invariants import check_result_soundness
from repro.storage import union_all
from repro.storage.schema import uniform_schema

#: Seed of the one-shot workloads' world (dataset, mobility, radio). It
#: is fixed so that runs of different seeds measure the same network;
#: the run's seed draws the op sequence (originators and idle gaps).
WORLD_SEED = 20060403


@dataclass
class Op:
    """One operation: its seeded input, then what timing and the run left."""

    index: int
    params: Any
    wall_s: float = 0.0
    step_s: float = 0.0
    outcome: Any = None
    counters: Dict[str, float] = field(default_factory=dict)
    drained: bool = True


def _mean(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


def _median(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _traffic(stats) -> tuple:
    return (stats.transmissions, stats.deliveries, stats.drops, stats.bytes_sent)


def _network_counters(sim, world, devices) -> Dict[str, float]:
    """Cumulative engine, radio and energy counters of one network."""
    stats = world.stats
    return {
        "events": sim.events_fired,
        "transmissions": stats.transmissions,
        "deliveries": stats.deliveries,
        "drops": stats.drops,
        "protocol_messages": stats.protocol_messages(),
        "control_frames": stats.control_messages(),
        "routed_frames": stats.by_kind.get("data", 0),
        "energy_j": sum(device.meter.joules for device in devices),
        "rebuilds": world._index.rebuilds,
    }


# -- one-shot BF queries ---------------------------------------------------------


@dataclass
class _ManetState:
    dataset: Any
    sim: Any
    world: Any
    devices: List[Any]
    totals: Dict[str, float]


class _TrueSkyline:
    """The true skyline of one record: the skyline of the originator's
    and contributors' data inside the query disk, which a fault-free
    query must return. It is computed once per record, over the union of
    the members' in-range slices.

    ``local(i)`` is the part of it held by member ``i``: the dataset
    ``check_result_soundness`` is given. That check restricts the union
    of the members' data to the disk and takes its skyline; restriction
    is idempotent and the skyline of a skyline is itself, so it sees the
    same true skyline as on the full dataset. Its provenance test
    becomes stricter, but any tuple it then rejects lies outside the
    true skyline, which the check rejects anyway: its verdict is
    unchanged. This keeps the oracle from building identity sets of tens
    of thousands of in-range tuples per query.
    """

    def __init__(self, dataset, record) -> None:
        members = sorted({record.originator} | set(record.contributions))
        slices = [dataset.local(i).restrict(record.query.pos, record.query.d)
                  for i in members]
        union = union_all(slices)
        keep = np.sort(skyline_numpy(union.normalized_values()))
        self.rows = continuous.relation_rows(union.take(keep))
        owner = np.repeat(members, [s.cardinality for s in slices])[keep]
        starts = np.cumsum([0] + [s.cardinality for s in slices])
        self._parts = {
            device: part.take(keep[owner == device] - start)
            for device, part, start in zip(members, slices, starts)
        }

    def local(self, device: int):
        return self._parts[device]


class ManetWorkload:
    """One-shot BF queries issued one at a time on one network.

    Args:
        devices / cardinality: Network and dataset size.
        distance: Query distance ``d`` in metres.
        protocol: The devices' protocol configuration.
        warmup: Discarded ops before timing.
        rate: Ops timed per requested second (a fixed count, see
            :meth:`op_count`).
        side: Arena side in metres (default: the schema's 1000 m).
        scale: Experiment scale whose query-arrival model draws the
            originators and idle gaps.
    """

    def __init__(self, devices: int, cardinality: int, distance: float,
                 protocol: ProtocolConfig, warmup: int, rate: float,
                 side: Optional[float] = None, scale=DEFAULT) -> None:
        self.devices = devices
        self.cardinality = cardinality
        self.distance = distance
        self.protocol = protocol
        self.warmup = warmup
        self.rate = rate
        self.side = side
        self.scale = scale
        # Long enough for every deadline, retry and route timer of one
        # query to fire; an op that leaves live events behind fails.
        self.horizon = 2.0 * protocol.effective_deadline

    def op_count(self, seconds: float) -> int:
        """Ops a run of ``seconds`` times, whatever the host's speed."""
        return max(1, round(self.rate * seconds))

    def setup(self, seed: int) -> _ManetState:
        """Build the world; it does not depend on ``seed`` (see
        :data:`WORLD_SEED`)."""
        schema = None
        if self.side is not None:
            schema = uniform_schema(
                2, spatial_extent=(0.0, 0.0, self.side, self.side)
            )
        dataset = partition.make_global_dataset(
            self.cardinality, 2, self.devices, "independent",
            schema=schema, seed=WORLD_SEED, value_step=1.0,
        )
        config = SimulationConfig(
            strategy="bf", protocol=self.protocol, seed=WORLD_SEED + 2
        )
        sim, world, devices = coordinator.build_network(dataset, config)
        return _ManetState(dataset, sim, world, devices,
                           _network_counters(sim, world, devices))

    def op_inputs(self, seed: int) -> Iterator[Op]:
        """``(originator, idle gap)`` per op, from consecutive windows of
        the scale's query-arrival model: the gap is the time since the
        previous request, so the queries arrive as that model has them."""
        sim_time = self.scale.sim_time
        index = itertools.count()
        previous = 0.0
        for window in itertools.count():
            window_seed = int(np.random.SeedSequence([seed, window])
                              .generate_state(1)[0])
            requests = generate_workload(
                self.devices, sim_time, self.distance,
                self.scale.queries_per_device, seed=window_seed,
            )
            for request in requests:
                at = window * sim_time + request.time
                yield Op(next(index), (request.device, at - previous))
                previous = at

    def prepare(self, state: _ManetState, op: Op) -> None:
        state.sim.run(until=state.sim.now + op.params[1])

    def run_op(self, state: _ManetState, op: Op) -> None:
        op.outcome = state.devices[op.params[0]].issue_query(self.distance)
        state.sim.run(until=state.sim.now + self.horizon)

    def account(self, state: _ManetState, op: Op) -> None:
        totals = _network_counters(state.sim, state.world, state.devices)
        op.counters = {k: totals[k] - state.totals[k] for k in totals}
        state.totals = totals
        record = op.outcome
        op.counters["assembly_kept"] = record.result.cardinality
        op.counters["assembly_fed"] = record.local_reduced + sum(
            c.reduced_size for c in record.contributions.values()
        )
        op.drained = state.sim.live_pending == 0

    def check(self, state: _ManetState, ops: List[Op]) -> List[bool]:
        """Failed flag per op: events left behind, a record never closed,
        a result failing ``check_result_soundness``, or a result that is
        not exactly the true skyline of the contributing devices'
        in-range data (these runs have no faults, so nothing excuses a
        missing tuple)."""
        failed = []
        for op in ops:
            record = op.outcome
            if not op.drained or not record.closed:
                failed.append(True)
                continue
            truth = _TrueSkyline(state.dataset, record)
            failed.append(
                bool(check_result_soundness([record], truth))
                or continuous.relation_rows(record.result) != truth.rows
            )
        return failed

    def paper_metrics(self, state: _ManetState, ops: List[Op]) -> Dict[str, Any]:
        records = [op.outcome for op in ops]
        quorum = self.protocol.completion_quorum
        times = [bf_response_time(r, self.devices, quorum) for r in records]
        return {
            "sim_response_s": _median(times),
            "messages_per_op": _mean(op.counters["protocol_messages"] for op in ops),
            "energy_j_per_op": _mean(op.counters["energy_j"] for op in ops),
            "drr": data_reduction_rate(records),
            "coverage": mean_coverage(records),
        }

    def fingerprint_rows(self, state: _ManetState, ops: List[Op]) -> list:
        rows = []
        for op in ops:
            c, r = op.counters, op.outcome
            rows.append((
                op.params[0], c["events"], c["transmissions"], c["deliveries"],
                c["drops"], c["protocol_messages"], repr(c["energy_j"]),
                r.completion_time, r.closed_at, len(r.contributions),
                _digest(sorted(continuous.relation_rows(r.result))),
            ))
        return rows


# -- continuous subscriptions ---------------------------------------------------


@dataclass
class _Replay:
    """What the untimed reference replay of one subscription seed gave."""

    ok: bool
    epoch_rows: tuple
    traffic: tuple
    response_s: Optional[float]
    drr: Optional[float]
    coverage: Optional[float]


class ContinuousWorkload:
    """Whole delta-mode subscription lifetimes, one at a time.

    A run cycles through ``subscriptions`` seeded subscriptions, so the
    oracle replays each seed once, with reference capture and an
    observer attached, and every timed op of that seed must match it.
    The paper metrics come from those replays: response is the last
    DELTA merge after each epoch's tick, and ``drr`` is the share of
    subscribers' evaluated slice tuples that delta encoding kept off
    the air.
    """

    warmup = 1

    def __init__(self, devices: int = 25, cardinality: int = 25_000,
                 epochs: int = 30, updates: int = 60, distance: float = 500.0,
                 subscriptions: int = 20, rate: float = 5.0) -> None:
        self.devices = devices
        self.cardinality = cardinality
        self.epochs = epochs
        self.updates = updates
        self.distance = distance
        self.subscriptions = subscriptions
        self.rate = rate
        self._replays: Dict[int, _Replay] = {}

    def op_count(self, seconds: float) -> int:
        """Whole cycles over the subscriptions, at least one."""
        cycles = max(1, round(self.rate * seconds / self.subscriptions))
        return cycles * self.subscriptions

    def _config(self, seed: int):
        return continuous.ContinuousConfig(
            mode="delta", devices=self.devices, cardinality=self.cardinality,
            d=self.distance, epochs=self.epochs, data_updates=self.updates,
            static_grid=True, seed=seed, capture_reference=False,
        )

    def setup(self, seed: int) -> List[Any]:
        """The seeded subscription configs; each op builds its own
        dataset and network from one of them."""
        return [self._config(seed * 1000 + i) for i in range(self.subscriptions)]

    def op_inputs(self, seed: int) -> Iterator[Op]:
        for index in itertools.count():
            yield Op(index, index % self.subscriptions)

    def prepare(self, state: List[Any], op: Op) -> None:
        pass

    def run_op(self, state: List[Any], op: Op) -> None:
        op.outcome = continuous.run_continuous_simulation(
            state[op.params], keep_network=True
        )

    def account(self, state: List[Any], op: Op) -> None:
        result = op.outcome
        sim, world, devices = result.network
        op.counters = _network_counters(sim, world, devices)
        op.counters["epochs"] = len(result.epochs)
        op.drained = sim.live_pending == 0
        # Keep only what the oracle compares; the network is released.
        op.outcome = (
            tuple(e.result_rows for e in result.epochs),
            _traffic(result.traffic),
        )

    def _replay(self, config) -> _Replay:
        config = replace(config, capture_reference=True)
        observer = Observer()
        result = continuous.run_continuous_simulation(config, observer=observer)
        epochs = result.epochs
        # Independent check of the install epoch: the skyline of every
        # device's in-range tuples of the dataset the replay built
        # (updates replace a device's relation, never the dataset's).
        pos = continuous.grid_placement(config.devices).position(
            config.originator, 0.0
        )
        expected = continuous.relation_rows(skyline_of_relation(union_all([
            result.dataset.local(i).restrict(pos, config.d)
            for i in range(config.devices)
        ])))
        ok = (
            not continuous.verify_continuous_run(result)
            and bool(epochs)
            and epochs[0].result_rows == expected
            and all(e.result_rows == e.reference_rows for e in epochs)
        )
        last_merge: Dict[int, float] = {}
        shipped = 0
        for event in observer.events:
            if event.name == "delta.merged":
                epoch = event.attrs["epoch"]
                last_merge[epoch] = max(last_merge.get(epoch, 0.0), event.time)
            elif event.name == "delta.sent":
                shipped += event.attrs["enters"] + event.attrs["leaves"]
        evaluated = sum(
            span.attrs["reduced"] for span in observer.spans
            if span.name == "local-eval" and span.node != config.originator
        )
        ticks = {e.epoch: e.tick_time for e in epochs}
        return _Replay(
            ok=ok,
            epoch_rows=tuple(e.result_rows for e in epochs),
            traffic=_traffic(result.traffic),
            response_s=_mean(
                t - ticks[e] for e, t in last_merge.items() if e in ticks
            ),
            drr=1.0 - shipped / evaluated if evaluated else None,
            coverage=_mean(
                e.report.coverage() for e in epochs if e.report is not None
            ),
        )

    def _replay_of(self, state: List[Any], index: int) -> _Replay:
        seed = state[index].seed
        if seed not in self._replays:
            self._replays[seed] = self._replay(state[index])
        return self._replays[seed]

    def check(self, state: List[Any], ops: List[Op]) -> List[bool]:
        """Failed flag per op: events left behind, a replay failing the
        reference checks, or per-epoch answers or traffic differing from
        the replay of the same seed."""
        failed = []
        for op in ops:
            replay = self._replay_of(state, op.params)
            epoch_rows, traffic = op.outcome
            failed.append(
                not op.drained
                or not replay.ok
                or epoch_rows != replay.epoch_rows
                or traffic != replay.traffic
            )
        return failed

    def paper_metrics(self, state: List[Any], ops: List[Op]) -> Dict[str, Any]:
        replays = [self._replay_of(state, op.params) for op in ops]
        return {
            "sim_response_s": _median(r.response_s for r in replays),
            "messages_per_op": _mean(op.counters["protocol_messages"] for op in ops),
            "energy_j_per_op": _mean(op.counters["energy_j"] for op in ops),
            "drr": _mean(r.drr for r in replays),
            "coverage": _mean(r.coverage for r in replays),
        }

    def fingerprint_rows(self, state: List[Any], ops: List[Op]) -> list:
        rows = []
        for op in ops:
            c = op.counters
            epoch_rows, traffic = op.outcome
            rows.append((
                state[op.params].seed, c["events"], traffic,
                c["protocol_messages"], repr(c["energy_j"]),
                _digest([sorted(epoch) for epoch in epoch_rows]),
            ))
        return rows


# -- registry ---------------------------------------------------------------------

WORKLOADS = ("paper_bf", "continuous_updates")


def make(name: str):
    """A fresh instance of the named workload."""
    if name == "paper_bf":
        return ManetWorkload(
            devices=DEFAULT.manet_devices,
            cardinality=DEFAULT.manet_fixed_cardinality, distance=500.0,
            protocol=ProtocolConfig(), warmup=5, rate=12.0,
        )
    if name == "continuous_updates":
        return ContinuousWorkload()
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
