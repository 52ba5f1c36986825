"""End-to-end MANET simulation runs (Section 5.2).

The coordinator wires a partitioned dataset, a mobility model, a radio
world, and one skyline device per partition, then drives a query
workload through it, enforcing the paper's one-query-in-progress rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Type

from ..data.partition import GlobalDataset
from ..data.workload import QueryRequest
from ..faults import FaultInjector, FaultSchedule
from ..net.engine import Simulator
from ..net.mobility import DEFAULT_SPEED_RANGE, MobilityModel, RandomWaypoint
from ..net.world import RadioConfig, TrafficStats, World
from ..obs.observer import Observer
from .device import BFDevice, DFDevice, ProtocolConfig, QueryRecord, SkylineDevice

__all__ = ["SimulationConfig", "SimulationResult", "run_manet_simulation",
           "build_network", "STRATEGIES"]

STRATEGIES = ("bf", "df")


@dataclass(frozen=True)
class SimulationConfig:
    """A complete MANET experiment configuration (Tables 6 and 7).

    Attributes:
        strategy: ``bf`` (breadth-first) or ``df`` (depth-first).
        sim_time: Simulated duration in seconds (paper: 2 h).
        radio: Physical-layer parameters.
        protocol: Skyline protocol switches.
        speed_range: Random-waypoint speed range (paper: 2-10 m/s);
            the pause is the paper's fixed
            :data:`~repro.net.mobility.DEFAULT_HOLDING_TIME`.
        seed: Master seed for mobility and loss processes.
        drain_time: Extra simulated seconds after the last workload
            entry so in-flight queries can finish.
        faults: Optional deterministic fault schedule (device churn,
            link blackouts, loss bursts) injected into the run.
    """

    strategy: str = "bf"
    sim_time: float = 7200.0
    radio: RadioConfig = field(default_factory=RadioConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    speed_range: Tuple[float, float] = DEFAULT_SPEED_RANGE
    seed: Optional[int] = None
    drain_time: float = 120.0
    faults: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}"
            )
        if self.sim_time <= 0:
            raise ValueError("sim_time must be > 0")
        if self.drain_time < 0:
            raise ValueError("drain_time must be >= 0")


@dataclass
class SimulationResult:
    """Everything a run produced, ready for the metrics layer."""

    records: List[QueryRecord]
    traffic: TrafficStats
    devices: int
    sim_time: float
    issued: int
    suppressed: int
    events: int
    energy_joules: List[float] = field(default_factory=list)
    """Per-device energy spent on radio + skyline CPU during the run."""
    fault_events: Tuple = ()
    """Signatures of every applied fault transition, in order — the
    deterministic fault trace (empty without a fault schedule)."""
    network: Optional[Tuple] = None
    """``(sim, world, devices)`` of the finished run, retained only when
    the run was started with ``keep_network=True`` — the resilience
    invariant suite inspects the engine heap and live device state."""

    @property
    def completed(self) -> List[QueryRecord]:
        """Queries that reached their strategy's completion condition."""
        return [r for r in self.records if r.completion_time is not None]

    @property
    def total_energy(self) -> float:
        """Fleet-wide energy in joules."""
        return sum(self.energy_joules)


def build_network(
    dataset: GlobalDataset,
    config: SimulationConfig,
    mobility: Optional[MobilityModel] = None,
    device_cls: Optional[Type[SkylineDevice]] = None,
) -> Tuple[Simulator, World, List[SkylineDevice]]:
    """Construct the simulator, world, and one device per partition.

    ``device_cls`` defaults to the class of ``config.strategy``
    (:class:`BFDevice` or :class:`DFDevice`); continuous runs pass
    :class:`~repro.continuous.device.ContinuousDevice`.
    """
    sim = Simulator()
    if mobility is None:
        mobility = RandomWaypoint(
            node_count=dataset.devices,
            extent=dataset.schema.spatial_extent,
            speed_range=config.speed_range,
            seed=config.seed,
        )
    if mobility.node_count != dataset.devices:
        raise ValueError(
            f"mobility tracks {mobility.node_count} nodes but the dataset "
            f"has {dataset.devices} partitions"
        )
    world = World(sim, mobility, config.radio, seed=config.seed)
    if device_cls is None:
        device_cls = BFDevice if config.strategy == "bf" else DFDevice
    devices: List[SkylineDevice] = [
        device_cls(world, i, dataset.local(i), config=config.protocol)
        for i in range(dataset.devices)
    ]
    return sim, world, devices


def run_manet_simulation(
    dataset: GlobalDataset,
    workload: Sequence[QueryRequest],
    config: SimulationConfig,
    mobility: Optional[MobilityModel] = None,
    max_events: Optional[int] = None,
    observer: Optional[Observer] = None,
    keep_network: bool = False,
) -> SimulationResult:
    """Run a full MANET experiment.

    Args:
        dataset: Partitioned global relation (one partition per device).
        workload: Intended query issues; entries whose device still has a
            query in progress are suppressed (the paper's rule).
        config: Simulation configuration.
        mobility: Override the default random-waypoint model (e.g. a
            :class:`~repro.net.mobility.StaticPlacement` for debugging).
        max_events: Safety valve for tests.
        observer: Optional :class:`~repro.obs.observer.Observer` bound to
            the run's world; it records query spans and metrics and is
            finalized against the result before returning. Observation
            is passive — the run is bit-identical with or without it.
        keep_network: Retain ``(sim, world, devices)`` on the result's
            ``network`` field so post-run checks (the chaos invariant
            suite) can inspect the drained engine heap and device state.

    Returns:
        A :class:`SimulationResult` with every query record and the
        global traffic statistics.
    """
    sim, world, devices = build_network(dataset, config, mobility)
    if observer is not None:
        observer.bind(world)
    injector: Optional[FaultInjector] = None
    if config.faults is not None:
        injector = FaultInjector(config.faults).install(world)
    issued = 0
    suppressed = 0

    def try_issue(request: QueryRequest) -> None:
        nonlocal issued, suppressed
        device = devices[request.device]
        if device.has_active_query or not world.node_is_up(request.device):
            suppressed += 1
            return
        device.issue_query(request.distance)
        issued += 1

    for request in workload:
        if request.device >= len(devices):
            raise ValueError(
                f"workload references device {request.device} but only "
                f"{len(devices)} exist"
            )
        sim.schedule_at(request.time, try_issue, request)

    sim.run(until=config.sim_time + config.drain_time, max_events=max_events)

    records: List[QueryRecord] = []
    for device in devices:
        records.extend(device.records.values())
    records.sort(key=lambda r: r.issue_time)
    if not keep_network:
        # A query still open at the end keeps its armed close timer, an
        # engine handle bound to its device: drop it, so a held result
        # keeps neither the device nor the engine alive.
        for record in records:
            record.close_timer = None
    result = SimulationResult(
        records=records,
        traffic=world.stats,
        devices=dataset.devices,
        sim_time=config.sim_time,
        issued=issued,
        suppressed=suppressed,
        events=sim.events_fired,
        energy_joules=[device.meter.joules for device in devices],
        fault_events=(
            injector.applied_signature() if injector is not None else ()
        ),
        network=(sim, world, devices) if keep_network else None,
    )
    if observer is not None:
        observer.finalize(result)
    return result
