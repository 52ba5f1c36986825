"""End-to-end continuous-subscription runs and their invariant suite.

:func:`run_continuous_simulation` builds a MANET of
:class:`~repro.continuous.device.ContinuousDevice` nodes, installs one
subscription, drives a seeded data-update schedule (and optionally a
fault schedule) through it, and captures a centralized reference answer
just after every epoch close, so each
:class:`~repro.continuous.subscription.RefreshEpoch` carries its own
staleness measurement.

:func:`verify_continuous_run` is the per-epoch sibling of the one-shot
chaos invariant suite: epochs close on time, every epoch's completion
report exactly partitions the population, fault-free runs track the
reference bit-for-bit, and the engine heap drains clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.skyline import skyline_of_relation
from ..data.partition import GlobalDataset, make_global_dataset
from ..data.spatial import rect_overlaps_circle
from ..faults import (
    DataUpdateSchedule,
    FaultInjector,
    FaultSchedule,
    UpdateEvent,
    UpdateInjector,
)
from ..net.mobility import MobilityModel, StaticPlacement
from ..net.world import RadioConfig, TrafficStats
from ..obs.observer import Observer
from ..protocol.coordinator import SimulationConfig, build_network
from ..protocol.device import ProtocolConfig
from ..resilience import ResiliencePolicy
from ..resilience.invariants import check_no_live_timers
from ..storage.relation import union_all
from .device import ContinuousDevice
from .messages import MODES
from .safe_region import relation_rows
from .subscription import SubscriptionRecord

__all__ = [
    "ContinuousConfig",
    "ContinuousResult",
    "continuous_protocol_config",
    "grid_placement",
    "run_continuous_simulation",
    "verify_continuous_run",
]

#: Reference snapshots are taken just *after* a refresh tick — late
#: enough to order after the tick's own events, early enough that no
#: guard-banded data update can land in between.
_CAPTURE_EPS = 1e-3

#: Auto-generated update schedules keep this fraction of the interval
#: clear on both sides of every refresh tick, so an epoch's reports
#: (computed at the tick in delta mode, at flood arrival — milliseconds
#: later — in reflood mode) and its reference snapshot always observe
#: the same data version. Explicit schedules can still race ticks; the
#: exactness gate only applies to fault-free runs of the default draw.
_UPDATE_GUARD = 0.15

#: Mean changed-row fraction of one drawn update.
_UPDATE_FRACTION = 0.3

#: Dataset shape of every run: two attributes, independent values.
DIMENSIONS = 2
DISTRIBUTION = "independent"
#: When the install flood goes out, in simulated seconds.
INSTALL_TIME = 10.0
#: Seconds after each tick before the originator closes the epoch
#: (see :class:`~repro.continuous.messages.SubscriptionSpec`).
EPOCH_BUDGET = 8.0
#: Extra simulated seconds after the last epoch close.
DRAIN_TIME = 30.0


def grid_placement(devices: int, spacing: float = 150.0) -> StaticPlacement:
    """A static square-ish grid with every neighbour inside the default
    250 m radio range — the fully connected topology exactness gates
    run on."""
    import math as _math

    side = int(_math.ceil(_math.sqrt(devices)))
    return StaticPlacement([
        ((i % side) * spacing, (i // side) * spacing)
        for i in range(devices)
    ])


def _guarded_updates(config: "ContinuousConfig") -> DataUpdateSchedule:
    """Draw a seeded update schedule that never races a refresh tick.

    Each event lands in the interior of one epoch window —
    ``tick + [guard, 1 - guard] * interval`` — so every device's report
    for an epoch and the runner's reference snapshot observe the same
    relation version.
    """
    import numpy as np

    rng = np.random.default_rng(config.seed + 5)
    events = []
    for _ in range(config.data_updates):
        device = int(rng.integers(config.devices))
        slot = int(rng.integers(config.epochs))
        offset = float(
            rng.uniform(_UPDATE_GUARD, 1.0 - _UPDATE_GUARD)
        ) * config.interval
        fraction = min(1.0, max(1e-3, float(
            rng.exponential(_UPDATE_FRACTION)
        )))
        update_seed = int(rng.integers(0, 2**31 - 1))
        events.append(UpdateEvent(
            INSTALL_TIME + slot * config.interval + offset,
            device, fraction, update_seed,
        ))
    return DataUpdateSchedule(events)


def continuous_protocol_config() -> ProtocolConfig:
    """Protocol knobs for subscription runs: quick retries so a DELTA's
    retransmission tail fits inside one epoch budget, orphan suppression
    on so subscriber state reaps itself after an originator crash."""
    return ProtocolConfig(
        query_timeout=60.0,
        ack_timeout=1.5,
        result_retries=2,
        resilience=ResiliencePolicy(orphan_suppression=True),
    )


#: The default ``ContinuousConfig.protocol``: one instance shared by
#: every config (both dataclasses are frozen).
_CONTINUOUS_PROTOCOL = continuous_protocol_config()


@dataclass(frozen=True)
class ContinuousConfig:
    """One continuous-subscription experiment, fully seeded.

    The dataset has :data:`DIMENSIONS` attributes drawn from
    :data:`DISTRIBUTION`; the subscription installs at
    :data:`INSTALL_TIME`, each epoch closes :data:`EPOCH_BUDGET` after
    its tick and the run drains :data:`DRAIN_TIME` past the last close.
    Devices move by random waypoint at the paper's speeds and pause
    unless ``static_grid`` is set or ``run_continuous_simulation`` gets
    another ``mobility``.

    Attributes:
        mode: ``delta`` (incremental maintenance) or ``reflood``
            (naive per-epoch re-flood) — the benchmark's comparison axis.
        devices / cardinality: Dataset shape (one partition per device,
            sites static).
        d: Subscription disk radius (metres from the originator's
            install-time position).
        originator: Device that installs the subscription.
        interval / epochs: The subscription schedule (see
            :class:`~repro.continuous.messages.SubscriptionSpec`);
            ``interval`` must be at least :data:`EPOCH_BUDGET`.
        data_updates: Events drawn into a seeded
            :class:`~repro.faults.DataUpdateSchedule` covering the
            subscription's lifetime (ignored when ``updates`` is given).
        updates: Explicit update schedule override.
        faults: Optional fault schedule (crashes, blackouts, ...).
        loss_rate: Radio loss rate (keep 0 for exactness gates).
        seed: Master seed: dataset, mobility, loss, update draws.
        capture_reference: Snapshot the centralized answer after every
            epoch close (costs nothing on the wire; pure bookkeeping).
    """

    mode: str = "delta"
    devices: int = 9
    cardinality: int = 900
    d: float = 250.0
    originator: int = 0
    interval: float = 20.0
    epochs: int = 5
    data_updates: int = 6
    updates: Optional[DataUpdateSchedule] = None
    faults: Optional[FaultSchedule] = None
    loss_rate: float = 0.0
    seed: int = 7
    capture_reference: bool = True
    #: Place devices on a static connected grid instead of random
    #: waypoint — the setup for exactness gates, where every device is
    #: reachable at every epoch and fault-free runs must be bit-exact.
    static_grid: bool = False
    protocol: ProtocolConfig = _CONTINUOUS_PROTOCOL

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 0 <= self.originator < self.devices:
            raise ValueError("originator must be a valid device id")
        if self.interval < EPOCH_BUDGET:
            raise ValueError(
                f"interval must be >= the epoch budget ({EPOCH_BUDGET} s)"
            )
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.data_updates < 0:
            raise ValueError("data_updates must be >= 0")

    @property
    def last_close(self) -> float:
        """Simulated time of the final epoch's close."""
        return INSTALL_TIME + self.epochs * self.interval + EPOCH_BUDGET

    @property
    def horizon(self) -> float:
        """Total simulated duration including drain."""
        return self.last_close + DRAIN_TIME


@dataclass
class ContinuousResult:
    """Everything one subscription run produced."""

    record: SubscriptionRecord
    traffic: TrafficStats
    dataset: GlobalDataset
    config: ContinuousConfig
    update_events: Tuple = ()
    fault_events: Tuple = ()
    network: Optional[Tuple] = None

    @property
    def epochs(self):
        return self.record.epochs

    @property
    def messages_per_refresh(self) -> float:
        """Mean protocol frames per refresh epoch (excluding the install
        epoch, whose full-flood cost both modes share)."""
        refresh = [e for e in self.record.epochs if e.epoch > 0]
        if not refresh:
            return 0.0
        return sum(e.messages for e in refresh) / len(refresh)

    @property
    def max_divergence(self) -> Optional[float]:
        """Worst staleness across epochs with a captured reference."""
        divs = [
            e.divergence for e in self.record.epochs
            if e.divergence is not None
        ]
        return max(divs) if divs else None



def run_continuous_simulation(
    config: ContinuousConfig,
    mobility: Optional[MobilityModel] = None,
    observer: Optional[Observer] = None,
    keep_network: bool = False,
) -> ContinuousResult:
    """Run one continuous-subscription experiment end to end."""
    dataset = make_global_dataset(
        config.cardinality, DIMENSIONS, config.devices, DISTRIBUTION,
        seed=config.seed, value_step=1.0,
    )
    if mobility is None and config.static_grid:
        mobility = grid_placement(config.devices)
    network = SimulationConfig(
        radio=RadioConfig(loss_rate=config.loss_rate),
        protocol=config.protocol,
        seed=config.seed,
    )
    sim, world, devices = build_network(
        dataset, network, mobility, device_cls=ContinuousDevice
    )
    if observer is not None:
        observer.bind(world)
    fault_injector: Optional[FaultInjector] = None
    if config.faults is not None:
        fault_injector = FaultInjector(config.faults).install(world)
    updates = config.updates
    if updates is None and config.data_updates > 0 and config.epochs > 0:
        updates = _guarded_updates(config)
    update_injector: Optional[UpdateInjector] = None
    if updates is not None and updates:
        update_injector = UpdateInjector(
            updates, value_step=1.0
        ).install(world, devices)

    originator = devices[config.originator]
    installed: List[SubscriptionRecord] = []

    def install() -> None:
        installed.append(
            originator.install_subscription(
                d=config.d,
                interval=config.interval,
                epochs=config.epochs,
                epoch_budget=EPOCH_BUDGET,
                mode=config.mode,
            )
        )

    sim.schedule_at(INSTALL_TIME, install)

    references: dict = {}

    def capture(epoch: int) -> None:
        if not installed:
            return
        # The reference is the answer a fresh centralized query would
        # see at the refresh instant: the skyline of every device's
        # current data restricted to the subscription disk. Data
        # survives crashes (storage is not volatile state), so every
        # device whose sites can meet the disk contributes; the others'
        # data is never read, so their pending updates stay pending.
        query = installed[0].spec.query
        slices = []
        for device in devices:
            mbr = device.sites_mbr
            if mbr is not None and rect_overlaps_circle(mbr, query.pos, query.d):
                slices.append(device.relation.restrict(query.pos, query.d))
        references[epoch] = (
            relation_rows(skyline_of_relation(union_all(slices)))
            if slices else frozenset()
        )

    if config.capture_reference:
        for epoch in range(config.epochs + 1):
            tick_at = INSTALL_TIME + epoch * config.interval
            sim.schedule_at(tick_at + _CAPTURE_EPS, capture, epoch)

    sim.run(until=config.horizon)

    if not installed:  # pragma: no cover - install is unconditional
        raise RuntimeError("subscription was never installed")
    for books in installed[0].epochs:
        if books.epoch in references:
            books.reference_rows = references[books.epoch]
    return ContinuousResult(
        record=installed[0],
        traffic=world.stats,
        dataset=dataset,
        config=config,
        update_events=(
            update_injector.applied_signature()
            if update_injector is not None else ()
        ),
        fault_events=(
            fault_injector.applied_signature()
            if fault_injector is not None else ()
        ),
        network=(sim, world, devices) if keep_network else None,
    )


def verify_continuous_run(result: ContinuousResult) -> List[str]:
    """Assert the continuous layer's invariants on a finished run.

    Checks (violations returned as strings, empty list = clean):

    1. The subscription reached a terminal state (expired / cancelled /
       aborted) — nothing left half-open after the drain.
    2. Every expected epoch closed exactly once, in order, each within
       its budget of its tick.
    3. Every epoch's completion report (when attached) exactly
       partitions the device population — the one-shot partition
       invariant, applied per refresh.
    4. On fault-free lossless runs: every captured epoch is exact
       (divergence 0.0) and covers the full population.
    5. The engine heap drained clean (when the network was kept).
    """
    violations: List[str] = []
    record = result.record
    config = result.config
    if not record.closed:
        violations.append(
            f"subscription {record.key} still {record.status!r} after drain"
        )
    if record.status == "expired":
        expected = list(range(record.epochs_total + 1))
        got = [e.epoch for e in record.epochs]
        if got != expected:
            violations.append(
                f"epoch sequence {got} != expected {expected}"
            )
    seen = set()
    for books in record.epochs:
        if books.epoch in seen:
            violations.append(f"epoch {books.epoch} closed twice")
        seen.add(books.epoch)
        lag = books.closed_at - books.tick_time
        if lag > EPOCH_BUDGET + 1e-9:
            violations.append(
                f"epoch {books.epoch} closed {lag:.3f}s after its tick "
                f"(budget {EPOCH_BUDGET})"
            )
        if not books.report.is_exact_partition(
            frozenset(range(config.devices))
        ):
            violations.append(
                f"epoch {books.epoch} report does not partition the "
                f"population"
            )
    fault_free = (
        result.config.faults is None and result.config.loss_rate == 0.0
    )
    if fault_free:
        for books in record.epochs:
            complete = books.report.outcome == "completed"
            if config.static_grid and not complete:
                # On a fully connected static topology nothing can
                # legitimately go missing.
                violations.append(
                    f"epoch {books.epoch} outcome "
                    f"{books.report.outcome!r} "
                    f"on a fault-free connected run"
                )
            if books.divergence is None:
                continue
            if (complete or config.static_grid) and books.divergence != 0.0:
                # A fully covered fault-free epoch must be bit-exact; an
                # epoch with a physical partition hole cannot be (the
                # missing device's data is unknowable), so divergence is
                # only gated when coverage was complete.
                violations.append(
                    f"epoch {books.epoch} diverges from the reference "
                    f"({books.divergence:.4f}) on a fault-free run"
                )
    if result.network is not None:
        sim = result.network[0]
        violations.extend(check_no_live_timers(sim))
    return violations
