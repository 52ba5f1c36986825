"""Deterministic data-update schedules: the event path that makes
continuous subscriptions non-trivial.

Tuple *sites* in this reproduction are static — device mobility changes
connectivity, never the answer — so the only thing that can change a
skyline over time is the data itself. A :class:`DataUpdateSchedule` is
the data-plane sibling of :class:`~repro.faults.schedule.FaultSchedule`:
an immutable, time-ordered list of :class:`UpdateEvent` entries, built
explicitly or drawn from one seeded generator, applied to a live run by
:class:`UpdateInjector`.

Because :class:`~repro.storage.relation.Relation` is immutable, an
update never mutates arrays in place: :func:`perturb_relation` builds a
*new* relation (same sites and coordinates, a seeded subset of rows
re-drawn within the schema's value bounds). The injector hands the
device that step as a function of the current version; the device bumps
its ``data_epoch`` at once but runs the step only when its relation is
next read. That is exact because :func:`perturb_relation` draws its
rows and values from the row count and the seed alone, never from the
values it replaces, and it is cheap because most updates land on
devices no subscription reads. An update is the only thing that can
change a subscriber's slice, so the continuous layer wakes a subscriber
at the next epoch boundary after one and lets it sleep otherwise: a
device with no update since its last report provably cannot change the
subscription answer.
"""

from __future__ import annotations

import bisect
import math
from functools import partial
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..storage.relation import Relation

__all__ = [
    "UpdateEvent",
    "DataUpdateSchedule",
    "UpdateInjector",
    "perturb_relation",
]


def perturb_relation(
    relation: Relation, fraction: float, seed: int,
    value_step: Optional[float] = None,
) -> Relation:
    """A new relation with a seeded subset of rows re-valued.

    Sites and coordinates are preserved (updates are value-only; a
    lightweight device's sensor re-reads, it does not teleport), so the
    spatial clause of a safe region survives any number of updates.

    Args:
        relation: Source relation (unchanged).
        fraction: Fraction of rows (rounded up, so any positive fraction
            changes at least one row of a non-empty relation) that get
            fresh values.
        seed: Determinism anchor for row choice and new values.
        value_step: Optional quantization step for the fresh values
            (match the dataset generator's ``value_step`` to keep the
            value universe consistent).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    n = relation.cardinality
    if n == 0 or fraction == 0.0:
        return relation
    rng = np.random.default_rng(seed)
    count = min(n, math.ceil(fraction * n))
    rows = rng.choice(n, size=count, replace=False)
    schema = relation.schema
    values = relation.values.copy()
    fresh = rng.random((count, schema.dimensions))
    # ``rng.uniform(lows, highs, size=...)``'s expression on the same
    # draws, quantized and clipped, one column at a time and in place.
    for j, (low, high) in enumerate(zip(schema.lows, schema.highs)):
        col = fresh[:, j]
        col *= high - low
        col += low
        if value_step is not None and value_step > 0:
            col -= low
            col /= value_step
            np.rint(col, out=col)
            col *= value_step
            col += low
            np.minimum(np.maximum(col, low, out=col), high, out=col)
    values[rows] = fresh
    return relation.with_values(values)


class UpdateEvent:
    """One scheduled data update on one device.

    Attributes:
        time: Simulation time at which the update lands.
        device: Target device id.
        fraction: Fraction of the device's rows that change.
        update_seed: Seed for :func:`perturb_relation` (drawn by
            :meth:`DataUpdateSchedule.generate`, or chosen by the test).
    """

    __slots__ = ("time", "device", "fraction", "update_seed")

    def __init__(
        self, time: float, device: int, fraction: float, update_seed: int
    ) -> None:
        if time < 0:
            raise ValueError("update time must be >= 0")
        if not 0.0 < fraction <= 1.0:
            raise ValueError("update fraction must be in (0, 1]")
        self.time = time
        self.device = device
        self.fraction = fraction
        self.update_seed = update_seed

    def signature(self) -> Tuple:
        """Hashable identity used for bit-for-bit trace comparisons."""
        return (self.time, self.device, self.fraction, self.update_seed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"UpdateEvent(t={self.time:.3f}, device={self.device}, "
            f"fraction={self.fraction:.3f})"
        )


#: Schedule order: by time, then device; ties keep insertion order.
_event_key = attrgetter("time", "device")


class DataUpdateSchedule:
    """An ordered collection of data-update events.

    Build one empty and chain :meth:`update`, or call :meth:`generate`
    for a randomized-but-deterministic schedule::

        updates = (DataUpdateSchedule()
                   .update(20.0, device=3, fraction=0.2)
                   .update(45.0, device=1, fraction=0.5))
    """

    def __init__(self, events: Sequence[UpdateEvent] = ()) -> None:
        self._events: List[UpdateEvent] = sorted(events, key=_event_key)

    # -- builders -----------------------------------------------------------

    def update(
        self, time: float, device: int, fraction: float,
        update_seed: Optional[int] = None,
    ) -> "DataUpdateSchedule":
        """Insert one update, keeping time order. Returns self.

        ``update_seed`` defaults to a stable function of the event's own
        coordinates, so explicitly built schedules replay bit-for-bit
        without the caller inventing seeds.
        """
        if update_seed is None:
            update_seed = (int(time * 1000) * 31 + device) & 0x7FFFFFFF
        bisect.insort(
            self._events, UpdateEvent(time, device, fraction, update_seed),
            key=_event_key,
        )
        return self

    # -- generation ---------------------------------------------------------

    @classmethod
    def generate(
        cls,
        node_count: int,
        sim_time: float,
        seed: int,
        updates: int,
        mean_fraction: float = 0.25,
        window: Optional[Tuple[float, float]] = None,
        protect: Sequence[int] = (),
    ) -> "DataUpdateSchedule":
        """Draw an update schedule from one seeded generator.

        Args:
            node_count: Devices in the simulation.
            sim_time: Horizon; every update lands inside ``[0, sim_time)``
                (or inside ``window`` when given).
            seed: Determinism anchor — same arguments, same schedule.
            updates: Number of update events to draw.
            mean_fraction: Mean of the exponential draw of each event's
                changed-row fraction (clamped to (0, 1]).
            window: Optional ``(start, end)`` interval constraining
                update times.
            protect: Device ids that never receive updates (e.g. an
                originator a test wants bit-stable).
        """
        if node_count <= 0:
            raise ValueError("node_count must be > 0")
        if updates < 0:
            raise ValueError("updates must be >= 0")
        lo, hi = window if window is not None else (0.0, sim_time)
        if not 0 <= lo < hi <= sim_time:
            raise ValueError("window must satisfy 0 <= start < end <= sim_time")
        rng = np.random.default_rng(seed)
        eligible = [n for n in range(node_count) if n not in set(protect)]
        if not eligible:
            raise ValueError("every device is protected; nothing to update")
        events = []
        for _ in range(updates):
            device = eligible[int(rng.integers(len(eligible)))]
            time = float(rng.uniform(lo, hi))
            fraction = min(1.0, max(1e-3, float(
                rng.exponential(mean_fraction)
            )))
            update_seed = int(rng.integers(0, 2**31 - 1))
            events.append(UpdateEvent(time, device, fraction, update_seed))
        return cls(events)

    # -- access -------------------------------------------------------------

    @property
    def events(self) -> Tuple[UpdateEvent, ...]:
        """All events in time order."""
        return tuple(self._events)

    def signature(self) -> Tuple[Tuple, ...]:
        """Bit-for-bit identity of the whole schedule."""
        return tuple(e.signature() for e in self._events)

    def updated_devices(self) -> List[int]:
        """Distinct devices updated at least once, sorted."""
        return sorted({e.device for e in self._events})

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)


class UpdateInjector:
    """Applies a :class:`DataUpdateSchedule` to live devices.

    Each event hands the target device's ``apply_update`` hook a
    :func:`perturb_relation` step with the event's fraction and seed.
    The hook bumps the device's ``data_epoch`` at once; the step runs
    when the device's relation is next read, so an update nothing reads
    costs nothing. Crashed devices still receive updates — the data
    lives on the device's storage, not in its volatile protocol state,
    and fail-stop crashes lose the latter only.

    Every applied event is appended to :attr:`applied`, mirroring
    :class:`~repro.faults.injector.FaultInjector`'s deterministic trace
    contract.
    """

    def __init__(self, schedule: DataUpdateSchedule,
                 value_step: Optional[float] = None) -> None:
        self.schedule = schedule
        self.value_step = value_step
        self.applied: List[Tuple] = []
        self._devices: Optional[Dict[int, object]] = None
        self._world = None

    def install(self, world, devices: Sequence) -> "UpdateInjector":
        """Schedule every update on the world's engine. Returns self."""
        if self._devices is not None:
            raise RuntimeError("injector already installed")
        self._world = world
        self._devices = {d.node_id: d for d in devices}
        for event in self.schedule:
            world.sim.schedule_at(event.time, self._apply, event)
        return self

    def _apply(self, event: UpdateEvent) -> None:
        device = self._devices.get(event.device)
        effective = device is not None
        if device is not None:
            device.apply_update(partial(
                perturb_relation, fraction=event.fraction,
                seed=event.update_seed, value_step=self.value_step,
            ))
            if self._world.obs.enabled:
                self._world.obs.event(
                    "data.updated", node=event.device,
                    epoch=device.data_epoch, fraction=event.fraction,
                )
        self.applied.append(event.signature() + (effective,))

    def applied_signature(self) -> Tuple[Tuple, ...]:
        """Bit-for-bit identity of everything applied so far."""
        return tuple(self.applied)
