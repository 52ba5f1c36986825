"""Deterministic data-update schedules: the event path that makes
continuous subscriptions non-trivial.

Tuple *sites* in this reproduction are static — device mobility changes
connectivity, never the answer — so the only thing that can change a
skyline over time is the data itself. A :class:`DataUpdateSchedule` is
the data-plane sibling of :class:`~repro.faults.schedule.FaultSchedule`:
an immutable, time-ordered list of :class:`UpdateEvent` entries (the
continuous runner draws one per run from its seed), applied to a live
run by :class:`UpdateInjector`.

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
        update_seed: Seed for :func:`perturb_relation`.
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
    """An ordered collection of data-update events: by time, then
    device, ties in the order given."""

    def __init__(self, events: Sequence[UpdateEvent] = ()) -> None:
        self._events: List[UpdateEvent] = sorted(events, key=_event_key)

    # -- access -------------------------------------------------------------

    def signature(self) -> Tuple[Tuple, ...]:
        """Bit-for-bit identity of the whole schedule."""
        return tuple(e.signature() for e in self._events)

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
