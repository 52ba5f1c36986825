"""Reference twins of the wireless world's connectivity and delivery.

Three :class:`~repro.net.world.World` subclasses, each swapping one fast
path back to the straightforward implementation it replaced:

* :class:`UncachedWorld` answers every connectivity question with scalar
  mobility lookups and O(m²) pairwise tests, bypassing the neighbor
  index, its position memo and its candidate window: unicast link
  checks included. The same answers are available for any world
  through :func:`uncached_in_range`, :func:`uncached_can_communicate`,
  :func:`uncached_neighbors` and :func:`uncached_reachable_from`.
* :class:`PerReceiverWorld` schedules one engine event per broadcast
  receiver instead of one per delivery wave.
* :class:`ReferenceIndexWorld` runs the Python-loop neighbor-index build
  (:class:`~tests.oracles.spatial_index.ReferenceNeighborIndex`).

Whole-run differential tests install one of them in place of ``World``
(see :func:`install_world`) and require results, traffic, energy and
telemetry identical to the default world.
"""

from __future__ import annotations

from typing import List

from repro.net.messages import Frame
from repro.net.world import World

from .spatial_index import ReferenceNeighborIndex

__all__ = [
    "UncachedWorld",
    "uncached_in_range",
    "uncached_can_communicate",
    "uncached_neighbors",
    "uncached_reachable_from",
    "PerReceiverWorld",
    "ReferenceIndexWorld",
    "install_world",
]


def uncached_position(world, node: int) -> tuple:
    return world.mobility.position(node, world.sim.now)


def uncached_in_range(world, a: int, b: int) -> bool:
    if a == b:
        return False
    pa = uncached_position(world, a)
    pb = uncached_position(world, b)
    dx = pa[0] - pb[0]
    dy = pa[1] - pb[1]
    r = world.radio.radio_range
    return dx * dx + dy * dy <= r * r


def uncached_can_communicate(world, a: int, b: int) -> bool:
    if a == b or a in world._down or b in world._down:
        return False
    if frozenset((a, b)) in world._blackouts:
        return False
    pa = uncached_position(world, a)
    pb = uncached_position(world, b)
    dx = pa[0] - pb[0]
    dy = pa[1] - pb[1]
    r = world.radio.radio_range
    if dx * dx + dy * dy > r * r:
        return False
    return not world._partitions or world._same_partition_side(pa, pb)


def uncached_neighbors(world, node: int) -> List[int]:
    return [
        other
        for other in sorted(world._nodes)
        if uncached_can_communicate(world, node, other)
    ]


def uncached_reachable_from(world, node: int) -> set:
    seen = {node}
    frontier = [node]
    while frontier:
        nxt = []
        for current in frontier:
            for other in uncached_neighbors(world, current):
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return seen


class UncachedWorld(World):
    """Connectivity from scalar mobility lookups, without the index."""

    def position(self, node: int) -> tuple:
        return uncached_position(self, node)

    def in_range(self, a: int, b: int) -> bool:
        return uncached_in_range(self, a, b)

    def can_communicate(self, a: int, b: int) -> bool:
        return uncached_can_communicate(self, a, b)

    def neighbors(self, node: int) -> List[int]:
        return uncached_neighbors(self, node)

    def reachable_from(self, node: int) -> set:
        if node not in self._nodes:
            raise ValueError(f"unknown node {node}")
        return uncached_reachable_from(self, node)


class PerReceiverWorld(World):
    """Broadcasts schedule one delivery event per receiver."""

    def broadcast(self, frame: Frame) -> List[int]:
        if frame.dst is not None:
            raise ValueError("broadcast frames must have dst=None")
        if frame.src not in self._nodes:
            raise ValueError(f"unknown source node {frame.src}")
        if frame.src in self._down:
            return []
        self.stats.record_send(frame)
        self._charge_tx(frame)
        if self.obs.enabled:
            self.obs.frame_sent(frame)
        receivers = []
        delay = self.radio.transfer_delay(frame.size_bytes)
        for other in self.neighbors(frame.src):
            if self._lossy():
                self.stats.drops += 1
                if self.obs.enabled:
                    self.obs.frame_dropped(frame, other, "loss")
                continue
            receivers.append(other)
            self.sim.schedule(
                self._jittered(delay), self._deliver_broadcast, other, frame
            )
            if self._duplicated():
                self.stats.duplicates += 1
                if self.obs.enabled:
                    self.obs.frame_duplicated(frame)
                self.sim.schedule(
                    self._jittered(delay), self._deliver_broadcast, other, frame
                )
        return receivers

    def _deliver_broadcast(self, node: int, frame: Frame) -> None:
        # Fault re-check only (no mobility re-check, matching the
        # original broadcast semantics): a receiver that crashed or lost
        # its link mid-flight hears nothing.
        if (
            node in self._down
            or frozenset((frame.src, node)) in self._blackouts
        ):
            self.stats.drops += 1
            if self.obs.enabled:
                self.obs.frame_dropped(frame, node, "fault")
            return
        self.stats.deliveries += 1
        meter = self.energy_meters.get(node)
        if meter is not None:
            meter.on_receive(frame.size_bytes)
        if self.obs.enabled:
            self.obs.frame_delivered(frame, node)
        self._nodes[node].on_frame(frame, frame.src)


class ReferenceIndexWorld(World):
    """Connectivity from the Python-loop neighbor-index build."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._index = ReferenceNeighborIndex(self)


def install_world(monkeypatch, world_cls: type) -> None:
    """Make every whole-run builder construct ``world_cls``: one-shot
    and continuous runs both build their network with
    :func:`~repro.protocol.coordinator.build_network`."""
    monkeypatch.setattr("repro.protocol.coordinator.World", world_cls)
