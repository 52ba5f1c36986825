"""Data redistribution under mobility — the paper's second future-work
direction (Section 7): "extend the current strategies to retain good
performance while incorporating the redistribution of local relations
due to device mobility."

The problem: grid partitioning assigns each device the data of one cell,
but devices drift away from "their" cell under the random waypoint
model. The MBR pruning of Figure 4 still works (correctness is
unaffected — data, not devices, defines the MBR), yet locality degrades:
a query must reach a device far from the region it asks about, costing
hops and filtering power.

This module implements the natural repair: devices periodically hand
tuples to a neighbour that is closer to those tuples' locations.
Exchanges are pairwise, neighbour-to-neighbour (single-hop transfers —
nothing long-range), so the mechanism is implementable with exactly the
primitives the paper's setting offers.

:class:`RedistributionProcess` drives rounds inside a simulation;
:func:`redistribute_once` is the pure one-round kernel, also usable
offline for analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.net.messages import tuple_bytes
from repro.net.world import World
from repro.protocol.device import SkylineDevice
from repro.storage.relation import Relation

__all__ = [
    "RedistributionStats",
    "redistribute_once",
    "locality_score",
    "RedistributionProcess",
]


@dataclass
class RedistributionStats:
    """Accounting of one or more redistribution rounds."""

    rounds: int = 0
    tuples_moved: int = 0
    bytes_moved: int = 0

    def merge_round(self, moved: int, bytes_moved: int) -> None:
        """Record one completed round."""
        self.rounds += 1
        self.tuples_moved += moved
        self.bytes_moved += bytes_moved


def locality_score(
    relations: Sequence[Relation], positions: Sequence[Tuple[float, float]]
) -> float:
    """Mean distance between tuples and their hosting device.

    Lower is better; redistribution exists to push this down after
    mobility has pulled it up.
    """
    if len(relations) != len(positions):
        raise ValueError("one position per relation required")
    total = 0.0
    count = 0
    for rel, pos in zip(relations, positions):
        if rel.cardinality == 0:
            continue
        dx = rel.xy[:, 0] - pos[0]
        dy = rel.xy[:, 1] - pos[1]
        total += float(np.sqrt(dx * dx + dy * dy).sum())
        count += rel.cardinality
    return total / count if count else 0.0


def redistribute_once(
    relations: Sequence[Relation],
    positions: Sequence[Tuple[float, float]],
    neighbor_lists: Sequence[Sequence[int]],
    improvement: float = 1.0,
    ratio: float = 0.5,
) -> Tuple[List[Relation], int]:
    """One synchronous round of pairwise tuple hand-offs.

    Every device offers each of its tuples to the current neighbour
    closest to that tuple, and hands it over only when that neighbour is
    *substantially* closer: at least ``improvement`` metres gained AND
    the new distance below ``ratio`` of the old one. The multiplicative
    criterion is what keeps the mechanism from thrashing under
    continuous mobility — each hand-off at least halves (by default) a
    tuple's distance to its host, so a tuple can move only
    logarithmically often between topology changes. All offers are
    computed against the pre-round state, then applied at once.

    Args:
        relations: Current local relation per device.
        positions: Current device positions.
        neighbor_lists: Current single-hop neighbours per device.
        improvement: Minimum absolute distance gain in metres.
        ratio: Maximum allowed ``new_distance / old_distance``.

    Returns:
        ``(new_relations, tuples_moved)``.
    """
    m = len(relations)
    if not (len(positions) == len(neighbor_lists) == m):
        raise ValueError("relations, positions, neighbor_lists must align")
    if improvement < 0:
        raise ValueError("improvement must be >= 0")
    if not 0 < ratio <= 1:
        raise ValueError("ratio must be in (0, 1]")
    keep_masks: List[np.ndarray] = []
    incoming: Dict[int, List[Tuple[int, np.ndarray]]] = {i: [] for i in range(m)}
    moved = 0
    for device in range(m):
        rel = relations[device]
        n = rel.cardinality
        keep = np.ones(n, dtype=bool)
        neighbors = list(neighbor_lists[device])
        if n and neighbors:
            px, py = positions[device]
            own_dist = np.hypot(rel.xy[:, 0] - px, rel.xy[:, 1] - py)
            neigh_pos = np.array([positions[nb] for nb in neighbors])
            dx = rel.xy[:, 0][:, None] - neigh_pos[None, :, 0]
            dy = rel.xy[:, 1][:, None] - neigh_pos[None, :, 1]
            dists = np.sqrt(dx * dx + dy * dy)
            best = np.argmin(dists, axis=1)
            best_dist = dists[np.arange(n), best]
            give = (best_dist + improvement < own_dist) & (
                best_dist <= ratio * own_dist
            )
            for row in np.nonzero(give)[0]:
                target = neighbors[int(best[row])]
                incoming[target].append((device, np.asarray([row])))
                keep[row] = False
                moved += 1
        keep_masks.append(keep)

    new_relations: List[Relation] = []
    for device in range(m):
        rel = relations[device]
        parts = [rel.take(np.nonzero(keep_masks[device])[0])]
        for source, rows in incoming[device]:
            parts.append(relations[source].take(rows))
        merged = parts[0]
        for extra in parts[1:]:
            merged = merged.union(extra)
        new_relations.append(merged)
    return new_relations, moved


def _replaced_by(new: Relation, _current: Relation) -> Relation:
    """A round's data update: the round computed the next version."""
    return new


class RedistributionProcess:
    """Periodic redistribution inside a running simulation.

    Every ``period`` seconds each device hands misplaced tuples to the
    closest current neighbour. The wire cost of a round (each moved
    tuple at :func:`~repro.net.messages.tuple_bytes`) is counted in
    :attr:`stats`; no frame is sent, since no device would act on one.

    Devices keep processing queries throughout; their ``relation`` is
    swapped atomically between local computations.
    """

    def __init__(
        self,
        world: World,
        devices: Sequence[SkylineDevice],
        period: float = 300.0,
        improvement: float = 50.0,
        ratio: float = 0.5,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be > 0")
        self.world = world
        self.devices = list(devices)
        self.period = period
        self.improvement = improvement
        self.ratio = ratio
        self.stats = RedistributionStats()
        world.sim.schedule(period, self._round)

    def _round(self) -> None:
        relations = [d.relation for d in self.devices]
        positions = [self.world.position(d.node_id) for d in self.devices]
        neighbor_lists = [self.world.neighbors(d.node_id) for d in self.devices]
        new_relations, moved = redistribute_once(
            relations, positions, neighbor_lists, self.improvement, self.ratio
        )
        bytes_moved = 0
        if moved:
            bytes_moved = moved * tuple_bytes(self.devices[0].schema.dimensions)
            for device, new in zip(self.devices, new_relations):
                # a data update: bumps data_epoch, flushes the local cache
                device.apply_update(partial(_replaced_by, new))
        self.stats.merge_round(moved, bytes_moved)
        self.world.sim.schedule(self.period, self._round)
