"""Reference neighbor-index build and loop BFS.

:class:`ReferenceNeighborIndex` is the Python-loop adjacency build the
vectorised CSR build of :class:`repro.net.spatial_index.NeighborIndex`
replaced: a dict of grid cells, per-pair appends, and per-node fault
filtering into plain sorted lists. :func:`reachable_from_lists` is the
loop BFS the vectorised frontier expansion replaced. Both share the
live index's keys, epochs and position memo, so a differential test
compares only the part that was rewritten.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.net.spatial_index import _HALF_NEIGHBORHOOD, NeighborIndex

__all__ = ["ReferenceNeighborIndex", "reachable_from_lists"]


def reachable_from_lists(index: NeighborIndex, node: int) -> set:
    """Python-loop BFS over ``index.neighbors``, for either build."""
    index._ensure()
    seen = {node}
    frontier = [node]
    while frontier:
        nxt = []
        for current in frontier:
            for other in index.neighbors(current):
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return seen


class ReferenceNeighborIndex(NeighborIndex):
    """The index with its adjacency built by Python loops into lists."""

    def __init__(self, world) -> None:
        super().__init__(world)
        self._eff: Dict[int, List[int]] = {}

    def neighbors(self, node: int) -> List[int]:
        if node not in self._world._nodes:
            return super().neighbors(node)
        self._ensure()
        return self._eff[node]

    def reachable_from(self, node: int) -> set:
        self._ensure()
        hit = self._reach.get(node)
        if hit is None:
            hit = reachable_from_lists(self, node)
            self._reach[node] = hit
        return set(hit)

    def _build(self, key: Tuple[float, int, float]) -> None:
        self._build_reference(key)
        self._reach = {}

    def _build_reference(self, key: Tuple[float, int, float]) -> None:
        """The original Python-loop build (cells dict, per-pair appends,
        per-node fault filtering) — the reference the bulk build is
        differentially tested against."""
        world = self._world
        pos = self.positions()
        ids = sorted(world._nodes)
        r = world.radio.radio_range
        r2 = r * r
        geom: Dict[int, List[int]] = {i: [] for i in ids}

        # Spatial hash: cell side = radio range, so candidates live in
        # the 3x3 neighborhood of a node's cell.
        cells: Dict[Tuple[int, int], List[int]] = {}
        for i in ids:
            cell = (
                int(math.floor(pos[i, 0] / r)),
                int(math.floor(pos[i, 1] / r)),
            )
            cells.setdefault(cell, []).append(i)

        cand_a: List[int] = []
        cand_b: List[int] = []
        for (cx, cy), members in cells.items():
            for idx, u in enumerate(members):
                for v in members[idx + 1:]:
                    cand_a.append(u)
                    cand_b.append(v)
            for ox, oy in _HALF_NEIGHBORHOOD:
                other = cells.get((cx + ox, cy + oy))
                if not other:
                    continue
                for u in members:
                    for v in other:
                        cand_a.append(u)
                        cand_b.append(v)
        if cand_a:
            a = np.asarray(cand_a, dtype=np.int64)
            b = np.asarray(cand_b, dtype=np.int64)
            dx = pos[a, 0] - pos[b, 0]
            dy = pos[a, 1] - pos[b, 1]
            hits = (dx * dx + dy * dy) <= r2
            for u, v in zip(a[hits], b[hits]):
                geom[int(u)].append(int(v))
                geom[int(v)].append(int(u))

        down = world._down
        blackouts = world._blackouts
        partitions = world._partitions
        # Partition cuts assign every node a side signature; two nodes
        # communicate only when their signatures match. The >= test on
        # the memoised float64 positions is identical to the scalar
        # reference path in World._same_partition_side.
        side: Dict[int, Tuple[bool, ...]] = {}
        if partitions:
            for i in ids:
                side[i] = tuple(
                    bool(pos[i, 0 if axis == "x" else 1] >= coord)
                    for axis, coord in partitions
                )
        eff: Dict[int, List[int]] = {}
        for i in ids:
            geom[i].sort()
            if i in down:
                eff[i] = []
            elif blackouts or partitions:
                eff[i] = [
                    j
                    for j in geom[i]
                    if j not in down
                    and frozenset((i, j)) not in blackouts
                    and (not partitions or side[j] == side[i])
                ]
            elif down:
                eff[i] = [j for j in geom[i] if j not in down]
            else:
                eff[i] = geom[i][:]
        self._eff = eff
        self._adj_key = key
        self._rebuilds += 1
