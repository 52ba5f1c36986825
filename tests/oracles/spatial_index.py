"""Reference neighbor-index build, loop BFS and all-pairs window.

:class:`ReferenceNeighborIndex` is a Python-loop adjacency build: a
dict of grid cells, per-pair appends, and per-node fault filtering into
plain sorted lists. :func:`reachable_from_lists` is a loop BFS over any
index's rows. Both share the live index's keys, epochs and position
memo, so a differential test compares only the adjacency and the
traversal. :func:`window_lists` enumerates all pairs of scalar mobility
positions in a Python loop: the candidate lists and ``t_c`` rows the
window's array pass must give.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.net.spatial_index import _SLACK, SKIN, NeighborIndex

__all__ = ["ReferenceNeighborIndex", "reachable_from_lists", "window_lists"]

#: Half of the 3x3 Moore neighborhood: together with the cell itself,
#: these offsets visit every unordered pair of adjacent cells exactly once.
_HALF_NEIGHBORHOOD = ((1, 0), (0, 1), (1, 1), (1, -1))


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


def window_lists(
    index: NeighborIndex,
) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
    """Every attached node's candidates in the open window, and the
    nodes within the radio range at ``t_c`` before the fault rule, by
    testing every pair of scalar mobility positions at ``t_c``."""
    world = index._world
    r = world.radio.radio_range
    reach = r + SKIN * r
    reach2 = reach * reach * (1.0 + _SLACK)
    at = {
        i: world.mobility.position(i, index._cand_time)
        for i in sorted(world._nodes)
    }
    cands: Dict[int, List[int]] = {i: [] for i in at}
    near: Dict[int, List[int]] = {i: [] for i in at}
    for i, (xi, yi) in at.items():
        for j, (xj, yj) in at.items():
            if i == j:
                continue
            dx = xi - xj
            dy = yi - yj
            d2 = dx * dx + dy * dy
            if d2 <= reach2:
                cands[i].append(j)
            if d2 <= r * r:
                near[i].append(j)
    return cands, near


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
