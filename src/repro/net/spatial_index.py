"""Epoch-cached spatial neighbor index for the wireless world.

Every hop of BF/DF query processing asks the world a connectivity
question (``neighbors``, ``neighbor_map``, ``reachable_from``, and
``broadcast`` through ``neighbors``), and the
naive answer recomputes all pairwise positions and distances from the
mobility model — O(m²) random-waypoint evaluations per question. This
module memoises the answer per simulation time:

* **Position layer** — one ``mobility.positions(t)`` sweep per distinct
  simulation time yields the full ``(node_count, 2)`` position array,
  shared by every geometric query at that time.
* **Row layer** — a lone ``neighbors(src)`` between full builds (the
  broadcast hot path: one row per wave) is answered by a single
  vectorised distance row against the position memo, without paying for
  the full all-pairs adjacency. Rows are cached per key; once enough
  distinct rows are requested at one key the index switches to a full
  build and amortises.
* **Grid layer** — a uniform spatial hash with cell size equal to the
  radio range. Two nodes can only be in range if their cells are
  adjacent (Chebyshev distance <= 1), so adjacency construction inspects
  each cell pair once instead of every node pair: the same
  comparison-space pruning the skyline literature applies to dominance
  tests, applied here to unit-disk neighborhood tests. The bulk build
  enumerates all candidate pairs with array arithmetic (no Python loop
  over cells or pairs), applies the fault rule to the in-range pairs,
  and emits one CSR adjacency: the fault-aware one, the only adjacency
  a run reads. The differential suite pins it bit-identical to a
  Python-loop build kept as a test oracle.
* **Epoch layer** — fault state (crashed nodes, link blackouts,
  partitions) and topology changes (late ``attach``) bump a generation
  counter; the adjacency cache is keyed on ``(sim.now, epoch,
  radio_range)`` so fault injection can never be served a stale
  connectivity answer. For a static mobility model
  (:attr:`~repro.net.mobility.MobilityModel.static`) the time is left
  out of every key: positions are computed once and adjacency is built
  once per epoch, however many distinct times the simulation visits.
* **Reachability memo** — each :meth:`NeighborIndex.reachable_from`
  closure is kept per (adjacency key, node) until the next build, and
  callers get a copy.

Determinism contract: neighbor lists are sorted by node id, so BFS
order, broadcast delivery order, and therefore event sequence numbers
depend only on the topology — never on the order nodes were attached.
The in-range predicate is the squared-distance test
``dx*dx + dy*dy <= r*r`` evaluated in IEEE float64, so the vectorised
build answers exactly as per-pair scalar tests would.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .world import World

__all__ = ["NeighborIndex"]

#: Half of the 3x3 Moore neighborhood: together with the in-cell pass,
#: these offsets visit every unordered pair of adjacent cells exactly once.
_HALF_NEIGHBORHOOD = ((1, 0), (0, 1), (1, 1), (1, -1))

#: Distinct single-row queries tolerated per adjacency key before the
#: index gives up on lazy rows and performs the full bulk build.
_ROW_BUILD_THRESHOLD = 8

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def _cross_pairs(
    starts_a: np.ndarray,
    counts_a: np.ndarray,
    starts_b: np.ndarray,
    counts_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (i, j) index pairs of the cartesian products of matched
    groups, fully vectorised: group k contributes ``counts_a[k] *
    counts_b[k]`` pairs drawn from consecutive index ranges."""
    per = counts_a * counts_b
    total = int(per.sum())
    if total == 0:
        return _EMPTY_I64, _EMPTY_I64
    reps = np.repeat(np.arange(per.size), per)
    offs = np.arange(total) - np.repeat(np.cumsum(per) - per, per)
    ai = starts_a[reps] + offs // counts_b[reps]
    bi = starts_b[reps] + offs % counts_b[reps]
    return ai, bi


class NeighborIndex:
    """Per-simulation-time memo of positions and fault-aware adjacency.

    The index is owned by a :class:`~repro.net.world.World` and consults
    the world's live fault state (``_down``, ``_blackouts``) at rebuild
    time; the world bumps :attr:`epoch` via :meth:`invalidate` whenever
    that state (or the attached-node set) changes.

    Args:
        world: The owning world, held through a weak proxy.
    """

    def __init__(self, world: "World") -> None:
        self._world = weakref.proxy(world)
        self._sim = world.sim
        self._static = world.mobility.static
        self._epoch = 0
        self._rebuilds = 0
        # position layer, keyed by simulation time only (mobility does
        # not depend on fault state or attachment)
        self._pos_time: Optional[float] = None
        self._pos: Optional[np.ndarray] = None
        # adjacency layer, keyed by (time, epoch, radio range)
        self._adj_key: Optional[Tuple[float, int, float]] = None
        # reachable_from closures of the current adjacency, by node
        self._reach: Dict[int, set] = {}
        # fault-aware CSR adjacency in index space over the sorted
        # attached-id array, plus lazily materialised lists
        self._ids: Optional[np.ndarray] = None
        self._ids_epoch = -1
        self._ids_arange = True
        self._idx_of: Optional[Dict[int, int]] = None
        self._indptr: Optional[np.ndarray] = None
        self._nbr: Optional[np.ndarray] = None
        self._lists: Dict[int, List[int]] = {}
        # lazy row cache
        self._row_key: Optional[Tuple[float, int, float]] = None
        self._rows: Dict[int, List[int]] = {}

    # -- invalidation -------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Current connectivity generation; bumps invalidate the cache."""
        return self._epoch

    @property
    def rebuilds(self) -> int:
        """Full adjacency rebuilds performed so far (cache diagnostics;
        lazy row answers do not count)."""
        return self._rebuilds

    def invalidate(self) -> None:
        """Bump the epoch: the next query rebuilds adjacency.

        Cached positions survive — they depend only on simulation time.
        """
        self._epoch += 1
        self._adj_key = None

    # -- position layer -----------------------------------------------------

    def _now(self) -> float:
        """The time component of every cache key: the simulation time,
        or a constant for a static mobility model."""
        return 0.0 if self._static else self._sim.now

    def positions(self) -> np.ndarray:
        """All node positions at the current simulation time.

        One vectorised mobility sweep per distinct time (one in all for
        a static model); the returned array is the cache itself — treat
        it as read-only.
        """
        t = self._now()
        if self._pos_time != t or self._pos is None:
            self._pos = self._world.mobility.positions(self._sim.now)
            self._pos_time = t
        return self._pos

    # -- adjacency layer ----------------------------------------------------

    def _key(self) -> Tuple[float, int, float]:
        return (self._now(), self._epoch, self._world.radio.radio_range)

    def neighbors(self, node: int) -> List[int]:
        """Fault-aware neighbor ids of ``node``, sorted ascending.

        The list is the cache's own — callers must not mutate it.

        Raises:
            ValueError: ``node`` is not attached to the world.
        """
        if node not in self._world._nodes:
            raise ValueError(f"unknown node {node}")
        key = self._key()
        if self._adj_key == key:
            return self._list(node)
        if self._row_key != key:
            self._row_key = key
            self._rows = {}
        hit = self._rows.get(node)
        if hit is not None:
            return hit
        if len(self._rows) >= _ROW_BUILD_THRESHOLD:
            self._build(key)
            return self._list(node)
        row = self._compute_row(node)
        self._rows[node] = row
        return row

    def reachable_from(self, node: int) -> set:
        """Transitive fault-aware closure of ``node`` (BFS, includes it).

        Memoised until the next adjacency build; the caller owns the
        returned set.
        """
        self._ensure()
        hit = self._reach.get(node)
        if hit is None:
            hit = self._reachable_bulk(node)
            self._reach[node] = hit
        return set(hit)

    def _reachable_bulk(self, node: int) -> set:
        indptr = self._indptr
        nbr = self._nbr
        n = len(self._ids)
        seen = np.zeros(n, dtype=bool)
        start = self._idx(node)
        seen[start] = True
        frontier = np.array([start], dtype=np.int64)
        # Vectorised frontier expansion: gather every frontier node's
        # CSR slice in one pass, mask out already-seen targets, dedup.
        while frontier.size:
            starts = indptr[frontier]
            cnts = indptr[frontier + 1] - starts
            total = int(cnts.sum())
            if total == 0:
                break
            reps = np.repeat(np.arange(frontier.size), cnts)
            offs = np.arange(total) - np.repeat(np.cumsum(cnts) - cnts, cnts)
            targets = nbr[starts[reps] + offs]
            fresh = targets[~seen[targets]]
            if fresh.size == 0:
                break
            frontier = np.unique(fresh)
            seen[frontier] = True
        return set(self._ids[np.flatnonzero(seen)].tolist())

    # -- builds -------------------------------------------------------------

    def _ensure(self) -> None:
        key = self._key()
        if self._adj_key == key:
            return
        self._build(key)

    def _ids_array(self) -> np.ndarray:
        if self._ids_epoch != self._epoch or self._ids is None:
            ids = sorted(self._world._nodes)
            arr = np.asarray(ids, dtype=np.int64)
            self._ids = arr
            self._ids_epoch = self._epoch
            n = len(arr)
            self._ids_arange = bool(n == 0 or (int(arr[-1]) == n - 1))
            self._idx_of = (
                None if self._ids_arange
                else {int(v): k for k, v in enumerate(arr)}
            )
        return self._ids

    def _idx(self, node: int) -> int:
        return node if self._ids_arange else self._idx_of[node]

    def _compute_row(self, node: int) -> List[int]:
        """One node's fault-aware neighbor list from a single vectorised
        distance row — no grid, no all-pairs work. The in-range
        candidates pass through the world's fault rule one by one."""
        world = self._world
        pos = self.positions()
        ids = self._ids_array()
        r = world.radio.radio_range
        sub = pos[ids]
        x = pos[node, 0]
        y = pos[node, 1]
        dx = sub[:, 0] - x
        dy = sub[:, 1] - y
        mask = (dx * dx + dy * dy) <= r * r
        fault_free = world._fault_free

        def position(k: int) -> tuple:
            return (float(pos[k, 0]), float(pos[k, 1]))

        return [
            j for j in ids[mask].tolist()
            if j != node and fault_free(node, j, position)
        ]

    def _list(self, node: int) -> List[int]:
        lst = self._lists.get(node)
        if lst is None:
            i = self._idx(node)
            sl = self._nbr[self._indptr[i]:self._indptr[i + 1]]
            lst = self._ids[sl].tolist()
            self._lists[node] = lst
        return lst

    def _build(self, key: Tuple[float, int, float]) -> None:
        """Vectorised full build: grid bucketing, candidate-pair
        enumeration, range testing and the fault rule all happen in
        array arithmetic; the result is the fault-aware CSR adjacency."""
        self._reach = {}
        world = self._world
        pos_all = self.positions()
        ids = self._ids_array()
        n = len(ids)
        r = world.radio.radio_range
        if n == 0:
            self._install_bulk(_EMPTY_I64, _EMPTY_I64, 0)
            self._adj_key = key
            self._rebuilds += 1
            return
        pos = pos_all[ids]
        cx = np.floor(pos[:, 0] / r).astype(np.int64)
        cy = np.floor(pos[:, 1] / r).astype(np.int64)
        # Collision-free cell keys with a one-cell guard band so the
        # +-1 neighbor offsets can never wrap into another row.
        kx = cx - cx.min() + 1
        ky = cy - cy.min() + 1
        width = int(ky.max()) + 2
        cell_key = kx * width + ky
        order = np.argsort(cell_key, kind="stable")
        sorted_keys = cell_key[order]
        bounds = np.flatnonzero(
            np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        )
        ukeys = sorted_keys[bounds]
        starts = bounds.astype(np.int64)
        counts = np.diff(np.concatenate((starts, [n])))

        pair_a = []
        pair_b = []
        ai, bi = _cross_pairs(starts, counts, starts, counts)
        same = ai < bi  # each unordered in-cell pair exactly once
        pair_a.append(ai[same])
        pair_b.append(bi[same])
        for ox, oy in _HALF_NEIGHBORHOOD:
            want = ukeys + ox * width + oy
            j = np.searchsorted(ukeys, want)
            j_clip = np.minimum(j, len(ukeys) - 1)
            matched = ukeys[j_clip] == want
            if not matched.any():
                continue
            ai, bi = _cross_pairs(
                starts[matched], counts[matched],
                starts[j_clip[matched]], counts[j_clip[matched]],
            )
            pair_a.append(ai)
            pair_b.append(bi)
        a = order[np.concatenate(pair_a)]
        b = order[np.concatenate(pair_b)]
        dx = pos[a, 0] - pos[b, 0]
        dy = pos[a, 1] - pos[b, 1]
        hits = (dx * dx + dy * dy) <= r * r
        a = a[hits]
        b = b[hits]

        # The world's fault rule (``World._fault_free``) in array form:
        # both endpoints up, no blackout, same side of every partition
        # cut — all tested at the pair level.
        valid = np.ones(len(a), dtype=bool)
        down = world._down
        if down:
            up = np.ones(n, dtype=bool)
            darr = np.asarray(sorted(down), dtype=np.int64)
            pos_in = np.searchsorted(ids, darr)
            ok = pos_in < n
            ok[ok] = ids[pos_in[ok]] == darr[ok]
            up[pos_in[ok]] = False
            valid &= up[a] & up[b]
        partitions = world._partitions
        if partitions:
            side = np.empty((n, len(partitions)), dtype=bool)
            for k, (axis, coord) in enumerate(partitions):
                side[:, k] = pos[:, 0 if axis == "x" else 1] >= coord
            valid &= (side[a] == side[b]).all(axis=1)
        blackouts = world._blackouts
        if blackouts:
            attached = world._nodes
            encode_base = int(ids[-1]) + 1
            bl = [
                lo * encode_base + hi
                for lo, hi in (sorted(link) for link in blackouts)
                if lo in attached and hi in attached
            ]
            if bl:
                ida = ids[a]
                idb = ids[b]
                lo = np.minimum(ida, idb)
                hi = np.maximum(ida, idb)
                enc = lo * encode_base + hi
                valid &= ~np.isin(enc, np.asarray(bl, dtype=np.int64))

        self._install_bulk(a[valid], b[valid], n)
        self._adj_key = key
        self._rebuilds += 1

    def _install_bulk(self, a: np.ndarray, b: np.ndarray, n: int) -> None:
        self._indptr, self._nbr = self._csr(a, b, n)
        self._lists = {}

    @staticmethod
    def _csr(a: np.ndarray, b: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Symmetrise undirected index pairs into CSR adjacency with
        neighbor runs sorted ascending (the determinism contract)."""
        src = np.concatenate((a, b))
        dst = np.concatenate((b, a))
        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return indptr, dst
