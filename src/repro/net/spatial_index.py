"""Epoch-cached spatial neighbor index for the wireless world.

Every hop of BF/DF query processing asks the world a connectivity
question (``neighbors``, ``reachable_from``, ``broadcast`` through
``neighbors``, and the unicast link test through ``in_range``), and the
naive answer recomputes all pairwise positions and distances from the
mobility model — O(m²) random-waypoint evaluations per question. This
module answers from a few layers of memo:

* **Candidate layer** — Verlet neighbour lists (Verlet 1967). A
  window opens at time ``t_c`` with the positions at ``t_c`` and
  nothing else; each node's list is made by its first row in the
  window, with one vectorised distance test against those positions.
  It holds the nodes within ``r + skin`` (``skin = SKIN * r``) at
  ``t_c``: every node that can come within ``r`` before
  ``t_c ± skin / (2 * max_speed)``, since two nodes close at most
  ``2 * max_speed`` (:attr:`~repro.net.mobility.MobilityModel.max_speed`).
  A static model's window never closes. The lists depend only on the
  attached ids and the radio range: fault transitions keep them,
  because the fault rule is applied when a question is answered.
* **Row layer** — a lone ``neighbors(src)`` (the broadcast hot path:
  one row per wave, almost always at a new time) tests only that
  node's candidates, each by the pair rule below, then the world's
  scalar fault rule: no position sweep and no array work per row once
  the node has its list. Rows are cached per adjacency key.
* **Pair layer** — :meth:`NeighborIndex.in_range` and a row's
  candidates read the window's positions at ``t_c``, kept as Python
  floats. Two nodes close or part at most ``2 * max_speed``, so a pair
  whose window distance is outside ``r`` plus or minus that drift
  (padded, :meth:`NeighborIndex._band`) has the answer it had at
  ``t_c``; only a pair inside the band pays scalar mobility lookups
  and the exact test. A static model answers from its fixed positions.
  A pair question never opens a window.
* **Full adjacency** — ``reachable_from`` reads one CSR adjacency.
  Its build sweeps all positions once (the position memo, one
  ``mobility.positions(t)`` per distinct time), enumerates
  the pairs of a uniform spatial hash with cell size equal to the
  radio range, range-tests them in one vectorised pass, and applies
  the fault rule in array form. Two nodes in range lie in adjacent
  cells (Chebyshev distance <= 1), so the pass inspects each cell pair
  once instead of every node pair — the comparison-space pruning the
  skyline literature applies to dominance tests, applied here to
  unit-disk neighborhood tests — with array arithmetic and no Python
  loop over cells or pairs. The differential suite pins it
  bit-identical to a Python-loop build kept as a test oracle.
* **Epoch layer** — fault state (crashed nodes, link blackouts,
  partitions) and topology changes (late ``attach``) bump a generation
  counter; rows and the adjacency are keyed on ``(sim.now, epoch,
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
``dx*dx + dy*dy <= r*r`` evaluated in IEEE float64 on positions that
the scalar and vectorised mobility paths give bit for bit, so rows and
the vectorised build answer exactly as per-pair scalar tests would.
"""

from __future__ import annotations

import math
import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .world import World

__all__ = ["NeighborIndex", "SKIN"]

#: Half of the 3x3 Moore neighborhood: together with the cell itself,
#: these offsets visit every unordered pair of adjacent cells exactly once.
_HALF_NEIGHBORHOOD = ((1, 0), (0, 1), (1, 1), (1, -1))

#: Verlet skin as a fraction of the radio range: candidates are listed
#: out to ``(1 + SKIN) * r``. At r=250 m and 10 m/s a list lasts
#: 125 m / 20 m/s = 6.25 s. Timed against 0.25 and 1.0 on ``paper_bf``
#: and at m=1,600 (``docs/performance.md``, *In-run versus isolated
#: cost*): ``paper_bf`` cannot tell the three apart, a thinner skin
#: opens windows more often where rows are sparse, and a thicker one
#: lists more candidates per row.
SKIN = 0.5

#: Relative padding of the squared candidate radius. Positions are
#: float interpolations along legs whose durations were themselves
#: rounded, so a computed position can sit a few ulps off the exact
#: trajectory and a trip can run an ulp above ``max_speed``. The bound
#: behind a candidate window is exact only in real arithmetic; this pad,
#: orders of magnitude above those errors, keeps a pair that comes into
#: range at the window's end from falling out of the list. The band of
#: a pair question is padded by ``_SLACK * r`` for the same reason.
_SLACK = 1e-6


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(s, s + c)`` over the pairs of
    ``starts`` and ``counts``, without a Python loop."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - (ends - counts), counts)


def _squared_distances(pos: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``dx*dx + dy*dy`` between rows ``a`` and ``b`` of ``pos``, gathered
    from contiguous coordinate columns."""
    x = np.ascontiguousarray(pos[:, 0])
    y = np.ascontiguousarray(pos[:, 1])
    dx = x.take(a)
    dx -= x.take(b)
    dy = y.take(a)
    dy -= y.take(b)
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _grid_pairs(pos: np.ndarray, radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """Every unordered pair of rows of ``pos`` in the same or adjacent
    cells of a grid of side ``radius``, each pair once: a superset of
    the pairs within ``radius`` of each other."""
    n = pos.shape[0]
    cx = np.floor(pos[:, 0] / radius).astype(np.int64)
    cy = np.floor(pos[:, 1] / radius).astype(np.int64)
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
    # Every occupied cell against itself and its half neighborhood, in
    # one pass. Each offset is positive in key space, so a neighbor
    # cell's rows come after the cell's own in sorted order: ``a < b``
    # keeps every cross pair and each in-cell pair once.
    offsets = np.array([0] + [ox * width + oy for ox, oy in _HALF_NEIGHBORHOOD])
    want = (ukeys[:, None] + offsets).ravel()
    j = np.minimum(np.searchsorted(ukeys, want), len(ukeys) - 1)
    matched = np.flatnonzero(ukeys[j] == want)
    ga = matched // len(offsets)
    gb = j[matched]
    # Each row of cell ``ga`` against the whole run of cell ``gb``.
    rows_a = counts[ga]
    ai = _ranges(starts[ga], rows_a)
    run = np.repeat(counts[gb], rows_a)
    bi = _ranges(np.repeat(starts[gb], rows_a), run)
    ai = np.repeat(ai, run)
    forward = ai < bi
    return order[ai[forward]], order[bi[forward]]


class NeighborIndex:
    """Candidate lists, rows and fault-aware adjacency for one world.

    The index is owned by a :class:`~repro.net.world.World` and consults
    the world's live fault state (``_down``, ``_blackouts``,
    ``_partitions``) whenever it answers; the world bumps :attr:`epoch`
    via :meth:`invalidate` whenever that state (or the attached-node
    set) changes.

    Args:
        world: The owning world, held through a weak proxy.
    """

    def __init__(self, world: "World") -> None:
        self._world = weakref.proxy(world)
        self._sim = world.sim
        self._static = world.mobility.static
        self._max_speed = world.mobility.max_speed
        self._epoch = 0
        self._rebuilds = 0
        # position layer, keyed by simulation time only (mobility does
        # not depend on fault state or attachment)
        self._pos_time: Optional[float] = None
        self._pos: Optional[np.ndarray] = None
        # attached-id array in index space, rebuilt when a node attaches
        self._ids: Optional[np.ndarray] = None
        self._ids_arange = True
        self._idx_of: Optional[Dict[int, int]] = None
        # candidate layer: positions at ``_cand_time`` and the per-node
        # lists made from them, keyed by (attached-node count, radio
        # range), valid within ``_cand_window`` seconds of ``_cand_time``
        self._cand_key: Optional[Tuple[int, float]] = None
        self._cand_time = 0.0
        self._cand_window = 0.0
        self._cand_pos: Optional[np.ndarray] = None
        # the same positions as Python floats by node id, for the scalar
        # questions asked between sweeps
        self._cand_at: Dict[int, Tuple[float, float]] = {}
        self._cand_r2 = 0.0
        self._cand_lists: Dict[int, List[int]] = {}
        # adjacency layer, keyed by (time, epoch, radio range)
        self._adj_key: Optional[Tuple[float, int, float]] = None
        # reachable_from closures of the current adjacency, by node
        self._reach: Dict[int, set] = {}
        # fault-aware CSR adjacency in index space, plus lazily
        # materialised lists
        self._indptr: Optional[np.ndarray] = None
        self._nbr: Optional[np.ndarray] = None
        self._lists: Dict[int, List[int]] = {}
        # row cache, keyed like the adjacency
        self._row_key: Optional[Tuple[float, int, float]] = None
        self._rows: Dict[int, List[int]] = {}

    # -- invalidation -------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Current connectivity generation; bumps invalidate the cache."""
        return self._epoch

    @property
    def rebuilds(self) -> int:
        """Full adjacency builds performed so far (cache diagnostics).
        Rows and candidate windows do not count."""
        return self._rebuilds

    def invalidate(self) -> None:
        """Bump the epoch: the next query rebuilds rows and adjacency.

        Cached positions survive — they depend only on simulation time —
        and so do the candidate lists, which depend only on the attached
        ids and the radio range.
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

    # -- answers ------------------------------------------------------------

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
        if hit is None:
            hit = self._rows[node] = self._compute_row(node)
        return hit

    def in_range(self, a: int, b: int) -> bool:
        """Are distinct nodes ``a`` and ``b`` within radio range right now?

        The answer of the squared-distance test ``dx*dx + dy*dy <= r*r``
        on the current positions, read where it can be from the open
        window's positions at ``t_c`` (:meth:`_band`); a pair inside
        the band, or one with a node the window does not hold, pays two
        scalar mobility lookups and the exact test. A static model's
        window positions are its positions, so it answers from them
        with no band. The question never opens a window: a sweep costs
        more than the two lookups it would save.
        """
        r = self._world.radio.radio_range
        at = self._cand_at
        pa = at.get(a)
        pb = at.get(b)
        if pa is not None and pb is not None:
            dx = pa[0] - pb[0]
            dy = pa[1] - pb[1]
            d2 = dx * dx + dy * dy
            if self._static:
                return d2 <= r * r
            inner2, outer2 = self._band(r)
            if d2 <= inner2:
                return True
            if d2 > outer2:
                return False
        position = self._world.mobility.position
        now = self._sim.now
        pa, pb = position(a, now), position(b, now)
        dx = pa[0] - pb[0]
        dy = pa[1] - pb[1]
        return dx * dx + dy * dy <= r * r

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
            targets = nbr[_ranges(starts, indptr[frontier + 1] - starts)]
            fresh = targets[~seen[targets]]
            if fresh.size == 0:
                break
            frontier = np.unique(fresh)
            seen[frontier] = True
        return set(self._ids[np.flatnonzero(seen)].tolist())

    # -- attached ids -------------------------------------------------------

    def _ids_array(self) -> np.ndarray:
        # A world only ever attaches nodes, so the count of attached
        # nodes identifies the set.
        if self._ids is None or len(self._ids) != len(self._world._nodes):
            ids = sorted(self._world._nodes)
            arr = np.asarray(ids, dtype=np.int64)
            self._ids = arr
            n = len(arr)
            self._ids_arange = bool(n == 0 or (int(arr[-1]) == n - 1))
            self._idx_of = (
                None if self._ids_arange
                else {int(v): k for k, v in enumerate(arr)}
            )
        return self._ids

    def _idx(self, node: int) -> int:
        return node if self._ids_arange else self._idx_of[node]

    def _id_positions(self) -> np.ndarray:
        """Positions of the attached ids, in index order."""
        pos = self.positions()
        ids = self._ids_array()
        if self._ids_arange and len(ids) == pos.shape[0]:
            return pos
        return pos[ids]

    # -- candidate layer ----------------------------------------------------

    def _window(self) -> None:
        """Start a new candidate window at the current time if the
        attached ids or the radio range changed or the window ran out.

        Starting one costs the position sweep at ``t_c`` and nothing
        else: each node's list is made by that node's first row."""
        r = self._world.radio.radio_range
        if (
            self._cand_key == (len(self._world._nodes), r)
            and abs(self._sim.now - self._cand_time) <= self._cand_window
        ):
            return
        ids = self._ids_array()
        skin = SKIN * r
        reach = r + skin
        pos = self._cand_pos = self._id_positions()
        self._keep_floats(ids, pos)
        self._cand_r2 = reach * reach * (1.0 + _SLACK)
        self._cand_lists = {}
        self._cand_key = (ids.shape[0], r)
        self._cand_time = self._now()
        self._cand_window = (
            math.inf if self._static or self._max_speed <= 0.0
            else skin / (2.0 * self._max_speed)
        )

    def _keep_floats(self, ids: np.ndarray, pos: np.ndarray) -> None:
        """Keep ``pos`` (rows in index order) as Python floats by node id,
        for the pair questions and later rows."""
        self._cand_at = dict(
            zip(ids.tolist(), zip(pos[:, 0].tolist(), pos[:, 1].tolist()))
        )

    def _band(self, r: float) -> Tuple[float, float]:
        """Squared window distances at or below which a pair is in range
        right now, and above which it is out: ``(r - reach)²`` and
        ``(r + reach)²``, the first ``-1`` once ``reach >= r``.

        Two nodes close or part at most ``2 * max_speed`` m/s, so since
        ``t_c`` a pair's distance has changed by at most
        ``drift = 2 * max_speed * |now - t_c|``. ``reach`` is ``drift``
        plus ``_SLACK * r``: computed positions sit a few ulps off the
        exact trajectory, a trip can run an ulp above ``max_speed``, and
        the squared distances are rounded. Those errors come to about
        1e-11 m in a 1 km square over a run of hours; the pad is
        2.5e-4 m at r = 250 m. So a pair outside the band gets the
        answer the exact test would give on the current positions."""
        reach = (
            2.0 * self._max_speed * abs(self._sim.now - self._cand_time)
            + _SLACK * r
        )
        inner = r - reach
        outer = r + reach
        return (inner * inner if inner > 0.0 else -1.0), outer * outer

    def _compute_row(self, node: int) -> List[int]:
        """One node's fault-aware neighbor list: its candidates tested
        by the window's speed bound (:meth:`_band`), those it cannot
        settle with scalar mobility lookups (one ``position`` and one
        ``positions_of`` call), then the world's fault rule.

        A node's first row in a window makes its candidate list with one
        vectorised distance test against every position at ``t_c``. A
        row asked at ``t_c`` itself (a node's first row, for a static
        model) is read off those same distances: a row that opens a
        window then costs one sweep and one vectorised test, and no
        scalar lookups (``docs/performance.md``, *In-run versus isolated
        cost*). A static model's later rows test its fixed positions
        with no band."""
        world = self._world
        r = world.radio.radio_range
        r2 = r * r
        self._window()
        row = None
        cands = self._cand_lists.get(node)
        if cands is None:
            pos = self._cand_pos
            i = self._idx(node)
            dx = pos[:, 0] - pos[i, 0]
            dy = pos[:, 1] - pos[i, 1]
            d2 = dx * dx + dy * dy
            near = np.flatnonzero(d2 <= self._cand_r2)
            near = near[near != i]
            cands = self._cand_lists[node] = self._ids[near].tolist()
            if self._now() == self._cand_time:
                row = self._ids[near[d2[near] <= r2]].tolist()
        if row is None:
            at = self._cand_at
            x, y = at[node]
            inner2, outer2 = (r2, r2) if self._static else self._band(r)
            row = []
            band = []
            for j in cands:
                px, py = at[j]
                dx = px - x
                dy = py - y
                d2 = dx * dx + dy * dy
                if d2 <= inner2:
                    row.append(j)
                elif d2 <= outer2:
                    band.append(j)
            if band:
                mobility = world.mobility
                now = self._sim.now
                x, y = mobility.position(node, now)
                for j, (px, py) in zip(band, mobility.positions_of(band, now)):
                    dx = px - x
                    dy = py - y
                    if dx * dx + dy * dy <= r2:
                        row.append(j)
                row.sort()
        if row and (world._down or world._blackouts or world._partitions):
            fault_free = world._fault_free
            at = world.position
            row = [j for j in row if fault_free(node, j, at)]
        return row

    # -- full adjacency -----------------------------------------------------

    def _ensure(self) -> None:
        key = self._key()
        if self._adj_key == key:
            return
        self._build(key)

    def _list(self, node: int) -> List[int]:
        lst = self._lists.get(node)
        if lst is None:
            i = self._idx(node)
            sl = self._nbr[self._indptr[i]:self._indptr[i + 1]]
            lst = self._ids[sl].tolist()
            self._lists[node] = lst
        return lst

    def _build(self, key: Tuple[float, int, float]) -> None:
        """Vectorised full build: one grid pass at the radio range over
        the current positions, then the range test and the fault rule in
        array arithmetic; the result is the fault-aware CSR adjacency."""
        self._reach = {}
        world = self._world
        ids = self._ids_array()
        n = len(ids)
        r = world.radio.radio_range
        self._adj_key = key
        self._rebuilds += 1
        self._lists = {}
        pos = self._id_positions()
        if self._static:
            # A static model's positions are the window's at any time:
            # a world whose rows all come from this adjacency still
            # answers its pair questions without a lookup.
            self._keep_floats(ids, pos)
        a, b = _grid_pairs(pos, r)
        hits = _squared_distances(pos, a, b) <= r * r
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

        self._indptr, self._nbr = self._csr(a[valid], b[valid], n)

    @staticmethod
    def _csr(a: np.ndarray, b: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Symmetrise distinct undirected index pairs into CSR adjacency
        with neighbor runs sorted ascending (the determinism contract).

        Each directed pair is one ``src * n + dst`` key, so one sort of
        the keys orders them: at m=1,600 an order of magnitude faster
        than a two-key ``lexsort``.
        """
        key = np.concatenate((a * n + b, b * n + a))
        key.sort()
        src = key // n
        dst = key - src * n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return indptr, dst
