"""Epoch-cached spatial neighbor index for the wireless world.

Every hop of BF/DF query processing asks the world a connectivity
question (``neighbors``, ``reachable_from``, ``broadcast`` through
``neighbors``, and the unicast link test through ``in_range``), and the
naive answer recomputes all pairwise positions and distances from the
mobility model — O(m²) random-waypoint evaluations per question. This
module answers every question asked while a candidate window is open
from one geometry pass at the window's start:

* **Candidate layer** — Verlet neighbour lists (Verlet 1967). A
  window opens at time ``t_c`` with one position sweep and one pair
  pass (:func:`_pass`): every pair within ``r + skin``
  (``skin = SKIN * r``) at ``t_c``, flagged when it is within ``r``
  at ``t_c``. That is every pair that can come within ``r`` before
  ``t_c ± skin / (2 * max_speed)``, since two nodes close at most
  ``2 * max_speed``
  (:attr:`~repro.net.mobility.MobilityModel.max_speed`). The pass
  buckets the nodes into columns a little wider than the candidate
  radius and tests each node only against the nodes of its own and the
  next column that binary search finds within that radius in ``y``:
  the comparison-space pruning of space partitioning, applied to
  unit-disk pairs, in a fixed number of array calls and about
  ``m log m`` work at fixed density. The pairs become every node's
  candidate list, sorted by id, as Python lists. A static model's
  window never closes. The lists depend only on the attached ids and
  the radio range: fault transitions keep them, because the fault rule
  is applied when a question is answered.
* **Row layer** — a lone ``neighbors(src)`` (the broadcast hot path:
  one row per wave, almost always at a new time) reads only that
  node's candidates, then applies the world's scalar fault rule: no
  sweep and no array call per row. A row asked at ``t_c`` keeps the
  candidates whose kept distance is within ``r``; a later row tests
  each by the pair rule below. Rows are cached per adjacency key.
* **Pair layer** — :meth:`NeighborIndex.in_range` and a later row's
  candidates read the window's positions at ``t_c``, kept as Python
  floats. Two nodes close or part at most ``2 * max_speed``, so a pair
  whose window distance is outside ``r`` plus or minus that drift
  (padded, :meth:`NeighborIndex._band`) has the answer it had at
  ``t_c``; only a pair inside the band pays scalar mobility lookups
  and the exact test. A pair question never opens a window.
* **Full adjacency** — ``reachable_from`` reads one CSR adjacency,
  made from the pass of a window open at the current time (opening one
  there first if the open window started earlier): the pairs whose
  kept distance is within ``r``, filtered by the fault rule in array
  form. The differential suite pins it bit-identical to a Python-loop
  build kept as a test oracle.
* **Reachability** — a plain traversal of the adjacency's Python
  lists, memoised per (adjacency key, node) until the next build;
  callers get a copy. The question at query issue opens the window
  that the query's flood then reads, so a BF query sweeps positions
  once.
* **Epoch layer** — fault state (crashed nodes, link blackouts,
  partitions) and topology changes (late ``attach``) bump a generation
  counter; rows and the adjacency are keyed on ``(sim.now, epoch,
  radio_range)`` so fault injection can never be served a stale
  connectivity answer. For a static mobility model
  (:attr:`~repro.net.mobility.MobilityModel.static`) the time is left
  out of every key: positions are swept and pairs enumerated once, and
  adjacency is built once per epoch, however many distinct times the
  simulation visits.

Determinism contract: neighbor lists are sorted by node id, so BFS
order, broadcast delivery order, and therefore event sequence numbers
depend only on the topology — never on the order nodes were attached.
The in-range predicate is the squared-distance test
``dx*dx + dy*dy <= r*r`` evaluated in IEEE float64 on positions that
the scalar and vectorised mobility paths give bit for bit, so rows and
the vectorised pass answer exactly as per-pair scalar tests would.
"""

from __future__ import annotations

import math
import weakref
from itertools import compress
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .world import World

__all__ = ["NeighborIndex", "SKIN"]

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
    (non-empty) ``starts`` and ``counts``, without a Python loop."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)


def _pass(
    pos: np.ndarray, reach2: float, r2: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both directions of every pair of rows of ``pos`` whose squared
    distance ``dx*dx + dy*dy`` is at most ``reach2``, sorted by
    ``(src, dst)`` (the determinism contract), each flagged when that
    distance is at most ``r2``: ``(src, dst, near)``.

    Rows fall into columns of width ``w``, a hair above the reach, so
    two rows within reach are in the same or adjacent columns. One
    float key, ``column * span + y``, with ``span`` the ``y`` extent
    plus ``3 * w``, sorts the rows by column and then ``y``: each row's
    partners within ``w`` in ``y`` are a run after it in its own column
    and a run in the next column, found by binary search. The runs are
    a superset of the pairs in reach (the pad of ``w`` and of the search
    bounds is far above the keys' rounding); the exact test keeps the
    pairs in reach. Each directed pair is then one
    ``(src * n + dst) * 2 + far`` key, so one sort orders the entries
    and carries their flags: at m=1,600 an order of magnitude faster
    than a two-key ``lexsort``."""
    n = pos.shape[0]
    x = np.ascontiguousarray(pos[:, 0])
    y = np.ascontiguousarray(pos[:, 1])
    w = math.sqrt(reach2) * (1.0 + 1e-9)
    y0 = float(y.min())
    span = float(y.max()) - y0 + 3.0 * w
    key = np.floor((x - x.min()) / w) * span + (y - y0)
    order = np.argsort(key, kind="stable")
    key = key[order]
    pad = w + 4.0 * float(np.spacing(key[-1]))
    ends = np.searchsorted(
        key, np.concatenate((key + pad, key + (span - pad), key + (span + pad)))
    )
    rows = np.arange(n)
    starts = np.concatenate((rows + 1, ends[n:2 * n]))
    counts = np.concatenate((ends[:n] - rows - 1, ends[2 * n:] - ends[n:2 * n]))
    a = order[np.repeat(np.concatenate((rows, rows)), counts)]
    b = order[_ranges(starts, counts)]
    d2 = x.take(a)
    d2 -= x.take(b)
    dy = y.take(a)
    dy -= y.take(b)
    d2 *= d2
    dy *= dy
    d2 += dy
    hits = np.flatnonzero(d2 <= reach2)
    a = a.take(hits)
    b = b.take(hits)
    far = d2.take(hits) > r2
    code = np.concatenate((a * n + b, b * n + a))
    code <<= 1
    code |= np.concatenate((far, far))
    code.sort()
    near = (code & 1) == 0
    code >>= 1
    src = code // n
    return src, code - src * n, near


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
        # candidate layer: one pair pass over the positions at
        # ``_cand_time``, keyed by (attached-node count, radio range),
        # valid within ``_cand_window`` seconds of ``_cand_time``
        self._cand_key: Optional[Tuple[int, float]] = None
        self._cand_time = 0.0
        self._cand_window = 0.0
        self._cand_pos: Optional[np.ndarray] = None
        # the same positions as Python floats by node id, for the scalar
        # questions asked between sweeps
        self._cand_at: Dict[int, Tuple[float, float]] = {}
        # the pass: both directions of every pair within the candidate
        # radius at ``_cand_time`` in index space, each flagged when
        # within ``r``, and the same as CSR over node ids in Python lists
        self._pairs: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._cand_ptr: List[int] = []
        self._cand_ids: List[int] = []
        self._cand_near: List[bool] = []
        # adjacency layer, keyed by (time, epoch, radio range)
        self._adj_key: Optional[Tuple[float, int, float]] = None
        # reachable_from closures of the current adjacency, by node
        self._reach: Dict[int, set] = {}
        # fault-aware CSR adjacency over node ids, as Python lists
        self._indptr: List[int] = []
        self._nbr: List[int] = []
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
            hit = self._reach[node] = self._closure(node)
        return set(hit)

    def _closure(self, node: int) -> set:
        """``node`` and every node its adjacency lists lead to."""
        seen = {node}
        todo = [node]
        while todo:
            for other in self._list(todo.pop()):
                if other not in seen:
                    seen.add(other)
                    todo.append(other)
        return seen

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

    def _window(self, at_now: bool = False) -> None:
        """Start a new candidate window at the current time if the
        attached ids or the radio range changed, the window ran out, or
        ``at_now`` asks for one that starts now.

        Starting one costs the position sweep at ``t_c`` and one pair
        pass (:func:`_pass`) out to the candidate radius; the pairs
        serve every row and every adjacency build at ``t_c`` until the
        window closes."""
        r = self._world.radio.radio_range
        if (
            self._cand_key == (len(self._world._nodes), r)
            and abs(self._sim.now - self._cand_time) <= self._cand_window
            and not (at_now and self._now() != self._cand_time)
        ):
            return
        ids = self._ids_array()
        skin = SKIN * r
        reach = r + skin
        pos = self._cand_pos = self._id_positions()
        self._cand_at = dict(
            zip(ids.tolist(), zip(pos[:, 0].tolist(), pos[:, 1].tolist()))
        )
        src, dst, near = self._pairs = _pass(
            pos, reach * reach * (1.0 + _SLACK), r * r
        )
        self._cand_ptr = np.searchsorted(src, np.arange(len(ids) + 1)).tolist()
        self._cand_ids = ids[dst].tolist()
        self._cand_near = near.tolist()
        self._cand_key = (ids.shape[0], r)
        self._cand_time = self._now()
        self._cand_window = (
            math.inf if self._static or self._max_speed <= 0.0
            else skin / (2.0 * self._max_speed)
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
        """One node's fault-aware neighbor list: its candidates, kept by
        their distance at ``t_c`` for a row asked at ``t_c`` (every row
        of a static model), else tested by the window's speed bound
        (:meth:`_band`), those the bound cannot settle with scalar
        mobility lookups (one ``position`` and one ``positions_of``
        call); then the world's fault rule."""
        world = self._world
        r = world.radio.radio_range
        self._window()
        i = self._idx(node)
        lo, hi = self._cand_ptr[i], self._cand_ptr[i + 1]
        cands = self._cand_ids[lo:hi]
        if self._now() == self._cand_time:
            row = list(compress(cands, self._cand_near[lo:hi]))
        else:
            at = self._cand_at
            x, y = at[node]
            inner2, outer2 = self._band(r)
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
                r2 = r * r
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
        i = self._idx(node)
        return self._nbr[self._indptr[i]:self._indptr[i + 1]]

    def _build(self, key: Tuple[float, int, float]) -> None:
        """The full adjacency from the pass of a window open now: the
        pairs within the radio range at ``t_c``, then the fault rule in
        array arithmetic; the result is the fault-aware CSR adjacency."""
        self._reach = {}
        world = self._world
        self._window(at_now=True)
        ids = self._ids
        n = len(ids)
        r = world.radio.radio_range
        self._adj_key = key
        self._rebuilds += 1
        pos = self._cand_pos
        a, b, valid = self._pairs

        # The world's fault rule (``World._fault_free``) in array form:
        # both endpoints up, no blackout, same side of every partition
        # cut — all tested at the pair level, on top of the range test
        # at ``t_c``.
        down = world._down
        if down:
            up = np.ones(n, dtype=bool)
            darr = np.asarray(sorted(down), dtype=np.int64)
            pos_in = np.searchsorted(ids, darr)
            ok = pos_in < n
            ok[ok] = ids[pos_in[ok]] == darr[ok]
            up[pos_in[ok]] = False
            valid = valid & up[a] & up[b]
        partitions = world._partitions
        if partitions:
            side = np.empty((n, len(partitions)), dtype=bool)
            for k, (axis, coord) in enumerate(partitions):
                side[:, k] = pos[:, 0 if axis == "x" else 1] >= coord
            valid = valid & (side[a] == side[b]).all(axis=1)
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
                valid = valid & ~np.isin(enc, np.asarray(bl, dtype=np.int64))

        a = a[valid]
        self._indptr = np.searchsorted(a, np.arange(n + 1)).tolist()
        self._nbr = ids[b[valid]].tolist()
