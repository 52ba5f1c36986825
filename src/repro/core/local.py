"""Local skyline processing on a mobile device — Figure 4 of the paper.

The algorithm, per the paper:

1. **MBR check** — if ``mindist(pos_org, MBR_i) > d`` the device holds no
   relevant data and returns immediately.
2. **Domination short-circuit** — if the filtering tuple dominates the
   per-attribute local lower bounds ``(l_1, ..., l_n)`` (all ``<=``, one
   strict), every local tuple is dominated and the device returns an
   empty result after O(n) work. (The paper's pseudocode tests only
   ``<=``; the strictness requirement added here is needed for
   correctness when a local tuple *equals* the filter on every
   attribute — such a tuple is a distinct site and belongs in the
   skyline.)
3. **ID-based SFS scan** — the relation is scanned in its stored sorted
   order; tuples failing the spatial range check are skipped; dominance
   against the window compares small integer IDs only.
4. **Filter pass** — the filtering tuple removes dominated skyline
   members (and same-site duplicates of itself), and the max-VDR survivor
   is promoted to the new filtering tuple if it beats the incoming one
   (Section 3.4's dynamic update).

Every storage model runs this pipeline on bounded-tile numpy kernels
(:func:`_sfs_scan_sorted` for the sorted hybrid layout, :func:`_bnl_scan`
for the unsorted value layouts). They produce the skyline, the
``skipped`` decision, and the :class:`ComparisonCounter` /
``AccessStats`` totals that a row-at-a-time walk of the pseudocode
would, with the counts computed analytically instead of per
comparison. The row-at-a-time walk lives in the test suite as the
differential oracle. These paths serve the device-only Figure 5
(:mod:`repro.experiments.local_processing`); every simulated device
runs the vectorised variant over its raw relation
(:func:`local_skyline_vectorized`), which also serves mixed-preference
schemas.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..data.spatial import rect_overlaps_circle
from ..storage.base import StorageModel
from ..storage.flat import FlatStorage
from ..storage.hybrid import HybridStorage
from ..storage.relation import Relation
from .dominance import ComparisonCounter, dominated_mask, dominates_values
from .filtering import (
    Estimation,
    FilteringTuple,
    estimation_bounds,
    normalize_values,
    promote_filter,
    vdr,
    vdr_matrix,
)
from .query import SkylineQuery
from .skyline import skyline_rows_in_disk

__all__ = [
    "LocalSkylineResult",
    "LocalResultCache",
    "local_skyline",
    "local_skyline_vectorized",
]

#: Default candidate/window tile edge for the tiled kernels. 512 keeps
#: every intermediate dominance matrix under ~256 KiB of bools while
#: leaving enough rows per tile to amortize numpy dispatch.
DEFAULT_BLOCK = 512


class LocalResultCache:
    """Skyline-diagram-style memo of local skyline evaluations.

    The skyline-diagram idea (arXiv:1812.01663) precomputes, per region
    of query space, the invariant local answer; here each *exact* query
    signature is its own degenerate cell:
    ``(data_epoch, query position, distance of interest, filter)``. A
    subscription reflood re-issues its signatures byte for byte, so the
    cell lookup is a dict hit and the device skips the whole
    evaluation: refloods hit about 93% of the time. Neither benchmark
    workload repeats a signature (``paper_bf`` one-shot queries and
    ``continuous_updates`` delta subscriptions both get no hits).

    Every simulated device keeps one (64 entries, LRU). Bit-identity
    contract: a hit returns the *same* :class:`LocalSkylineResult` the
    miss produced (relations and counters are never mutated
    downstream), so a hit is indistinguishable from a re-run.
    Invalidation is by construction — the ``data_epoch`` in the key
    changes whenever ``apply_update`` takes a data update — plus an
    explicit :meth:`invalidate` flush on update/crash so stale epochs
    don't occupy LRU slots.
    """

    __slots__ = ("maxsize", "hits", "misses", "invalidations", "_entries")

    def __init__(self, maxsize: int = 64):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._entries: OrderedDict = OrderedDict()

    @staticmethod
    def signature(
        data_epoch: int, query: SkylineQuery, flt: Optional[FilteringTuple]
    ) -> Tuple:
        """The cache cell for one evaluation. The filter contributes its
        full pruning identity (site location, values, id, VDR) — two
        queries with different filters may reduce differently."""
        flt_key = (
            None
            if flt is None
            else (flt.site.x, flt.site.y, flt.site.values, flt.site.site_id, flt.vdr)
        )
        return (data_epoch, query.pos, query.d, flt_key)

    def get(self, key: Tuple) -> Optional["LocalSkylineResult"]:
        """The memoized result for ``key``, or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Tuple, result: "LocalSkylineResult") -> None:
        """Memoize one evaluation, evicting the least recently used."""
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def invalidate(self) -> None:
        """Drop every entry (data update or crash)."""
        if self._entries:
            self._entries.clear()
        self.invalidations += 1

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LocalSkylineResult:
    """Outcome of one local skyline evaluation.

    Attributes:
        skyline: The reduced local skyline ``SK'_i`` to transmit.
        unreduced_size: ``|SK_i|`` before filter pruning (DRR needs it).
            The faithful storage paths report 0 when a skip fired (the
            device never computed the skyline); the vectorised path fills
            in the true ``|SK_i|`` even for a ``"dominated"`` skip, as a
            metric-only annotation for Formula (1).
        skipped: ``None`` if the relation was scanned, ``"mbr"`` if the
            spatial check rejected the whole relation, ``"dominated"`` if
            the filtering tuple did.
        updated_filter: The filtering tuple to forward onward — the
            incoming one, or a local tuple that beat it on VDR. The
            vectorised path promotes on the first read and keeps the
            outcome on the result (:meth:`defer_promotion`), so a reader
            that ships only the skyline (a subscriber, a BF originator
            picking its own initial filter) never pays for it, and a
            :class:`LocalResultCache` hit, which returns this same
            object, reads the same value.
        comparisons: Operation counts for the device cost model.
        scanned: Number of tuples examined by the scan.
        in_range: Number of tuples that passed the spatial check.
    """

    __slots__ = (
        "skyline", "unreduced_size", "skipped", "comparisons", "scanned",
        "in_range", "_filter", "_promote",
    )

    def __init__(
        self,
        skyline: Relation,
        unreduced_size: int,
        skipped: Optional[str] = None,
        updated_filter: Optional[FilteringTuple] = None,
        comparisons: Optional[ComparisonCounter] = None,
        scanned: int = 0,
        in_range: int = 0,
    ) -> None:
        self.skyline = skyline
        self.unreduced_size = unreduced_size
        self.skipped = skipped
        self.comparisons = (
            ComparisonCounter() if comparisons is None else comparisons
        )
        self.scanned = scanned
        self.in_range = in_range
        self._filter = updated_filter
        self._promote: Optional[Callable[[], Optional[FilteringTuple]]] = None

    @property
    def updated_filter(self) -> Optional[FilteringTuple]:
        """The filtering tuple to forward (see the class docstring)."""
        if self._promote is not None:
            self._filter = self._promote()
            self._promote = None
        return self._filter

    def defer_promotion(
        self, promote: Callable[[], Optional[FilteringTuple]]
    ) -> "LocalSkylineResult":
        """Let the first read of :attr:`updated_filter` compute it with
        ``promote()``; returns ``self``."""
        self._promote = promote
        return self

    @property
    def reduced_size(self) -> int:
        """``|SK'_i|`` — what actually gets transmitted."""
        return self.skyline.cardinality


def local_skyline(
    storage: StorageModel,
    query: SkylineQuery,
    flt: Optional[FilteringTuple] = None,
    estimation: Estimation = Estimation.UNDER,
    block: int = DEFAULT_BLOCK,
) -> LocalSkylineResult:
    """Run the Figure 4 algorithm against any storage model.

    Dispatches to the ID-based path for :class:`HybridStorage`, a raw
    value BNL for :class:`FlatStorage`, and an accessor-based BNL for the
    pointer layouts (domain / ring storage), whose per-read indirection
    costs are recorded in ``storage.stats``.

    ``block`` bounds the tiled kernels' tile edge; results and counters
    do not depend on it.

    The faithful storage paths assume the paper's all-MIN schemas; for
    mixed-preference schemas use :func:`local_skyline_vectorized`, which
    works in normalized (minimization) space.
    """
    if not storage.schema.all_min:
        raise ValueError(
            "the faithful storage paths assume minimized attributes; "
            "use local_skyline_vectorized for mixed-preference schemas"
        )
    if isinstance(storage, HybridStorage):
        return _local_skyline_hybrid(storage, query, flt, estimation, block)
    if isinstance(storage, FlatStorage):
        return _local_skyline_values(
            storage, storage.values_matrix(), query, flt, estimation,
            count_value_reads=True, block=block,
        )
    return _local_skyline_generic(storage, query, flt, estimation, block)


# ---------------------------------------------------------------------------
# Tiled dominance kernels
# ---------------------------------------------------------------------------


def _dom_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``out[i, j]`` — row ``a[i]`` dominates row ``b[j]``.

    Attribute-at-a-time 2-D broadcasts (the repo's established fast
    idiom — materially quicker than one 3-D broadcast for the paper's
    2–5 attribute schemas). Works on integer ID rows and raw value rows
    alike; dominance is all-``<=`` with at least one ``<``.
    """
    no_worse = np.ones((a.shape[0], b.shape[0]), dtype=bool)
    better = np.zeros((a.shape[0], b.shape[0]), dtype=bool)
    for j in range(a.shape[1]):
        col_a = a[:, j][:, None]
        col_b = b[:, j][None, :]
        no_worse &= col_a <= col_b
        better |= col_a < col_b
    return no_worse & better


def _tile_spans(total: int, block: int) -> List[Tuple[int, int]]:
    """Candidate tile boundaries: geometric ramp from 64 up to ``block``.

    The first tiles are deliberately small so the window forms cheaply
    and can prune subsequent (full-size) tiles; starting at ``block``
    would pay a dense tile-vs-tile pass before any window exists.
    """
    spans = []
    start = 0
    size = min(64, block)
    while start < total:
        stop = min(start + size, total)
        spans.append((start, stop))
        start = stop
        size = min(size * 2, block)
    return spans


def _sfs_scan_sorted(ids: np.ndarray, block: int) -> Tuple[np.ndarray, int]:
    """SFS window scan over rows already in lexicographic stored order.

    ``ids`` holds the candidate rows (hybrid ID tuples) in scan order.
    Because the stored order is lexicographic, a dominator always
    precedes what it dominates and equal rows never dominate — so the
    window is append-only (no eviction) and, within a tile, the
    tile-vs-tile dominance matrix is strictly upper-triangular for free.

    Membership shortcut (transitivity): a candidate is dominated by the
    current window iff it is dominated by *any* earlier surviving
    candidate — every dominance chain grounds at a window member — so
    ``~dom.any(axis=0)`` decides membership without a sequential walk.

    Returns ``(window, examined)`` where ``window`` indexes into ``ids``
    (in window order) and ``examined`` is the exact number of
    window-member examinations the reference loop would perform: each
    candidate examines members in window order, stopping at its first
    dominator, so a dominated candidate contributes its dominator's
    1-based window position and a member contributes the window size at
    its admission time.
    """
    m_total = ids.shape[0]
    win = np.empty(0, dtype=np.int64)
    examined_total = 0
    for start, stop in _tile_spans(m_total, block):
        tile_idx = np.arange(start, stop, dtype=np.int64)
        tile = ids[start:stop]
        m = stop - start
        examined = np.zeros(m, dtype=np.int64)
        alive = np.ones(m, dtype=bool)
        for wstart in range(0, len(win), block):
            sub = np.nonzero(alive)[0]
            if sub.size == 0:
                break
            chunk = win[wstart:wstart + block]
            dom = _dom_matrix(ids[chunk], tile[sub])
            anyd = dom.any(axis=0)
            first = dom.argmax(axis=0)
            examined[sub] += np.where(anyd, first + 1, len(chunk))
            alive[sub[anyd]] = False
        sub = np.nonzero(alive)[0]
        if sub.size:
            sub_ids = tile[sub]
            dom = _dom_matrix(sub_ids, sub_ids)  # upper-triangular by sort order
            member = ~dom.any(axis=0)
            ranks = member.cumsum()
            dom_members = dom[member, :]
            if dom_members.shape[0]:
                first = dom_members.argmax(axis=0)
            else:
                first = np.zeros(sub.size, dtype=np.int64)
            examined[sub] += np.where(member, ranks - 1, first + 1)
            win = np.concatenate([win, tile_idx[sub[member]]])
        examined_total += int(examined.sum())
    return win, examined_total


def _bnl_scan(values: np.ndarray, block: int) -> Tuple[np.ndarray, int]:
    """BNL window scan (with eviction) over unsorted candidate rows.

    ``values`` holds the candidate rows in scan order. The reference BNL
    examines every *present* window member per candidate (evicting those
    the candidate dominates), breaking at the first member that
    dominates the candidate; window order is addition order.

    The kernel exploits the same transitivity shortcut as
    :func:`_sfs_scan_sorted` — a candidate survives iff no earlier
    in-range candidate dominates it (eviction never loses a dominator:
    the evictor dominates whatever its victim dominated) — so survival,
    eviction times, and exact examination counts all fall out of tiled
    dominance matrices:

    * ``added[t]``: no tile-start window member and no earlier tile row
      dominates ``t``.
    * eviction time of a member: the first *added* tile row dominating
      it (evictions by rejected candidates never commit — a dominated
      candidate abandons its pass).
    * a member is present during candidate ``t``'s pass iff its eviction
      time is ``>= t`` (the evictor itself still examines its victims).

    Returns ``(window, examined)`` with the same contract as
    :func:`_sfs_scan_sorted`.
    """
    m_total = values.shape[0]
    win = np.empty(0, dtype=np.int64)
    examined_total = 0
    for start, stop in _tile_spans(m_total, block):
        tile_idx = np.arange(start, stop, dtype=np.int64)
        tile = values[start:stop]
        m = stop - start
        t_pos = np.arange(m)

        # Window-vs-tile dominance, chunked over the window.
        chunks: List[Tuple[np.ndarray, np.ndarray]] = []
        win_dom_any = np.zeros(m, dtype=bool)
        for wstart in range(0, len(win), block):
            chunk = win[wstart:wstart + block]
            dom_wt = _dom_matrix(values[chunk], tile)  # member dominates cand.
            chunks.append((chunk, dom_wt))
            win_dom_any |= dom_wt.any(axis=0)

        # Only rows the tile-start window leaves alone can ever be added
        # or evict — a window-dominated row is never added, and any
        # dominator of a non-window-dominated row is itself
        # non-window-dominated (its own dominators would transitively
        # reach the row). Restricting the intra-tile matrices to this
        # subset keeps per-tile work near-linear on dominated-heavy data.
        cand = np.nonzero(~win_dom_any)[0]
        examined = np.zeros(m, dtype=np.int64)
        done = np.zeros(m, dtype=bool)
        if cand.size:
            dom_ct = _dom_matrix(tile[cand], tile)  # [i, t]: cand[i] dom t
            dom_cc = dom_ct[:, cand]
            earlier = cand[:, None] < cand[None, :]  # [i, k]: cand[i] < cand[k]
            added_c = ~(dom_cc & earlier).any(axis=0)
            # Eviction time of cand[k]: first added cand row after it
            # that dominates it (evictions by rejected candidates never
            # commit — a dominated candidate abandons its pass).
            evict_cc = added_c[:, None] & dom_cc & earlier.T
            ev_c = np.where(
                evict_cc.any(axis=0), cand[evict_cc.argmax(axis=0)], m
            )
        else:
            dom_ct = np.zeros((0, m), dtype=bool)
            added_c = np.zeros(0, dtype=bool)
            ev_c = np.zeros(0, dtype=np.int64)
        added = np.zeros(m, dtype=bool)
        added[cand] = added_c

        survivors: List[np.ndarray] = []
        for chunk, dom_wt in chunks:
            if cand.size:
                dom_cw = _dom_matrix(tile[cand], values[chunk])
                evict_w = added_c[:, None] & dom_cw  # [i, member]
                ev_w = np.where(
                    evict_w.any(axis=0), cand[evict_w.argmax(axis=0)], m
                )
            else:
                ev_w = np.full(len(chunk), m, dtype=np.int64)
            present = ev_w[:, None] >= t_pos[None, :]  # [member, t]
            hit = present & dom_wt
            ranks = present.cumsum(axis=0)
            anyd = hit.any(axis=0)
            first = hit.argmax(axis=0)
            at_dominator = ranks[first, t_pos]
            examined += np.where(done, 0, np.where(anyd, at_dominator, ranks[-1]))
            done |= anyd
            survivors.append(chunk[ev_w == m])

        # Intra-tile pass: earlier added rows still present at time t.
        if cand.size:
            present = (
                added_c[:, None]
                & (ev_c[:, None] >= t_pos[None, :])
                & (cand[:, None] < t_pos[None, :])
            )
            hit = present & dom_ct
            ranks = present.cumsum(axis=0)
            anyd = hit.any(axis=0)
            first = hit.argmax(axis=0)
            at_dominator = ranks[first, t_pos]
            examined += np.where(
                done, 0, np.where(anyd, at_dominator, ranks[-1])
            )
            survivors.append(tile_idx[cand[added_c & (ev_c == m)]])

        examined_total += int(examined.sum())
        win = np.concatenate(survivors) if survivors else win
    return win, examined_total


# ---------------------------------------------------------------------------
# Hybrid storage: ID-based SFS (the paper's optimized path)
# ---------------------------------------------------------------------------


def _hybrid_prologue(
    storage: HybridStorage,
    query: SkylineQuery,
    flt: Optional[FilteringTuple],
    counter: ComparisonCounter,
):
    """Shared steps 1–2 of Figure 4 in ID space.

    Returns ``(skip_result, thr_ge, thr_gt)``; ``skip_result`` is a
    finished :class:`LocalSkylineResult` when a skip fired.
    """
    empty = Relation.empty(storage.schema)
    if storage.cardinality == 0:
        return (
            LocalSkylineResult(skyline=empty, unreduced_size=0, skipped="mbr",
                               updated_filter=flt, comparisons=counter),
            None, None,
        )
    if not rect_overlaps_circle(storage.mbr, query.pos, query.d):
        return (
            LocalSkylineResult(skyline=empty, unreduced_size=0, skipped="mbr",
                               updated_filter=flt, comparisons=counter),
            None, None,
        )
    thr_ge: Optional[Tuple[int, ...]] = None
    thr_gt: Optional[Tuple[int, ...]] = None
    if flt is not None:
        # ID-space image of the filter: local id >= thr_ge[j] iff the
        # local value >= flt value; id >= thr_gt[j] iff strictly greater.
        thr_ge = storage.encode_threshold(flt.values)
        thr_gt = storage.encode_threshold(flt.values, side="right")
        counter.count_id(storage.dimensions)
        # Short-circuit: the filter dominates the virtual best local
        # tuple (l_1..l_n) => the whole relation is dominated.
        if all(t == 0 for t in thr_ge) and any(t == 0 for t in thr_gt):
            return (
                LocalSkylineResult(skyline=empty, unreduced_size=0,
                                   skipped="dominated", updated_filter=flt,
                                   comparisons=counter),
                None, None,
            )
    return None, thr_ge, thr_gt


def _local_skyline_hybrid(
    storage: HybridStorage,
    query: SkylineQuery,
    flt: Optional[FilteringTuple],
    estimation: Estimation,
    block: int,
) -> LocalSkylineResult:
    counter = ComparisonCounter()
    skip, thr_ge, thr_gt = _hybrid_prologue(storage, query, flt, counter)
    if skip is not None:
        return skip

    dims = storage.dimensions
    ids_mat = storage.ids
    xy = storage.xy
    dx = xy[:, 0] - query.pos[0]
    dy = xy[:, 1] - query.pos[1]
    in_range_mask = (dx * dx + dy * dy) <= query.d * query.d
    counter.count_distance(storage.cardinality)

    cand = np.nonzero(in_range_mask)[0]
    win_pos, examined = _sfs_scan_sorted(ids_mat[cand], block)
    counter.count_id(dims * examined)
    window = cand[win_pos]
    unreduced = int(window.size)

    if flt is not None and unreduced:
        # The reference charges dims ID comparisons per window member
        # before the same-site test, so the bulk charge ignores masks.
        counter.count_id(dims * unreduced)
        w_ids = ids_mat[window]
        ge_all = (w_ids >= np.asarray(thr_ge, dtype=np.int64)[None, :]).all(axis=1)
        gt_any = (w_ids >= np.asarray(thr_gt, dtype=np.int64)[None, :]).any(axis=1)
        same_site = (xy[window, 0] == flt.site.x) & (xy[window, 1] == flt.site.y)
        survivors = window[~same_site & ~(ge_all & gt_any)]
    else:
        survivors = window

    reduced = _rows_to_relation(storage, survivors)
    updated = _promote_filter(reduced, flt, estimation, storage, counter)
    return LocalSkylineResult(
        skyline=reduced,
        unreduced_size=unreduced,
        updated_filter=updated,
        comparisons=counter,
        scanned=storage.cardinality,
        in_range=int(in_range_mask.sum()),
    )


def _rows_to_relation(storage: StorageModel, rows: Sequence[int]) -> Relation:
    if len(rows) == 0:
        return Relation.empty(storage.schema)
    idx = np.asarray(rows, dtype=np.int64)
    values = storage.values_matrix()[idx]
    return Relation(storage.schema, storage.xy[idx], values, storage.site_ids[idx])


# ---------------------------------------------------------------------------
# Flat / pointer storage: BNL over raw values
# ---------------------------------------------------------------------------


def _values_prologue(
    storage: StorageModel,
    query: SkylineQuery,
    flt: Optional[FilteringTuple],
    counter: ComparisonCounter,
) -> Optional[LocalSkylineResult]:
    """Shared steps 1–2 of Figure 4 in value space."""
    empty = Relation.empty(storage.schema)
    if storage.cardinality == 0:
        return LocalSkylineResult(skyline=empty, unreduced_size=0, skipped="mbr",
                                  updated_filter=flt, comparisons=counter)
    if not rect_overlaps_circle(storage.mbr, query.pos, query.d):
        return LocalSkylineResult(skyline=empty, unreduced_size=0, skipped="mbr",
                                  updated_filter=flt, comparisons=counter)
    if flt is not None:
        lows = storage.local_bounds()[0]
        counter.count_value(storage.dimensions)
        if all(f <= lo for f, lo in zip(flt.values, lows)) and any(
            f < lo for f, lo in zip(flt.values, lows)
        ):
            return LocalSkylineResult(
                skyline=empty, unreduced_size=0, skipped="dominated",
                updated_filter=flt, comparisons=counter,
            )
    return None


def _local_skyline_values(
    storage: StorageModel,
    values: np.ndarray,
    query: SkylineQuery,
    flt: Optional[FilteringTuple],
    estimation: Estimation,
    count_value_reads: bool,
    block: int,
) -> LocalSkylineResult:
    counter = ComparisonCounter()
    skip = _values_prologue(storage, query, flt, counter)
    if skip is not None:
        return skip

    dims = storage.dimensions
    xy = storage.xy
    dx = xy[:, 0] - query.pos[0]
    dy = xy[:, 1] - query.pos[1]
    in_range_mask = (dx * dx + dy * dy) <= query.d * query.d
    counter.count_distance(storage.cardinality)

    cand = np.nonzero(in_range_mask)[0]
    if count_value_reads:
        storage.stats.value_reads += dims * int(cand.size)
    win_pos, examined = _bnl_scan(values[cand], block)
    counter.count_value(dims * examined)
    window = cand[win_pos]
    unreduced = int(window.size)

    if flt is not None and unreduced:
        counter.count_value(dims * unreduced)
        flt_dom = dominated_mask(
            np.array([flt.values], dtype=np.float64), values[window]
        )
        same_site = (xy[window, 0] == flt.site.x) & (xy[window, 1] == flt.site.y)
        survivors = window[~same_site & ~flt_dom]
    else:
        survivors = window

    reduced = _rows_to_relation(storage, survivors)
    updated = _promote_filter(reduced, flt, estimation, storage, counter)
    return LocalSkylineResult(
        skyline=reduced,
        unreduced_size=unreduced,
        updated_filter=updated,
        comparisons=counter,
        scanned=storage.cardinality,
        in_range=int(in_range_mask.sum()),
    )


def _local_skyline_generic(
    storage: StorageModel,
    query: SkylineQuery,
    flt: Optional[FilteringTuple],
    estimation: Estimation,
    block: int,
) -> LocalSkylineResult:
    """Pointer layouts: one bulk read with analytic access charges
    (``StorageModel.read_all_values``) in place of a per-cell
    ``get_value`` loop, then the tiled BNL."""
    values = storage.read_all_values()
    return _local_skyline_values(
        storage, values, query, flt, estimation,
        count_value_reads=False, block=block,
    )


# ---------------------------------------------------------------------------
# Filter promotion (Section 3.4)
# ---------------------------------------------------------------------------


def _promote_filter(
    reduced: Relation,
    flt: Optional[FilteringTuple],
    estimation: Estimation,
    storage: StorageModel,
    counter: ComparisonCounter,
) -> Optional[FilteringTuple]:
    """Pick the max-VDR local survivor; keep whichever of it and the
    incoming filter has the larger VDR under this device's own bounds."""
    if reduced.cardinality == 0:
        return flt
    local_highs = (
        storage.local_bounds()[1] if estimation is Estimation.UNDER else None
    )
    bounds = estimation_bounds(storage.schema, estimation, local_highs=local_highs)
    counter.count_value(reduced.cardinality)
    return promote_filter(reduced, flt, bounds)


# ---------------------------------------------------------------------------
# Vectorised variant (identical output, used by the big experiments)
# ---------------------------------------------------------------------------


def local_skyline_vectorized(
    relation: Relation,
    query: SkylineQuery,
    flt: Optional[FilteringTuple] = None,
    estimation: Estimation = Estimation.UNDER,
) -> LocalSkylineResult:
    """Numpy implementation of the Figure 4 pipeline over a raw relation.

    Produces the same ``SK'_i``, ``|SK_i|`` and promoted filter as the
    faithful paths, but in vectorised form; every simulated device uses
    it so MANET-scale runs stay tractable. Operation counters are not
    populated — the device cost model estimates them analytically.

    Its work follows the answer rather than the relation: a disk that
    contains the MBR builds no range mask and reads the relation's
    cached skyline, and a disk that cuts it runs the kernel only on
    the in-range rows the cached skyline does not eliminate
    (:func:`~repro.core.skyline.skyline_rows_in_disk`). The promoted
    filter is computed only if the result's ``updated_filter`` is read.
    """
    schema = relation.schema
    if relation.cardinality == 0 or not rect_overlaps_circle(
        relation.mbr(), query.pos, query.d
    ):
        return LocalSkylineResult(
            skyline=Relation.empty(schema), unreduced_size=0, skipped="mbr",
            updated_filter=flt,
        )

    # All dominance work happens in minimization space so MAX attributes
    # are handled uniformly (the paper assumes all-MIN; this generalizes).
    # The normalized view and both bounds are cached on the (immutable)
    # relation, so repeated queries against one relation pay them once.
    flt_vals = normalize_values(flt.values, schema) if flt is not None else None
    # A filter that dominates the local lower bounds stops the device
    # after O(n) work (Figure 4); the unreduced skyline size is still
    # computed below because the DRR metric (Formula 1) needs |SK_i| —
    # the cost model keys on ``skipped`` and charges only the O(n) check.
    skipped_dominated = flt_vals is not None and dominates_values(
        flt_vals, relation.normalized_best()
    )

    # Everything below works on row indices into the cached normalized
    # values; the answer's rows are taken into a new relation once.
    rows, in_range = skyline_rows_in_disk(relation, query.pos, query.d)
    unreduced = rows.shape[0]
    if in_range == 0 or skipped_dominated:
        return LocalSkylineResult(
            skyline=Relation.empty(schema), unreduced_size=unreduced,
            skipped="dominated" if in_range and skipped_dominated else None,
            updated_filter=flt,
            scanned=relation.cardinality, in_range=in_range,
        )

    if flt is not None:
        # One mask: rows the filter dominates, then rows at its site.
        xy = relation.xy.take(rows, axis=0)
        drop = dominated_mask(
            np.array([flt_vals]), relation.normalized_values().take(rows, axis=0)
        )
        same_site = xy[:, 0] == flt.site.x
        same_site &= xy[:, 1] == flt.site.y
        drop |= same_site
        if drop.any():
            rows = rows[~drop]

    result = LocalSkylineResult(
        skyline=relation.take(rows),
        unreduced_size=unreduced,
        updated_filter=flt,
        scanned=relation.cardinality,
        in_range=in_range,
    )
    if rows.shape[0]:
        result.defer_promotion(partial(
            _promote_rows, relation, rows, flt, flt_vals, estimation
        ))
    return result


def _promote_rows(
    relation: Relation,
    rows: np.ndarray,
    flt: Optional[FilteringTuple],
    flt_vals: Optional[Tuple[float, ...]],
    estimation: Estimation,
) -> Optional[FilteringTuple]:
    """Section 3.4 promotion over the reduced skyline, ``rows`` of
    ``relation``: its max-VDR row replaces ``flt`` (normalized:
    ``flt_vals``) when that VDR is strictly larger."""
    bounds = estimation_bounds(
        relation.schema, estimation,
        local_highs=(
            relation.normalized_worst()
            if estimation is Estimation.UNDER else None
        ),
    )
    scores = vdr_matrix(relation.normalized_values().take(rows, axis=0), bounds)
    best = int(scores.argmax())
    candidate = FilteringTuple(
        site=relation.row(int(rows[best])), vdr=float(scores[best])
    )
    if flt is None or candidate.vdr > vdr(flt_vals, bounds):
        return candidate
    return flt
