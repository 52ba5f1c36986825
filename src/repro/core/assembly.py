"""Result assembly on the query originator (Section 4.3).

The originator merges each incoming reduced local skyline ``SK'_i`` into
its running result ``SK_org``: duplicates are identified by location only
(no two distinct sites share an ``(x, y)``), and dominance is resolved in
both directions so non-qualifying tuples from either side are removed.
The paper does this "within a simple nested loop"; the implementation
below mirrors those semantics and is also used by intermediate devices in
depth-first forwarding, which merge results en route.

Three execution paths produce bit-identical results:

* the **legacy** path (:func:`merge_skylines` with ``block=None`` and
  :class:`SkylineAssembler` in ``mode="legacy"``) rebuilds a
  :class:`~repro.storage.relation.Relation` per contribution with one
  unbounded ``(C, I, d)`` broadcast — the reference semantics;
* the **incremental** path (the default) maintains a running
  ``(xy, values, site_ids)`` array triple plus its normalization,
  eliminates duplicates against a persistent location set (one hash
  lookup per incoming row instead of rebuilding the set per merge), and
  resolves dominance in ``(block, block, d)`` chunks so peak memory is
  bounded regardless of skyline size;
* the **partitioned** path (``mode="partitioned"``) additionally
  quantizes the normalized value space into a fixed grid and keeps a
  per-cell dominance-frontier summary (the exact per-attribute min/max
  of the cell's members). An incoming row is compared only against
  cells whose frontier could possibly dominate it, and a surviving
  incoming row only evicts from cells whose frontier could possibly be
  dominated — both necessary conditions are exact, so the comparison
  *outcomes* (and hence every merged row and its order) are unchanged;
  only the number of candidate rows fed to the dominance kernel drops,
  sub-linearly in the accumulated skyline size. Batch assembly over
  many contributions goes through a pairwise merge tree
  (:func:`merge_tree` / :meth:`SkylineAssembler.add_batch`), which
  keeps every intermediate merge small instead of folding each partial
  into the full accumulated result.

The assembler mode resolves explicit argument → the process-wide
:func:`configure_assembler` override (the CLI's ``--assembler`` flag)
→ the ``REPRO_ASSEMBLER`` environment variable → ``"incremental"``.
The merge block size resolves explicit argument → ``REPRO_MERGE_BLOCK``
→ :data:`DEFAULT_MERGE_BLOCK`. The differential suites in
``tests/test_fast_path_parity.py`` and ``tests/test_merge_partition.py``
pin all paths to each other bit for bit.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..storage.relation import Relation
from ..storage.schema import RelationSchema
from .dominance import dominated_mask

__all__ = [
    "merge_skylines",
    "merge_tree",
    "SkylineAssembler",
    "ASSEMBLERS",
    "configure_assembler",
    "resolve_assembler",
    "resolve_merge_block",
    "DEFAULT_MERGE_BLOCK",
    "DEFAULT_GRID_BUDGET",
]

#: Default chunk edge for the blocked dominance pass: peak intermediate
#: memory is ``block² · d`` booleans per comparison direction.
DEFAULT_MERGE_BLOCK = 512

#: Recognized assembler modes.
ASSEMBLERS = ("legacy", "incremental", "partitioned")

#: Default total cell budget for the partitioned assembler's grid. The
#: per-dimension resolution is ``max(2, round(budget ** (1/d)))``, so
#: higher-dimensional spaces get coarser axes but a comparable number of
#: cells overall (64/dim at d=2, 8/dim at d=4).
DEFAULT_GRID_BUDGET = 4096

_ASSEMBLER_OVERRIDE: Optional[str] = None


def _validate_assembler(mode: str) -> str:
    if mode not in ASSEMBLERS:
        raise ValueError(
            f"unknown assembler {mode!r}; expected one of {ASSEMBLERS}"
        )
    return mode


def configure_assembler(mode: Optional[str]) -> None:
    """Set a process-wide assembler-mode override.

    ``None`` clears the override, restoring environment/default
    resolution. The CLI's ``--assembler`` flag lands here.
    """
    global _ASSEMBLER_OVERRIDE
    _ASSEMBLER_OVERRIDE = _validate_assembler(mode) if mode is not None else None


def resolve_assembler(mode: Optional[str] = None) -> str:
    """Resolve the effective assembler mode: explicit argument beats the
    :func:`configure_assembler` override beats ``REPRO_ASSEMBLER`` beats
    the ``"incremental"`` default."""
    if mode is not None:
        return _validate_assembler(mode)
    if _ASSEMBLER_OVERRIDE is not None:
        return _ASSEMBLER_OVERRIDE
    env = os.environ.get("REPRO_ASSEMBLER")
    if env:
        return _validate_assembler(env)
    return "incremental"


def resolve_merge_block(block: Optional[int] = None) -> int:
    """Resolve the merge-block size: explicit argument beats
    ``REPRO_MERGE_BLOCK`` beats :data:`DEFAULT_MERGE_BLOCK`.

    Raises :class:`ValueError` for non-integer or sub-1 values, from
    either source — a silent fallback would hide a typo'd override.
    """
    if block is None:
        env = os.environ.get("REPRO_MERGE_BLOCK")
        if not env:
            return DEFAULT_MERGE_BLOCK
        try:
            block = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_MERGE_BLOCK must be an integer, got {env!r}"
            ) from None
    if block < 1:
        raise ValueError("merge block must be >= 1")
    return block


def merge_skylines(
    current: Relation,
    incoming: Relation,
    block: Optional[int] = DEFAULT_MERGE_BLOCK,
) -> Relation:
    """Merge an incoming partial skyline into the current one.

    Args:
        current: The running merged skyline (internally dominance-free).
        incoming: A reduced local skyline ``SK'_i`` (also internally
            dominance-free, as local skylines are).
        block: Chunk edge for the blocked dominance pass; ``None`` uses
            one unbounded broadcast (the legacy reference path). Output
            is bit-identical either way.

    Returns:
        The updated skyline: duplicates dropped (first copy wins),
        dominated tuples from either side removed.
    """
    if current.schema != incoming.schema:
        raise ValueError("cannot merge skylines over different schemas")
    if incoming.cardinality == 0:
        return current
    if current.cardinality == 0:
        return _dedup_within(incoming)
    incoming = _dedup_within(incoming)

    cur_vals = current.normalized_values()
    inc_vals = incoming.normalized_values()

    # Duplicate detection by (x, y) only (Section 4.3).
    dup_incoming = _duplicate_mask(incoming.xy, current.xy)

    # a dominates b: a <= b everywhere, a < b somewhere (minimization
    # space). Incoming tuples are tested against the *pre-merge* current
    # set and vice versa, exactly as the nested loop of the paper does.
    inc_dominated = dominated_mask(cur_vals, inc_vals, block)
    keep_incoming = ~(inc_dominated | dup_incoming)
    # Only non-duplicate incoming survivors may evict current members —
    # a duplicate carries no new information, and a dominated incoming
    # tuple cannot dominate anything the current set keeps.
    cur_dominated = dominated_mask(inc_vals[keep_incoming], cur_vals, block)
    keep_current = ~cur_dominated

    merged_xy = np.vstack([current.xy[keep_current], incoming.xy[keep_incoming]])
    merged_vals = np.vstack(
        [current.values[keep_current], incoming.values[keep_incoming]]
    )
    merged_ids = np.concatenate(
        [current.site_ids[keep_current], incoming.site_ids[keep_incoming]]
    )
    return Relation._wrap(current.schema, merged_xy, merged_vals, merged_ids)


def _duplicate_mask(xy: np.ndarray, against: np.ndarray) -> np.ndarray:
    """Rows of ``xy`` whose exact location appears in ``against``."""
    if against.shape[0] == 0 or xy.shape[0] == 0:
        return np.zeros(xy.shape[0], dtype=bool)
    seen = set(map(tuple, against.tolist()))
    return np.fromiter(
        (key in seen for key in map(tuple, xy.tolist())),
        dtype=bool,
        count=xy.shape[0],
    )


def _dedup_within(relation: Relation) -> Relation:
    """Drop same-location duplicates inside one partial result."""
    if relation.cardinality <= 1:
        return relation
    _, first = np.unique(relation.xy, axis=0, return_index=True)
    if first.shape[0] == relation.cardinality:
        return relation
    return relation.take(np.sort(first))


def merge_tree(
    partials: Sequence[Relation],
    *,
    schema: Optional[RelationSchema] = None,
    block: Optional[int] = DEFAULT_MERGE_BLOCK,
) -> Relation:
    """Merge many partial skylines with a pairwise reduction tree.

    Equivalent to the sequential left fold of :func:`merge_skylines` —
    same rows, same order — because the merge is associative: the
    surviving set is the skyline of the multiset union, and each
    source's survivors appear in source order with sources concatenated
    left to right. (This relies on location consistency — two partials
    that both carry a site report the same ``(x, y)`` and values — which
    holds for per-device local skylines over a shared relation.) The
    tree shape keeps every intermediate merge between two *small*
    partials instead of folding each contribution into the full
    accumulated result, so batch assembly does O(total · log n) row
    comparisons rather than O(total · n).
    """
    rels: List[Relation] = list(partials)
    if not rels:
        if schema is None:
            raise ValueError("merge_tree over no partials requires a schema")
        return Relation.empty(schema)
    while len(rels) > 1:
        merged: List[Relation] = [
            merge_skylines(rels[i], rels[i + 1], block=block)
            for i in range(0, len(rels) - 1, 2)
        ]
        if len(rels) % 2:
            merged.append(rels[-1])
        rels = merged
    return _dedup_within(rels[0])


#: Below this many accumulated rows the partitioned mode skips the
#: cell prefilter and feeds every live row to the dominance kernel —
#: at small cardinality the prefilter's (cells × incoming) scan costs
#: more than the comparisons it would save.
_PARTITION_MIN_ROWS = 256


class SkylineAssembler:
    """Stateful assembler living on the query originator.

    Seed it with the originator's own local skyline, feed it each
    arriving ``SK'_i`` with :meth:`add`, and read the final (or current
    partial) answer from :meth:`result`. Merging is incremental, exactly
    as the paper describes.

    Args:
        schema: The shared relation schema.
        initial: The originator's own local skyline (optional seed).
        mode: ``"legacy"``, ``"incremental"``, or ``"partitioned"``;
            ``None`` resolves via :func:`resolve_assembler`. All modes
            produce bit-identical results.
        incremental: Backwards-compatible alias — ``True`` means
            ``mode="incremental"``, ``False`` means ``mode="legacy"``.
            Mutually exclusive with ``mode``.
        block: Chunk edge for the blocked dominance pass; ``None``
            resolves via :func:`resolve_merge_block`. Ignored in legacy
            mode (which always uses the unbounded broadcast).
        grid_budget: Total cell budget for the partitioned grid
            (default :data:`DEFAULT_GRID_BUDGET`); ignored otherwise.
    """

    def __init__(
        self,
        schema: RelationSchema,
        initial: Optional[Relation] = None,
        *,
        mode: Optional[str] = None,
        incremental: Optional[bool] = None,
        block: Optional[int] = None,
        grid_budget: Optional[int] = None,
    ):
        if incremental is not None:
            if mode is not None:
                raise ValueError("pass either mode or incremental, not both")
            mode = "incremental" if incremental else "legacy"
        self._mode = resolve_assembler(mode)
        self._block = resolve_merge_block(block)
        self._schema = schema
        self._merges = 0
        seed = (
            _dedup_within(initial) if initial is not None else Relation.empty(schema)
        )
        if self._mode == "legacy":
            self._current = seed
            return
        d = schema.dimensions
        self._coords: set = set(map(tuple, seed.xy.tolist()))
        self._result_cache: Optional[Relation] = seed
        if self._mode == "incremental":
            self._xy = seed.xy
            self._values = seed.values
            self._site_ids = seed.site_ids
            self._norm = (
                seed.normalized_values()
                if seed.cardinality
                else np.empty((0, d), dtype=np.float64)
            )
            return
        # Partitioned mode: append-only geometric-growth buffers plus an
        # alive mask (evictions flip a bit instead of compacting), a
        # cell → buffer-position index, and dense per-cell min/max
        # frontier summaries. ±inf sentinels on empty cells make them
        # fail every candidate test without an occupancy check.
        budget = DEFAULT_GRID_BUDGET if grid_budget is None else grid_budget
        if budget < 1:
            raise ValueError("grid_budget must be >= 1")
        res = max(2, int(round(budget ** (1.0 / d))))
        lows = np.empty(d, dtype=np.float64)
        highs = np.empty(d, dtype=np.float64)
        for j, attr in enumerate(schema.attributes):
            a, b = attr.preference.normalize(attr.low), attr.preference.normalize(
                attr.high
            )
            lows[j], highs[j] = min(a, b), max(a, b)
        span = highs - lows
        inv = np.where(span > 0, res / np.where(span > 0, span, 1.0), 0.0)
        self._grid_res = res
        self._grid_lo = lows
        self._grid_inv = inv
        # C-order ravel strides: a cell id is also the flat index into
        # the (res, ..., res) orthant masks of _candidate_positions.
        self._grid_strides = res ** np.arange(d - 1, -1, -1, dtype=np.int64)
        n_cells = int(res**d)
        self._cells: Dict[int, np.ndarray] = {}
        self._cell_min = np.full((n_cells, d), np.inf)
        self._cell_max = np.full((n_cells, d), -np.inf)
        self._size = 0
        self._n_alive = 0
        cap = max(1024, 2 * seed.cardinality)
        self._buf_xy = np.empty((cap, 2), dtype=np.float64)
        self._buf_values = np.empty((cap, d), dtype=seed.values.dtype)
        self._buf_site_ids = np.empty(cap, dtype=seed.site_ids.dtype)
        self._buf_norm = np.empty((cap, d), dtype=np.float64)
        self._alive = np.zeros(cap, dtype=bool)
        self._cell_of = np.empty(cap, dtype=np.int64)
        if seed.cardinality:
            self._append_rows(
                seed.xy, seed.values, seed.site_ids, seed.normalized_values()
            )

    @property
    def merges(self) -> int:
        """How many partial results have been merged in."""
        return self._merges

    @property
    def mode(self) -> str:
        """The resolved assembler mode."""
        return self._mode

    # -- incremental internals ----------------------------------------------

    def _add_incremental(self, incoming: Relation) -> None:
        inc_xy = incoming.xy
        inc_norm = incoming.normalized_values()
        n_inc = incoming.cardinality

        # Duplicate elimination in one pass: against the persistent
        # location set (O(1) lookups instead of rebuilding the set per
        # merge) and within the contribution itself (first copy wins).
        coords = self._coords
        keys = list(map(tuple, inc_xy.tolist()))
        keep_incoming = np.zeros(n_inc, dtype=bool)
        within: set = set()
        for i, key in enumerate(keys):
            if key not in coords and key not in within:
                keep_incoming[i] = True
                within.add(key)

        # Which incoming rows does the (pre-merge) current set dominate?
        keep_incoming &= ~dominated_mask(self._norm, inc_norm, self._block)
        if not keep_incoming.any():
            return

        # Which current rows do the surviving incoming rows dominate?
        kept_norm = inc_norm[keep_incoming]
        cur_dominated = dominated_mask(kept_norm, self._norm, self._block)
        if cur_dominated.any():
            keep = ~cur_dominated
            coords.difference_update(
                map(tuple, self._xy[cur_dominated].tolist())
            )
            self._xy = self._xy[keep]
            self._values = self._values[keep]
            self._site_ids = self._site_ids[keep]
            self._norm = self._norm[keep]

        self._xy = np.vstack([self._xy, inc_xy[keep_incoming]])
        self._values = np.vstack(
            [self._values, incoming.values[keep_incoming]]
        )
        self._site_ids = np.concatenate(
            [self._site_ids, incoming.site_ids[keep_incoming]]
        )
        self._norm = np.vstack([self._norm, kept_norm])
        coords.update(
            key for i, key in enumerate(keys) if keep_incoming[i]
        )

    # -- partitioned internals -----------------------------------------------

    def _cell_ids(self, norm: np.ndarray) -> np.ndarray:
        """Grid cell id per row of ``norm``. The grid is only a bucketing
        function — pruning uses the exact member min/max per cell, so
        out-of-domain values clipping into edge cells is harmless."""
        cell = np.floor((norm - self._grid_lo) * self._grid_inv).astype(np.int64)
        np.clip(cell, 0, self._grid_res - 1, out=cell)
        return cell @ self._grid_strides

    def _ensure_capacity(self, extra: int) -> None:
        need = self._size + extra
        cap = self._buf_xy.shape[0]
        if need <= cap:
            return
        new_cap = max(need, 2 * cap)
        for name in ("_buf_xy", "_buf_values", "_buf_norm"):
            old = getattr(self, name)
            grown = np.empty((new_cap, old.shape[1]), dtype=old.dtype)
            grown[: self._size] = old[: self._size]
            setattr(self, name, grown)
        for name in ("_buf_site_ids", "_cell_of"):
            old = getattr(self, name)
            grown = np.empty(new_cap, dtype=old.dtype)
            grown[: self._size] = old[: self._size]
            setattr(self, name, grown)
        alive = np.zeros(new_cap, dtype=bool)
        alive[: self._size] = self._alive[: self._size]
        self._alive = alive

    def _append_rows(
        self,
        xy: np.ndarray,
        values: np.ndarray,
        site_ids: np.ndarray,
        norm: np.ndarray,
    ) -> None:
        k = xy.shape[0]
        self._ensure_capacity(k)
        lo, hi = self._size, self._size + k
        self._buf_xy[lo:hi] = xy
        self._buf_values[lo:hi] = values
        self._buf_site_ids[lo:hi] = site_ids
        self._buf_norm[lo:hi] = norm
        self._alive[lo:hi] = True
        cids = self._cell_ids(norm)
        self._cell_of[lo:hi] = cids
        positions = np.arange(lo, hi, dtype=np.int64)
        order = np.argsort(cids, kind="stable")
        sorted_cids = cids[order]
        cuts = np.flatnonzero(np.diff(sorted_cids)) + 1
        for pos_chunk in np.split(positions[order], cuts):
            cid = int(self._cell_of[pos_chunk[0]])
            chunk_norm = self._buf_norm[pos_chunk]
            existing = self._cells.get(cid)
            if existing is None:
                self._cells[cid] = pos_chunk
            else:
                self._cells[cid] = np.concatenate([existing, pos_chunk])
            np.minimum(
                self._cell_min[cid], chunk_norm.min(axis=0), out=self._cell_min[cid]
            )
            np.maximum(
                self._cell_max[cid], chunk_norm.max(axis=0), out=self._cell_max[cid]
            )
        self._size = hi
        self._n_alive += k

    def _candidate_positions(self, probes: np.ndarray, lower: bool) -> np.ndarray:
        """Buffer positions of live rows that could interact with some
        probe row.

        Two-stage pruning, both stages exact necessary conditions so
        the dominance kernel sees every row whose comparison outcome
        could matter:

        1. *Orthant mask* — mark the probes' grid cells in a
           ``(res, ..., res)`` boolean lattice, then running-OR along
           every axis (reversed for ``lower=True``). A cell survives iff
           some probe cell coordinate-dominates it; a cell strictly
           above a probe's cell on any axis has its whole value range
           above that probe and cannot hold a dominator (resp. below /
           a dominated row). Cost is O(res^d · d), independent of both
           the probe count and the accumulated skyline size.
        2. *Frontier check* — surviving occupied cells are kept only if
           their member-exact per-attribute min (``lower=True``) /
           max (``lower=False``) is ≤ / ≥ the probes' componentwise
           max / min where it must be, pruning cells whose members sit
           in the probe's cell-slab but on the wrong side of every
           probe.
        """
        if self._n_alive <= _PARTITION_MIN_ROWS:
            return np.flatnonzero(self._alive[: self._size])
        d = probes.shape[1]
        res = self._grid_res
        coords = np.floor((probes - self._grid_lo) * self._grid_inv).astype(
            np.int64
        )
        np.clip(coords, 0, res - 1, out=coords)
        mark = np.zeros((res,) * d, dtype=bool)
        mark[tuple(coords.T)] = True
        for axis in range(d):
            if lower:
                mark = np.flip(
                    np.logical_or.accumulate(np.flip(mark, axis), axis), axis
                )
            else:
                mark = np.logical_or.accumulate(mark, axis)
        flat = mark.reshape(-1)
        occupied = np.fromiter(
            self._cells.keys(), dtype=np.int64, count=len(self._cells)
        )
        ids = occupied[flat[occupied]]
        if ids.size == 0:
            return ids
        if lower:
            bound = probes.max(axis=0)
            ids = ids[(self._cell_min[ids] <= bound).all(axis=1)]
        else:
            bound = probes.min(axis=0)
            ids = ids[(self._cell_max[ids] >= bound).all(axis=1)]
        if ids.size == 0:
            return ids
        return np.concatenate([self._cells[int(cid)] for cid in ids])

    def _evict_positions(self, removed: np.ndarray) -> None:
        self._alive[removed] = False
        self._n_alive -= removed.shape[0]
        self._coords.difference_update(map(tuple, self._buf_xy[removed].tolist()))
        for cid in np.unique(self._cell_of[removed]).tolist():
            cid = int(cid)
            members = self._cells[cid]
            kept = members[self._alive[members]]
            if kept.shape[0] == 0:
                del self._cells[cid]
                self._cell_min[cid] = np.inf
                self._cell_max[cid] = -np.inf
            else:
                self._cells[cid] = kept
                kept_norm = self._buf_norm[kept]
                self._cell_min[cid] = kept_norm.min(axis=0)
                self._cell_max[cid] = kept_norm.max(axis=0)

    def _add_partitioned(self, incoming: Relation) -> None:
        inc_xy = incoming.xy
        inc_norm = incoming.normalized_values()
        n_inc = incoming.cardinality

        coords = self._coords
        keys = list(map(tuple, inc_xy.tolist()))
        keep_incoming = np.zeros(n_inc, dtype=bool)
        within: set = set()
        for i, key in enumerate(keys):
            if key not in coords and key not in within:
                keep_incoming[i] = True
                within.add(key)

        if self._n_alive:
            dominators = self._candidate_positions(inc_norm, lower=True)
            if dominators.size:
                keep_incoming &= ~dominated_mask(
                    self._buf_norm[dominators], inc_norm, self._block
                )
        if not keep_incoming.any():
            return

        kept_norm = inc_norm[keep_incoming]
        if self._n_alive:
            targets = self._candidate_positions(kept_norm, lower=False)
            if targets.size:
                dominated = dominated_mask(
                    kept_norm, self._buf_norm[targets], self._block
                )
                if dominated.any():
                    self._evict_positions(targets[dominated])

        self._append_rows(
            inc_xy[keep_incoming],
            incoming.values[keep_incoming],
            incoming.site_ids[keep_incoming],
            kept_norm,
        )
        coords.update(key for i, key in enumerate(keys) if keep_incoming[i])

    def _materialize(self) -> Relation:
        if self._mode == "partitioned":
            live = np.flatnonzero(self._alive[: self._size])
            if live.shape[0] == 0:
                return Relation.empty(self._schema)
            return Relation._wrap(
                self._schema,
                self._buf_xy[live],
                self._buf_values[live],
                self._buf_site_ids[live],
            )
        if self._xy.shape[0] == 0:
            return Relation.empty(self._schema)
        return Relation._wrap(
            self._schema, self._xy, self._values, self._site_ids
        )

    # -- public API ----------------------------------------------------------

    def add(self, incoming: Relation) -> None:
        """Merge one incoming partial skyline."""
        if self._mode == "legacy":
            self._current = merge_skylines(self._current, incoming, block=None)
            self._merges += 1
            return
        if incoming.schema != self._schema:
            raise ValueError("cannot merge skylines over different schemas")
        self._merges += 1
        if incoming.cardinality == 0:
            return
        self._result_cache = None
        if self._mode == "partitioned":
            self._add_partitioned(incoming)
        else:
            self._add_incremental(incoming)

    def add_all(self, results: Iterable[Relation]) -> None:
        """Merge a batch of partial skylines."""
        for rel in results:
            self.add(rel)

    def add_batch(self, results: Iterable[Relation]) -> None:
        """Merge a batch of partial skylines, tree-combining first.

        In partitioned mode the batch is pairwise-reduced with
        :func:`merge_tree` and folded in as one contribution — same
        rows, order, and merge count as :meth:`add_all`, fewer
        comparisons against the accumulated result. Other modes
        delegate to :meth:`add_all` unchanged.
        """
        rels = list(results)
        if self._mode != "partitioned" or len(rels) < 2:
            self.add_all(rels)
            return
        combined = merge_tree(rels, schema=self._schema, block=self._block)
        for rel in rels:
            if rel.schema != self._schema:
                raise ValueError("cannot merge skylines over different schemas")
        self._merges += len(rels)
        if combined.cardinality == 0:
            return
        self._result_cache = None
        self._add_partitioned(combined)

    def result(self) -> Relation:
        """The current merged skyline ``SK_org``."""
        if self._mode == "legacy":
            return self._current
        if self._result_cache is None:
            self._result_cache = self._materialize()
        return self._result_cache
