"""Result assembly on the query originator (Section 4.3).

The originator merges each incoming reduced local skyline ``SK'_i`` into
its running result ``SK_org``: duplicates are identified by location only
(no two distinct sites share an ``(x, y)``), and dominance is resolved in
both directions so non-qualifying tuples from either side are removed.
The paper does this "within a simple nested loop"; the implementation
below mirrors those semantics and is also used by intermediate devices in
depth-first forwarding, which merge results en route.

:class:`SkylineAssembler` maintains a running ``(xy, values, site_ids)``
array triple plus its normalization, eliminates duplicates against a
persistent location set (one hash lookup per incoming row instead of
rebuilding the set per merge), and resolves dominance in
``(block, block, d)`` chunks so peak memory is bounded regardless of
skyline size. Its results are bit-identical to a left fold of
:func:`merge_skylines` with one unbounded broadcast per merge
(``block=None``); the test suite keeps that fold as the differential
oracle.
"""

from __future__ import annotations

from typing import Collection, Iterable, List, Optional, Sequence

import numpy as np

from ..storage.relation import Relation
from ..storage.schema import RelationSchema
from .dominance import dominated_mask

__all__ = [
    "merge_skylines",
    "merge_tree",
    "SkylineAssembler",
    "DEFAULT_MERGE_BLOCK",
]

#: Default chunk edge for the blocked dominance pass: peak intermediate
#: memory is ``block² · d`` booleans per comparison direction.
DEFAULT_MERGE_BLOCK = 512


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
            one unbounded broadcast. Output is bit-identical either way.

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


def _first_copies(keys: List[tuple], taken: Collection = frozenset()) -> List[int]:
    """Positions of the ``keys`` that are neither in ``taken`` nor seen
    earlier in ``keys``: the first copy of each location wins."""
    fresh: List[int] = []
    within: set = set()
    for i, key in enumerate(keys):
        if key not in taken and key not in within:
            fresh.append(i)
            within.add(key)
    return fresh


def _dedup_within(relation: Relation) -> Relation:
    """Drop same-location duplicates inside one partial result (first
    copy wins, order kept)."""
    if relation.cardinality <= 1:
        return relation
    first = _first_copies(list(map(tuple, relation.xy.tolist())))
    if len(first) == relation.cardinality:
        return relation
    return relation.take(first)


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


class SkylineAssembler:
    """Stateful assembler living on the query originator.

    Seed it with the originator's own local skyline, feed it each
    arriving ``SK'_i`` with :meth:`add`, and read the final (or current
    partial) answer from :meth:`result`. Merging is incremental, exactly
    as the paper describes.

    Args:
        schema: The shared relation schema.
        initial: The originator's own local skyline (optional seed).
        block: Chunk edge for the blocked dominance pass (bounds peak
            merge memory at ``block² · d`` booleans). Results do not
            depend on it.
    """

    def __init__(
        self,
        schema: RelationSchema,
        initial: Optional[Relation] = None,
        *,
        block: int = DEFAULT_MERGE_BLOCK,
    ):
        if block < 1:
            raise ValueError("merge block must be >= 1")
        self._block = block
        self._schema = schema
        self._merges = 0
        seed = (
            _dedup_within(initial) if initial is not None else Relation.empty(schema)
        )
        self._coords: set = set(map(tuple, seed.xy.tolist()))
        self._result_cache: Optional[Relation] = seed
        self._xy = seed.xy
        self._values = seed.values
        self._site_ids = seed.site_ids
        self._norm = (
            seed.normalized_values()
            if seed.cardinality
            else np.empty((0, schema.dimensions), dtype=np.float64)
        )

    @property
    def merges(self) -> int:
        """How many partial results have been merged in."""
        return self._merges

    def add(self, incoming: Relation) -> None:
        """Merge one incoming partial skyline."""
        if incoming.schema != self._schema:
            raise ValueError("cannot merge skylines over different schemas")
        self._merges += 1
        if incoming.cardinality == 0:
            return
        self._result_cache = None
        inc_norm = incoming.normalized_values()
        n_inc = incoming.cardinality

        # Duplicate elimination in one pass: against the persistent
        # location set (O(1) lookups instead of rebuilding the set per
        # merge) and within the contribution itself (first copy wins).
        coords = self._coords
        keys = list(map(tuple, incoming.xy.tolist()))
        fresh = _first_copies(keys, coords)
        if not fresh:
            return
        if len(fresh) < n_inc:
            inc_norm = inc_norm.take(fresh, axis=0)

        # Which incoming rows does the (pre-merge) current set dominate?
        dominated = dominated_mask(self._norm, inc_norm, self._block)
        if dominated.any():
            alive = np.flatnonzero(~dominated)
            if alive.shape[0] == 0:
                return
            fresh = [fresh[k] for k in alive.tolist()]
            inc_norm = inc_norm.take(alive, axis=0)

        # Which current rows do the surviving incoming rows dominate?
        cur_dominated = dominated_mask(inc_norm, self._norm, self._block)
        if cur_dominated.any():
            keep = ~cur_dominated
            coords.difference_update(
                map(tuple, self._xy[cur_dominated].tolist())
            )
            self._xy = self._xy[keep]
            self._values = self._values[keep]
            self._site_ids = self._site_ids[keep]
            self._norm = self._norm[keep]

        inc_xy, inc_values, inc_ids = incoming.xy, incoming.values, incoming.site_ids
        if len(fresh) < n_inc:
            inc_xy = inc_xy.take(fresh, axis=0)
            inc_values = inc_values.take(fresh, axis=0)
            inc_ids = inc_ids.take(fresh)
        self._xy = np.concatenate((self._xy, inc_xy))
        self._values = np.concatenate((self._values, inc_values))
        self._site_ids = np.concatenate((self._site_ids, inc_ids))
        self._norm = np.concatenate((self._norm, inc_norm))
        coords.update(keys[i] for i in fresh)

    def add_all(self, results: Iterable[Relation]) -> None:
        """Merge a batch of partial skylines."""
        for rel in results:
            self.add(rel)

    def result(self) -> Relation:
        """The current merged skyline ``SK_org``."""
        if self._result_cache is None:
            if self._xy.shape[0] == 0:
                self._result_cache = Relation.empty(self._schema)
            else:
                self._result_cache = Relation._wrap(
                    self._schema, self._xy, self._values, self._site_ids
                )
        return self._result_cache
