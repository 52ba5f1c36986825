"""Result assembly on the query originator (Section 4.3).

The originator merges each incoming reduced local skyline ``SK'_i`` into
its running result ``SK_org``: duplicates are identified by location only
(no two distinct sites share an ``(x, y)``), and dominance is resolved in
both directions so non-qualifying tuples from either side are removed.
The paper does this "within a simple nested loop".

:class:`SkylineAssembler` is the one implementation. It maintains a
running ``(xy, values, site_ids)`` array triple plus its normalization,
eliminates duplicates against a persistent location set (one hash lookup
per incoming row instead of rebuilding the set per merge), and resolves
dominance in ``(block, block, d)`` chunks so peak memory is bounded
regardless of skyline size. :func:`merge_skylines` (one merge, which
depth-first forwarding runs on every hop of the token) and
:func:`merge_tree` (a batch) are folds over it. The test suite keeps the
paper's merge as literally written, a relation rebuilt per merge, as the
differential oracle.
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
    current: Relation, incoming: Relation, block: int = DEFAULT_MERGE_BLOCK
) -> Relation:
    """Merge an incoming partial skyline into the current one: an
    assembler seeded with ``current`` that adds ``incoming``.

    Returns the updated skyline: duplicates dropped (first copy wins),
    dominated tuples from either side removed.
    """
    asm = SkylineAssembler(current.schema, current, block=block)
    asm.add(incoming)
    return asm.result()


def merge_tree(
    partials: Sequence[Relation],
    *,
    schema: Optional[RelationSchema] = None,
    block: int = DEFAULT_MERGE_BLOCK,
) -> Relation:
    """Merge many partial skylines, in order, through one assembler;
    ``schema`` is required only when ``partials`` is empty."""
    rels = list(partials)
    if rels:
        schema = rels[0].schema
    elif schema is None:
        raise ValueError("merge_tree over no partials requires a schema")
    asm = SkylineAssembler(schema, block=block)
    asm.add_all(rels)
    return asm.result()


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
