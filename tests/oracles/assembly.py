"""The legacy result assembler: a fold of unbounded merges.

:func:`legacy_merge` is the paper's merge as literally written: it
rebuilds a relation per contribution and compares every incoming row
against the entire running result in one unbounded ``(C, I, d)``
broadcast per direction. :class:`LegacyAssembler` folds it. The
incremental :class:`~repro.core.assembly.SkylineAssembler`, and
:func:`~repro.core.assembly.merge_skylines` over it, must return the
same rows in the same order after every contribution.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.assembly import _dedup_within
from repro.core.dominance import dominated_mask
from repro.storage.relation import Relation
from repro.storage.schema import RelationSchema

__all__ = [
    "LegacyAssembler",
    "duplicate_mask",
    "legacy_merge",
    "install_legacy_assembler",
]


def duplicate_mask(xy: np.ndarray, against: np.ndarray) -> np.ndarray:
    """Rows of ``xy`` whose exact location appears in ``against``."""
    if against.shape[0] == 0 or xy.shape[0] == 0:
        return np.zeros(xy.shape[0], dtype=bool)
    seen = set(map(tuple, against.tolist()))
    return np.fromiter(
        (key in seen for key in map(tuple, xy.tolist())),
        dtype=bool,
        count=xy.shape[0],
    )


def legacy_merge(current: Relation, incoming: Relation, block=None) -> Relation:
    """Merge ``incoming`` into ``current`` with the unbounded broadcast,
    whatever the caller's block: duplicates dropped (first copy wins),
    dominated tuples from either side removed."""
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
    dup_incoming = duplicate_mask(incoming.xy, current.xy)

    # Incoming tuples are tested against the *pre-merge* current set and
    # vice versa, exactly as the nested loop of the paper does.
    inc_dominated = dominated_mask(cur_vals, inc_vals, None)
    keep_incoming = ~(inc_dominated | dup_incoming)
    # Only non-duplicate incoming survivors may evict current members —
    # a duplicate carries no new information, and a dominated incoming
    # tuple cannot dominate anything the current set keeps.
    keep_current = ~dominated_mask(inc_vals[keep_incoming], cur_vals, None)

    merged_xy = np.vstack([current.xy[keep_current], incoming.xy[keep_incoming]])
    merged_vals = np.vstack(
        [current.values[keep_current], incoming.values[keep_incoming]]
    )
    merged_ids = np.concatenate(
        [current.site_ids[keep_current], incoming.site_ids[keep_incoming]]
    )
    return Relation._wrap(current.schema, merged_xy, merged_vals, merged_ids)


class LegacyAssembler:
    """Drop-in twin of :class:`~repro.core.assembly.SkylineAssembler`."""

    def __init__(
        self, schema: RelationSchema, initial: Optional[Relation] = None, **_
    ):
        self._schema = schema
        self._merges = 0
        self._current = (
            _dedup_within(initial) if initial is not None else Relation.empty(schema)
        )

    @property
    def merges(self) -> int:
        return self._merges

    def add(self, incoming: Relation) -> None:
        self._current = legacy_merge(self._current, incoming)
        self._merges += 1

    def add_all(self, results: Iterable[Relation]) -> None:
        for rel in results:
            self.add(rel)

    def result(self) -> Relation:
        return self._current


def install_legacy_assembler(monkeypatch) -> None:
    """Make every BF/DF device assemble and merge the legacy way."""
    monkeypatch.setattr("repro.protocol.device.SkylineAssembler", LegacyAssembler)
    monkeypatch.setattr("repro.protocol.device.merge_skylines", legacy_merge)
