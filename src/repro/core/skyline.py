"""The centralized skyline kernel and its range-restricted entry points.

* :func:`skyline_numpy` — the vectorised engine every device runs per
  query: an elimination filter (drop rows dominated by the minimum-sum
  row, the LESS pre-pass), an SFS sort of the survivors, then blocked
  dominance passes through :func:`~repro.core.dominance.dominated_mask`.
  Its memory stays O(block² + n·d); it never builds an n×n matrix.
  The paper's own local algorithm (Figure 4, an ID-based SFS over
  hybrid storage) and its BNL-over-flat-storage baseline (Section 5.1)
  are the storage-model paths of :mod:`repro.core.local`.

The kernel takes values **in minimization space** (smaller is better on
every axis) and returns sorted row indices of the skyline members. Use
:func:`skyline_of_relation` for direction-aware operation on a
:class:`~repro.storage.relation.Relation`,
:func:`skyline_rows_within` for the skyline of the rows a range selects,
and :func:`skyline_rows_in_disk` for the rows within a query disk.

Duplicate value vectors: the kernel keeps *all* copies of a
skyline-value vector (no copy dominates another, per the strict dominance
definition). Cross-device duplicate elimination is a separate concern,
handled by :mod:`repro.core.assembly` on the query originator.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..data.spatial import rect_within_circle
from ..storage.relation import Relation
from .dominance import dominated_mask

__all__ = [
    "skyline_numpy",
    "skyline_rows_within",
    "skyline_rows_in_disk",
    "skyline_of_relation",
    "sfs_sort_order",
]


def _as_matrix(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"values must be a 2-D array, got shape {values.shape}")
    return values


def sfs_sort_order(values: np.ndarray) -> np.ndarray:
    """Return the SFS scan order: ascending attribute sum, full
    lexicographic column order as tie-break.

    Sorting by a monotone scoring function guarantees that no tuple can be
    dominated by a tuple appearing later in the scan, which is what lets
    SFS keep only confirmed skyline members in its window. Floating-point
    sums can *collapse* (``1 + 1e-190`` rounds to ``1``) but never invert
    the order of a dominator and its victim (rounding is monotone), so
    breaking sum ties lexicographically over all attributes restores a
    strictly dominance-monotone order.
    """
    values = _as_matrix(values)
    scores = values.sum(axis=1)
    # lexsort: last key is primary, so pass columns in reverse, then the
    # score last.
    keys = tuple(values[:, j] for j in range(values.shape[1] - 1, -1, -1))
    return np.lexsort(keys + (scores,)).astype(np.int64)


def skyline_numpy(values: np.ndarray, block: int = 256) -> np.ndarray:
    """Vectorised skyline — the fast engine.

    Three steps, none of them a Python row-at-a-time loop:

    1. **Elimination filter.** Every row dominated by the minimum-sum row
       is dropped in one O(n·d) pass. Any dominated row may serve as the
       pivot too (dominance is transitive), so a pivot that float-sum
       collapse left dominated is still a safe filter.
    2. **Sort the survivors** into SFS order (:func:`sfs_sort_order`), so
       no row can be dominated by a row after it.
    3. **Blocked resolution.** Each ``block``-row chunk of the scan is
       tested against the confirmed skyline, then against itself, with
       :func:`~repro.core.dominance.dominated_mask`.

    When at most ``block`` rows survive step 1, steps 2 and 3 collapse
    to one ``dominated_mask`` of the survivors against themselves.

    Every intermediate is bounded by ``block²`` booleans or by O(n·d):
    there is no all-pairs matrix. Output matches the brute-force
    definition exactly.
    """
    values = _as_matrix(values)
    n = values.shape[0]
    if block < 1:
        raise ValueError("block must be >= 1")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # Row sums one column at a time: ``values.sum(axis=1)`` reduces
    # each short row on its own and is an order of magnitude slower.
    # Any row is a safe pivot, so the order of the additions is free.
    sums = values[:, 0].copy()
    for j in range(1, values.shape[1]):
        sums += values[:, j]
    pivot = int(sums.argmin())
    cand = np.flatnonzero(~dominated_mask(values[pivot : pivot + 1], values, block))
    if cand.shape[0] <= block:
        # One tile holds every survivor: resolve them against each
        # other directly, in index order, without the sort.
        sub = values.take(cand, axis=0)
        return cand[~dominated_mask(sub, sub, block)]
    cand = cand[sfs_sort_order(values.take(cand, axis=0))]
    scan = values.take(cand, axis=0)
    # Confirmed skyline rows, in scan order, filled up to ``kept``.
    sky = np.empty_like(scan)
    keep = np.zeros(cand.shape[0], dtype=bool)
    kept = 0
    for start in range(0, cand.shape[0], block):
        chunk = scan[start : start + block]
        alive = np.flatnonzero(~dominated_mask(sky[:kept], chunk, block))
        rows = chunk[alive]
        inner = ~dominated_mask(rows, rows, block)
        alive, rows = alive[inner], rows[inner]
        keep[start + alive] = True
        sky[kept : kept + rows.shape[0]] = rows
        kept += rows.shape[0]
    return np.sort(cand[keep])


def skyline_rows_within(
    relation: Relation, mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Sorted row indices of the skyline of the rows ``mask`` selects
    (every row when ``mask`` is None), in minimization space.

    The relation's own skyline ``S`` (:meth:`Relation.skyline_rows`)
    answers or shrinks the question, the skyline-diagram idea
    (arXiv:1812.01663) with one cell per relation:

    * every row selected: the answer is ``S``. ``S`` is stored only by
      such a call, whose kernel run computes it anyway; it is never
      computed just to be stored.
    * every row of ``S`` selected: the answer is ``S`` too. An
      unselected row cannot join it, and a selected row outside ``S``
      is dominated by some row of ``S`` (every dominance chain ends in
      ``S``), which is selected too.
    * part of ``S`` selected: selected rows that a selected row of
      ``S`` dominates are dropped before the kernel runs. Each has a
      selected dominator that stays, so the skyline is unchanged.
    """
    values = relation.normalized_values()
    sky = relation.skyline_rows()
    if mask is None:
        if sky is None:
            sky = skyline_numpy(values)
            relation.store_skyline_rows(sky)
        return sky
    sky_in = None if sky is None else sky[mask[sky]]
    if sky_in is not None and sky_in.shape[0] == sky.shape[0]:
        return sky
    idx = np.flatnonzero(mask)
    if sky_in is not None and sky_in.shape[0]:
        # ``take`` gathers rows an order of magnitude faster than fancy
        # indexing does.
        by = values.take(sky_in, axis=0)
        idx = idx[~dominated_mask(by, values.take(idx, axis=0))]
    rows = idx[skyline_numpy(values.take(idx, axis=0))]
    if idx.shape[0] == relation.cardinality:
        relation.store_skyline_rows(rows)
    return rows


def skyline_rows_in_disk(
    relation: Relation, pos: Tuple[float, float], d: float
) -> Tuple[np.ndarray, int]:
    """``(rows, in_range)``: :func:`skyline_rows_within` of the rows
    within distance ``d`` of ``pos``, and how many rows that is.

    A disk that contains the relation's MBR
    (:func:`~repro.data.spatial.rect_within_circle`) holds every row,
    so no per-row range mask is built.
    """
    if relation.cardinality and rect_within_circle(relation.mbr(), pos, d):
        return skyline_rows_within(relation), relation.cardinality
    mask = relation.within(pos, d)
    in_range = int(np.count_nonzero(mask))
    if in_range == 0:
        return np.empty(0, dtype=np.int64), 0
    return skyline_rows_within(relation, mask), in_range


def skyline_of_relation(relation: Relation) -> Relation:
    """Skyline of a relation, honouring per-attribute preferences.

    Returns a new relation containing exactly the skyline tuples (a
    fresh copy even when the input is empty, so callers never alias
    the source).
    """
    return relation.take(skyline_numpy(relation.normalized_values()))
