"""Centralized skyline algorithms.

These are the building blocks and baselines of the paper:

* :func:`skyline_bruteforce` — an :math:`O(N^2)` oracle used by the tests.
* :func:`skyline_bnl` — Block Nested Loops (Börzsönyi et al., ICDE 2001);
  the paper runs BNL over flat storage as its baseline (Section 5.1).
* :func:`skyline_sfs` — Sort-Filter-Skyline (Chomicki et al., ICDE 2003);
  the paper's hybrid-storage local algorithm is an ID-based SFS variant.
* :func:`skyline_divide_conquer` — the D&C algorithm of Börzsönyi et al.
* :func:`skyline_numpy` — the vectorised engine every device runs per
  query: an elimination filter (drop rows dominated by the minimum-sum
  row, the LESS pre-pass), an SFS sort of the survivors, then blocked
  dominance passes through :func:`~repro.core.dominance.dominated_mask`.
  Its memory stays O(block² + n·d); it never builds an n×n matrix.

All functions take values **in minimization space** (smaller is better on
every axis) and return sorted row indices of the skyline members. Use
:func:`skyline_of_relation` for direction-aware operation on a
:class:`~repro.storage.relation.Relation`,
:func:`skyline_rows_within` for the skyline of the rows a range selects,
and :func:`skyline_rows_in_disk` for the rows within a query disk.

Duplicate value vectors: every algorithm here keeps *all* copies of a
skyline-value vector (no copy dominates another, per the strict dominance
definition). Cross-device duplicate elimination is a separate concern,
handled by :mod:`repro.core.assembly` on the query originator.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..data.spatial import rect_within_circle
from ..storage.relation import Relation
from .dominance import ComparisonCounter, dominated_mask

__all__ = [
    "skyline_bruteforce",
    "skyline_bnl",
    "skyline_sfs",
    "skyline_divide_conquer",
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


def skyline_bruteforce(values: np.ndarray) -> np.ndarray:
    """Quadratic oracle: indices of rows not dominated by any other row.

    Used as ground truth in tests; do not call on large inputs.
    """
    values = _as_matrix(values)
    n = values.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        others = values  # compare against all rows, including i (self never dominates)
        no_worse = (others <= values[i][None, :]).all(axis=1)
        better = (others < values[i][None, :]).any(axis=1)
        if (no_worse & better).any():
            keep[i] = False
    return np.nonzero(keep)[0].astype(np.int64)


def skyline_bnl(
    values: np.ndarray,
    counter: Optional[ComparisonCounter] = None,
) -> np.ndarray:
    """Block Nested Loops skyline over unsorted data.

    This is the paper's flat-storage baseline: "For the FS scheme, we use
    the simple BNL algorithm since no multi-dimensional index or sort
    order is assumed to be available on a mobile device" (Section 5.1).

    The window is kept in memory (mobile relations fit in RAM), so no
    temp-file passes are needed; the control flow is otherwise BNL's:
    each input tuple is compared against the window, dominated window
    entries are evicted, and undominated tuples join the window.
    """
    values = _as_matrix(values)
    n, dims = values.shape
    window: List[int] = []
    for i in range(n):
        v = values[i]
        dominated = False
        survivors: List[int] = []
        for w in window:
            wv = values[w]
            if counter is not None:
                counter.count_value(dims)
            if _dominates_vec(wv, v):
                dominated = True
                survivors = window  # unchanged; v is discarded
                break
            if not _dominates_vec(v, wv):
                survivors.append(w)
            # else: window tuple wv is dominated by v and is dropped
        if not dominated:
            survivors.append(i)
            window = survivors
    return np.asarray(sorted(window), dtype=np.int64)


def _dominates_vec(a: np.ndarray, b: np.ndarray) -> bool:
    return bool((a <= b).all() and (a < b).any())


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


def skyline_sfs(
    values: np.ndarray,
    counter: Optional[ComparisonCounter] = None,
) -> np.ndarray:
    """Sort-Filter-Skyline.

    After sorting by a monotone score, a single scan suffices: each tuple is
    compared against the (already confirmed) window; undominated tuples are
    skyline members.
    """
    values = _as_matrix(values)
    n, dims = values.shape
    if n == 0:
        return np.empty(0, dtype=np.int64)
    window: List[int] = []
    for idx in sfs_sort_order(values):
        v = values[idx]
        dominated = False
        for w in window:
            if counter is not None:
                counter.count_value(dims)
            if _dominates_vec(values[w], v):
                dominated = True
                break
        if not dominated:
            window.append(int(idx))
    return np.asarray(sorted(window), dtype=np.int64)


def skyline_divide_conquer(
    values: np.ndarray,
    threshold: int = 64,
) -> np.ndarray:
    """Divide-and-Conquer skyline (Börzsönyi et al., ICDE 2001).

    Recursively splits on the median of the first dimension, computes the
    partial skylines, and merges by removing members of the "worse" half
    dominated by the "better" half. Falls back to BNL below ``threshold``.
    """
    values = _as_matrix(values)
    n = values.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    indices = np.arange(n, dtype=np.int64)
    result = _dc_recurse(values, indices, threshold)
    return np.asarray(sorted(int(i) for i in result), dtype=np.int64)


def _dc_recurse(
    values: np.ndarray, indices: np.ndarray, threshold: int
) -> np.ndarray:
    if indices.shape[0] <= threshold:
        local = skyline_bnl(values[indices])
        return indices[local]
    sub = values[indices, 0]
    median = np.median(sub)
    low_mask = sub <= median
    # Degenerate split (many equal values): fall back to BNL.
    if low_mask.all() or not low_mask.any():
        local = skyline_bnl(values[indices])
        return indices[local]
    low = _dc_recurse(values, indices[low_mask], threshold)
    high = _dc_recurse(values, indices[~low_mask], threshold)
    if low.shape[0] == 0:
        return high
    keep_high = []
    low_vals = values[low]
    for idx in high:
        v = values[idx]
        no_worse = (low_vals <= v[None, :]).all(axis=1)
        better = (low_vals < v[None, :]).any(axis=1)
        if not (no_worse & better).any():
            keep_high.append(idx)
    return np.concatenate([low, np.asarray(keep_high, dtype=np.int64)])


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
    there is no all-pairs matrix. Output matches the other algorithms
    exactly.
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


_ALGORITHMS = {
    "bruteforce": skyline_bruteforce,
    "bnl": skyline_bnl,
    "sfs": skyline_sfs,
    "dc": skyline_divide_conquer,
    "numpy": skyline_numpy,
}


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


def skyline_of_relation(
    relation: Relation,
    algorithm: str = "numpy",
    counter: Optional[ComparisonCounter] = None,
) -> Relation:
    """Skyline of a relation, honouring per-attribute preferences.

    Args:
        relation: Input relation.
        algorithm: One of ``bruteforce``, ``bnl``, ``sfs``, ``dc``,
            ``numpy``.
        counter: Optional comparison counter (honoured by ``bnl``/``sfs``).

    Returns:
        A new relation containing exactly the skyline tuples.
    """
    if algorithm not in _ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(_ALGORITHMS)}"
        )
    if relation.cardinality == 0:
        # A fresh empty copy, not the input itself: the documented
        # contract is "a new relation", and returning the input would
        # let callers alias and mutate the source.
        return relation.take(np.empty(0, dtype=np.int64))
    values = relation.normalized_values()
    if algorithm in ("bnl", "sfs"):
        idx = _ALGORITHMS[algorithm](values, counter=counter)
    else:
        idx = _ALGORITHMS[algorithm](values)
    return relation.take(idx)
