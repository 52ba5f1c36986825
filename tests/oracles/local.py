"""Row-at-a-time reference implementation of the Figure 4 local pipeline.

Each storage model is walked tuple by tuple, exactly as the paper's
pseudocode reads: the hybrid layout with an ID-space SFS window, the flat
layout with a value-space BNL window (with eviction), and the pointer
layouts through per-cell ``get_value`` reads. The tiled kernels of
:mod:`repro.core.local` must match these functions bit for bit: the same
skyline rows in the same order, the same ``skipped`` decision, the same
promoted filter, and the same :class:`ComparisonCounter` and
``AccessStats`` totals.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.dominance import ComparisonCounter
from repro.core.filtering import Estimation, FilteringTuple
from repro.core.local import (
    LocalSkylineResult,
    _hybrid_prologue,
    _promote_filter,
    _rows_to_relation,
    _values_prologue,
)
from repro.core.query import SkylineQuery
from repro.storage.base import StorageModel
from repro.storage.flat import FlatStorage
from repro.storage.hybrid import HybridStorage

__all__ = ["local_skyline_reference", "install_uncached_local"]


def local_skyline_reference(
    storage: StorageModel,
    query: SkylineQuery,
    flt: Optional[FilteringTuple] = None,
    estimation: Estimation = Estimation.UNDER,
) -> LocalSkylineResult:
    """The reference twin of :func:`repro.core.local.local_skyline`."""
    if not storage.schema.all_min:
        raise ValueError("the reference paths assume minimized attributes")
    if isinstance(storage, HybridStorage):
        return _local_skyline_hybrid(storage, query, flt, estimation)
    if isinstance(storage, FlatStorage):
        return _local_skyline_values(
            storage, storage.values_matrix(), query, flt, estimation,
            count_value_reads=True, rows=storage.values_matrix().tolist(),
        )
    return _local_skyline_generic(storage, query, flt, estimation)


def _local_skyline_hybrid(
    storage: HybridStorage,
    query: SkylineQuery,
    flt: Optional[FilteringTuple],
    estimation: Estimation,
) -> LocalSkylineResult:
    counter = ComparisonCounter()
    skip, thr_ge, thr_gt = _hybrid_prologue(storage, query, flt, counter)
    if skip is not None:
        return skip

    dims = storage.dimensions
    ids = storage.ids.tolist()
    xy = storage.xy
    dx = xy[:, 0] - query.pos[0]
    dy = xy[:, 1] - query.pos[1]
    in_range_mask = (dx * dx + dy * dy) <= query.d * query.d
    counter.count_distance(storage.cardinality)

    window: List[int] = []
    for row in range(storage.cardinality):
        if not in_range_mask[row]:
            continue
        t_ids = ids[row]
        dominated = False
        for w in window:
            w_ids = ids[w]
            counter.count_id(dims)
            # Stored order is lexicographic, so window members can never
            # be dominated by later tuples — no eviction pass needed.
            no_worse = True
            better = False
            for a, b in zip(w_ids, t_ids):
                if a > b:
                    no_worse = False
                    break
                if a < b:
                    better = True
            if no_worse and better:
                dominated = True
                break
        if not dominated:
            window.append(row)

    unreduced = len(window)
    in_range = int(in_range_mask.sum())

    # Filter pass over SK_i (paper: strict-dominance removal + same-site
    # duplicate removal), in ID space.
    survivors: List[int] = []
    if flt is not None:
        fx, fy = flt.site.x, flt.site.y
        for row in window:
            t_ids = ids[row]
            counter.count_id(dims)
            if xy[row, 0] == fx and xy[row, 1] == fy:
                continue  # same site as the filter: a duplicate copy
            ge_all = all(t >= g for t, g in zip(t_ids, thr_ge))
            gt_any = any(t >= g for t, g in zip(t_ids, thr_gt))
            if ge_all and gt_any:
                continue  # dominated by the filtering tuple
            survivors.append(row)
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
        in_range=in_range,
    )


def _local_skyline_values(
    storage: StorageModel,
    values: np.ndarray,
    query: SkylineQuery,
    flt: Optional[FilteringTuple],
    estimation: Estimation,
    count_value_reads: bool,
    rows: Optional[List[List[float]]] = None,
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

    if rows is None:
        rows = values.tolist()
    window: List[int] = []
    for row in range(storage.cardinality):
        if not in_range_mask[row]:
            continue
        v = rows[row]
        if count_value_reads:
            storage.stats.value_reads += dims
        dominated = False
        survivors: List[int] = []
        changed = False
        for w in window:
            wv = rows[w]
            counter.count_value(dims)
            if _dom(wv, v):
                dominated = True
                break
            if _dom(v, wv):
                changed = True  # window member evicted
                continue
            survivors.append(w)
        if dominated:
            continue
        if changed:
            window = survivors
        window.append(row)

    unreduced = len(window)
    survivors = []
    if flt is not None:
        fvals = list(flt.values)
        fx, fy = flt.site.x, flt.site.y
        for row in window:
            counter.count_value(dims)
            if xy[row, 0] == fx and xy[row, 1] == fy:
                continue
            if _dom(fvals, rows[row]):
                continue
            survivors.append(row)
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
) -> LocalSkylineResult:
    """BNL through ``get_value`` so pointer layouts pay their real
    per-read indirection costs (recorded in ``storage.stats``)."""
    n, dims = storage.cardinality, storage.dimensions
    values = np.empty((n, dims), dtype=np.float64)
    for row in range(n):
        for attr in range(dims):
            values[row, attr] = storage.get_value(row, attr)
    return _local_skyline_values(
        storage, values, query, flt, estimation, count_value_reads=False,
    )


def _dom(a, b) -> bool:
    no_worse = True
    better = False
    for x, y in zip(a, b):
        if x > y:
            no_worse = False
            break
        if x < y:
            better = True
    return no_worse and better


def install_uncached_local(monkeypatch) -> None:
    """Make every device's local result cache miss, so each evaluation
    runs the kernel again: the reference a cached run must match."""
    monkeypatch.setattr(
        "repro.core.local.LocalResultCache.get", lambda self, key: None
    )
