"""More than one filtering tuple (the paper's Section 7 future work).

:func:`select_filter_set` greedily picks ``k`` tuples maximizing the
union volume of their dominating regions; the single-filter machinery
of Sections 3.2-3.4 (:mod:`repro.core.filtering`) supplies the bounds
and the VDR.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from repro.core.filtering import (
    Estimation,
    FilteringTuple,
    estimation_bounds,
    vdr,
)
from repro.storage.relation import Relation

__all__ = ["select_filter_set", "union_dominating_volume"]


def union_dominating_volume(
    tuples: Sequence[Sequence[float]], bounds: Sequence[float]
) -> float:
    """Volume of the union of the dominating regions of ``tuples``.

    All regions share the max corner ``bounds``, so the union volume
    follows from inclusion-exclusion: the intersection of a subset of
    regions is the region of their per-attribute elementwise maximum.
    Exponential in ``len(tuples)`` — intended for the small filter sets
    of the multi-filter extension (k <= ~6).
    """
    tuples = [tuple(t) for t in tuples]
    if not tuples:
        return 0.0
    if len(tuples) > 16:
        raise ValueError("inclusion-exclusion limited to 16 tuples")
    total = 0.0
    for r in range(1, len(tuples) + 1):
        sign = 1.0 if r % 2 == 1 else -1.0
        for subset in itertools.combinations(tuples, r):
            corner = tuple(max(vs) for vs in zip(*subset))
            total += sign * vdr(corner, bounds)
    return total


def select_filter_set(
    skyline: Relation,
    k: int,
    estimation: Estimation = Estimation.EXACT,
    local_highs: Optional[Sequence[float]] = None,
) -> List[FilteringTuple]:
    """Greedy max-coverage choice of ``k`` filtering tuples (Section 7).

    The first pick is the max-VDR tuple (identical to
    :func:`~repro.core.filtering.select_filter`); each further pick
    maximizes the marginal gain in union dominating volume. Stops early
    when no positive gain remains. ``local_highs`` has the same meaning
    as in :func:`~repro.core.filtering.select_filter`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if skyline.cardinality == 0:
        return []
    if estimation is Estimation.UNDER and local_highs is None:
        local_highs = skyline.normalized_worst()
    if estimation is not Estimation.UNDER:
        local_highs = None
    bounds = estimation_bounds(skyline.schema, estimation, local_highs=local_highs)
    values = skyline.normalized_values()
    chosen: List[int] = []
    chosen_values: List[Tuple[float, ...]] = []
    current_volume = 0.0
    candidates = list(range(skyline.cardinality))
    for _ in range(min(k, skyline.cardinality)):
        best_idx = None
        best_gain = 0.0
        best_volume = current_volume
        for idx in candidates:
            trial = chosen_values + [tuple(values[idx])]
            volume = union_dominating_volume(trial, bounds)
            gain = volume - current_volume
            if gain > best_gain:
                best_idx, best_gain, best_volume = idx, gain, volume
        if best_idx is None:
            break
        chosen.append(best_idx)
        chosen_values.append(tuple(values[best_idx]))
        current_volume = best_volume
        candidates.remove(best_idx)
    return [
        FilteringTuple(site=skyline.row(idx), vdr=vdr(tuple(values[idx]), bounds))
        for idx in chosen
    ]
