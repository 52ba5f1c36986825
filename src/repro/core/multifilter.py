"""Multi-filter local skyline processing — the Section 7 extension made
first-class.

The paper closes with: "One research direction is to generalize the
filtering idea, using more than one filtering tuple. Important questions
include how many, and which, tuples should be used as filters, to
achieve the best data reduction rate."

This module answers operationally: *which* — the greedy max-union-volume
set of :func:`repro.core.filtering.select_filter_set`; *how many* — a
caller-chosen ``k``, with the trade-off measurable because every shipped
filter costs one tuple of bandwidth per device (the ablation bench
sweeps ``k``). The processing mirrors the single-filter Figure 4
pipeline: a short-circuit when the filter set dominates the device's
best-possible tuple, pruning of the local skyline, and dynamic promotion
of the *weakest* member of the set when a stronger local candidate
exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..data.spatial import rect_overlaps_circle
from ..storage.relation import Relation
from .dominance import dominance_mask
from .filtering import (
    Estimation,
    FilteringTuple,
    estimation_bounds,
    normalize_values,
    select_filter_set,
    vdr,
)
from .query import SkylineQuery
from .skyline import skyline_rows_within

__all__ = ["MultiFilterResult", "local_skyline_multifilter", "prune_with_filters"]


@dataclass
class MultiFilterResult:
    """Outcome of a multi-filter local skyline evaluation.

    Mirrors :class:`~repro.core.local.LocalSkylineResult`, with a *set*
    of outgoing filters instead of a single one.
    """

    skyline: Relation
    unreduced_size: int
    skipped: Optional[str] = None
    updated_filters: Tuple[FilteringTuple, ...] = ()
    scanned: int = 0
    in_range: int = 0

    @property
    def reduced_size(self) -> int:
        """``|SK'_i|`` — tuples that actually travel."""
        return self.skyline.cardinality


def prune_with_filters(
    skyline: Relation, filters: Sequence[FilteringTuple]
) -> Relation:
    """Remove skyline members dominated by (or co-located with) any
    filter in the set."""
    if skyline.cardinality == 0 or not filters:
        return skyline
    values = skyline.normalized_values()
    schema = skyline.schema
    dominated = np.zeros(skyline.cardinality, dtype=bool)
    for flt in filters:
        f = np.asarray(normalize_values(flt.values, schema), dtype=np.float64)
        same_site = (skyline.xy[:, 0] == flt.site.x) & (
            skyline.xy[:, 1] == flt.site.y
        )
        dominated |= dominance_mask(f, values) | same_site
    return skyline.take(np.nonzero(~dominated)[0])


def local_skyline_multifilter(
    relation: Relation,
    query: SkylineQuery,
    filters: Sequence[FilteringTuple] = (),
    k: Optional[int] = None,
    estimation: Estimation = Estimation.UNDER,
    over_margin: float = 0.2,
) -> MultiFilterResult:
    """Figure 4 generalized to a set of filtering tuples.

    Args:
        relation: The device's local relation.
        query: The distributed query.
        filters: Incoming filtering tuples (possibly empty).
        k: Target outgoing set size; defaults to ``max(len(filters), 1)``.
        estimation: Dominating-region bounding mode.
        over_margin: OVE margin.

    Returns:
        The reduced local skyline plus the promoted outgoing filter set.
    """
    schema = relation.schema
    empty = Relation.empty(schema)
    filters = tuple(filters)
    if k is None:
        k = max(len(filters), 1)
    if k < 1:
        raise ValueError("k must be >= 1")
    if relation.cardinality == 0:
        return MultiFilterResult(skyline=empty, unreduced_size=0,
                                 skipped="mbr", updated_filters=filters)
    if not rect_overlaps_circle(relation.mbr(), query.pos, query.d):
        return MultiFilterResult(skyline=empty, unreduced_size=0,
                                 skipped="mbr", updated_filters=filters)

    norm = relation.normalized_values()
    lows = norm.min(axis=0)
    local_worst = tuple(float(h) for h in norm.max(axis=0))
    skipped_dominated = False
    for flt in filters:
        f = np.asarray(normalize_values(flt.values, schema), dtype=np.float64)
        if (f <= lows).all() and (f < lows).any():
            skipped_dominated = True
            break

    in_mask = relation.within(query.pos, query.d)
    in_range = int(np.count_nonzero(in_mask))
    if in_range == 0:
        return MultiFilterResult(
            skyline=empty, unreduced_size=0, updated_filters=filters,
            scanned=relation.cardinality, in_range=0,
        )
    sky = relation.take(skyline_rows_within(relation, in_mask))
    unreduced = sky.cardinality
    if skipped_dominated:
        return MultiFilterResult(
            skyline=empty, unreduced_size=unreduced, skipped="dominated",
            updated_filters=filters,
            scanned=relation.cardinality, in_range=in_range,
        )

    reduced = prune_with_filters(sky, filters)

    # Promotion: re-pick the best k-set from the union of the incoming
    # filters' sites and the surviving local skyline, under this
    # device's own bounds — the natural set-generalization of the
    # paper's "keep whichever tuple has the larger VDR".
    local_highs = local_worst if estimation is Estimation.UNDER else None
    bounds = estimation_bounds(
        schema, estimation, local_highs=local_highs, over_margin=over_margin
    )
    pool = reduced
    for flt in filters:
        pool = pool.union(
            Relation(
                schema,
                np.asarray([[flt.site.x, flt.site.y]], dtype=np.float64),
                np.asarray([flt.values], dtype=np.float64),
                np.asarray([flt.site.site_id], dtype=np.int64),
            )
        )
    if pool.cardinality:
        updated = tuple(
            select_filter_set(
                pool, k, estimation=estimation,
                over_margin=over_margin, local_highs=local_highs,
            )
        )
        # re-score under this device's bounds for honest VDR fields
        updated = tuple(
            FilteringTuple(
                site=f.site,
                vdr=vdr(normalize_values(f.values, schema), bounds),
            )
            for f in updated
        )
    else:
        updated = filters
    return MultiFilterResult(
        skyline=reduced,
        unreduced_size=unreduced,
        updated_filters=updated,
        scanned=relation.cardinality,
        in_range=in_range,
    )
