"""The static pre-test setting of Section 5.2.2-I (Figures 6 and 7).

"Before conducting the simulation, we test the different filtering tuple
selections in a static setting where no devices move and queries are
forwarded recursively from the originator to the outer neighbors in the
grid. We also ignore the distance constraint and use every device M_i as
the query originator once."

Queries spread outward over the grid's 4-neighbourhood in BFS order;
with dynamic filtering each device inherits the (possibly promoted)
filter of the neighbour that first reached it, with single filtering
every device uses the originator's filter unchanged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.assembly import SkylineAssembler
from ..core.dominance import dominated_mask
from ..core.filtering import (
    Estimation,
    FilteringTuple,
    estimation_bounds,
    normalize_values,
    select_filter,
    vdr,
    vdr_matrix,
)
from ..core.local import local_skyline_vectorized
from ..core.query import SkylineQuery
from ..core.skyline import skyline_of_relation
from ..data.partition import GlobalDataset
from ..storage.relation import Relation

__all__ = ["StaticContribution", "StaticQueryOutcome", "StaticGridCache",
           "run_static_query", "run_static_grid"]

#: Effectively-infinite query distance (the pre-tests ignore d).
_UNBOUNDED = 1.0e12


@dataclass(frozen=True)
class StaticContribution:
    """One non-originator device's sizes for the DRR formula."""

    device: int
    unreduced_size: int
    reduced_size: int


@dataclass
class StaticQueryOutcome:
    """Result of one static-grid query from one originator."""

    originator: int
    local_unreduced: int
    contributions: List[StaticContribution]
    result: Relation


class StaticGridCache:
    """Precomputed per-device skylines for the static pre-tests.

    With the distance constraint ignored, every device's *unfiltered*
    local skyline ``SK_i`` is query-independent — only the (cheap)
    filter pruning varies with the originator and the estimation mode.
    Caching the ``SK_i`` turns the :math:`m` originator sweep from
    :math:`O(m^2)` skyline computations into :math:`O(m)`.
    """

    def __init__(self, dataset: GlobalDataset) -> None:
        self.dataset = dataset
        self.skylines: List[Relation] = []
        self.local_highs: List[Optional[Tuple[float, ...]]] = []
        for i in range(dataset.devices):
            rel = dataset.local(i)
            self.skylines.append(skyline_of_relation(rel))
            self.local_highs.append(
                rel.normalized_worst() if rel.cardinality else None
            )

    def pruned(
        self, device: int, flt: Optional[FilteringTuple]
    ) -> Tuple[Relation, int]:
        """``(SK'_i, |SK_i|)`` for ``device`` under filter ``flt``."""
        sky = self.skylines[device]
        unreduced = sky.cardinality
        if flt is None or unreduced == 0:
            return sky, unreduced
        fvals = normalize_values(flt.values, self.dataset.schema)
        same_site = (sky.xy[:, 0] == flt.site.x) & (sky.xy[:, 1] == flt.site.y)
        keep = ~(dominated_mask(np.array([fvals]), sky.normalized_values())
                 | same_site)
        return sky.take(np.nonzero(keep)[0]), unreduced

    def promote(
        self,
        device: int,
        reduced: Relation,
        flt: Optional[FilteringTuple],
        estimation: Estimation,
    ) -> Optional[FilteringTuple]:
        """Section 3.4's dynamic filter promotion under ``device``'s view."""
        if reduced.cardinality == 0:
            return flt
        local_highs = (
            self.local_highs[device] if estimation is Estimation.UNDER else None
        )
        bounds = estimation_bounds(
            self.dataset.schema, estimation, local_highs=local_highs,
        )
        scores = vdr_matrix(reduced.normalized_values(), bounds)
        best = int(np.argmax(scores))
        candidate = FilteringTuple(site=reduced.row(best), vdr=float(scores[best]))
        if flt is None:
            return candidate
        incoming = vdr(normalize_values(flt.values, self.dataset.schema), bounds)
        return candidate if candidate.vdr > incoming else flt


def run_static_query(
    dataset: GlobalDataset,
    originator: int,
    dynamic_filter: bool = True,
    estimation: Estimation = Estimation.EXACT,
    use_filter: bool = True,
    cache: Optional[StaticGridCache] = None,
    assemble: bool = True,
) -> StaticQueryOutcome:
    """One query, forwarded recursively outward from ``originator``.

    Args:
        dataset: Grid-partitioned global relation.
        originator: Device index issuing the query.
        dynamic_filter: Promote the filter along the forwarding tree
            (the DF series of Figures 6/7); False is the SF series.
        estimation: OVE / EXT / UNE dominating-region mode.
        use_filter: False gives the straightforward strategy (no filter
            travels; nothing is pruned).
        cache: Precomputed per-device skylines; pass one when running
            many originators over one dataset. Output is identical with
            or without it.
        assemble: Merge the partial results into the final skyline.
            The DRR experiments only need the per-device size pairs, and
            assembly dominates their runtime on anti-correlated data —
            pass False there; ``outcome.result`` is then empty.
    """
    if not 0 <= originator < dataset.devices:
        raise ValueError(
            f"originator {originator} outside 0..{dataset.devices - 1}"
        )
    grid = dataset.grid
    query = SkylineQuery(
        origin=originator,
        cnt=0,
        pos=grid.cell_center(originator),
        d=_UNBOUNDED,
    )
    org_rel = dataset.local(originator)
    if cache is not None:
        org_skyline = cache.skylines[originator]
        org_unreduced = org_skyline.cardinality
    else:
        org_result = local_skyline_vectorized(org_rel, query, None)
        org_skyline = org_result.skyline
        org_unreduced = org_result.unreduced_size
    origin_filter: Optional[FilteringTuple] = None
    if use_filter and org_skyline.cardinality:
        local_highs = (
            org_rel.normalized_worst() if org_rel.cardinality else None
        )
        origin_filter = select_filter(
            org_skyline, estimation, local_highs=local_highs
        )

    asm = (
        SkylineAssembler(dataset.schema, org_skyline)
        if assemble
        else None
    )
    partials: List[Relation] = []
    contributions: List[StaticContribution] = []

    # BFS outward over the grid adjacency; each device receives the
    # filter carried by the neighbour that first discovered it.
    queue = deque([(originator, origin_filter)])
    seen = {originator}
    while queue:
        current, flt = queue.popleft()
        for neighbor in grid.neighbors(current):
            if neighbor in seen:
                continue
            seen.add(neighbor)
            used_flt = flt if use_filter else None
            if cache is not None:
                reduced, unreduced = cache.pruned(neighbor, used_flt)
                out_flt = (
                    cache.promote(neighbor, reduced, flt, estimation)
                    if (use_filter and dynamic_filter)
                    else flt
                )
                reduced_size = reduced.cardinality
                sky = reduced
            else:
                res = local_skyline_vectorized(
                    dataset.local(neighbor), query, used_flt,
                    estimation=estimation,
                )
                unreduced = res.unreduced_size
                reduced_size = res.reduced_size
                sky = res.skyline
                out_flt = (
                    res.updated_filter
                    if (use_filter and dynamic_filter)
                    else flt
                )
            contributions.append(
                StaticContribution(
                    device=neighbor,
                    unreduced_size=unreduced,
                    reduced_size=reduced_size,
                )
            )
            if asm is not None:
                partials.append(sky)
            queue.append((neighbor, out_flt))

    if asm is not None:
        # One batched merge in BFS discovery order — identical rows and
        # order to per-arrival adds.
        asm.add_all(partials)

    return StaticQueryOutcome(
        originator=originator,
        local_unreduced=org_unreduced,
        contributions=contributions,
        result=(
            asm.result() if asm is not None
            else Relation.empty(dataset.schema)
        ),
    )


def run_static_grid(
    dataset: GlobalDataset,
    dynamic_filter: bool = True,
    estimation: Estimation = Estimation.EXACT,
    use_filter: bool = True,
    originators: Optional[List[int]] = None,
    cache: Optional[StaticGridCache] = None,
    assemble: bool = True,
) -> List[StaticQueryOutcome]:
    """Run the pre-test with every device as originator once (default).

    Builds (or reuses) a :class:`StaticGridCache` so per-device skylines
    are computed once. Returns one outcome per originator; feed them to
    :func:`repro.metrics.drr.data_reduction_rate` for the figures.
    """
    if originators is None:
        originators = list(range(dataset.devices))
    if cache is None:
        cache = StaticGridCache(dataset)
    return [
        run_static_query(
            dataset, org,
            dynamic_filter=dynamic_filter,
            estimation=estimation,
            use_filter=use_filter,
            cache=cache,
            assemble=assemble,
        )
        for org in originators
    ]
