"""The static pre-test setting of Section 5.2.2-I (Figures 6 and 7).

"Before conducting the simulation, we test the different filtering tuple
selections in a static setting where no devices move and queries are
forwarded recursively from the originator to the outer neighbors in the
grid. We also ignore the distance constraint and use every device M_i as
the query originator once."

Queries spread outward over the grid's 4-neighbourhood in BFS order;
with dynamic filtering each device inherits the (possibly promoted)
filter of the neighbour that first reached it, with single filtering
every device uses the originator's filter unchanged. Every grid device
runs the pipeline a simulated device runs,
:func:`~repro.core.local.local_skyline_vectorized` over its local
relation; with the distance ignored, each query's disk covers the
relation, so the relation's cached skyline answers every originator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional

from ..core.assembly import SkylineAssembler
from ..core.filtering import Estimation
from ..core.local import local_skyline_vectorized
from ..core.query import SkylineQuery
from ..data.partition import GlobalDataset
from ..storage.relation import Relation

__all__ = ["StaticContribution", "StaticQueryOutcome",
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


def run_static_query(
    dataset: GlobalDataset,
    originator: int,
    dynamic_filter: bool = True,
    estimation: Estimation = Estimation.EXACT,
    use_filter: bool = True,
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
    # The originator's own evaluation picks the initial filter: its
    # promotion with no incoming filter is the Section 3.2 max-VDR pick.
    org = local_skyline_vectorized(
        dataset.local(originator), query, None, estimation=estimation,
    )
    origin_filter = org.updated_filter if use_filter else None

    asm = (
        SkylineAssembler(dataset.schema, org.skyline)
        if assemble
        else None
    )
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
            res = local_skyline_vectorized(
                dataset.local(neighbor), query, flt, estimation=estimation,
            )
            contributions.append(
                StaticContribution(
                    device=neighbor,
                    unreduced_size=res.unreduced_size,
                    reduced_size=res.reduced_size,
                )
            )
            if asm is not None:
                asm.add(res.skyline)
            out_flt = (
                res.updated_filter if (use_filter and dynamic_filter) else flt
            )
            queue.append((neighbor, out_flt))

    return StaticQueryOutcome(
        originator=originator,
        local_unreduced=org.unreduced_size,
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
    assemble: bool = True,
) -> List[StaticQueryOutcome]:
    """Run the pre-test with every device as originator once (default).

    Returns one outcome per originator; feed them to
    :func:`repro.metrics.drr.data_reduction_rate` for the figures.
    """
    if originators is None:
        originators = list(range(dataset.devices))
    return [
        run_static_query(
            dataset, org,
            dynamic_filter=dynamic_filter,
            estimation=estimation,
            use_filter=use_filter,
            assemble=assemble,
        )
        for org in originators
    ]
