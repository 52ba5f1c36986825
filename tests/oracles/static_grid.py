"""Reference for the static pre-test of Section 5.2.2-I (Figures 6, 7).

The query spreads from the originator by breadth-first search over the
grid's 4-neighbourhood (``grid.neighbors``). Each device it reaches
computes its BNL skyline ``SK_i``, drops the rows the filter it received
dominates or that sit at that filter's site (``SK'_i``), and, with
dynamic filtering, forwards its max-VDR row instead when that row's VDR
under the device's own bounds beats the received filter's. The VDRs are
Python products, one row at a time. The result is the BNL skyline of
every shipped row, the first copy of each location kept.

Written for the paper's all-MIN schemas, where raw values are already in
minimization space.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.filtering import OVER_MARGIN, Estimation
from repro.data.partition import GlobalDataset

from .skyline import _dominates, skyline_bnl

__all__ = ["StaticReference", "static_query_reference"]

#: One shipped tuple: ``(x, y, values, site_id)``.
Row = Tuple[float, float, Tuple[float, ...], int]


class StaticReference:
    """What one reference query computed."""

    def __init__(self) -> None:
        self.local_unreduced = 0
        #: ``(device, |SK_i|, |SK'_i|)`` in the order devices were reached.
        self.contributions: List[Tuple[int, int, int]] = []
        self.result: List[Row] = []


def _rows(relation, indices) -> List[Row]:
    return [
        (
            float(relation.xy[i, 0]),
            float(relation.xy[i, 1]),
            tuple(float(v) for v in relation.values[i]),
            int(relation.site_ids[i]),
        )
        for i in indices
    ]


def _bounds(dataset: GlobalDataset, device: int, estimation: Estimation):
    attributes = dataset.schema.attributes
    if estimation is Estimation.EXACT:
        return [a.high for a in attributes]
    if estimation is Estimation.OVER:
        return [a.high + OVER_MARGIN * (a.high - a.low) for a in attributes]
    values = dataset.local(device).values
    return [float(values[:, j].max()) for j in range(values.shape[1])]


def _vdr(values: Sequence[float], bounds: Sequence[float]) -> float:
    volume = 1.0
    for v, b in zip(values, bounds):
        volume *= max(b - v, 0.0)
    return volume


def _max_vdr(rows: List[Row], bounds) -> Tuple[Row, float]:
    """The first of ``rows`` with the largest VDR, and that VDR."""
    best, best_score = rows[0], _vdr(rows[0][2], bounds)
    for row in rows[1:]:
        score = _vdr(row[2], bounds)
        if score > best_score:
            best, best_score = row, score
    return best, best_score


def static_query_reference(
    dataset: GlobalDataset,
    originator: int,
    dynamic_filter: bool,
    estimation: Estimation,
    use_filter: bool,
) -> StaticReference:
    """One static-grid query from ``originator``, computed row by row."""
    assert dataset.schema.all_min, "the reference assumes all-MIN schemas"
    skylines = []
    for device in range(dataset.devices):
        rel = dataset.local(device)
        skylines.append(_rows(rel, skyline_bnl(rel.values)))

    out = StaticReference()
    out.local_unreduced = len(skylines[originator])
    shipped = list(skylines[originator])
    flt: Optional[Row] = None
    if use_filter and skylines[originator]:
        flt, _ = _max_vdr(
            skylines[originator], _bounds(dataset, originator, estimation)
        )

    queue = deque([(originator, flt)])
    seen = {originator}
    while queue:
        current, flt = queue.popleft()
        for device in dataset.grid.neighbors(current):
            if device in seen:
                continue
            seen.add(device)
            sky = skylines[device]
            reduced = [
                row for row in sky
                if flt is None or not (
                    _dominates(np.array(flt[2]), np.array(row[2]))
                    or (row[0], row[1]) == (flt[0], flt[1])
                )
            ]
            out.contributions.append((device, len(sky), len(reduced)))
            shipped.extend(reduced)
            forward = flt
            if use_filter and dynamic_filter and reduced:
                bounds = _bounds(dataset, device, estimation)
                best, score = _max_vdr(reduced, bounds)
                if flt is None or score > _vdr(flt[2], bounds):
                    forward = best
            queue.append((device, forward))

    first: dict = {}
    for row in shipped:
        first.setdefault((row[0], row[1]), row)
    unique = list(first.values())
    keep = skyline_bnl(np.array([row[2] for row in unique]))
    out.result = sorted(unique[i] for i in keep)
    return out
