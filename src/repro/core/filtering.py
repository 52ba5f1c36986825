"""Filtering tuples and dominating regions (Sections 3.2-3.4).

A *filtering tuple* ``tp_flt`` travels with the query; devices use it to
prune local skyline members that cannot appear in the global skyline. The
originator picks the local skyline tuple with the largest **volume of
dominating region**

.. math:: VDR_j = \\prod_{k=1}^n (b_k - p_{jk})

where ``b_k`` is the upper bound of attribute ``k``'s domain. When the
global bounds are unknown on a device, over- and under-estimated regions
are used instead (Section 3.3) — neither affects correctness, only which
tuple gets picked. During multi-hop forwarding the filter is *dynamically
promoted*: an intermediate device replaces it when its own local skyline
holds a tuple with a larger VDR (Section 3.4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..storage.relation import Relation
from ..storage.schema import Preference, RelationSchema, SiteTuple

__all__ = [
    "OVER_MARGIN",
    "Estimation",
    "FilteringTuple",
    "vdr",
    "vdr_matrix",
    "estimation_bounds",
    "normalize_values",
    "promote_filter",
    "select_filter",
]


#: OVER pads each exact bound by this share of the attribute's domain
#: width — "a pre-specified value larger than the global domain upper
#: bound" (Section 3.3).
OVER_MARGIN = 0.2


class Estimation(enum.Enum):
    """How a device bounds the data space when computing VDRs.

    EXACT uses the true global domain upper bounds ``b_k`` (requires
    global knowledge); OVER uses pre-specified values above ``b_k`` (e.g.
    the attribute type's maximum); UNDER uses the locally known maxima
    ``h_k`` (Section 3.3).
    """

    EXACT = "exact"
    OVER = "over"
    UNDER = "under"


@dataclass(frozen=True)
class FilteringTuple:
    """A filtering tuple in flight: the site plus its current VDR score.

    The VDR is re-evaluated under each device's own estimation view when
    deciding dynamic promotion, so the stored score is advisory — it is
    the score assigned by whichever device last selected the filter.
    """

    site: SiteTuple
    vdr: float

    @property
    def values(self) -> Tuple[float, ...]:
        """Non-spatial attribute values used for pruning."""
        return self.site.values


def normalize_values(
    values: Sequence[float], schema: RelationSchema
) -> Tuple[float, ...]:
    """Map a raw value vector into minimization space (MAX attrs negated)."""
    schema.validate_values(values)
    return tuple(
        a.preference.normalize(float(v))
        for a, v in zip(schema.attributes, values)
    )


def estimation_bounds(
    schema: RelationSchema,
    estimation: Estimation,
    local_highs: Optional[Sequence[float]] = None,
) -> Tuple[float, ...]:
    """Per-attribute VDR bounds, **in minimization space**.

    For the paper's all-MIN schemas these are the familiar domain upper
    bounds ``b_k``; a MAX attribute contributes the normalized image of
    its *worst* corner (its negated lower bound).

    Args:
        schema: Relation schema (supplies the exact bounds).
        estimation: Which bounding mode to use.
        local_highs: The locally known per-attribute worst values in
            minimization space (``Relation.normalized_worst()``; equal to
            the local maxima ``h_k`` for all-MIN schemas). Required for
            UNDER.

    Returns:
        One bound per attribute, minimization space.
    """
    if estimation is Estimation.EXACT:
        return tuple(
            a.preference.normalize(a.high if a.preference is Preference.MIN else a.low)
            for a in schema.attributes
        )
    if estimation is Estimation.OVER:
        exact = estimation_bounds(schema, Estimation.EXACT)
        return tuple(
            b + OVER_MARGIN * a.width for b, a in zip(exact, schema.attributes)
        )
    if estimation is Estimation.UNDER:
        if local_highs is None:
            raise ValueError("under-estimation requires the local maxima h_k")
        if len(local_highs) != schema.dimensions:
            raise ValueError(
                f"expected {schema.dimensions} local highs, got {len(local_highs)}"
            )
        return tuple(float(h) for h in local_highs)
    raise ValueError(f"unknown estimation {estimation!r}")


def vdr(values: Sequence[float], bounds: Sequence[float]) -> float:
    """Volume of the dominating region of one tuple.

    Factors are clamped at zero: a tuple sitting on (or beyond) a bound
    dominates nothing along that axis within the bounded space. This
    matters for under-estimation, where the tuple holding the local
    maximum has ``h_k - p_k = 0``.
    """
    if len(values) != len(bounds):
        raise ValueError(f"arity mismatch: {len(values)} vs {len(bounds)}")
    volume = 1.0
    for v, b in zip(values, bounds):
        volume *= max(b - v, 0.0)
    return volume


def vdr_matrix(values: np.ndarray, bounds: Sequence[float]) -> np.ndarray:
    """Vectorised :func:`vdr` over the rows of ``values``."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != len(bounds):
        raise ValueError(
            f"values must be (N, {len(bounds)}), got {values.shape}"
        )
    # One column at a time, multiplied left to right as ``prod(axis=1)``
    # does, instead of broadcasting the bounds row against every row.
    out = np.ones(values.shape[0])
    for j, bound in enumerate(bounds):
        factor = np.subtract(float(bound), values[:, j])
        out *= np.maximum(factor, 0.0, out=factor)
    return out


def select_filter(
    skyline: Relation,
    estimation: Estimation = Estimation.EXACT,
    local_highs: Optional[Sequence[float]] = None,
) -> Optional[FilteringTuple]:
    """Pick the max-VDR tuple from a local skyline (Section 3.2).

    UNDER mode uses the local maxima ``h_k`` "known to M_i" — pass the
    device's relation-wide maxima via ``local_highs`` (hybrid storage
    reads them from its sorted domains in O(1)); the skyline's own maxima
    are the fallback when only the skyline is at hand.

    Returns None for an empty skyline.
    """
    if skyline.cardinality == 0:
        return None
    if estimation is Estimation.UNDER and local_highs is None:
        local_highs = skyline.normalized_worst()
    if estimation is not Estimation.UNDER:
        local_highs = None
    bounds = estimation_bounds(skyline.schema, estimation, local_highs=local_highs)
    scores = vdr_matrix(skyline.normalized_values(), bounds)
    best = int(np.argmax(scores))
    return FilteringTuple(site=skyline.row(best), vdr=float(scores[best]))


def promote_filter(
    skyline: Relation,
    incoming: Optional[FilteringTuple],
    bounds: Sequence[float],
) -> Optional[FilteringTuple]:
    """Dynamic filter promotion over precomputed bounds (Section 3.4).

    Scores every skyline row with :func:`vdr_matrix` (raw values — the
    faithful storage paths assume all-MIN schemas, where raw and
    normalized values coincide) and replaces ``incoming`` when the best
    local candidate has a strictly larger VDR under the same bounds.
    An empty skyline keeps the incoming filter unchanged.
    """
    if skyline.cardinality == 0:
        return incoming
    scores = vdr_matrix(skyline.values, bounds)
    best = int(np.argmax(scores))
    candidate = FilteringTuple(site=skyline.row(best), vdr=float(scores[best]))
    if incoming is None:
        return candidate
    return candidate if candidate.vdr > vdr(incoming.values, bounds) else incoming
