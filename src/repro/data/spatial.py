"""Spatial placement of sites and distance utilities.

The paper distributes all tuples "randomly within a 1000 x 1000 spatial
domain" (Section 5.2.1). Sites must have pairwise-distinct locations
because duplicate elimination keys on ``(x, y)`` (Section 4.3); the
generator enforces this.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "uniform_positions",
    "rect_overlaps_circle",
    "rect_within_circle",
]


def uniform_positions(
    n: int,
    extent: Tuple[float, float, float, float],
    rng: Optional[np.random.Generator] = None,
    ensure_distinct: bool = True,
) -> np.ndarray:
    """``(n, 2)`` uniform random positions within ``extent``.

    Args:
        n: Number of positions.
        extent: ``(x_min, y_min, x_max, y_max)``.
        rng: Numpy generator (defaults to a fresh one).
        ensure_distinct: Re-draw colliding positions so every site has a
            unique location.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    x_min, y_min, x_max, y_max = extent
    if not (x_min < x_max and y_min < y_max):
        raise ValueError(f"degenerate extent {extent}")
    rng = rng if rng is not None else np.random.default_rng()
    pts = np.column_stack(
        [
            rng.uniform(x_min, x_max, size=n),
            rng.uniform(y_min, y_max, size=n),
        ]
    )
    if ensure_distinct and n > 1:
        for _ in range(32):
            # Flag every row of a group of equal positions except the
            # lowest index: a stable sort keeps each group in index order.
            order = np.lexsort((pts[:, 1], pts[:, 0]))
            ranked = pts[order]
            same = (ranked[1:] == ranked[:-1]).all(axis=1)
            dup_mask = np.zeros(n, dtype=bool)
            dup_mask[order[1:][same]] = True
            count = int(dup_mask.sum())
            if count == 0:
                break
            pts[dup_mask] = np.column_stack(
                [
                    rng.uniform(x_min, x_max, size=count),
                    rng.uniform(y_min, y_max, size=count),
                ]
            )
    return pts


def rect_overlaps_circle(
    rect: Tuple[float, float, float, float],
    center: Tuple[float, float],
    radius: float,
) -> bool:
    """True iff ``rect`` intersects the disk of ``radius`` around
    ``center`` — the query-region overlap test, and the negation of the
    Figure 4 MBR skip.

    It compares squared distances with the arithmetic of the per-row
    range test (``dx*dx + dy*dy <= d*d``, as in ``Relation.within``)
    rather than ``math.hypot(dx, dy) <= radius``: ``math.hypot``
    can round one ulp away from that test, so the skip could reject a
    rectangle holding a row the range test keeps. With the same
    arithmetic, every row inside the rectangle is at least as far in
    each axis as the nearest point, so a row in range means an
    overlapping rectangle.
    """
    x, y = center
    x_min, y_min, x_max, y_max = rect
    dx = max(x_min - x, 0.0, x - x_max)
    dy = max(y_min - y, 0.0, y - y_max)
    return dx * dx + dy * dy <= radius * radius


def rect_within_circle(
    rect: Tuple[float, float, float, float],
    center: Tuple[float, float],
    radius: float,
) -> bool:
    """True iff the disk of ``radius`` around ``center`` contains
    ``rect`` — the dual of :func:`rect_overlaps_circle`, with the
    rectangle's farthest corner in place of its nearest point.

    It uses the arithmetic of the per-row range test too, so a pass
    means every row inside the rectangle passes ``dx*dx + dy*dy <=
    d*d``: rounding is monotone and ``fl(-z) == -fl(z)``, so no row's
    rounded offset exceeds the corner's in either axis.
    """
    x, y = center
    x_min, y_min, x_max, y_max = rect
    fx = max(x - x_min, x_max - x)
    fy = max(y - y_min, y_max - y)
    return fx * fx + fy * fy <= radius * radius
