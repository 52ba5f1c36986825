"""Dominance predicates — the primitive underlying every skyline algorithm.

A tuple ``a`` *dominates* ``b`` iff ``a`` is no worse than ``b`` in every
dimension and strictly better in at least one (Section 1). The paper assumes
smaller-is-better; the predicates here accept per-attribute preference
directions so mixed-direction skylines work too.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..storage.schema import Preference, SiteTuple

__all__ = [
    "dominates",
    "dominates_values",
    "dominates_or_equal",
    "dominated_mask",
    "dominance_mask",
    "any_dominator",
    "incomparable",
]


def dominates_values(
    a: Sequence[float],
    b: Sequence[float],
    preferences: Optional[Sequence[Preference]] = None,
) -> bool:
    """Return True iff value vector ``a`` dominates ``b``.

    With ``preferences`` omitted, every attribute is minimized (the
    paper's convention).
    """
    if len(a) != len(b):
        raise ValueError(f"arity mismatch: {len(a)} vs {len(b)}")
    if preferences is None:
        no_worse_everywhere = all(x <= y for x, y in zip(a, b))
        better_somewhere = any(x < y for x, y in zip(a, b))
        return no_worse_everywhere and better_somewhere
    if len(preferences) != len(a):
        raise ValueError("preferences arity mismatch")
    no_worse_everywhere = all(
        p.better_or_equal(x, y) for p, x, y in zip(preferences, a, b)
    )
    better_somewhere = any(p.better(x, y) for p, x, y in zip(preferences, a, b))
    return no_worse_everywhere and better_somewhere


def dominates(
    a: SiteTuple,
    b: SiteTuple,
    preferences: Optional[Sequence[Preference]] = None,
) -> bool:
    """Return True iff site ``a`` dominates site ``b`` on non-spatial values.

    Location plays no role in dominance — within the query region the
    paper treats all sites as spatially equivalent (Section 2).
    """
    return dominates_values(a.values, b.values, preferences)


def dominates_or_equal(
    a: Sequence[float],
    b: Sequence[float],
    preferences: Optional[Sequence[Preference]] = None,
) -> bool:
    """True iff ``a`` dominates ``b`` or the two vectors are equal.

    This is the elimination test used when duplicates should also be
    swallowed (e.g. by a filtering tuple that equals a local tuple).
    """
    if len(a) != len(b):
        raise ValueError(f"arity mismatch: {len(a)} vs {len(b)}")
    if preferences is None:
        return all(x <= y for x, y in zip(a, b))
    return all(p.better_or_equal(x, y) for p, x, y in zip(preferences, a, b))


def dominated_mask(
    by: np.ndarray, targets: np.ndarray, block: Optional[int] = 256
) -> np.ndarray:
    """Mask over ``targets`` rows strictly dominated by some ``by`` row.

    This is the one vectorised dominance kernel: the skyline engine, the
    result assembler and the filter-pruning steps all call it. Both
    inputs are 2-D and in minimization space.

    ``block=None`` runs one unbounded ``(B, T, d)`` broadcast. An integer runs the same elementwise comparisons in tiles
    of at most ``block²`` pairs, so every intermediate is bounded by
    ``block²`` booleans whatever the input sizes; the output is identical.
    """
    n_by, n_targets = by.shape[0], targets.shape[0]
    if n_by == 0 or n_targets == 0:
        return np.zeros(n_targets, dtype=bool)
    if block is None:
        no_worse = (by[:, None, :] <= targets[None, :, :]).all(axis=2)
        better = (by[:, None, :] < targets[None, :, :]).any(axis=2)
        return (no_worse & better).any(axis=0)
    out = np.zeros(n_targets, dtype=bool)
    dims = by.shape[1]
    area = block * block
    # Tiles hold at most block² pairs but stretch along the longer side:
    # a lopsided comparison (one pivot row against thousands of targets,
    # or a handful of rows against a big running skyline) then runs in
    # one numpy pass instead of many tiny tiles.
    cols = max(block, area // n_by)
    for j in range(0, n_targets, cols):
        tgt = targets[j : j + cols]
        rows = max(block, area // tgt.shape[0])
        for i in range(0, n_by, rows):
            blk = by[i : i + rows]
            # Attribute-at-a-time 2-D comparisons: the equivalent
            # (R, T, d) broadcast forces numpy onto a strided inner
            # loop that is an order of magnitude slower here.
            no_worse = blk[:, 0:1] <= tgt[:, 0]
            better = blk[:, 0:1] < tgt[:, 0]
            for a in range(1, dims):
                no_worse &= blk[:, a : a + 1] <= tgt[:, a]
                better |= blk[:, a : a + 1] < tgt[:, a]
            out[j : j + cols] |= (no_worse & better).any(axis=0)
    return out


def dominance_mask(point: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Vectorised: which rows of ``block`` does ``point`` dominate?

    Both arguments must already be in minimization space. Returns a boolean
    array of shape ``(len(block),)``.
    """
    point = np.asarray(point, dtype=np.float64)
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or point.shape != (block.shape[1],):
        raise ValueError(
            f"shape mismatch: point {point.shape} vs block {block.shape}"
        )
    return dominated_mask(point[None, :], block)


def any_dominator(point: np.ndarray, block: np.ndarray) -> bool:
    """Vectorised: does any row of ``block`` dominate ``point``?

    Both arguments must be in minimization space.
    """
    point = np.asarray(point, dtype=np.float64)
    block = np.asarray(block, dtype=np.float64)
    return bool(dominated_mask(block, point[None, :])[0])


def incomparable(
    a: Sequence[float],
    b: Sequence[float],
    preferences: Optional[Sequence[Preference]] = None,
) -> bool:
    """True iff neither vector dominates the other and they differ."""
    return (
        tuple(a) != tuple(b)
        and not dominates_values(a, b, preferences)
        and not dominates_values(b, a, preferences)
    )


class ComparisonCounter:
    """Counts dominance comparisons, split by operand representation.

    The paper's hybrid storage argument (Section 4.2) is that comparing
    small integer IDs is cheaper than comparing raw float values. The
    counter records both kinds so the device cost model can convert
    operation counts into simulated PDA time.
    """

    __slots__ = ("id_comparisons", "value_comparisons", "distance_checks")

    def __init__(self) -> None:
        self.id_comparisons = 0
        self.value_comparisons = 0
        self.distance_checks = 0

    def count_id(self, n: int = 1) -> None:
        """Record ``n`` integer-ID comparisons."""
        self.id_comparisons += n

    def count_value(self, n: int = 1) -> None:
        """Record ``n`` raw-value comparisons."""
        self.value_comparisons += n

    def count_distance(self, n: int = 1) -> None:
        """Record ``n`` Euclidean distance checks."""
        self.distance_checks += n

    @property
    def total(self) -> int:
        """All comparisons of any kind."""
        return self.id_comparisons + self.value_comparisons + self.distance_checks

    def merge(self, other: "ComparisonCounter") -> None:
        """Accumulate another counter into this one."""
        self.id_comparisons += other.id_comparisons
        self.value_comparisons += other.value_comparisons
        self.distance_checks += other.distance_checks

    def as_tuple(self) -> Tuple[int, int, int]:
        """``(id_comparisons, value_comparisons, distance_checks)``."""
        return (self.id_comparisons, self.value_comparisons, self.distance_checks)

    def __repr__(self) -> str:
        return (
            f"ComparisonCounter(id={self.id_comparisons}, "
            f"value={self.value_comparisons}, dist={self.distance_checks})"
        )
