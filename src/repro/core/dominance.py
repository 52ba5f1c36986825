"""Dominance predicates — the primitive underlying every skyline algorithm.

A tuple ``a`` *dominates* ``b`` iff ``a`` is no worse than ``b`` in every
dimension and strictly better in at least one (Section 1). The paper assumes
smaller-is-better; the predicates here accept per-attribute preference
directions so mixed-direction skylines work too.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..storage.schema import Preference

__all__ = [
    "dominates_values",
    "dominated_mask",
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


def dominated_mask(
    by: np.ndarray, targets: np.ndarray, block: Optional[int] = 256
) -> np.ndarray:
    """Mask over ``targets`` rows strictly dominated by some ``by`` row.

    This is the one vectorised dominance kernel: the skyline engine, the
    result assembler, the filter-pruning steps and the filter tests all
    call it (a single point is a one-row ``by``). Both inputs are 2-D
    and in minimization space.

    ``block=None`` compares every pair in one tile. An integer runs the
    same elementwise comparisons in tiles of at most ``block²`` pairs,
    so every intermediate is bounded by ``block²`` booleans whatever the
    input sizes; the output is identical.
    """
    n_by, n_targets = by.shape[0], targets.shape[0]
    if n_by == 0 or n_targets == 0:
        return np.zeros(n_targets, dtype=bool)
    if block is None or n_by * n_targets <= block * block:
        # Answer-sized inputs (a filter row against a slice, a running
        # skyline against one contribution) fit one tile: no output
        # buffer and no tile loops, whose numpy calls cost more than
        # the comparisons here.
        return _tile(by, targets)
    out = np.zeros(n_targets, dtype=bool)
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
            out[j : j + cols] |= _tile(by[i : i + rows], tgt)
    return out


def _tile(by: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """:func:`dominated_mask` of one tile, every pair compared at once.

    Attribute-at-a-time 2-D comparisons: the equivalent ``(B, T, d)``
    broadcast forces numpy onto a strided inner loop that is an order
    of magnitude slower on large tiles.
    """
    no_worse = by[:, 0:1] <= targets[:, 0]
    better = by[:, 0:1] < targets[:, 0]
    for a in range(1, by.shape[1]):
        no_worse &= by[:, a : a + 1] <= targets[:, a]
        better |= by[:, a : a + 1] < targets[:, a]
    no_worse &= better
    return no_worse.any(axis=0)


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

    def __repr__(self) -> str:
        return (
            f"ComparisonCounter(id={self.id_comparisons}, "
            f"value={self.value_comparisons}, dist={self.distance_checks})"
        )
