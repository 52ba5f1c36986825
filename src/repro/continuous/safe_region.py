"""Per-device safe regions: when silence is provably sound.

A subscriber may stay silent at a refresh epoch iff its silence cannot
change the subscription answer. The answer is the skyline of the union
of every device's *local in-range skyline* (self-reduced only — no
cross-device filtering), so a device's report is a pure function of
(its relation version, the query disk). That gives three sound silence
clauses, checked cheapest-first:

1. **Spatial clause** — the device's data MBR lies entirely outside the
   query disk (plus ``slack`` metres of margin). Tuple sites are static
   and updates are value-only, so this exemption, once established at
   enrollment, holds forever: the device's in-range set is empty at
   every epoch. (The ``slack`` knob buys the same permanence under a
   future model where sites drift up to ``slack`` between epochs.)
2. **Version clause** — the device's ``data_epoch`` is unchanged since
   its last report. Same relation version + same disk ⇒ same local
   skyline ⇒ the stored report at the originator is still exact.
3. **Value clause** — the data did change, but the recomputed local
   in-range skyline equals the last reported one row-for-row (the
   update moved tuples around inside their dominance cells without
   changing skyline membership or skyline values). Reporting an
   identical set would be pure overhead.

Soundness property (pinned by ``tests/test_continuous.py``): replacing
a silent device's stored report with its freshly recomputed local
skyline never changes the global answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from ..storage.relation import Relation

__all__ = ["SafeRegion", "relation_rows", "min_distance_to_mbr"]


def relation_rows(relation: Relation) -> FrozenSet[Tuple]:
    """Identity set of a relation's tuples: ``(site_id, values...)``.

    The row identity deliberately includes the values, so a value
    change on a site that stays in the skyline still reads as a
    membership change (leave + re-enter)."""
    return frozenset(
        (int(sid),) + tuple(float(v) for v in row)
        for sid, row in zip(relation.site_ids, relation.values)
    )


def min_distance_to_mbr(
    pos: Tuple[float, float], mbr: Tuple[float, float, float, float]
) -> float:
    """Euclidean distance from ``pos`` to the closest point of ``mbr``
    (0 when ``pos`` is inside)."""
    x, y = pos
    x_min, y_min, x_max, y_max = mbr
    dx = max(x_min - x, 0.0, x - x_max)
    dy = max(y_min - y, 0.0, y - y_max)
    return math.hypot(dx, dy)


@dataclass
class SafeRegion:
    """A subscriber's silence certificate for one subscription.

    Attributes:
        spatially_exempt: Clause 1 held at enrollment — permanent.
        last_data_epoch: Device ``data_epoch`` at the last report
            (clause 2 compares against the live counter).
        last_report_rows: Row identities of the last reported local
            skyline (clause 3 compares a recomputation against it), or
            None after :meth:`forget`.
    """

    spatially_exempt: bool
    last_data_epoch: int
    last_report_rows: Optional[FrozenSet[Tuple]]

    @classmethod
    def establish(
        cls,
        relation: Relation,
        pos: Tuple[float, float],
        d: float,
        slack: float,
        data_epoch: int,
        reported: Relation,
    ) -> "SafeRegion":
        """Build the region at enrollment time, after the full report."""
        exempt = relation.cardinality == 0 or (
            min_distance_to_mbr(pos, relation.mbr()) > d + slack
        )
        return cls(
            spatially_exempt=exempt,
            last_data_epoch=data_epoch,
            last_report_rows=relation_rows(reported),
        )

    def silence_reason(self, data_epoch: int) -> Optional[str]:
        """Cheapest-first silence check *before* recomputation.

        Returns ``"spatial"`` or ``"epoch"`` when silence is already
        proven, else None — the caller must then recompute and may still
        stay silent via :meth:`unchanged` (clause 3). After
        :meth:`forget` nothing is proven.
        """
        if self.last_report_rows is None:
            return None
        if self.spatially_exempt:
            return "spatial"
        if data_epoch == self.last_data_epoch:
            return "epoch"
        return None

    def unchanged(self, rows: FrozenSet[Tuple]) -> bool:
        """Clause 3: does a recomputed report equal the last one?"""
        return rows == self.last_report_rows

    def note_report(self, data_epoch: int, rows: FrozenSet[Tuple]) -> None:
        """Update the certificate after reporting (or after clause 3
        proved the recomputation redundant)."""
        self.last_data_epoch = data_epoch
        self.last_report_rows = rows

    def forget(self) -> None:
        """The last report was given up unacknowledged, so the
        originator's copy of this slice is unknown: no clause holds, and
        the next report must be a full one."""
        self.last_report_rows = None
