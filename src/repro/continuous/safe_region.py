"""Per-device safe regions: when a subscriber must wake.

The subscription answer is the skyline of the union of every device's
*local in-range skyline* (self-reduced only — no cross-device
filtering), so a device's report is a pure function of (its relation
version, the query disk). Tuple sites are static and updates are
value-only, so a device's slice can change only through its own
``apply_update`` (a new relation version), and the originator's copy of
it can go wrong only through a given-up report (:meth:`SafeRegion.forget`,
called from the device's ``_reply_given_up`` hook). That gives three
sound clauses:

1. **Spatial clause** — the device's data MBR lies entirely outside the
   query disk. Established at enrollment, it holds forever: the
   device's in-range set is empty at every epoch, so no update ever
   wakes it.
2. **Version clause** — the wake trigger. While the device's data is
   unchanged since its last report, the same relation version and the
   same disk give the same local skyline, so the report stored at the
   originator is still exact and the subscriber sleeps until the
   subscription's planned end. :meth:`SafeRegion.note_update` breaks
   the clause, and the subscriber wakes at the next epoch boundary to
   recompute.
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

from ..data.spatial import rect_overlaps_circle
from ..storage.relation import Relation

__all__ = ["SafeRegion", "relation_rows", "min_distance_to_mbr"]


def relation_rows(relation: Relation) -> FrozenSet[Tuple]:
    """Identity set of a relation's tuples: ``(site_id, values...)``.

    The row identity deliberately includes the values, so a value
    change on a site that stays in the skyline still reads as a
    membership change (leave + re-enter). Built from ``tolist()``, so
    the elements are Python ints and floats, never numpy scalars."""
    return frozenset(
        zip(relation.site_ids.tolist(), *relation.values.T.tolist())
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
        last_report_rows: Row identities of the last reported local
            skyline (clause 3 compares a recomputation against it), or
            None after :meth:`forget`.
        stale: The data changed since the last report (clause 2 broke).
    """

    spatially_exempt: bool
    last_report_rows: Optional[FrozenSet[Tuple]]
    stale: bool = False

    @classmethod
    def establish(
        cls,
        relation: Relation,
        pos: Tuple[float, float],
        d: float,
        reported: Relation,
    ) -> "SafeRegion":
        """Build the region at enrollment time, after the full report."""
        # The arithmetic of the range test, as the MBR skip uses: a
        # ``math.hypot`` distance can round past ``d`` for a row that
        # test keeps, and exempt a device whose slice can change.
        exempt = relation.cardinality == 0 or not rect_overlaps_circle(
            relation.mbr(), pos, d
        )
        return cls(
            spatially_exempt=exempt,
            last_report_rows=relation_rows(reported),
        )

    @property
    def needs_recompute(self) -> bool:
        """Whether the next wake must recompute the local skyline: the
        data changed, or the originator's copy of the slice is unknown."""
        return self.stale or self.last_report_rows is None

    def note_update(self) -> bool:
        """The device's data changed. Returns whether the slice can have
        changed (clause 2 broke), i.e. whether the subscriber must wake
        at the next epoch boundary; a spatially exempt slice cannot."""
        if self.spatially_exempt:
            return False
        self.stale = True
        return True

    def unchanged(self, rows: FrozenSet[Tuple]) -> bool:
        """Clause 3: does a recomputed report equal the last one?"""
        return rows == self.last_report_rows

    def note_report(self, rows: FrozenSet[Tuple]) -> None:
        """Update the certificate after reporting (or after clause 3
        proved the recomputation redundant)."""
        self.last_report_rows = rows
        self.stale = False

    def forget(self) -> None:
        """The last report was given up unacknowledged, so the
        originator's copy of this slice is unknown: the subscriber must
        wake at the next epoch boundary and ship a full report."""
        self.last_report_rows = None
