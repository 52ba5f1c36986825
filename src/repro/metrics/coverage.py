"""Result-coverage metrics: how much of the attainable answer arrived.

Under faults, "the query terminated" says little — a BF query that lost
half its result replies terminates exactly like one that heard everyone.
Coverage quantifies the difference: for each query, the fraction of
devices that were *network-reachable from the originator at issue time*
whose results were actually merged. 1.0 means the query gathered
everything it could possibly have gathered; anything lower is data the
faults cost us.

Reachability is snapshotted by the originator when the query opens
(:attr:`~repro.protocol.device.QueryRecord.reachable_at_issue`), so
devices that were *never* reachable — behind a partition, say — do not
count against a query. That matches the paper's own completion
pragmatics: "in an ad hoc network not every device is always reachable".
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["query_coverage", "mean_coverage"]


def query_coverage(record) -> Optional[float]:
    """Coverage of one query record.

    Args:
        record: A :class:`~repro.protocol.device.QueryRecord`.

    Returns:
        Fraction in [0, 1] of issue-time-reachable devices (originator
        excluded) that contributed results, 1.0 if no other device was
        reachable, or None if the record carries no reachability
        snapshot (pre-fault-accounting records).
    """
    return record.coverage()


def mean_coverage(records: Sequence) -> Optional[float]:
    """Mean coverage over records that carry a reachability snapshot."""
    values: List[float] = [
        c for c in (query_coverage(r) for r in records) if c is not None
    ]
    if not values:
        return None
    return sum(values) / len(values)
