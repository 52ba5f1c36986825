"""Originator-side subscription state: stored reports, refresh epochs.

The maintained answer is the skyline of the union of per-device *local
in-range skylines* (each device self-reduces, nothing is filtered
across devices). That representation is what makes incremental
maintenance sound with no invalidation cascades: a device's stored
report is a pure function of its own relation version, so a DELTA from
device ``i`` replaces exactly ``i``'s slice of the union and the global
skyline is recomputed from slices — a tuple suppressed by a remote
dominator can never be lost, because it was never removed from its
owner's slice.

Every refresh epoch produces a :class:`RefreshEpoch` with a
:class:`~repro.resilience.CompletionReport`, so graded coverage and the
chaos invariant suite apply per epoch exactly as they do per one-shot
query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from ..core.skyline import skyline_numpy
from ..net.engine import EventHandle
from ..resilience.report import CompletionReport, build_completion_report
from ..storage.relation import Relation
from .messages import DeltaMessage, SubscriptionSpec

__all__ = ["RefreshEpoch", "SubscriptionRecord", "apply_delta"]


def apply_delta(stored: Relation, delta: DeltaMessage) -> Relation:
    """Fold one device's DELTA into its stored report slice."""
    if delta.full:
        return delta.enters
    drop = set(delta.leaves)
    drop.update(delta.enters.site_ids.tolist())
    if drop:
        stored = stored.take([
            i for i, sid in enumerate(stored.site_ids.tolist())
            if sid not in drop
        ])
    if delta.enters.cardinality:
        stored = stored.union(delta.enters)
    return stored


@dataclass
class RefreshEpoch:
    """The closed books of one refresh epoch.

    Attributes:
        epoch: Epoch number (0 = install).
        tick_time: When the epoch's refresh window opened.
        closed_at: When the originator closed it (tick + budget).
        result_rows: Row identities of the maintained answer at close.
        reporters: Devices whose DELTA arrived inside this epoch.
        report: Graded per-epoch completion accounting.
        messages: Protocol frames the whole network sent inside the
            epoch window (close-to-close delta of the world counter) —
            the benchmark's messages-per-refresh numerator.
        reference_rows: Row identities of a fresh centralized reference
            answer at close time (filled by the runner when reference
            capture is on; None otherwise).
    """

    epoch: int
    tick_time: float
    closed_at: float
    result_rows: FrozenSet[Tuple]
    reporters: FrozenSet[int]
    report: CompletionReport
    messages: int
    reference_rows: Optional[FrozenSet[Tuple]] = None

    @property
    def divergence(self) -> Optional[float]:
        """Staleness of the maintained answer vs. the reference:
        ``|result Δ reference| / max(1, |reference|)`` (0.0 = exact),
        None before reference capture."""
        if self.reference_rows is None:
            return None
        sym = len(self.result_rows ^ self.reference_rows)
        return sym / max(1, len(self.reference_rows))


class _EpochShim:
    """Duck-typed record fed to ``build_completion_report`` per epoch."""

    __slots__ = ("query", "originator", "contributions",
                 "reachable_at_issue", "aborted_by_crash", "completion_time")

    def __init__(self, query, originator, covered, reachable, complete,
                 closed_at) -> None:
        self.query = query
        self.originator = originator
        self.contributions = {device: True for device in sorted(covered)}
        self.reachable_at_issue = reachable
        self.aborted_by_crash = False
        self.completion_time = closed_at if complete else None


@dataclass
class SubscriptionRecord:
    """Originator-side lifecycle record of one continuous subscription."""

    spec: SubscriptionSpec
    originator: int
    epochs_total: int
    status: str = "active"
    #: Per-device stored report slice (the device's local in-range
    #: skyline as of its latest accepted DELTA).
    device_reports: Dict[int, Relation] = field(default_factory=dict)
    #: World crash counter per device at its latest accepted DELTA —
    #: a device whose counter moved since then lost its subscriber
    #: state (fail-stop), so its silence is loss, not a safe region.
    report_crash_counts: Dict[int, int] = field(default_factory=dict)
    #: Accepted ``(sender, epoch)`` pairs — the idempotence guard that
    #: makes fault-injected duplicate DELTA deliveries no-ops.
    delta_seen: Set[Tuple[int, int]] = field(default_factory=set)
    #: Devices whose DELTA arrived in the epoch currently open.
    epoch_reporters: Set[int] = field(default_factory=set)
    #: The originator's own local in-range skyline slice, and the
    #: ``data_epoch`` it was computed at (the originator's own safe
    #: region — an unchanged epoch skips the recomputation at a tick).
    own_report: Optional[Relation] = None
    own_data_epoch: int = -1
    #: Row identities of the maintained answer, kept until a slice
    #: changes (None: recompute at the next close).
    answer_rows: Optional[FrozenSet[Tuple]] = field(default=None, repr=False)
    epochs: List[RefreshEpoch] = field(default_factory=list)
    current_epoch: int = 0
    reachable_at_tick: FrozenSet[int] = frozenset()
    close_timer: Optional[EventHandle] = field(default=None, repr=False)
    tick_timer: Optional[EventHandle] = field(default=None, repr=False)
    messages_at_open: int = 0

    @property
    def key(self) -> Tuple[int, int]:
        return self.spec.key

    @property
    def closed(self) -> bool:
        return self.status != "active"

    def result_rows(self) -> FrozenSet[Tuple]:
        """Row identities of the maintained global answer: the skyline
        of the union of every stored slice (slices are already
        self-reduced), recomputed only after a slice changed. Identities
        are built only for the rows the kernel keeps, and only non-empty
        slices are gathered: most devices of a small disk report none."""
        if self.answer_rows is None:
            slices = [
                s for s in [self.own_report] + [
                    self.device_reports[device]
                    for device in sorted(self.device_reports)
                ]
                if s.cardinality
            ]
            if not slices:
                self.answer_rows = frozenset()
                return self.answer_rows
            keep = skyline_numpy(
                np.concatenate([s.normalized_values() for s in slices])
            )
            site_ids = np.concatenate([s.site_ids for s in slices])
            values = np.concatenate([s.values for s in slices])
            self.answer_rows = frozenset(zip(
                site_ids.take(keep).tolist(),
                *values.take(keep, axis=0).T.tolist(),
            ))
        return self.answer_rows

    def refresh_own_report(self, data_epoch: int, compute_local) -> None:
        """Recompute the originator's own slice with the device's
        ``compute_local`` unless its data is unchanged since the last
        computation."""
        if data_epoch == self.own_data_epoch:
            return
        self.own_report = compute_local(self.spec.query, None).skyline
        self.own_data_epoch = data_epoch
        self.answer_rows = None

    def close_epoch(
        self,
        epoch: int,
        tick_time: float,
        closed_at: float,
        population: FrozenSet[int],
        down_now: FrozenSet[int],
        crash_counts: Dict[int, int],
        messages_now: int,
    ) -> RefreshEpoch:
        """Build one epoch's books: result snapshot, graded report.

        A device counts as *covered* this epoch when its stored slice is
        provably current: it reported inside the epoch, or it is
        enrolled, up, and has not crashed since its latest report (the
        subscriber contract makes such a device's silence mean "no
        change"). Enrolled devices that crashed since reporting are
        lost-to-fault; never-enrolled devices are unreachable-at-issue
        unless the tick-time snapshot says the flood could have reached
        them, in which case their silence is deadline-expired.
        """
        reporters = frozenset(self.epoch_reporters)
        covered = set(reporters)
        crashed_during = set()
        for device, seen_count in self.report_crash_counts.items():
            if device in covered:
                continue
            if crash_counts.get(device, 0) == seen_count and device not in down_now:
                covered.add(device)
            else:
                crashed_during.add(device)
        shim = _EpochShim(
            query=self.spec.query,
            originator=self.originator,
            covered=covered,
            # An enrolled device was provably reached (its install-flood
            # report landed), so even when the tick-time snapshot can no
            # longer see it — crashed, recovered elsewhere — it belongs
            # to the reachable side of the partition: lost-to-fault, not
            # unreachable-at-issue.
            reachable=self.reachable_at_tick
            | frozenset(covered)
            | frozenset(crashed_during),
            complete=covered >= (population - {self.originator}),
            closed_at=closed_at,
        )
        report = build_completion_report(
            shim,
            population=population,
            down_now=down_now,
            closed_at=closed_at,
            crashed_during=frozenset(crashed_during),
        )
        books = RefreshEpoch(
            epoch=epoch,
            tick_time=tick_time,
            closed_at=closed_at,
            result_rows=self.result_rows(),
            reporters=reporters,
            report=report,
            messages=messages_now - self.messages_at_open,
        )
        self.epochs.append(books)
        self.epoch_reporters.clear()
        self.messages_at_open = messages_now
        return books

    def accept_delta(
        self, delta: DeltaMessage, crash_count: int
    ) -> bool:
        """Merge one DELTA if its ``(sender, epoch)`` is new; returns
        whether it was fresh (duplicate deliveries return False)."""
        tag = (delta.sender, delta.epoch)
        if tag in self.delta_seen:
            return False
        self.delta_seen.add(tag)
        stored = self.device_reports.get(delta.sender)
        if stored is None:
            if not delta.full:
                # An incremental delta for a slice we never stored —
                # possible when the originator crashed and a renew
                # re-enrolled the sender before it noticed. Treat the
                # enters as the whole slice; the next full report heals.
                stored = delta.enters
                self.device_reports[delta.sender] = stored
            else:
                self.device_reports[delta.sender] = delta.enters
        else:
            self.device_reports[delta.sender] = apply_delta(stored, delta)
        self.report_crash_counts[delta.sender] = crash_count
        self.epoch_reporters.add(delta.sender)
        self.answer_rows = None
        return True

    def cancel_timers(self) -> None:
        if self.close_timer is not None:
            self.close_timer.cancel()
            self.close_timer = None
        if self.tick_timer is not None:
            self.tick_timer.cancel()
            self.tick_timer = None
