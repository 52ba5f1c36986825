"""Deterministic fault schedules: device churn, link blackouts, loss bursts.

A :class:`FaultSchedule` is an immutable, time-ordered list of
:class:`FaultEvent` entries, built either explicitly (tests pin exact
times) or by :meth:`FaultSchedule.generate`, which draws every event
from one seeded generator — identical seeds produce bit-for-bit
identical schedules, so any run under faults replays exactly.

The schedule is pure data; wiring it into a live simulation is the
:class:`~repro.faults.injector.FaultInjector`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["FaultEvent", "FaultSchedule", "FAULT_KINDS"]

#: Recognised event kinds. Order matters: it is the same-time sort
#: tiebreak, so new kinds are appended, never inserted.
FAULT_KINDS = (
    "node-crash",
    "node-recover",
    "link-down",
    "link-up",
    "loss-burst-start",
    "loss-burst-end",
    "partition-split",
    "partition-heal",
    "dup-start",
    "dup-end",
    "jitter-start",
    "jitter-end",
)


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault transition.

    Attributes:
        time: Simulation time at which the transition applies.
        kind: One of :data:`FAULT_KINDS`.
        node: Target node for crash/recover events.
        link: Target ``(a, b)`` pair for link events (stored sorted).
        loss_rate: Probability payload: the override rate for
            ``loss-burst-start`` and the duplication probability for
            ``dup-start``.
        axis: Cut axis (``x`` or ``y``) for partition events.
        coord: Cut coordinate for partition events.
        jitter: Max extra per-hop delay for ``jitter-start`` events.
    """

    time: float
    kind: str
    node: Optional[int] = None
    link: Optional[Tuple[int, int]] = None
    loss_rate: Optional[float] = None
    axis: Optional[str] = None
    coord: Optional[float] = None
    jitter: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("fault time must be >= 0")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.kind in ("node-crash", "node-recover") and self.node is None:
            raise ValueError(f"{self.kind} needs a node")
        if self.kind in ("link-down", "link-up"):
            if self.link is None or self.link[0] == self.link[1]:
                raise ValueError(f"{self.kind} needs a link of two distinct nodes")
            if self.link[0] > self.link[1]:
                object.__setattr__(
                    self, "link", (self.link[1], self.link[0])
                )
        if self.kind == "loss-burst-start":
            if self.loss_rate is None or not 0.0 <= self.loss_rate <= 1.0:
                raise ValueError("loss-burst-start needs loss_rate in [0, 1]")
        if self.kind == "dup-start":
            if self.loss_rate is None or not 0.0 <= self.loss_rate <= 1.0:
                raise ValueError(
                    "dup-start needs a duplication rate in [0, 1] "
                    "(carried in loss_rate)"
                )
        if self.kind in ("partition-split", "partition-heal"):
            if self.axis not in ("x", "y") or self.coord is None:
                raise ValueError(f"{self.kind} needs axis ('x'/'y') and coord")
        if self.kind == "jitter-start":
            if self.jitter is None or self.jitter <= 0:
                raise ValueError("jitter-start needs jitter > 0")

    def signature(self) -> Tuple:
        """Hashable identity used for bit-for-bit trace comparisons."""
        return (self.time, self.kind, self.node, self.link, self.loss_rate,
                self.axis, self.coord, self.jitter)


class FaultSchedule:
    """An ordered collection of fault events.

    Build one empty and chain the builder methods, or call
    :meth:`generate` for a randomized-but-deterministic schedule::

        faults = (FaultSchedule()
                  .crash(10.0, node=3, downtime=30.0)
                  .link_blackout(5.0, 0, 1, duration=20.0)
                  .loss_burst(40.0, rate=0.8, duration=15.0))
    """

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self._events: List[FaultEvent] = sorted(
            events, key=lambda e: (e.time, FAULT_KINDS.index(e.kind))
        )

    # -- builders -----------------------------------------------------------

    def add(self, event: FaultEvent) -> "FaultSchedule":
        """Insert one event, keeping time order. Returns self."""
        self._events.append(event)
        self._events.sort(key=lambda e: (e.time, FAULT_KINDS.index(e.kind)))
        return self

    def crash(
        self, time: float, node: int, downtime: Optional[float] = None
    ) -> "FaultSchedule":
        """Crash ``node`` at ``time``; recover after ``downtime`` seconds
        (never, if None). Returns self."""
        self.add(FaultEvent(time=time, kind="node-crash", node=node))
        if downtime is not None:
            if downtime <= 0:
                raise ValueError("downtime must be > 0")
            self.add(
                FaultEvent(time=time + downtime, kind="node-recover", node=node)
            )
        return self

    def link_blackout(
        self, time: float, a: int, b: int, duration: Optional[float] = None
    ) -> "FaultSchedule":
        """Force the ``a``–``b`` link down at ``time`` for ``duration``
        seconds (forever, if None). Returns self."""
        self.add(FaultEvent(time=time, kind="link-down", link=(a, b)))
        if duration is not None:
            if duration <= 0:
                raise ValueError("duration must be > 0")
            self.add(
                FaultEvent(time=time + duration, kind="link-up", link=(a, b))
            )
        return self

    def loss_burst(
        self, time: float, rate: float, duration: float
    ) -> "FaultSchedule":
        """Raise the world loss rate to ``rate`` during
        ``[time, time + duration)``. Returns self."""
        if duration <= 0:
            raise ValueError("duration must be > 0")
        self.add(
            FaultEvent(time=time, kind="loss-burst-start", loss_rate=rate)
        )
        self.add(FaultEvent(time=time + duration, kind="loss-burst-end"))
        return self

    def partition(
        self, time: float, axis: str, coord: float,
        duration: Optional[float] = None,
    ) -> "FaultSchedule":
        """Split the world along ``axis = coord`` at ``time``; heal after
        ``duration`` seconds (never, if None). Returns self."""
        self.add(
            FaultEvent(time=time, kind="partition-split", axis=axis,
                       coord=coord)
        )
        if duration is not None:
            if duration <= 0:
                raise ValueError("duration must be > 0")
            self.add(
                FaultEvent(time=time + duration, kind="partition-heal",
                           axis=axis, coord=coord)
            )
        return self

    def duplication(
        self, time: float, rate: float, duration: float
    ) -> "FaultSchedule":
        """Duplicate delivered frames with probability ``rate`` during
        ``[time, time + duration)``. Returns self."""
        if duration <= 0:
            raise ValueError("duration must be > 0")
        self.add(FaultEvent(time=time, kind="dup-start", loss_rate=rate))
        self.add(FaultEvent(time=time + duration, kind="dup-end"))
        return self

    def delay_jitter(
        self, time: float, max_delay: float, duration: float
    ) -> "FaultSchedule":
        """Add uniform ``[0, max_delay]`` extra per-hop delay during
        ``[time, time + duration)``. Returns self."""
        if duration <= 0:
            raise ValueError("duration must be > 0")
        self.add(FaultEvent(time=time, kind="jitter-start", jitter=max_delay))
        self.add(FaultEvent(time=time + duration, kind="jitter-end"))
        return self

    # -- generation ---------------------------------------------------------

    @classmethod
    def generate(
        cls,
        node_count: int,
        sim_time: float,
        seed: int,
        crash_fraction: float = 0.0,
        mean_downtime: float = 60.0,
        window: Optional[Tuple[float, float]] = None,
        link_blackouts: int = 0,
        mean_blackout: float = 30.0,
        loss_bursts: int = 0,
        burst_rate: float = 0.8,
        mean_burst: float = 20.0,
        protect: Sequence[int] = (),
        partitions: int = 0,
        mean_partition: float = 40.0,
        extent: Tuple[float, float] = (1000.0, 1000.0),
        dup_windows: int = 0,
        dup_rate: float = 0.3,
        mean_dup: float = 20.0,
        jitter_windows: int = 0,
        jitter_max: float = 0.25,
        mean_jitter: float = 20.0,
    ) -> "FaultSchedule":
        """Draw a churn schedule from one seeded generator.

        Args:
            node_count: Nodes the simulation will run.
            sim_time: Horizon; every fault starts inside ``[0, sim_time)``
                (or inside ``window`` when given).
            seed: Determinism anchor — same arguments, same schedule.
            crash_fraction: Fraction of nodes (rounded down) that crash
                once each at a uniform time in the window.
            mean_downtime: Mean of the exponential downtime draw; a node
                whose downtime would outlive ``sim_time`` simply never
                recovers.
            window: Optional ``(start, end)`` interval constraining fault
                start times (defaults to the whole run).
            link_blackouts: Number of random pairwise blackouts.
            mean_blackout: Mean exponential blackout duration.
            loss_bursts: Number of bursty-loss windows.
            burst_rate: Loss rate inside each burst.
            mean_burst: Mean exponential burst duration.
            protect: Node ids that never crash (e.g. query originators a
                test needs alive).
            partitions: Number of region-split windows (random axis, cut
                in the middle half of ``extent``).
            mean_partition: Mean exponential partition duration; a split
                outliving ``sim_time`` never heals.
            extent: ``(width, height)`` of the deployment area the cut
                coordinate is drawn from.
            dup_windows: Number of message-duplication windows.
            dup_rate: Duplication probability inside each window.
            mean_dup: Mean exponential duplication-window duration.
            jitter_windows: Number of delay-jitter windows.
            jitter_max: Max extra per-hop delay inside each window.
            mean_jitter: Mean exponential jitter-window duration.

        Determinism note: the new fault families draw *after* the
        original crash/blackout/burst draws, so schedules generated with
        only the original arguments are bit-identical to those from
        before partitions/duplication/jitter existed.
        """
        if node_count <= 0:
            raise ValueError("node_count must be > 0")
        if not 0.0 <= crash_fraction <= 1.0:
            raise ValueError("crash_fraction must be in [0, 1]")
        lo, hi = window if window is not None else (0.0, sim_time)
        if not 0 <= lo < hi <= sim_time:
            raise ValueError("window must satisfy 0 <= start < end <= sim_time")
        rng = np.random.default_rng(seed)
        schedule = cls()
        crashable = [n for n in range(node_count) if n not in set(protect)]
        n_crashes = min(int(crash_fraction * node_count), len(crashable))
        if n_crashes:
            victims = rng.choice(len(crashable), size=n_crashes, replace=False)
            for index in sorted(int(v) for v in victims):
                node = crashable[index]
                start = float(rng.uniform(lo, hi))
                downtime = float(rng.exponential(mean_downtime))
                if start + downtime >= sim_time:
                    schedule.crash(start, node)
                else:
                    schedule.crash(start, node, downtime=downtime)
        for _ in range(link_blackouts):
            a, b = rng.choice(node_count, size=2, replace=False)
            start = float(rng.uniform(lo, hi))
            duration = float(rng.exponential(mean_blackout))
            schedule.link_blackout(
                start, int(a), int(b),
                duration=duration if start + duration < sim_time else None,
            )
        for _ in range(loss_bursts):
            start = float(rng.uniform(lo, hi))
            duration = float(rng.exponential(mean_burst))
            schedule.loss_burst(
                start, burst_rate, duration=max(duration, 1e-3)
            )
        for _ in range(partitions):
            axis = "x" if rng.random() < 0.5 else "y"
            span = extent[0] if axis == "x" else extent[1]
            coord = float(rng.uniform(0.25, 0.75)) * span
            start = float(rng.uniform(lo, hi))
            duration = float(rng.exponential(mean_partition))
            schedule.partition(
                start, axis, coord,
                duration=duration if start + duration < sim_time else None,
            )
        for _ in range(dup_windows):
            start = float(rng.uniform(lo, hi))
            duration = float(rng.exponential(mean_dup))
            schedule.duplication(
                start, dup_rate, duration=max(duration, 1e-3)
            )
        for _ in range(jitter_windows):
            start = float(rng.uniform(lo, hi))
            duration = float(rng.exponential(mean_jitter))
            schedule.delay_jitter(
                start, jitter_max, duration=max(duration, 1e-3)
            )
        return schedule

    # -- access -------------------------------------------------------------

    def signature(self) -> Tuple[Tuple, ...]:
        """Bit-for-bit identity of the whole schedule."""
        return tuple(e.signature() for e in self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)
