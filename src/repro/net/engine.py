"""Discrete-event simulation kernel.

A minimal, deterministic event engine in the style of simpy's core: a
binary-heap event queue with stable FIFO ordering among simultaneous
events. An event is a callback and its arguments; there are no
generator processes.

Determinism: events fire in ``(time, sequence)`` order, where the
sequence number is assigned at scheduling time, so two runs with the same
seed replay identically. Heap entries are ``(time, seq, handle)`` tuples:
the unique sequence number settles every tie, so ordering is a C-level
tuple comparison that never reaches the handle.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Simulator", "EventHandle"]


class EventHandle:
    """Handle to a scheduled event; supports cancellation."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple,
        sim: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired or
        already cancelled — double-cancel is idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._live -= 1


class Simulator:
    """The event loop.

    Example::

        sim = Simulator()
        sim.schedule(5.0, print, "hello at t=5")
        sim.run()
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._events_fired = 0
        self._live = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total events executed so far (diagnostics)."""
        return self._events_fired

    @property
    def live_pending(self) -> int:
        """Events still queued that will actually fire (cancelled debris
        excluded) — the leaked-timer metric the resilience invariants
        check after a drained run. O(1): a counter incremented on
        schedule and decremented exactly once per fire or cancel."""
        return self._live

    def queued(self) -> List[EventHandle]:
        """Every queued handle, cancelled ones included, in no particular
        order."""
        return [entry[2] for entry in self._heap]

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = next(self._seq)
        handle = EventHandle(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, handle))
        self._live += 1
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        return self.schedule(time - self._now, callback, *args)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Execute events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        ``until`` is inclusive: events scheduled exactly at ``until`` run;
        afterwards ``now`` equals ``until`` even if the queue drained
        earlier (so a 2-hour simulation reports 2 hours). The clamp
        applies on every exit path with no live events left at or before
        ``until`` — including a ``max_events``-capped run whose queue
        holds only cancelled debris; a cap that stops mid-simulation
        (live events still due) leaves ``now`` at the last fired event.
        """
        heap = self._heap
        fired = 0
        while heap:
            time, _, head = heap[0]
            if head.cancelled:
                heapq.heappop(heap)
                continue
            if max_events is not None and fired >= max_events:
                break
            if until is not None and time > until:
                break
            heapq.heappop(heap)
            # Mark consumed before firing: a cancel() from inside the
            # callback (or any later one) is a no-op, and the live
            # counter is decremented exactly once per event.
            head.cancelled = True
            self._live -= 1
            self._now = time
            head.callback(*head.args)
            self._events_fired += 1
            fired += 1
        if (
            until is not None
            and self._now < until
            and (not heap or heap[0][0] > until)
        ):
            self._now = until
