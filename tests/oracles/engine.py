"""Reference count of the event engine's live queued events.

:func:`live_pending_scan` walks the whole heap; the engine keeps an
O(1) counter (:attr:`~repro.net.engine.Simulator.live_pending`) that
the tests require to match it after every schedule, cancel and fire.
"""

from __future__ import annotations

from repro.net.engine import Simulator

__all__ = ["live_pending_scan"]


def live_pending_scan(sim: Simulator) -> int:
    """O(heap) count of the queued events that will still fire."""
    return sum(1 for h in sim.queued() if not h.cancelled)
