"""Fault staging through the Observer's flight ring.

The recovery, resilience, chaos and fault tests stage crashes by running
a scenario cleanly, reading off exactly when a frame of interest flies
(``tx.<kind>`` on the sender's ring, ``rx.<kind>`` on each receiver's),
and re-running the identical simulation with a fault placed around that
moment. Observation is passive, so the observed clean run and the
faulted re-run share their prefix bit for bit. Data updates are staged
the same way, from explicit ``(time, device, fraction)`` triples.
"""

from repro.faults import DataUpdateSchedule, UpdateEvent
from repro.net import aodv
from repro.obs import FlightRecorder, Observer

#: Ring depth per node, far above what any staged scenario records, so
#: no first event is ever evicted.
STAGING_CAPACITY = 100_000


def quick_discovery(monkeypatch):
    """Give up on an unreachable destination after one 0.4 s route
    discovery, for the rest of the calling test."""
    monkeypatch.setattr(aodv, "RREQ_RETRIES", 0)
    monkeypatch.setattr(aodv, "NET_TRAVERSAL_TIME", 0.4)


def observe(world):
    """Bind an Observer with a staging-sized flight ring to ``world``
    and return it. A world has one ``obs``: tests that read the
    observer's metrics use this same one."""
    return Observer().attach_flight(
        FlightRecorder(capacity=STAGING_CAPACITY)
    ).bind(world)


def event_times(observer, node, kind):
    """Sim times of every ``kind`` entry (e.g. ``"tx.data"``) on
    ``node``'s ring, oldest first. Fails if the ring ever evicted, since
    the first recorded entry would then not be the first event."""
    recorder = observer.flight
    assert recorder.evicted == 0, (
        f"flight ring evicted {recorder.evicted} entries; "
        f"raise STAGING_CAPACITY"
    )
    return [e.time for e in recorder.snapshot(node) if e.kind == kind]


def first_time(observer, node, kind):
    """Sim time of the first ``kind`` entry on ``node``'s ring."""
    times = event_times(observer, node, kind)
    assert times, f"no {kind} events for node {node}"
    return times[0]


def update_schedule(*updates):
    """A :class:`~repro.faults.DataUpdateSchedule` of ``(time, device,
    fraction)`` updates, each seeded from its own coordinates so a
    staged schedule replays bit for bit."""
    return DataUpdateSchedule([
        UpdateEvent(time, device, fraction,
                    (int(time * 1000) * 31 + device) & 0x7FFFFFFF)
        for time, device, fraction in updates
    ])
