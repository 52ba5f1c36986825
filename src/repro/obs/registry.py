"""Named-instrument metrics registry.

The repo grew three ad-hoc counter families — the world's
:class:`~repro.net.world.TrafficStats`, the core layer's
:class:`~repro.core.dominance.ComparisonCounter`, and the storage
layer's :class:`~repro.storage.base.AccessStats`. Each is load-bearing
(results and the device cost model key on them), so they stay; what was
missing is a single *named* view of everything a run counted. The
registry provides that: counters, gauges, and histograms addressed by
dotted instrument names (``net.tx.frames``, ``core.local.scanned``,
``protocol.results.retransmits``, ...). A registry exists only while
a run is observed: instrumentation sites reach it through an observer
and guard on ``obs.enabled`` first, so there is no no-op registry.

Instrument naming convention (see ``docs/observability.md``):

``<layer>.<subsystem>.<quantity>`` — layer is one of ``net``, ``aodv``,
``protocol``, ``core``, ``storage``, ``sim``; quantities are plural
nouns for counters (``frames``, ``bytes``, ``retransmits``), singular
for gauges, and ``_s`` / ``_bytes`` suffixed for histograms recording
seconds / sizes.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be >= 0) to the count."""
        self.value += n

    def snapshot(self):
        return self.value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self):
        return self.value


class Histogram:
    """Streaming distribution summary: count / sum / min / max.

    Deliberately bucket-free — the simulator's consumers want exact
    totals and extremes, and a fixed bucket layout would be one more
    schema to version. ``mean`` is derived on read.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        """Arithmetic mean of all samples, or None before any."""
        return self.total / self.count if self.count else None

    def snapshot(self):
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Creates-or-returns named instruments.

    One registry per observed run. An instrument name is bound to its
    first-requested type; asking for the same name as a different type
    is a programming error and raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            self._instruments[name] = instrument
        elif type(instrument) is not cls:
            raise TypeError(
                f"instrument {name!r} already registered as "
                f"{type(instrument).__name__}, requested {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        return self._get(name, Histogram)

    def snapshot(self) -> Dict[str, object]:
        """``{name: value}`` for every instrument, sorted by name."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def counter_values(self) -> Dict[str, int]:
        """``{name: value}`` for the counters only — the cheap snapshot
        the streaming analyzer diffs at every window close."""
        return {
            name: instrument.value
            for name, instrument in self._instruments.items()
            if type(instrument) is Counter
        }

    def render(self) -> str:
        """Text table of every instrument (debugging / CLI output)."""
        lines = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                mean = instrument.mean
                lines.append(
                    f"{name:<40} count={instrument.count} "
                    f"sum={instrument.total:.6g} "
                    f"mean={mean:.6g}" if mean is not None
                    else f"{name:<40} count=0"
                )
            else:
                lines.append(f"{name:<40} {instrument.snapshot()}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._instruments)
