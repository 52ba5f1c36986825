"""Streaming metrics + anomaly detection over a live observer.

A :class:`StreamAnalyzer` rides along with an
:class:`~repro.obs.observer.Observer` (attach with
:meth:`Observer.attach_stream`) and aggregates the metrics registry
into fixed sim-time windows *as the run executes*: per-window counter
deltas become rates, raw samples (coverage at close, local-eval wall
time, delta sizes) become per-window p50/p99. No simulation events are
scheduled — the analyzer advances lazily from the observer's own
hooks, so an analyzed run is bit-identical to a plain one.

On every closed window the analyzer runs its detectors, modeled on the
earthgecko skyline analyzer's algorithm battery: a value is anomalous
only when *both* the median-absolute-deviation test and the 3-sigma
test agree against the window history (a consensus of two, which is
what keeps fault-free runs at zero false positives), and only past an
absolute floor (a "spike" of one retransmission is noise, not an
incident). High-side rate detectors judge against the *active*
(nonzero) windows of their history: protocol traffic is event-driven
— long idle stretches punctuated by query floods — so a baseline that
includes the idle windows has median 0 and flags every legitimate
flood. Comparing bursts to previous bursts is what lets a healthy
bursty run stay quiet. Shipped detectors flag retransmission spikes
(``protocol.results.retransmits``), broadcast storms (``net.tx.frames``
above anything previously seen), duplicate storms (``net.dup.frames``
— the receiver-side dedup hits a duplication fault causes), recovery
churn (token re-issues + failovers + deadline closes), and coverage
collapse (per-query coverage at close, low side).

The run's verdict ships as a machine-readable health report
(``schema: obs_health/v1``) next to the telemetry bundle, and as a
``repro top``-style text dashboard. Detector recall/precision is
pinned against the seeded ``chaos_sweep`` fault schedules in
``benchmarks/obs_overhead.py`` (injected faults are ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "HEALTH_SCHEMA",
    "Anomaly",
    "Detector",
    "DEFAULT_DETECTORS",
    "StreamAnalyzer",
    "validate_health_report",
]

HEALTH_SCHEMA = "obs_health/v1"

#: Synthetic rate series: re-issues + failovers + deadline closes per
#: window — the originator-observable "the protocol is recovering"
#: signal, summed because each alone is sparse.
RECOVERY_SERIES = "derived.recovery_actions"
_RECOVERY_COUNTERS = (
    "protocol.token.reissues",
    "resilience.failovers",
    "resilience.deadline_closes",
)

#: Width of one aggregation window in simulated seconds.
WINDOW = 5.0
#: Prior windows (or samples) a detector compares a value against.
HISTORY = 24
#: Both scores must exceed their threshold to flag a value: the MAD
#: score and the sigma score of the consensus test.
MAD_THRESHOLD = 3.0
SIGMA_THRESHOLD = 3.0


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _percentile(values: List[float], q: float) -> Optional[float]:
    """Linear-interpolated percentile (q in [0, 100])."""
    if not values:
        return None
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


@dataclass(frozen=True)
class Detector:
    """One anomaly detector's configuration.

    Attributes:
        name: Detector id reported on anomalies.
        series: Rate series (``kind="rate"``) or sample series
            (``kind="sample"``) it watches.
        kind: ``rate`` (per-window counter deltas, checked at window
            close) or ``sample`` (raw observations, checked per sample).
        direction: ``high`` flags spikes, ``low`` flags collapses.
        floor: Absolute gate — ``high`` detectors ignore values below
            it, ``low`` detectors ignore values above it. This is the
            noise/incident line that keeps fault-free runs clean; set
            it above the largest burst the *workload itself* produces
            (simultaneous query floods are traffic, not storms).
        min_history: Prior windows/samples required before judging.
            For ``high`` rate detectors this counts *active* (nonzero)
            windows — the baseline a burst is compared against.
        above_peak: ``high`` only — additionally require the value to
            exceed every historical value (for series with legitimate
            recurring bursts, e.g. flood waves at query issue).
    """

    name: str
    series: str
    kind: str = "rate"
    direction: str = "high"
    floor: float = 0.0
    min_history: int = 6
    above_peak: bool = False


DEFAULT_DETECTORS: Tuple[Detector, ...] = (
    Detector(name="retransmission-spike",
             series="protocol.results.retransmits", floor=3.0),
    # Floor calibrated against the chaos harness: simultaneous BF
    # floods at smoke scale legitimately burst past 100 frames per
    # window; a storm (echo loops, fault-amplified refloods) compounds
    # per hop and clears 150 fast.
    Detector(name="broadcast-storm", series="net.tx.frames",
             floor=150.0, above_peak=True),
    Detector(name="duplicate-storm", series="net.dup.frames", floor=3.0),
    # Floor 3: lossy-but-healthy runs close the odd query by deadline;
    # three recovery actions inside one window is the protocol visibly
    # fighting something.
    Detector(name="recovery-churn", series=RECOVERY_SERIES, floor=3.0),
    Detector(name="coverage-collapse", series="protocol.coverage",
             kind="sample", direction="low", floor=0.5, min_history=2),
)


@dataclass
class Anomaly:
    """One detector firing."""

    time: float
    detector: str
    series: str
    value: float
    baseline: float
    score: float
    window: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "detector": self.detector,
            "series": self.series,
            "value": self.value,
            "baseline": self.baseline,
            "score": self.score,
            "window": self.window,
        }


@dataclass
class _SampleSeries:
    values: List[float] = field(default_factory=list)
    times: List[float] = field(default_factory=list)
    window_values: List[float] = field(default_factory=list)


class StreamAnalyzer:
    """Sliding-window aggregation + online anomaly detection."""

    def __init__(self, detectors: Tuple[Detector, ...] = DEFAULT_DETECTORS) -> None:
        self.detectors = detectors
        self.rates: Dict[str, List[float]] = {}
        self.samples: Dict[str, _SampleSeries] = {}
        self.anomalies: List[Anomaly] = []
        self.windows_closed = 0
        self._registry = None
        self._next_close = WINDOW
        self._last_counters: Dict[str, float] = {}
        self._rate_detectors = [d for d in detectors if d.kind == "rate"]
        self._sample_detectors = {
            d.series: d for d in detectors if d.kind == "sample"
        }

    # -- wiring --------------------------------------------------------------

    def attach(self, registry) -> "StreamAnalyzer":
        """Bind the metrics registry whose counters become rates."""
        self._registry = registry
        return self

    # -- ingestion -----------------------------------------------------------

    def advance(self, now: float) -> None:
        """Close every window boundary at or before ``now``. Called from
        the observer's hooks — cheap when no boundary passed (one
        compare)."""
        while now >= self._next_close:
            self._close_window(self._next_close)
            self._next_close += WINDOW

    def observe(self, series: str, value: float, now: float) -> None:
        """Record one raw sample (coverage, wall seconds, sizes)."""
        self.advance(now)
        record = self.samples.get(series)
        if record is None:
            record = _SampleSeries()
            self.samples[series] = record
        detector = self._sample_detectors.get(series)
        if detector is not None:
            self._judge_sample(detector, value, record.values, now)
        record.values.append(value)
        record.times.append(now)
        record.window_values.append(value)

    def finalize(self, now: float) -> None:
        """Close the trailing partial window at end of run."""
        self.advance(now)
        if now > self._next_close - WINDOW:
            self._close_window(now)
            self._next_close = (
                (now // WINDOW) + 1
            ) * WINDOW

    # -- windowing -----------------------------------------------------------

    def _counter_values(self) -> Dict[str, float]:
        registry = self._registry
        if registry is None:
            return {}
        values = getattr(registry, "counter_values", None)
        return values() if values is not None else {}

    def _close_window(self, end: float) -> None:
        counters = self._counter_values()
        deltas: Dict[str, float] = {}
        for name, value in counters.items():
            delta = value - self._last_counters.get(name, 0.0)
            if delta or name in self.rates:
                deltas[name] = delta
        self._last_counters = counters
        deltas[RECOVERY_SERIES] = sum(
            deltas.get(name, 0.0) for name in _RECOVERY_COUNTERS
        )
        window_index = self.windows_closed
        self.windows_closed += 1
        for name, delta in deltas.items():
            series = self.rates.setdefault(name, [])
            while len(series) < window_index:
                series.append(0.0)
            series.append(delta)
        for name, series in self.rates.items():
            while len(series) < self.windows_closed:
                series.append(0.0)
        for detector in self._rate_detectors:
            series = self.rates.get(detector.series)
            if series is None:
                continue
            value = series[-1]
            history = series[:-1][-HISTORY:]
            self._judge(detector, value, history, end, window_index)
        for record in self.samples.values():
            record.window_values = []

    # -- detection -----------------------------------------------------------

    def _consensus(
        self, value: float, history: List[float], direction: str
    ) -> Tuple[bool, float, float]:
        """(anomalous, baseline_median, score) under MAD + 3-sigma
        consensus against ``history``."""
        med = _median(history)
        deviation = value - med if direction == "high" else med - value
        if deviation <= 0:
            return False, med, 0.0
        mad = _median([abs(v - med) for v in history])
        mean = sum(history) / len(history)
        var = sum((v - mean) ** 2 for v in history) / len(history)
        std = var ** 0.5
        mad_score = deviation / mad if mad > 0 else float("inf")
        directional = value - mean if direction == "high" else mean - value
        sigma_score = (
            directional / std if std > 0
            else (float("inf") if directional > 0 else 0.0)
        )
        anomalous = (
            mad_score > MAD_THRESHOLD
            and sigma_score > SIGMA_THRESHOLD
        )
        score = min(mad_score, sigma_score)
        if score == float("inf"):
            score = deviation
        return anomalous, med, score

    def _judge(
        self,
        detector: Detector,
        value: float,
        history: List[float],
        now: float,
        window_index: int,
    ) -> None:
        if detector.direction == "high":
            # Event-driven traffic: judge bursts against prior bursts,
            # not against the idle windows between them.
            history = [v for v in history if v > 0]
        if len(history) < detector.min_history:
            return
        if detector.direction == "high" and value < detector.floor:
            return
        if detector.direction == "low" and value > detector.floor:
            return
        if detector.above_peak and history and value <= max(history):
            return
        anomalous, baseline, score = self._consensus(
            value, history, detector.direction
        )
        if anomalous:
            self.anomalies.append(Anomaly(
                time=now, detector=detector.name, series=detector.series,
                value=value, baseline=baseline, score=score,
                window=window_index,
            ))

    def _judge_sample(
        self,
        detector: Detector,
        value: float,
        history: List[float],
        now: float,
    ) -> None:
        if len(history) < detector.min_history:
            return
        if detector.direction == "low" and value > detector.floor:
            return
        if detector.direction == "high" and value < detector.floor:
            return
        anomalous, baseline, score = self._consensus(
            value, history[-HISTORY:], detector.direction
        )
        if anomalous:
            self.anomalies.append(Anomaly(
                time=now, detector=detector.name, series=detector.series,
                value=value, baseline=baseline, score=score,
                window=self.windows_closed,
            ))

    # -- reporting -----------------------------------------------------------

    def health_report(self) -> Dict[str, Any]:
        """The machine-readable run verdict (``obs_health/v1``)."""
        rates = {}
        for name, series in sorted(self.rates.items()):
            if not any(series):
                continue
            per_second = [v / WINDOW for v in series]
            rates[name] = {
                "total": sum(series),
                "mean_per_s": sum(per_second) / len(per_second),
                "max_per_s": max(per_second),
                "last_per_s": per_second[-1],
            }
        samples = {}
        for name, record in sorted(self.samples.items()):
            samples[name] = {
                "count": len(record.values),
                "min": min(record.values) if record.values else None,
                "max": max(record.values) if record.values else None,
                "p50": _percentile(record.values, 50.0),
                "p99": _percentile(record.values, 99.0),
            }
        return {
            "schema": HEALTH_SCHEMA,
            "window_s": WINDOW,
            "windows": self.windows_closed,
            "detectors": [d.name for d in self.detectors],
            "rates": rates,
            "samples": samples,
            "anomalies": [a.to_dict() for a in self.anomalies],
            "healthy": not self.anomalies,
        }

    def render_dashboard(self, width: int = 32) -> str:
        """``repro top``-style text dashboard of the run so far."""
        lines = [
            f"stream: {self.windows_closed} windows x {WINDOW:g}s, "
            f"{len(self.anomalies)} anomalies",
            f"{'series':<36} {'total':>9} {'max/s':>8}  activity",
        ]
        for name, series in sorted(self.rates.items()):
            if not any(series):
                continue
            lines.append(
                f"{name:<36} {sum(series):>9g} "
                f"{max(series) / WINDOW:>8.2f}  "
                f"{_sparkline(series, width)}"
            )
        for name, record in sorted(self.samples.items()):
            p50 = _percentile(record.values, 50.0)
            p99 = _percentile(record.values, 99.0)
            lines.append(
                f"{name:<36} {len(record.values):>9} "
                f"{'':>8}  p50={p50:.4g} p99={p99:.4g}"
                if p50 is not None else f"{name:<36} {0:>9}"
            )
        if self.anomalies:
            lines.append("anomalies:")
            for anomaly in self.anomalies:
                lines.append(
                    f"  [{anomaly.time:10.3f}] {anomaly.detector:<22} "
                    f"{anomaly.series} value={anomaly.value:g} "
                    f"baseline={anomaly.baseline:g} "
                    f"score={anomaly.score:.1f}"
                )
        else:
            lines.append("anomalies: none")
        return "\n".join(lines)


_SPARK_LEVELS = " .:-=+*#%@"


def _sparkline(series: List[float], width: int) -> str:
    """Downsampled ASCII activity strip for one window series."""
    if not series:
        return ""
    if len(series) > width:
        # Max-pool into `width` buckets so spikes survive downsampling.
        bucket = len(series) / width
        pooled = [
            max(series[int(i * bucket):max(int((i + 1) * bucket),
                                           int(i * bucket) + 1)])
            for i in range(width)
        ]
    else:
        pooled = series
    peak = max(pooled)
    if peak <= 0:
        return "." * len(pooled)
    out = []
    for value in pooled:
        level = int(value / peak * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[level])
    return "".join(out)


def validate_health_report(doc: Any) -> List[str]:
    """Schema check of a health report; returns violations."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != HEALTH_SCHEMA:
        problems.append(f"schema must be {HEALTH_SCHEMA!r}")
    if not isinstance(doc.get("window_s"), (int, float)) \
            or doc.get("window_s", 0) <= 0:
        problems.append("window_s must be a positive number")
    if not isinstance(doc.get("windows"), int) or doc.get("windows", -1) < 0:
        problems.append("windows must be a non-negative integer")
    if not isinstance(doc.get("rates"), dict):
        problems.append("rates must be an object")
    if not isinstance(doc.get("samples"), dict):
        problems.append("samples must be an object")
    if not isinstance(doc.get("healthy"), bool):
        problems.append("healthy must be a bool")
    anomalies = doc.get("anomalies")
    if not isinstance(anomalies, list):
        problems.append("anomalies must be a list")
        return problems
    for i, anomaly in enumerate(anomalies):
        where = f"anomalies[{i}]"
        if not isinstance(anomaly, dict):
            problems.append(f"{where}: not an object")
            continue
        for fld in ("time", "detector", "series", "value"):
            if fld not in anomaly:
                problems.append(f"{where}: missing {fld}")
    if isinstance(doc.get("healthy"), bool) and isinstance(anomalies, list):
        if doc["healthy"] != (not anomalies):
            problems.append("healthy must equal (no anomalies)")
    return problems
