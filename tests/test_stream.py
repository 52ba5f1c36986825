"""Streaming metrics and anomaly detection: window math, counter
deltas, the MAD + 3-sigma consensus, detector gates (floors, active
baselines, above-peak), and the health-report schema.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    Detector,
    HEALTH_SCHEMA,
    MetricsRegistry,
    Observer,
    StreamAnalyzer,
    validate_health_report,
)
from repro.obs.stream import RECOVERY_SERIES, WINDOW


def rate_analyzer(detector):
    return StreamAnalyzer(detectors=(detector,))


def feed(stream, registry, series, per_window):
    """Drive ``series`` through consecutive windows via counter deltas."""
    counter = registry.counter(series)
    now = stream._next_close
    for value in per_window:
        counter.inc(value)
        stream.advance(now)  # closes the window ending at ``now``
        now += WINDOW


# ---------------------------------------------------------------------------
# Window mechanics
# ---------------------------------------------------------------------------


class TestWindows:
    def test_counter_deltas_become_rates(self):
        registry = MetricsRegistry()
        stream = StreamAnalyzer().attach(registry)
        feed(stream, registry, "net.tx.frames", [3, 5, 0, 2])
        assert stream.rates["net.tx.frames"] == [3.0, 5.0, 0.0, 2.0]
        assert stream.windows_closed == 4

    def test_advance_is_lazy_and_idempotent(self):
        registry = MetricsRegistry()
        stream = StreamAnalyzer().attach(registry)
        stream.advance(2.0)  # before the first boundary
        assert stream.windows_closed == 0
        stream.advance(17.0)  # crosses boundaries at 5, 10, 15
        assert stream.windows_closed == 3
        stream.advance(17.0)
        assert stream.windows_closed == 3

    def test_late_series_backfills_zeros(self):
        registry = MetricsRegistry()
        stream = StreamAnalyzer().attach(registry)
        feed(stream, registry, "a", [1, 1])
        feed(stream, registry, "b", [4])
        assert stream.rates["b"] == [0.0, 0.0, 4.0]
        assert len(stream.rates["a"]) == 3

    def test_recovery_series_sums_components(self):
        registry = MetricsRegistry()
        stream = StreamAnalyzer().attach(registry)
        registry.counter("protocol.token.reissues").inc(2)
        registry.counter("resilience.failovers").inc(1)
        stream.advance(5.0)
        assert stream.rates[RECOVERY_SERIES] == [3.0]

    def test_finalize_closes_partial_window(self):
        registry = MetricsRegistry()
        stream = StreamAnalyzer().attach(registry)
        registry.counter("a").inc(4)
        stream.finalize(7.5)  # one full window + a 2.5 s partial
        assert stream.windows_closed == 2


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


SPIKY = Detector(name="spike", series="s", floor=5.0, min_history=4)


class TestRateDetection:
    def test_spike_over_stable_baseline_fires(self):
        registry = MetricsRegistry()
        stream = rate_analyzer(SPIKY).attach(registry)
        feed(stream, registry, "s", [4, 5, 4, 5, 4, 5, 40])
        assert [a.detector for a in stream.anomalies] == ["spike"]
        anomaly = stream.anomalies[0]
        assert anomaly.value == 40.0
        assert anomaly.baseline == pytest.approx(4.5)
        assert anomaly.series == "s"

    def test_floor_gates_small_spikes(self):
        registry = MetricsRegistry()
        stream = rate_analyzer(SPIKY).attach(registry)
        feed(stream, registry, "s", [1, 1, 1, 1, 1, 1, 4])  # 4 < floor 5
        assert stream.anomalies == []

    def test_min_history_counts_active_windows(self):
        """Idle windows are not a baseline: judging waits for enough
        *bursts*, not just enough elapsed windows."""
        registry = MetricsRegistry()
        stream = rate_analyzer(SPIKY).attach(registry)
        feed(stream, registry, "s", [0, 0, 0, 0, 0, 0, 0, 0, 40])
        assert stream.anomalies == []

    def test_bursty_but_stable_traffic_stays_quiet(self):
        """Event-driven floods separated by idle stretches are normal
        traffic; the active-window baseline keeps them quiet."""
        registry = MetricsRegistry()
        stream = rate_analyzer(SPIKY).attach(registry)
        feed(stream, registry, "s",
             [30, 0, 0, 31, 0, 29, 0, 0, 30, 0, 31, 0, 30])
        assert stream.anomalies == []

    def test_spike_over_bursty_baseline_fires(self):
        registry = MetricsRegistry()
        stream = rate_analyzer(SPIKY).attach(registry)
        feed(stream, registry, "s",
             [30, 0, 0, 31, 0, 29, 0, 0, 30, 0, 300])
        assert [a.detector for a in stream.anomalies] == ["spike"]

    def test_above_peak_requires_new_maximum(self):
        peaky = Detector(name="storm", series="s", floor=5.0,
                         min_history=4, above_peak=True)
        registry = MetricsRegistry()
        stream = rate_analyzer(peaky).attach(registry)
        # 50 dwarfs the 6..9 baseline but not the early 60 peak.
        feed(stream, registry, "s", [60, 6, 7, 8, 9, 7, 50])
        assert stream.anomalies == []

    def test_consensus_requires_both_tests(self):
        """A value 3 MADs out but within 3 sigmas (or vice versa) does
        not fire — the consensus-of-two from the skyline battery."""
        registry = MetricsRegistry()
        stream = rate_analyzer(SPIKY).attach(registry)
        # High-variance baseline: sigma test rejects the mild spike.
        feed(stream, registry, "s", [10, 90, 10, 90, 10, 90, 120])
        assert stream.anomalies == []


class TestSampleDetection:
    COLLAPSE = Detector(name="collapse", series="cov", kind="sample",
                        direction="low", floor=0.5, min_history=2)

    def test_low_side_fires_under_floor(self):
        stream = StreamAnalyzer(detectors=(self.COLLAPSE,))
        for i, value in enumerate([1.0, 1.0, 1.0, 0.2]):
            stream.observe("cov", value, float(i))
        assert [a.detector for a in stream.anomalies] == ["collapse"]

    def test_healthy_coverage_stays_quiet(self):
        stream = StreamAnalyzer(detectors=(self.COLLAPSE,))
        for i, value in enumerate([1.0, 0.9, 1.0, 0.95, 1.0]):
            stream.observe("cov", value, float(i))
        assert stream.anomalies == []

    def test_percentiles_in_report(self):
        stream = StreamAnalyzer(detectors=())
        for i, value in enumerate([0.5, 1.0, 0.75]):
            stream.observe("cov", value, float(i))
        samples = stream.health_report()["samples"]["cov"]
        assert samples["count"] == 3
        assert samples["min"] == 0.5
        assert samples["p50"] == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# Health report
# ---------------------------------------------------------------------------


class TestHealthReport:
    def test_schema_and_verdict(self):
        registry = MetricsRegistry()
        stream = rate_analyzer(SPIKY).attach(registry)
        feed(stream, registry, "s", [4, 5, 4, 5, 4, 5, 40])
        report = stream.health_report()
        assert validate_health_report(report) == []
        assert report["schema"] == HEALTH_SCHEMA
        assert report["healthy"] is False
        assert report["anomalies"][0]["detector"] == "spike"
        assert report["rates"]["s"]["total"] == 67.0

    def test_clean_run_is_healthy(self):
        registry = MetricsRegistry()
        stream = StreamAnalyzer().attach(registry)
        feed(stream, registry, "net.tx.frames", [3, 4, 3])
        report = stream.health_report()
        assert report["healthy"] is True
        assert validate_health_report(report) == []

    def test_validator_rejects_malformed(self):
        assert validate_health_report([]) == ["document is not a JSON object"]
        assert any("schema" in p for p in validate_health_report({}))

    def test_dashboard_renders(self):
        registry = MetricsRegistry()
        stream = rate_analyzer(SPIKY).attach(registry)
        feed(stream, registry, "s", [4, 5, 4, 5, 4, 5, 40])
        text = stream.render_dashboard()
        assert "1 anomalies" in text
        assert "s" in text


# ---------------------------------------------------------------------------
# Observer integration
# ---------------------------------------------------------------------------


class TestObserverWiring:
    def test_attach_binds_registry(self):
        observer = Observer()
        stream = StreamAnalyzer()
        assert observer.attach_stream(stream) is observer
        assert observer.stream is stream
        assert stream._registry is observer.metrics

    def test_hooks_advance_windows(self):
        class FakeSim:
            now = 0.0

        class FakeWorld:
            sim = FakeSim()

        observer = Observer().attach_stream(StreamAnalyzer())
        observer.bind(FakeWorld())
        observer.event("protocol.something", node=0)
        FakeSim.now = 12.0
        observer.event("protocol.later", node=0)
        assert observer.stream.windows_closed == 2
