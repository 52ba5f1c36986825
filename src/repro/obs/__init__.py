"""Observability layer: query-lifecycle tracing, metrics, telemetry export.

``repro.obs`` is the substrate every perf/robustness change reports
through:

* :class:`Observer` — span-based tracing of every ``(id, cnt)`` query
  through issue, per-hop forwarding, local-skyline evaluation, filter
  promotion, result merge / ACK / retransmission, and final delivery,
  with simulation *and* wall time plus fault annotations.
* :class:`MetricsRegistry` — named counters / gauges / histograms,
  unifying the view over the legacy ``TrafficStats`` /
  ``ComparisonCounter`` / ``AccessStats`` families. Counted milestones
  bump theirs through :data:`EVENT_COUNTERS`.
* Exporters — JSONL event dumps, Chrome trace-event / Perfetto JSON
  timelines, and per-query text summaries.
* :class:`StreamAnalyzer` and :class:`FlightRecorder` — streaming
  health detectors and per-node post-mortem rings.

Enable per run by passing an observer to
:func:`~repro.protocol.coordinator.run_manet_simulation`, per process
with :func:`configure_telemetry` (the CLI's ``--obs`` flag), or via the
``REPRO_OBS`` environment variable (a directory for per-run telemetry;
``off`` / empty disables). The off path is guard-only — see
``docs/observability.md`` for the overhead contract.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from .causal import (
    CausalEvent,
    CausalGraph,
    QueryTrace,
    TraceContext,
    build_causal_graph,
    trace_of,
)
from .exporters import (
    SpanNode,
    build_query_trees,
    export_chrome_trace,
    export_jsonl,
    query_summary,
    validate_chrome_trace,
    write_chrome_trace,
)
from .flight import (
    BLACKBOX_SCHEMA,
    FlightDump,
    FlightEntry,
    FlightRecorder,
    load_blackbox,
    render_dump,
    validate_blackbox,
)
from .observer import (
    EVENT_COUNTERS,
    NULL_OBSERVER,
    EventRecord,
    NullObserver,
    Observer,
    SpanRecord,
    query_key_of,
)
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .stream import (
    HEALTH_SCHEMA,
    Anomaly,
    Detector,
    StreamAnalyzer,
    validate_health_report,
)

__all__ = [
    "Anomaly",
    "BLACKBOX_SCHEMA",
    "CausalEvent",
    "CausalGraph",
    "Counter",
    "Detector",
    "EVENT_COUNTERS",
    "EventRecord",
    "FlightDump",
    "FlightEntry",
    "FlightRecorder",
    "Gauge",
    "HEALTH_SCHEMA",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "NullObserver",
    "Observer",
    "QueryTrace",
    "SpanNode",
    "SpanRecord",
    "StreamAnalyzer",
    "TraceContext",
    "build_causal_graph",
    "build_query_trees",
    "configure_telemetry",
    "export_chrome_trace",
    "export_jsonl",
    "load_blackbox",
    "query_key_of",
    "query_summary",
    "render_dump",
    "telemetry_root",
    "trace_of",
    "validate_blackbox",
    "validate_chrome_trace",
    "validate_health_report",
    "write_chrome_trace",
]

_OBS_ENV = "REPRO_OBS"
_DISABLED = ("", "off", "none", "0")

#: Process-wide override set by :func:`configure_telemetry` (CLI beats env).
_telemetry_override: Optional[str] = None


def configure_telemetry(directory: Optional[str]) -> None:
    """Set the process-wide telemetry directory (the ``--obs`` flag).

    ``"off"`` disables telemetry even if ``REPRO_OBS`` is set; ``None``
    leaves the current setting untouched.
    """
    global _telemetry_override
    if directory is not None:
        _telemetry_override = directory


def telemetry_root() -> Optional[Path]:
    """Effective telemetry directory, or None when telemetry is off.

    Resolution: :func:`configure_telemetry` override, then the
    ``REPRO_OBS`` environment variable. Experiment sweeps write one
    trace + metrics document per computed run under this directory,
    next to their cached results.
    """
    raw = (
        _telemetry_override
        if _telemetry_override is not None
        else os.environ.get(_OBS_ENV)
    )
    if raw is None or raw.strip().lower() in _DISABLED:
        return None
    return Path(raw)
