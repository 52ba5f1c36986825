"""Traced simulation runs: the ``repro trace`` command and per-run
sweep telemetry.

Two entry points:

* :func:`trace_point` — run one MANET point with an
  :class:`~repro.obs.observer.Observer` bound and (optionally) dump the
  full telemetry bundle to a directory. Backs the ``repro trace`` CLI
  command.
* :func:`dump_run_telemetry` — write one run's telemetry bundle
  (``spans.jsonl``, ``trace.json``, ``metrics.json``, ``summary.txt``).
  The experiment executor calls this from
  :func:`~repro.experiments.manet_common.compute_manet_point` whenever
  ``REPRO_OBS`` / ``--obs`` points at a directory, so sweeps emit
  per-run telemetry next to their cached results.

Observation is passive: a traced point returns metrics bit-identical
to the untraced run (pinned by ``tests/test_obs.py``).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional, Tuple

from ..metrics.collector import RunMetrics
from ..obs import Observer, export_jsonl, query_summary, write_chrome_trace
from .config import DEFAULT, ExperimentScale

__all__ = ["trace_point", "dump_run_telemetry", "point_slug"]


#: Slug tags of the sweep settings, appended only when a point moves
#: one off its default, so figure points keep their short slug.
_SWEEP_TAGS = (
    ("radio_range", "r"),
    ("speed_range", "v"),
    ("slowdown", "cpu"),
    ("loss_rate", "loss"),
    ("crash_fraction", "crash"),
)


def point_slug(point) -> str:
    """Filesystem-safe identity of one sweep point."""
    slug = (
        f"{point.strategy}_d{int(point.distance)}_c{point.cardinality}"
        f"_n{point.dimensions}_m{point.devices}_{point.distribution}"
        f"_s{point.seed}"
    )
    defaults = {f.name: f.default for f in dataclasses.fields(point)}
    for name, tag in _SWEEP_TAGS:
        value = getattr(point, name)
        if value != defaults[name]:
            if isinstance(value, tuple):
                slug += f"_{tag}" + "-".join(f"{v:g}" for v in value)
            else:
                slug += f"_{tag}{value:g}"
    return slug


def dump_run_telemetry(
    observer: Observer,
    directory: Path,
    metrics: Optional[RunMetrics] = None,
) -> Path:
    """Write one run's telemetry bundle into ``directory``.

    Files: ``spans.jsonl`` (archival span/event dump), ``trace.json``
    (Chrome trace-event / Perfetto), ``metrics.json`` (registry
    snapshot plus, when given, the run's aggregated metrics),
    ``summary.txt`` (per-query table), ``health.json`` (streaming
    health report, when the observer has a
    :class:`~repro.obs.stream.StreamAnalyzer` attached), and
    ``blackbox.json`` (flight-recorder rings and dumps, when a
    :class:`~repro.obs.flight.FlightRecorder` is attached).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    export_jsonl(observer, str(directory / "spans.jsonl"))
    write_chrome_trace(observer, str(directory / "trace.json"))
    doc = {"instruments": observer.metrics.snapshot()}
    if metrics is not None:
        doc["run"] = {
            "strategy": metrics.strategy,
            "issued": metrics.issued,
            "suppressed": metrics.suppressed,
            "completed": metrics.completed,
            "response_time_s": metrics.response_time,
            "drr": metrics.drr,
            "coverage": metrics.coverage,
            "protocol_messages": metrics.messages.protocol_total,
            "control_messages": metrics.messages.control_total,
        }
    with open(directory / "metrics.json", "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(directory / "summary.txt", "w") as handle:
        handle.write(query_summary(observer) + "\n")
    stream = getattr(observer, "stream", None)
    if stream is not None:
        with open(directory / "health.json", "w") as handle:
            json.dump(stream.health_report(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
    flight = getattr(observer, "flight", None)
    if flight is not None:
        flight.write_json(directory / "blackbox.json")
    return directory


def trace_point(
    strategy: str,
    scale: ExperimentScale = DEFAULT,
    directory: Optional[Path] = None,
    distance: Optional[float] = None,
) -> Tuple[Observer, RunMetrics]:
    """Run one observed MANET point and return its full telemetry.

    The point mirrors the figure-8 fixed configuration at ``scale``
    (fixed cardinality, 2 attributes, the scale's device count); when
    ``directory`` is given the telemetry bundle is written there under
    ``<scale>/<slug>/``.
    """
    from .manet_common import ManetPoint, compute_manet_point

    point = ManetPoint(
        strategy=strategy,
        distance=(
            distance if distance is not None else scale.query_distances[-1]
        ),
        cardinality=scale.manet_fixed_cardinality,
        dimensions=2,
        devices=scale.manet_devices,
        distribution="independent",
        scale_name=scale.name,
        seed=scale.seed,
    )
    observer = Observer()
    metrics = compute_manet_point(point, scale, observer=observer)
    if directory is not None:
        dump_run_telemetry(
            observer,
            Path(directory) / scale.name / point_slug(point),
            metrics=metrics,
        )
    return observer, metrics
