"""Continuous-subscription sweep: delta maintenance vs. naive re-flood.

For each seed the suite runs the *same* subscription scenario (same
dataset, mobility, data-update schedule) once per maintenance mode and
compares what each mode paid per refresh epoch and how stale its
answer was. Delta maintenance must strictly dominate the naive
re-flood-every-tick baseline on messages per refresh — that dominance
is the benchmark gate ``benchmarks/bench_continuous.py`` commits to
``BENCH_continuous.json``.

A ``faulty=True`` point additionally drives a seeded multi-family fault
schedule (crashes, blackouts, loss bursts, duplication, jitter) through
the run and still asserts the full continuous invariant suite — the
per-epoch sibling of the one-shot chaos harness.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from ..continuous import (
    ContinuousConfig,
    run_continuous_simulation,
    verify_continuous_run,
)
from ..faults import FaultSchedule

__all__ = [
    "CONTINUOUS_SMOKE_SEEDS",
    "ContinuousPoint",
    "ContinuousReport",
    "continuous_point_config",
    "continuous_suite",
    "run_continuous_point",
]

#: Pinned seeds for the CI smoke tier (``repro continuous --smoke``).
CONTINUOUS_SMOKE_SEEDS: Tuple[int, ...] = (3, 17, 29, 41, 53)


def _continuous_faults(seed: int, devices: int, horizon: float,
                       extent: Tuple[float, float]) -> FaultSchedule:
    """A moderate multi-family fault mix over the subscription's life."""
    return FaultSchedule.generate(
        node_count=devices,
        sim_time=horizon,
        seed=seed,
        crash_fraction=0.25,
        mean_downtime=20.0,
        link_blackouts=1,
        mean_blackout=10.0,
        loss_bursts=1,
        burst_rate=0.4,
        mean_burst=8.0,
        partitions=0,
        extent=extent,
        dup_windows=1,
        dup_rate=0.3,
        mean_dup=10.0,
        jitter_windows=1,
        jitter_max=0.15,
        mean_jitter=10.0,
    )


@dataclass
class ContinuousPoint:
    """One seeded subscription run in one maintenance mode."""

    seed: int
    mode: str
    faulty: bool
    violations: List[str]
    status: str
    epochs_closed: int
    complete_epochs: int
    #: Distinct devices that ever contributed a report. 0 means the
    #: originator was isolated for the whole run — a degenerate
    #: scenario where both modes collapse to one flood per epoch.
    enrolled: int
    messages_per_refresh: float
    max_divergence: Optional[float]
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ContinuousReport:
    """Aggregate of a continuous sweep across seeds and modes."""

    points: List[ContinuousPoint] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.points) and not self.dominance_failures

    @property
    def violations(self) -> List[str]:
        out = []
        for p in self.points:
            out.extend(
                f"[seed={p.seed} {p.mode}{'+faults' if p.faulty else ''}] {v}"
                for v in p.violations
            )
        out.extend(self.dominance_failures)
        return out

    @property
    def dominance_failures(self) -> List[str]:
        """Scenarios where delta did not strictly beat reflood on
        messages per refresh (compared within the same seed/fault
        setting; only checked when both modes ran)."""
        failures = []
        by_scenario = {}
        for p in self.points:
            by_scenario.setdefault((p.seed, p.faulty), {})[p.mode] = p
        for (seed, faulty), modes in sorted(by_scenario.items()):
            delta, reflood = modes.get("delta"), modes.get("reflood")
            if delta is None or reflood is None:
                continue
            if reflood.enrolled == 0:
                # Isolated originator: neither mode can do anything but
                # flood into the void, so there is nothing to dominate.
                continue
            if not delta.messages_per_refresh < reflood.messages_per_refresh:
                failures.append(
                    f"[seed={seed}{'+faults' if faulty else ''}] delta "
                    f"({delta.messages_per_refresh:.1f} msg/refresh) does "
                    f"not beat reflood "
                    f"({reflood.messages_per_refresh:.1f})"
                )
        return failures

    def render(self) -> str:
        lines = [
            f"{'seed':>6} {'mode':>9} {'faults':>7} {'status':>10} "
            f"{'epochs':>7} {'complete':>9} {'enrolled':>9} "
            f"{'msg/refresh':>12} {'max_div':>8} {'ok':>4}"
        ]
        for p in self.points:
            div = f"{p.max_divergence:.3f}" if p.max_divergence is not None \
                else "-"
            lines.append(
                f"{p.seed:>6} {p.mode:>9} "
                f"{'yes' if p.faulty else 'no':>7} {p.status:>10} "
                f"{p.epochs_closed:>7} {p.complete_epochs:>9} "
                f"{p.enrolled:>9} "
                f"{p.messages_per_refresh:>12.1f} {div:>8} "
                f"{'yes' if p.ok else 'NO':>4}"
            )
        total = len(self.points)
        bad = sum(1 for p in self.points if not p.ok)
        dom = len(self.dominance_failures)
        lines.append(
            f"-- {total} runs, {total - bad} clean, {bad} with violations, "
            f"{dom} dominance failures"
        )
        return "\n".join(lines)


def continuous_point_config(
    seed: int,
    mode: str,
    faulty: bool = False,
    devices: int = 9,
    cardinality: int = 450,
    epochs: int = 4,
    static_grid: bool = False,
) -> ContinuousConfig:
    """The subscription scenario of one sweep point, fully derived from
    its seed."""
    base = ContinuousConfig(
        mode=mode,
        devices=devices,
        cardinality=cardinality,
        epochs=epochs,
        d=600.0,
        seed=seed,
        data_updates=2 * epochs,
        static_grid=static_grid,
        loss_rate=0.05 if faulty else 0.0,
    )
    if faulty:
        faults = _continuous_faults(
            seed + 11, devices, base.horizon, extent=(1000.0, 1000.0)
        )
        base = replace(base, faults=faults)
    return base


def run_continuous_point(
    seed: int,
    mode: str,
    faulty: bool = False,
    devices: int = 9,
    cardinality: int = 450,
    epochs: int = 4,
    static_grid: bool = False,
) -> ContinuousPoint:
    """Run one sweep point and check it against the invariant suite."""
    base = continuous_point_config(
        seed, mode, faulty, devices, cardinality, epochs, static_grid,
    )
    start = _time.time()
    result = run_continuous_simulation(base, keep_network=True)
    violations = verify_continuous_run(result)
    record = result.record
    complete = sum(
        1 for e in record.epochs
        if e.report.outcome == "completed"
    )
    return ContinuousPoint(
        seed=seed,
        mode=mode,
        faulty=faulty,
        violations=violations,
        status=record.status,
        epochs_closed=len(record.epochs),
        complete_epochs=complete,
        enrolled=len(record.device_reports),
        messages_per_refresh=result.messages_per_refresh,
        max_divergence=result.max_divergence,
        wall_seconds=_time.time() - start,
    )


def continuous_suite(
    seeds: Sequence[int],
    modes: Sequence[str] = ("delta", "reflood"),
    faulty: bool = True,
    static_grid: bool = False,
    progress: Optional[int] = None,
) -> ContinuousReport:
    """Run the delta-vs-reflood comparison over many seeds.

    Each seed produces one fault-free point per mode (the dominance
    comparison) and, when ``faulty``, one faulted delta point driven
    through the invariant suite.
    """
    report = ContinuousReport()
    done = 0
    total = len(seeds) * (len(modes) + (1 if faulty else 0))
    for seed in seeds:
        for mode in modes:
            report.points.append(
                run_continuous_point(
                    seed, mode, faulty=False, static_grid=static_grid,
                )
            )
            done += 1
            if progress and done % progress == 0:
                print(f"  continuous {done}/{total} runs...", flush=True)
        if faulty:
            report.points.append(
                run_continuous_point(
                    seed, "delta", faulty=True, static_grid=static_grid,
                )
            )
            done += 1
            if progress and done % progress == 0:
                print(f"  continuous {done}/{total} runs...", flush=True)
    return report
