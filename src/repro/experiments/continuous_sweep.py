"""Continuous-subscription sweep: delta maintenance vs. naive re-flood.

For each seed the suite runs the *same* subscription scenario (same
dataset, mobility, data-update schedule) once per maintenance mode and
compares what each mode paid per refresh epoch and how stale its
answer was. Delta maintenance must strictly dominate the naive
re-flood-every-tick baseline on messages per refresh.

Each seed also runs one faulted delta point, which drives a seeded
multi-family fault schedule (crashes, blackouts, loss bursts,
duplication, jitter) through the run and still asserts the full
continuous invariant suite — the per-epoch sibling of the one-shot
chaos harness.

``maintenance_curve`` measures that dominance against update intensity
on the static grid, where every epoch must be exact and complete.
``repro continuous --smoke --grid`` prints it after the suite and fails
unless delta is strictly cheaper than re-flood at every intensity
(:func:`check_maintenance_curve`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Sequence, Tuple

from ..continuous import (
    ContinuousConfig,
    run_continuous_simulation,
    verify_continuous_run,
)
from ..faults import FaultSchedule
from .runner import FigureResult

__all__ = [
    "CONTINUOUS_SMOKE_SEEDS",
    "ContinuousPoint",
    "ContinuousReport",
    "check_maintenance_curve",
    "continuous_point_config",
    "continuous_suite",
    "maintenance_curve",
    "run_continuous_point",
]

#: Pinned seeds for the CI smoke tier (``repro continuous --smoke``).
CONTINUOUS_SMOKE_SEEDS: Tuple[int, ...] = (3, 17, 29, 41, 53)

#: The scenario every sweep point shares: 9 devices holding 450 tuples.
CONTINUOUS_DEVICES = 9
CONTINUOUS_CARDINALITY = 450

#: The maintenance modes each seed compares.
MODES: Tuple[str, ...] = ("delta", "reflood")

#: The maintenance curve's grid: data updates per subscription lifetime
#: (re-flood pays the same whatever the count), the seeds averaged at
#: each count, and the epochs each subscription runs.
UPDATE_COUNTS: Tuple[int, ...] = (0, 4, 8, 16)
UPDATE_SEEDS: Tuple[int, ...] = (401, 402, 403)
UPDATE_EPOCHS = 5


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

    def _mode_pairs(
        self,
    ) -> Iterator[Tuple[int, bool, ContinuousPoint, ContinuousPoint]]:
        """``(seed, faulty, delta, reflood)`` of every scenario (same
        seed and fault setting) that ran in both modes, in order."""
        by_scenario = {}
        for p in self.points:
            by_scenario.setdefault((p.seed, p.faulty), {})[p.mode] = p
        for (seed, faulty), modes in sorted(by_scenario.items()):
            delta, reflood = modes.get("delta"), modes.get("reflood")
            if delta is not None and reflood is not None:
                yield seed, faulty, delta, reflood

    @property
    def isolated_scenarios(self) -> int:
        """Scenarios that ran in both modes with an isolated originator
        (reflood enrolled no device): neither mode can do anything but
        flood into the void, so :attr:`dominance_failures` does not
        compare them."""
        return sum(1 for *_, reflood in self._mode_pairs()
                   if reflood.enrolled == 0)

    @property
    def dominance_failures(self) -> List[str]:
        """Scenarios where delta did not strictly beat reflood on
        messages per refresh (compared within the same seed/fault
        setting; only checked when both modes ran and the originator
        was not isolated)."""
        return [
            f"[seed={seed}{'+faults' if faulty else ''}] delta "
            f"({delta.messages_per_refresh:.1f} msg/refresh) does "
            f"not beat reflood "
            f"({reflood.messages_per_refresh:.1f})"
            for seed, faulty, delta, reflood in self._mode_pairs()
            if reflood.enrolled != 0
            and not delta.messages_per_refresh < reflood.messages_per_refresh
        ]

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
            f"{dom} dominance failures, {self.isolated_scenarios} not "
            f"compared (isolated originator)"
        )
        return "\n".join(lines)


def continuous_point_config(
    seed: int,
    mode: str,
    faulty: bool = False,
    epochs: int = 4,
    static_grid: bool = False,
    data_updates: Optional[int] = None,
) -> ContinuousConfig:
    """The subscription scenario of one sweep point, fully derived from
    its seed. ``data_updates`` defaults to two per epoch."""
    base = ContinuousConfig(
        mode=mode,
        devices=CONTINUOUS_DEVICES,
        cardinality=CONTINUOUS_CARDINALITY,
        epochs=epochs,
        d=600.0,
        seed=seed,
        data_updates=2 * epochs if data_updates is None else data_updates,
        static_grid=static_grid,
        loss_rate=0.05 if faulty else 0.0,
    )
    if faulty:
        faults = _continuous_faults(
            seed + 11, CONTINUOUS_DEVICES, base.horizon,
            extent=(1000.0, 1000.0),
        )
        base = replace(base, faults=faults)
    return base


def run_continuous_point(
    seed: int,
    mode: str,
    faulty: bool = False,
    epochs: int = 4,
    static_grid: bool = False,
    data_updates: Optional[int] = None,
) -> ContinuousPoint:
    """Run one sweep point and check it against the invariant suite."""
    base = continuous_point_config(
        seed, mode, faulty, epochs, static_grid, data_updates,
    )
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
    )


def continuous_suite(
    seeds: Sequence[int],
    static_grid: bool = False,
    progress: Optional[int] = None,
) -> ContinuousReport:
    """Run the delta-vs-reflood comparison over many seeds.

    Each seed produces one fault-free point per mode (the dominance
    comparison) and one faulted delta point driven through the
    invariant suite.
    """
    report = ContinuousReport()
    runs = [(mode, False) for mode in MODES] + [("delta", True)]
    total = len(seeds) * len(runs)
    for seed in seeds:
        for mode, faulty in runs:
            report.points.append(
                run_continuous_point(
                    seed, mode, faulty=faulty, static_grid=static_grid,
                )
            )
            done = len(report.points)
            if progress and done % progress == 0:
                print(f"  continuous {done}/{total} runs...", flush=True)
    return report


def maintenance_curve() -> Tuple[FigureResult, List[str]]:
    """Messages per refresh against data updates, delta vs. re-flood.

    Each point is the mean of :data:`UPDATE_SEEDS` fault-free runs on
    the static grid. Returns the figure and every failure: a point that
    breaks an invariant (which on this setting includes any inexact or
    incomplete epoch), then whatever :func:`check_maintenance_curve`
    finds.
    """
    figure = FigureResult(
        figure="Continuous: data updates",
        title="messages per refresh vs. data updates, static grid",
        x_label="data updates",
        x_values=list(UPDATE_COUNTS),
        notes=(
            f"mean over seeds {UPDATE_SEEDS[0]}-{UPDATE_SEEDS[-1]}, "
            f"{UPDATE_EPOCHS} epochs"
        ),
    )
    failures: List[str] = []
    for mode in MODES:
        messages = []
        for updates in UPDATE_COUNTS:
            points = [
                run_continuous_point(
                    seed, mode, epochs=UPDATE_EPOCHS, static_grid=True,
                    data_updates=updates,
                )
                for seed in UPDATE_SEEDS
            ]
            messages.append(
                sum(p.messages_per_refresh for p in points) / len(points)
            )
            failures.extend(
                f"[seed={p.seed} {mode} updates={updates}] {v}"
                for p in points for v in p.violations
            )
        figure.add_series(mode, messages)
    return figure, failures + check_maintenance_curve(figure)


def check_maintenance_curve(figure: FigureResult) -> List[str]:
    """The maintenance curve's headline check; an empty list passes:
    delta sends strictly fewer messages per refresh than re-flood at
    every update count."""
    return [
        f"delta ({delta:.4g} msg/refresh) does not beat reflood "
        f"({reflood:.4g}) at {updates} data updates"
        for updates, delta, reflood in zip(
            figure.x_values, figure.get("delta"), figure.get("reflood")
        )
        if not delta < reflood
    ]
