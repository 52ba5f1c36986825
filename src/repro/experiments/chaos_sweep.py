"""Seeded chaos harness: randomized faults vs. property invariants.

The resilience layer (``repro.resilience``) promises graceful
degradation — every query closes by its deadline with an exact
accounting of where every device's contribution went, retransmission
budgets hold, and nothing leaks into the engine heap. Those are
*properties*, not example-based expectations, so this harness checks
them the property-based way: draw a randomized-but-seeded fault
schedule (crashes, link blackouts, loss bursts, partitions, message
duplication, delay jitter — all six families at once), run a full
MANET simulation through it, and assert every invariant in
:mod:`repro.resilience.invariants` on the wreckage.

``chaos_suite`` sweeps many seeds across both strategies; the CLI
(``repro chaos``) and CI's ``chaos-smoke`` job call it with 5 fixed
seeds, the acceptance run with 50+. Every run is reproducible from its
seed alone: rerun ``run_chaos_point(seed, strategy)`` to replay a
failure bit for bit.

``loss_curve`` is the graded half: coverage against independent frame
loss, with no fault schedule, for BF, DF and DF with DF→BF failover.
``repro chaos --smoke`` prints it after the suite and fails unless
failover recovers strictly more than plain DF at the highest loss
(:func:`check_loss_curve`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..data.partition import make_global_dataset
from ..data.workload import generate_workload
from ..faults import FaultSchedule
from ..net.world import RadioConfig
from ..obs.observer import Observer
from ..protocol.coordinator import SimulationConfig, run_manet_simulation
from ..protocol.device import ProtocolConfig
from ..resilience import ResiliencePolicy
from ..resilience.invariants import verify_run
from .runner import FigureResult

__all__ = [
    "ChaosPoint",
    "ChaosReport",
    "chaos_protocol_config",
    "chaos_suite",
    "check_loss_curve",
    "loss_curve",
    "run_chaos_point",
]

#: Fixed seeds for the CI smoke tier (``repro chaos --smoke``) — chosen
#: once and pinned so the smoke job exercises the same six-family fault
#: mix on every run.
SMOKE_SEEDS: Tuple[int, ...] = (11, 23, 37, 58, 71)

#: Per-query deadline budget (seconds) for chaos runs. Short enough
#: that the drain window after the last workload entry covers every
#: outstanding deadline, long enough for a failover flood to land.
CHAOS_DEADLINE = 60.0

#: The scenario every chaos run shares: 9 devices holding 900 tuples,
#: queries issued over 150 s.
CHAOS_DEVICES = 9
CHAOS_CARDINALITY = 900
CHAOS_SIM_TIME = 150.0

#: The loss curve's grid: frame-loss rates, the seeds averaged at each
#: rate, and its series as (name, strategy, failover).
LOSS_RATES: Tuple[float, ...] = (0.0, 0.15, 0.3, 0.45)
LOSS_SEEDS: Tuple[int, ...] = (301, 302, 303)
LOSS_SERIES: Tuple[Tuple[str, str, bool], ...] = (
    ("BF", "bf", False),
    ("DF", "df", False),
    ("DF+failover", "df", True),
)


def chaos_protocol_config(failover: bool = True) -> ProtocolConfig:
    """Protocol knobs tightened for fault-heavy short runs.

    Retry budgets are deliberately small so the watchdog exhausts (and
    DF failover actually triggers) inside the deadline window.
    """
    return ProtocolConfig(
        query_timeout=CHAOS_DEADLINE,
        ack_timeout=1.5,
        result_retries=2,
        token_watchdog=12.0,
        token_reissues=1,
        resilience=ResiliencePolicy(
            df_failover=failover,
            orphan_suppression=True,
        ),
    )


@dataclass
class ChaosPoint:
    """One seeded chaos run, fully accounted."""

    seed: int
    strategy: str
    failover: bool
    violations: List[str]
    queries: int
    completed: int
    deadline_expired: int
    aborted: int
    failovers: int
    coverage: float
    fault_events: int

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ChaosReport:
    """Aggregate of a chaos sweep across seeds and strategies."""

    points: List[ChaosPoint] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.points)

    @property
    def violations(self) -> List[str]:
        out = []
        for p in self.points:
            out.extend(
                f"[seed={p.seed} {p.strategy}"
                f"{'+failover' if p.failover else ''}] {v}"
                for v in p.violations
            )
        return out

    def render(self) -> str:
        lines = [
            f"{'seed':>6} {'strategy':>10} {'queries':>8} {'done':>5} "
            f"{'expired':>8} {'aborted':>8} {'failovers':>10} "
            f"{'coverage':>9} {'faults':>7} {'ok':>4}"
        ]
        for p in self.points:
            name = p.strategy + ("+fo" if p.failover else "")
            lines.append(
                f"{p.seed:>6} {name:>10} {p.queries:>8} {p.completed:>5} "
                f"{p.deadline_expired:>8} {p.aborted:>8} {p.failovers:>10} "
                f"{p.coverage:>9.3f} {p.fault_events:>7} "
                f"{'yes' if p.ok else 'NO':>4}"
            )
        total = len(self.points)
        bad = sum(1 for p in self.points if not p.ok)
        lines.append(
            f"-- {total} runs, {total - bad} clean, {bad} with violations"
        )
        return "\n".join(lines)


def _chaos_faults(seed: int, devices: int, sim_time: float,
                  extent: Tuple[float, float]) -> FaultSchedule:
    """All six fault families, drawn from one seed."""
    return FaultSchedule.generate(
        node_count=devices,
        sim_time=sim_time,
        seed=seed,
        crash_fraction=0.3,
        mean_downtime=25.0,
        link_blackouts=2,
        mean_blackout=15.0,
        loss_bursts=2,
        burst_rate=0.5,
        mean_burst=10.0,
        partitions=1,
        mean_partition=20.0,
        extent=extent,
        dup_windows=1,
        dup_rate=0.3,
        mean_dup=15.0,
        jitter_windows=1,
        jitter_max=0.2,
        mean_jitter=15.0,
    )


def run_chaos_point(
    seed: int,
    strategy: str,
    failover: bool = True,
    loss_rate: float = 0.05,
    observer: Optional[Observer] = None,
    include_faults: bool = True,
) -> ChaosPoint:
    """One randomized-fault simulation, checked against every invariant.

    Everything — dataset, workload, mobility, loss process, and the
    fault schedule — derives from ``seed``, so a failing point replays
    identically from its seed alone.

    Args:
        loss_rate: Independent per-frame loss probability of the radio.
        observer: Optional pre-built observer (e.g. with a flight
            recorder / stream analyzer attached); a plain one is made
            when omitted.
        include_faults: With False the same seed runs *without* its
            fault schedule — the fault-free twin the streaming
            detectors are scored against (same dataset, workload,
            mobility, and loss process).
    """
    dataset = make_global_dataset(
        CHAOS_CARDINALITY, 2, CHAOS_DEVICES, "independent", seed=seed,
        value_step=1.0,
    )
    workload = generate_workload(
        CHAOS_DEVICES, CHAOS_SIM_TIME, 250.0, queries_per_device=(1, 2),
        seed=seed + 1,
    )
    x_min, y_min, x_max, y_max = dataset.schema.spatial_extent
    faults = _chaos_faults(
        seed + 2, CHAOS_DEVICES, CHAOS_SIM_TIME,
        extent=(x_max - x_min, y_max - y_min),
    ) if include_faults else None
    protocol = chaos_protocol_config(failover)
    config = SimulationConfig(
        strategy=strategy,
        sim_time=CHAOS_SIM_TIME,
        radio=RadioConfig(loss_rate=loss_rate),
        protocol=protocol,
        seed=seed + 3,
        # Drain far enough past the last possible issue that every
        # deadline close, retry tail, and failover flood has landed.
        drain_time=CHAOS_DEADLINE + 60.0,
        faults=faults,
    )
    if observer is None:
        observer = Observer()
    result = run_manet_simulation(
        dataset, workload, config, observer=observer, keep_network=True,
    )
    sim, _world, _devs = result.network
    violations = verify_run(
        result, dataset, protocol, observer=observer, sim=sim,
    )
    reports = [r.report for r in result.records if r.report is not None]
    contributed = sum(len(r.contributed) for r in reports)
    attainable = contributed + sum(
        len(r.lost_to_fault) + len(r.deadline_expired) for r in reports
    )
    return ChaosPoint(
        seed=seed,
        strategy=strategy,
        failover=failover,
        violations=violations,
        queries=len(result.records),
        completed=sum(1 for r in reports if r.outcome == "completed"),
        deadline_expired=sum(
            1 for r in reports if r.outcome == "deadline-expired"
        ),
        aborted=sum(1 for r in reports if r.outcome == "aborted-by-crash"),
        failovers=sum(r.failovers for r in result.records),
        coverage=(contributed / attainable) if attainable else 1.0,
        fault_events=len(result.fault_events),
    )


def chaos_suite(
    seeds: Sequence[int],
    strategies: Sequence[str] = ("bf", "df"),
    progress: Optional[int] = None,
) -> ChaosReport:
    """Run the invariant suite over many seeds and strategies, with
    DF→BF failover on.

    Args:
        seeds: Chaos seeds; each is run once per strategy.
        strategies: Which protocol strategies to exercise.
        progress: If given, print one status line every ``progress``
            completed runs.

    Returns:
        A :class:`ChaosReport`; ``report.ok`` is the pass/fail verdict.
    """
    report = ChaosReport()
    done = 0
    total = len(seeds) * len(strategies)
    for seed in seeds:
        for strategy in strategies:
            report.points.append(
                run_chaos_point(seed, strategy)
            )
            done += 1
            if progress and done % progress == 0:
                print(f"  chaos {done}/{total} runs...", flush=True)
    return report


def loss_curve() -> Tuple[FigureResult, List[str]]:
    """Coverage against frame loss for BF, DF and DF+failover.

    Each point is the mean coverage of :data:`LOSS_SEEDS` fault-free
    chaos runs (no fault schedule) at one loss rate; the ``failovers``
    series counts DF+failover's failovers over those seeds. Returns the
    figure and every failure: a point that breaks an invariant, then
    whatever :func:`check_loss_curve` finds.
    """
    figure = FigureResult(
        figure="Chaos: loss rate",
        title="coverage vs. frame loss rate, no fault schedule",
        x_label="loss rate",
        x_values=list(LOSS_RATES),
        notes=(
            f"mean over seeds {LOSS_SEEDS[0]}-{LOSS_SEEDS[-1]}; failovers "
            "= DF+failover total"
        ),
    )
    failures: List[str] = []
    failovers: List[int] = []
    for name, strategy, failover in LOSS_SERIES:
        coverage = []
        for rate in LOSS_RATES:
            points = [
                run_chaos_point(seed, strategy, failover, loss_rate=rate,
                                include_faults=False)
                for seed in LOSS_SEEDS
            ]
            coverage.append(sum(p.coverage for p in points) / len(points))
            if failover:
                failovers.append(sum(p.failovers for p in points))
            failures.extend(
                f"[seed={p.seed} {name} loss={rate}] {v}"
                for p in points for v in p.violations
            )
        figure.add_series(name, coverage)
    figure.add_series("failovers", failovers)
    return figure, failures + check_loss_curve(figure)


def check_loss_curve(figure: FigureResult) -> List[str]:
    """The loss curve's headline checks; an empty list passes.

    Every series covers fully without loss; DF+failover is never below
    DF, strictly above it at the highest loss, and fails over at least
    once there.
    """
    failures = []
    for name, _strategy, _failover in LOSS_SERIES:
        coverage = figure.get(name)[0]
        if coverage < 1.0 - 1e-9:
            failures.append(
                f"{name}: coverage {coverage:.3f} without loss, not 1.0"
            )
    df, df_failover = figure.get("DF"), figure.get("DF+failover")
    for rate, plain, recovered in zip(figure.x_values, df, df_failover):
        if rate > 0 and recovered < plain - 1e-9:
            failures.append(
                f"DF+failover coverage {recovered:.3f} below DF "
                f"{plain:.3f} at loss {rate}"
            )
    worst = figure.x_values[-1]
    if not df_failover[-1] > df[-1]:
        failures.append(
            f"DF+failover coverage {df_failover[-1]:.3f} not above DF "
            f"{df[-1]:.3f} at loss {worst}"
        )
    if figure.get("failovers")[-1] < 1:
        failures.append(f"DF+failover never failed over at loss {worst}")
    return failures
