"""Command-line interface: regenerate any figure's data as a text table.

Examples::

    python -m repro fig5a
    python -m repro fig6 --scale smoke
    python -m repro all --scale smoke
    repro-skyline fig12 --scale default
    repro-skyline trace --scale smoke --obs telemetry/
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List

from . import experiments as ex
from .experiments.chaos_sweep import SMOKE_SEEDS

__all__ = ["main"]

_FIGURES: Dict[str, List[Callable]] = {
    "fig5a": [ex.figure_5a],
    "fig5b": [ex.figure_5b],
    "fig5": [ex.figure_5a, ex.figure_5b],
    "fig6a": [ex.figure_6a],
    "fig6b": [ex.figure_6b],
    "fig6c": [ex.figure_6c],
    "fig6": [ex.figure_6a, ex.figure_6b, ex.figure_6c],
    "fig7a": [ex.figure_7a],
    "fig7b": [ex.figure_7b],
    "fig7c": [ex.figure_7c],
    "fig7": [ex.figure_7a, ex.figure_7b, ex.figure_7c],
    "fig8a": [ex.figure_8a],
    "fig8b": [ex.figure_8b],
    "fig8c": [ex.figure_8c],
    "fig8": [ex.figure_8a, ex.figure_8b, ex.figure_8c],
    "fig9a": [ex.figure_9a],
    "fig9b": [ex.figure_9b],
    "fig9c": [ex.figure_9c],
    "fig9": [ex.figure_9a, ex.figure_9b, ex.figure_9c],
    "fig10a": [ex.figure_10a],
    "fig10b": [ex.figure_10b],
    "fig10c": [ex.figure_10c],
    "fig10": [ex.figure_10a, ex.figure_10b, ex.figure_10c],
    "fig11a": [ex.figure_11a],
    "fig11b": [ex.figure_11b],
    "fig11c": [ex.figure_11c],
    "fig11": [ex.figure_11a, ex.figure_11b, ex.figure_11c],
    "fig12": [ex.figure_12],
    "sensitivity": [
        lambda scale: ex.radio_range_sweep(scale=scale),
        lambda scale: ex.speed_sweep(scale=scale),
        lambda scale: ex.cpu_sweep(scale=scale),
    ],
    "faults": [
        lambda scale: ex.fault_loss_sweep(scale=scale, metric="coverage"),
        lambda scale: ex.fault_loss_sweep(scale=scale, metric="response"),
        lambda scale: ex.fault_churn_sweep(scale=scale, metric="coverage"),
        lambda scale: ex.fault_churn_sweep(scale=scale, metric="response"),
    ],
}
_FIGURES["all"] = [
    fn
    for key in ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12")
    for fn in _FIGURES[key]
]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-skyline",
        description=(
            "Regenerate the evaluation figures of 'Skyline Queries Against "
            "Mobile Lightweight Devices in MANETs' (ICDE 2006)."
        ),
    )
    parser.add_argument(
        "figure",
        choices=sorted(_FIGURES) + ["trace", "chaos", "continuous",
                                    "blackbox"],
        help=(
            "which figure (or figure group) to regenerate; 'trace' runs "
            "one observed simulation per strategy and prints its "
            "query-lifecycle summary; 'chaos' runs the seeded fault "
            "harness and checks the resilience invariants; 'continuous' "
            "sweeps delta-maintained subscriptions against the naive "
            "re-flood baseline and checks the per-epoch invariants; "
            "'blackbox' runs one seeded chaos point with the flight "
            "recorder and streaming detectors on, prints every "
            "post-mortem dump plus the health dashboard, and can write "
            "blackbox.json / health.json (or inspect one with --load)"
        ),
    )
    parser.add_argument(
        "--scale",
        default="default",
        choices=("smoke", "default", "paper"),
        help="experiment scale (default: default; paper = full-size grids)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="also render each panel as an ASCII chart",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the results as a markdown report to FILE",
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help=(
            "worker processes for MANET sweeps (default: REPRO_WORKERS "
            "or the CPU count; 1 = serial reference path)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "persistent run-cache directory (default: REPRO_CACHE_DIR "
            "or .repro_cache; 'off' disables disk caching)"
        ),
    )
    parser.add_argument(
        "--obs",
        metavar="DIR",
        help=(
            "telemetry directory: traced runs write spans.jsonl, a "
            "Perfetto trace.json, metrics.json, and a per-query summary "
            "per run (default: REPRO_OBS; 'off' disables)"
        ),
    )
    parser.add_argument(
        "--strategy",
        default="both",
        choices=("bf", "df", "both"),
        help="strategies for the 'trace' command (default: both)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "for the 'chaos' and 'continuous' commands: run only the 5 "
            "pinned smoke seeds (the CI tier) instead of --seeds "
            "randomized ones, then the fixed-seed loss curve ('chaos') "
            "or, with --grid, maintenance curve ('continuous')"
        ),
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=50,
        metavar="N",
        help=(
            "for the 'chaos' and 'continuous' commands: number of seeds "
            "to sweep (default: 50)"
        ),
    )
    parser.add_argument(
        "--seed-base",
        type=int,
        default=100,
        metavar="S",
        help=(
            "for the 'chaos' and 'continuous' commands: first seed "
            "(default: 100)"
        ),
    )
    parser.add_argument(
        "--grid",
        action="store_true",
        help=(
            "for the 'continuous' command: place devices on a static "
            "connected grid (the exactness setting) instead of random "
            "waypoint mobility"
        ),
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        help=(
            "for the 'blackbox' command: directory to write "
            "blackbox.json and health.json into"
        ),
    )
    parser.add_argument(
        "--load",
        metavar="FILE",
        help=(
            "for the 'blackbox' command: render an existing "
            "blackbox.json instead of running a simulation"
        ),
    )
    return parser


def _run_trace(args, scale) -> int:
    """The ``trace`` command: one observed run per requested strategy."""
    from pathlib import Path

    from .experiments.tracing import trace_point
    from .obs import query_summary, telemetry_root

    directory = telemetry_root()
    strategies = ("bf", "df") if args.strategy == "both" else (args.strategy,)
    spanless = []
    for strategy in strategies:
        start = time.time()
        observer, _metrics = trace_point(strategy, scale, directory=directory)
        print(f"=== {strategy} (scale={scale.name}) ===")
        print(query_summary(observer))
        print(f"  [{time.time() - start:.1f}s]")
        print()
        if not observer.spans:
            spanless.append(strategy)
    if directory is not None:
        print(f"telemetry written under {Path(directory) / scale.name}")
    if spanless:
        # The telemetry bundle is still written and valid (an empty
        # trace loads fine in Perfetto) — but a span-less trace run is
        # almost always a misconfiguration, so say so loudly and let
        # CI notice via the exit code.
        print(
            "warning: no spans observed for "
            + ", ".join(spanless)
            + " — the run issued no queries (empty trace written)",
            file=sys.stderr,
        )
        return 3
    return 0


def _run_blackbox(args) -> int:
    """The ``blackbox`` command: a seeded chaos run with the flight
    recorder and streaming detectors on, rendered as a post-mortem."""
    import json
    from pathlib import Path

    from .obs import load_blackbox, render_dump

    if args.load:
        try:
            doc = load_blackbox(args.load)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        dumps = doc.get("dumps", [])
        print(
            f"{args.load}: capacity={doc.get('capacity')} "
            f"nodes={len(doc.get('nodes', {}))} dumps={len(dumps)} "
            f"evicted={doc.get('evicted')}"
        )
        for dump in dumps:
            print()
            print(render_dump(dump))
        return 0

    from .experiments.chaos_sweep import run_chaos_point
    from .obs import FlightRecorder, Observer, StreamAnalyzer

    strategy = "df" if args.strategy == "both" else args.strategy
    seed = args.seed_base
    observer = Observer()
    flight = FlightRecorder()
    stream = StreamAnalyzer()
    observer.attach_flight(flight).attach_stream(stream)
    start = time.time()
    point = run_chaos_point(seed, strategy, observer=observer)
    print(
        f"=== blackbox: seed={seed} strategy={strategy} "
        f"queries={point.queries} completed={point.completed} "
        f"coverage={point.coverage:.3f} faults={point.fault_events} ==="
    )
    print()
    print(stream.render_dashboard())
    if flight.dumps:
        for dump in flight.dumps:
            print()
            print(render_dump(dump.to_dict()))
    else:
        print()
        print("(no post-mortem triggers fired)")
    print(f"  [{time.time() - start:.1f}s]")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        flight.write_json(out / "blackbox.json")
        with open(out / "health.json", "w") as handle:
            json.dump(stream.health_report(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"blackbox.json and health.json written under {out}")
    if point.violations:
        print()
        print("invariant violations:", file=sys.stderr)
        for violation in point.violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    return 0


def _run_harness(args, smoke_seeds, suite, curve=None) -> int:
    """The ``chaos`` and ``continuous`` commands: ``suite`` over the
    seeds, then at the smoke tier the fixed-seed ``curve``, if any. A
    violation or a failed curve check exits 1."""
    if args.smoke:
        seeds = list(smoke_seeds)
    else:
        if args.seeds < 1:
            print("error: --seeds must be >= 1", file=sys.stderr)
            return 2
        seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    start = time.time()
    report = suite(seeds)
    print(report.render())
    print(f"  [{time.time() - start:.1f}s]")
    failures = report.violations
    if args.smoke and curve is not None:
        start = time.time()
        figure, curve_failures = curve()
        print()
        print(figure.render())
        print(f"  [{time.time() - start:.1f}s]")
        failures += curve_failures
    if failures:
        print()
        print(f"{args.figure} violations:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    """Entry point for ``python -m repro`` / ``repro-skyline``."""
    args = build_parser().parse_args(argv)
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    ex.configure(workers=args.workers, cache_dir=args.cache_dir)
    if args.obs is not None:
        from .obs import configure_telemetry

        configure_telemetry(args.obs)
    if args.figure == "blackbox":
        return _run_blackbox(args)
    if args.figure == "chaos":
        strategies = (
            ("bf", "df") if args.strategy == "both" else (args.strategy,)
        )
        return _run_harness(
            args, SMOKE_SEEDS,
            lambda seeds: ex.chaos_suite(seeds, strategies, progress=20),
            ex.loss_curve,
        )
    if args.figure == "continuous":
        return _run_harness(
            args, ex.CONTINUOUS_SMOKE_SEEDS,
            lambda seeds: ex.continuous_suite(seeds, args.grid, progress=5),
            ex.maintenance_curve if args.grid else None,
        )
    scale = ex.get_scale(args.scale)
    if args.figure == "trace":
        return _run_trace(args, scale)
    results = []
    for fn in _FIGURES[args.figure]:
        start = time.time()
        result = fn(scale)
        results.append(result)
        print(result.render())
        if args.plot:
            from .experiments.plotting import ascii_plot

            print()
            print(ascii_plot(result))
        print(f"  [{time.time() - start:.1f}s]")
        print()
    if args.output:
        from .experiments.report import markdown_report

        report = markdown_report(
            results,
            title=f"Measured results — scale={scale.name}",
            preamble=(
                "Regenerated with `python -m repro "
                f"{args.figure} --scale {scale.name}`."
            ),
        )
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
