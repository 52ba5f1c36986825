#!/usr/bin/env python3
"""Closed-loop, oracle-checked end-to-end benchmark of the MANET skyline
simulator, with per-layer attribution from a separate traced run.

Run from the repository root::

    python3 perfbench/run.py --workload paper_bf --seed 1 --seconds 30 --trace 0

The workloads are described in ``perfbench/workloads.py``. A run

1. builds the workload's inputs from ``--seed`` at least five times
   (more when a build is quick) and reports the median build time as
   ``setup_s``;
2. runs a few discarded warm-up ops, collects garbage, then times a
   fixed number of ops one at a time (a closed loop from one client:
   the next op starts once the previous one has drained the event
   queue). The count is ``--seconds`` times the workload's nominal
   rate, so it never depends on the host's speed and every run of one
   seed times the same ops. Before every build and every timed op, and
   outside its timing, a short calibration loop samples the host's
   speed; the end-to-end times (``setup_s``, ``op_ms_p50``,
   ``op_ms_p90``, ``ops_per_s``) are reported at the reference host's
   speed (``measure.HostClock``), the times as measured are printed
   above the result line, and the scale is the per-layer ``host.scale``.
   Per-layer times are as measured;
3. checks every timed op against a centralized oracle (``oracle_s``);
4. fingerprints the timed ops (engine events, transmissions, results
   and the paper's metrics). The fingerprint must repeat exactly across
   runs of one seed on the same code (kept in ``.perfbench/``) and
   between the untraced and the traced phase, else every op counts as
   failed;
5. prints one JSON object as the last line of standard output:
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With
``--trace 1`` the same ops run twice: untraced, then with the timing
wrappers of ``perfbench/layers.py`` installed around every ``repro``
layer. The JSON then carries the per-layer metrics (times and counts
per op), a table above it prints them next to the untraced end-to-end
metrics, and the spans are written to ``.perfbench/``.

The launcher re-executes itself once with a fixed ``PYTHONHASHSEED``
and single-threaded BLAS/OpenMP; everything then runs in that one
process, with no worker pool.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import statistics
import sys
import time
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
STATE_DIR = ROOT / ".perfbench"

STEADY_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
#: Set-up is repeated at least this often, and until it has taken
#: :data:`SETUP_MIN_S` in total (at most :data:`SETUP_MAX_REPEATS`
#: times), so that a quick set-up still gives a steady median.
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 100

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_response_s": "s",
    "messages_per_op": "msg/op",
    "energy_j_per_op": "J/op",
    "coverage": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def relaunch_steady(argv) -> None:
    """Re-execute this script with :data:`STEADY_ENV` unless it is set."""
    if all(os.environ.get(k) == v for k, v in STEADY_ENV.items()):
        return
    env = dict(os.environ, **STEADY_ENV)
    script = str(Path(__file__).resolve())
    os.execve(sys.executable, [sys.executable, script, *argv], env)


def run_phase(workload, state, seed, count, tracer=None, clock=None):
    """Warm up, then time ``count`` ops one at a time, sampling ``clock``
    (a :class:`measure.HostClock`) before each. An op's ``wall_s`` times
    the op, its ``step_s`` the op with its preparation and accounting.
    Returns ``(ops, wall_s)``: the sum of the steps."""
    inputs = workload.op_inputs(seed)
    for op in itertools.islice(inputs, workload.warmup):
        workload.prepare(state, op)
        workload.run_op(state, op)
        workload.account(state, op)
    gc.collect()
    gc.freeze()
    ops = []
    try:
        for op in itertools.islice(inputs, count):
            if clock is not None:
                clock.sample()
            start = time.perf_counter()
            workload.prepare(state, op)
            if tracer is not None:
                tracer.op = op.index
                tracer.active = True
            t0 = time.perf_counter()
            workload.run_op(state, op)
            t1 = time.perf_counter()
            op.wall_s = t1 - t0
            if tracer is not None:
                tracer.active = False
                tracer.end_op(op.wall_s)
            workload.account(state, op)
            op.step_s = time.perf_counter() - start
            ops.append(op)
    finally:
        gc.unfreeze()
    return ops, sum(op.step_s for op in ops)


def fingerprint(workload, state, ops):
    """Paper metrics of the timed ops, and a digest pinning them together
    with the per-op engine, radio and result counters."""
    paper = workload.paper_metrics(state, ops)
    rows = workload.fingerprint_rows(state, ops)
    digest = hashlib.sha256(repr((rows, sorted(paper.items()))).encode())
    return paper, digest.hexdigest()[:16]


def code_digest() -> str:
    """Digest of the simulator and benchmark sources a fingerprint
    belongs to."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(path.relative_to(base).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def remember_fingerprint(key: str, digest: str) -> bool:
    """False when an earlier run stored a different digest under ``key``."""
    path = STATE_DIR / "fingerprints.json"
    try:
        known = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        known = {}
    if key in known:
        return known[key] == digest
    known[key] = digest
    try:
        STATE_DIR.mkdir(exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
    except OSError as exc:
        print(f"perfbench: fingerprint not stored: {exc}", file=sys.stderr)
    return True


def time_setup(workload, seed, clock):
    """Build the workload's state repeatedly, sampling ``clock`` before
    each build; ``(state, build times in s)``."""
    setups = []
    state = None
    gc.collect()
    while len(setups) < SETUP_MIN_REPEATS or (
        sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS
    ):
        state = None
        clock.sample()
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - t0)
    return state, setups


def at_reference_speed(times, clock) -> list:
    """``times`` (one per sampled step of ``clock``) at the reference
    host's speed."""
    return [t / scale for t, scale in zip(times, clock.scales())]


def run(args) -> dict:
    import layers
    import measure
    import workloads

    workload = workloads.make(args.workload)
    count = workload.op_count(args.seconds)
    calib = [measure.calibrate_ms()]
    setup_clock, clock = measure.HostClock(), measure.HostClock()
    state, setups = time_setup(workload, args.seed, setup_clock)

    ops, wall = run_phase(workload, state, args.seed, count, clock=clock)
    t0 = time.perf_counter()
    failed = workload.check(state, ops)
    oracle_s = time.perf_counter() - t0
    paper, digest = fingerprint(workload, state, ops)
    # The data reduction rate moves with the seed's op mix by more than
    # any end-to-end bound, so it is reported per layer.
    drr = paper.pop("drr")
    deterministic = remember_fingerprint(
        f"{args.workload}/{args.seed}/{args.seconds}/{code_digest()}", digest
    )
    # Wall times at the reference host's speed (see measure.HostClock).
    e2e = {
        "setup_s": statistics.median(at_reference_speed(setups, setup_clock)),
        **measure.op_latency_ms(at_reference_speed([op.wall_s for op in ops],
                                                   clock)),
        "ops_per_s": len(ops) / sum(
            at_reference_speed([op.step_s for op in ops], clock)),
        "peak_rss_mb": measure.peak_rss_mb(),
        **paper,
    }
    complete = all(value is not None for value in (*e2e.values(), drr))
    print(f"perfbench {args.workload} seed={args.seed}: {len(ops)} ops in "
          f"{wall:.2f} s, {sum(failed)} failed, oracle {oracle_s:.2f} s, "
          f"fingerprint {digest}"
          + ("" if deterministic else " DIFFERS from an earlier run of this seed"))
    raw = measure.op_latency_ms([op.wall_s for op in ops])
    print(f"host scale {clock.scale():.4f}; as measured: setup_s "
          f"{statistics.median(setups):.4f}, op_ms_p50 {raw['op_ms_p50']:.3f}, "
          f"op_ms_p90 {raw['op_ms_p90']:.3f}, ops_per_s {len(ops) / wall:.3f}")
    if not args.trace:
        calib.append(measure.calibrate_ms())
        print(f"host.calib_ms start {calib[0]:.3f} end {calib[1]:.3f}")
        return finish(measure.run_outcome(failed, deterministic and complete),
                      e2e, END_TO_END)

    state = None
    gc.collect()
    tracer = layers.Tracer().install()
    try:
        # Devices bind their handlers when built, so the traced network
        # is built with the wrappers in place (they stay idle until the
        # first timed op).
        state = workload.setup(args.seed)
        traced_clock = measure.HostClock()
        traced_ops, traced_wall = run_phase(workload, state, args.seed,
                                            count, tracer, traced_clock)
    finally:
        tracer.uninstall()
    # The traced ops are the untraced ops again: equal fingerprints
    # (results included) stand in for a second oracle pass.
    _, traced_digest = fingerprint(workload, state, traced_ops)
    deterministic = deterministic and traced_digest == digest
    calib.append(measure.calibrate_ms())
    per_layer = layers.layer_metrics(
        tracer, traced_ops,
        oracle_s=oracle_s,
        trace_overhead=len(traced_ops) / sum(at_reference_speed(
            [op.step_s for op in traced_ops], traced_clock)) / e2e["ops_per_s"],
        calib_ms=statistics.fmean(calib),
        host_scale=clock.scale(),
        drr=drr,
    )
    write_spans(tracer, args)
    print(f"traced: {len(traced_ops)} ops in {traced_wall:.2f} s, fingerprint "
          f"{traced_digest}; host.calib_ms start {calib[0]:.3f} end {calib[1]:.3f}")
    print_table(e2e, per_layer, layers.PER_LAYER)
    return finish(measure.run_outcome(failed, deterministic and complete),
                  per_layer, layers.PER_LAYER)


def finish(outcome: dict, values: dict, units: dict) -> dict:
    """The result record. A metric that could not be computed reads 0.0;
    its run is then already marked failed."""
    return {**outcome, "metrics": {
        name: {"value": 0.0 if values[name] is None else values[name],
               "unit": unit}
        for name, unit in units.items()
    }}


def write_spans(tracer, args) -> None:
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({
            "fields": ["span", "parent", "op", "layer", "name", "t0", "t1"],
            "self_s": dict(tracer.self_s),
            "dropped_spans": tracer.dropped_spans,
        }) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def print_table(e2e: dict, per_layer: dict, layer_units: dict) -> None:
    left = [f"{k:<16}{v:>12.5g} {END_TO_END[k]}" for k, v in e2e.items()
            if v is not None]
    right = [f"{k:<24}{v:>12.5g} {layer_units[k]}" for k, v in per_layer.items()]
    print(f"{'end-to-end (untraced)':<38}per layer (traced, per op)")
    for a, b in zip_longest(left, right, fillvalue=""):
        print(f"{a:<38}{b}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    relaunch_steady(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {src}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(src)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
