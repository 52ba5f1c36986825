"""Timing statistics, host calibration and run bookkeeping."""

from __future__ import annotations

import math
import resource
import statistics
import time
from typing import Dict, Iterable, List, Sequence

#: ``op_ms_p90`` is the 90th percentile only when a run timed at least
#: this many ops, so that ten or more samples lie beyond it. With fewer
#: ops the tail is not resolved and the median is reported in its place.
P90_MIN_OPS = 100

#: Iterations of the fixed calibration loop (a few milliseconds).
CALIBRATION_LOOPS = 200_000

#: Iterations of the short calibration sample :class:`HostClock` takes
#: between timed steps, and the sample's time on the reference host
#: (about its median on the 2-core 2.1 GHz Xeon the bounds were set on).
SAMPLE_LOOPS = 20_000
REFERENCE_SAMPLE_MS = 1.5

#: A step's host scale is the median of the samples taken up to this
#: many steps before and after it (about a second of a run): the host's
#: speed changes within a run, and one sample alone is noisy.
SCALE_WINDOW = 4


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (in (0, 1]) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def op_latency_ms(walls_s: Sequence[float]) -> Dict[str, float]:
    """``op_ms_p50`` and ``op_ms_p90`` of per-op wall times in seconds."""
    ms = [wall * 1e3 for wall in walls_s]
    p50 = statistics.median(ms)
    p90 = percentile(ms, 0.9) if len(ms) >= P90_MIN_OPS else p50
    return {"op_ms_p50": p50, "op_ms_p90": p90}


def loop_ms(loops: int) -> float:
    """Wall time of a fixed pure-Python loop of ``loops`` iterations, in ms."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i
    return (time.perf_counter() - t0) * 1e3


def calibrate_ms(repeats: int = 5) -> float:
    """Best-of-``repeats`` wall time of the fixed calibration loop, in ms.

    Taken at the start and end of every run, it tells host drift (the
    loop slows too) from a regression (only the program slows).
    """
    return min(loop_ms(CALIBRATION_LOOPS) for _ in range(repeats))


class HostClock:
    """The host's speed, sampled before each timed step of a run.

    A shared host runs the same code up to a third slower for seconds to
    minutes at a time, and a run's timings follow it. :meth:`sample`
    times the short calibration loop once, outside any timed step.
    :meth:`scales` gives each step the median of the samples taken
    within :data:`SCALE_WINDOW` steps of it, over
    :data:`REFERENCE_SAMPLE_MS`; dividing the step's wall time by it
    gives its time at the reference host's speed, so a slower program
    still reads slower and a slower host does not. The loop runs no
    program code, so a change to the program cannot move the scale,
    except by leaving threads running beside it between steps.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        self.samples.append(loop_ms(SAMPLE_LOOPS))

    def scales(self) -> List[float]:
        """The scale of each sampled step, in sampling order."""
        n, k = len(self.samples), SCALE_WINDOW
        return [
            statistics.median(self.samples[max(0, i - k):i + k + 1])
            / REFERENCE_SAMPLE_MS
            for i in range(n)
        ]

    def scale(self) -> float:
        """The scale of the whole run: its median sample over the
        reference."""
        return statistics.median(self.samples) / REFERENCE_SAMPLE_MS


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_outcome(failed: Iterable[bool], deterministic: bool) -> Dict[str, object]:
    """``correct``, ``attempted`` and ``failed`` of a run from one flag per
    timed op. A run whose determinism fingerprint did not repeat is not
    averaged in: every one of its ops counts as failed."""
    flags = list(failed)
    attempted = len(flags)
    failures = sum(flags) if deterministic else attempted
    return {
        "correct": attempted > 0 and failures == 0,
        "attempted": attempted,
        "failed": failures,
    }
