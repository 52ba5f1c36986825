"""One BF query at the paper's node density and m=1,600, with its frame
counts: the exactness pin of the neighbor index and the router at scale.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/scale_probe.py

It builds the ``paper_bf`` workload of ``perfbench/workloads.py`` at
m=1,600 devices on an 8,000 m square (the Fig. 10 default density),
16,000 tuples and ``d`` = 3,000 m, runs its seed-1 queries 1 and 2 in
order, and prints query 2's engine events, radio deliveries, frames by
kind and contributions, with its wall time and the time per delivery.
It exits 1 unless the counts equal :data:`EXPECTED` (ROADMAP item 3's
table): the run is deterministic, so any change in them is a change in
simulated behaviour.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import ManetWorkload  # noqa: E402
from repro.protocol import ProtocolConfig  # noqa: E402

#: Query 2's counts at seed 1.
EXPECTED = {
    "events": 293_118,
    "deliveries": 1_304_280,
    "rreq": 150_065,
    "rrep": 85_505,
    "rerr": 3_669,
    "data": 51_030,
    "contributions": 1_301,
}


QUERY = 2


def probe(seed: int = 1) -> dict:
    """Run the seed's queries up to :data:`QUERY` (1-based) and return
    the last one's counts and wall time."""
    workload = ManetWorkload(
        devices=1_600, cardinality=16_000, distance=3_000.0,
        protocol=ProtocolConfig(), warmup=0, rate=1.0, side=8_000.0,
    )
    state = workload.setup(seed)
    for op in workload.op_inputs(seed):
        workload.prepare(state, op)
        sim, stats = state.sim, state.world.stats
        events, deliveries = sim.events_fired, stats.deliveries
        kinds = dict(stats.by_kind)
        start = time.perf_counter()
        workload.run_op(state, op)
        wall = time.perf_counter() - start
        if op.index + 1 == QUERY:
            counts = {
                "events": sim.events_fired - events,
                "deliveries": stats.deliveries - deliveries,
            }
            for kind in ("rreq", "rrep", "rerr", "data"):
                counts[kind] = stats.by_kind.get(kind, 0) - kinds.get(kind, 0)
            counts["contributions"] = len(op.outcome.contributions)
            return {"counts": counts, "wall_s": wall}
    raise AssertionError("unreachable")


def main() -> int:
    out = probe()
    counts = out["counts"]
    print(" ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"wall {out['wall_s']:.2f} s, "
          f"{out['wall_s'] / max(counts['deliveries'], 1) * 1e6:.2f} us per delivery")
    if counts != EXPECTED:
        print(f"expected {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
