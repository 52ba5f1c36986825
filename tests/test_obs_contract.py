"""The observer's counted-event contract.

* **Golden telemetry.** Every counter value and the count of each event
  name, for four seeded chaos points and one faulty delta subscription,
  pinned as literals. A change to how the observer counts cannot move a
  number without editing this file.
* **Focused counters** that those runs do not reach: the per-label
  orphan counters and the DF duplicate-token counter.
* **The guard rule.** Every observer call in ``src/`` outside
  ``repro.obs`` sits under an ``enabled`` check, so the unobserved path
  never calls into the default observer.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

from repro.continuous import run_continuous_simulation
from repro.data import make_global_dataset
from repro.experiments.chaos_sweep import run_chaos_point
from repro.experiments.continuous_sweep import continuous_point_config
from repro.net import (
    RadioConfig,
    Simulator,
    StaticPlacement,
    World,
)
from repro.obs import Observer
from repro.protocol import BFDevice, DFDevice, ProtocolConfig
from repro.resilience import ResiliencePolicy

from .staging import first_time, observe

# ---------------------------------------------------------------------------
# Golden telemetry
# ---------------------------------------------------------------------------

#: (run, seed, strategy or mode) -> (counter values, events per name).
GOLDEN = {
    ("chaos", 11, "bf"): (
        {
            "aodv.discoveries": 20,
            "aodv.route_breaks": 18,
            "aodv.undeliverable": 3,
            "core.local.evaluations": 52,
            "core.local.in_range": 343,
            "core.local.reduced": 36,
            "core.local.scanned": 1345,
            "core.local.skips.mbr": 38,
            "faults.duplication-override": 2,
            "faults.jitter-override": 2,
            "faults.link-down": 2,
            "faults.link-up": 2,
            "faults.loss-override": 2,
            "faults.node-crash": 2,
            "faults.node-recover": 2,
            "faults.partition-heal": 1,
            "faults.partition-split": 1,
            "net.drops": 57,
            "net.drops.loss": 33,
            "net.drops.no-link": 24,
            "net.rx.frames": 364,
            "net.tx.bytes": 9252,
            "net.tx.data": 143,
            "net.tx.frames": 274,
            "net.tx.query": 52,
            "net.tx.rrep": 25,
            "net.tx.rreq": 54,
            "protocol.filter.promotions": 8,
            "protocol.queries.aborted_by_crash": 1,
            "protocol.queries.completed": 1,
            "protocol.queries.issued": 12,
            "protocol.results.merged": 40,
            "protocol.results.retransmits": 5,
            "resilience.deadline_closes": 10,
        },
        {
            "aodv.discovery": 20,
            "aodv.route-break": 18,
            "aodv.undeliverable": 3,
            "fault.duplication-override": 2,
            "fault.jitter-override": 2,
            "fault.link-down": 2,
            "fault.link-up": 2,
            "fault.loss-override": 2,
            "fault.node-crash": 2,
            "fault.node-recover": 2,
            "fault.partition-heal": 1,
            "fault.partition-split": 1,
            "filter.promoted": 8,
            "frame.broadcast": 106,
            "frame.dropped": 33,
            "frame.heard": 220,
            "query.aborted-by-crash": 1,
            "query.completed": 1,
            "query.deadline-close": 10,
            "result.acked": 40,
            "result.merged": 40,
            "result.retransmit": 5,
        },
    ),
    ("chaos", 11, "df"): (
        {
            "aodv.discoveries": 9,
            "aodv.route_breaks": 6,
            "aodv.undeliverable": 1,
            "core.local.evaluations": 51,
            "core.local.in_range": 342,
            "core.local.reduced": 35,
            "core.local.scanned": 1251,
            "core.local.skips.mbr": 38,
            "faults.duplication-override": 2,
            "faults.jitter-override": 2,
            "faults.link-down": 2,
            "faults.link-up": 2,
            "faults.loss-override": 2,
            "faults.node-crash": 2,
            "faults.node-recover": 2,
            "faults.partition-heal": 1,
            "faults.partition-split": 1,
            "net.drops": 23,
            "net.drops.loss": 10,
            "net.drops.no-link": 13,
            "net.rx.frames": 131,
            "net.tx.bytes": 7316,
            "net.tx.data": 44,
            "net.tx.frames": 119,
            "net.tx.rrep": 7,
            "net.tx.rreq": 24,
            "net.tx.token": 44,
            "protocol.queries.completed": 12,
            "protocol.queries.issued": 12,
            "protocol.results.merged": 39,
        },
        {
            "aodv.discovery": 9,
            "aodv.route-break": 6,
            "aodv.undeliverable": 1,
            "fault.duplication-override": 2,
            "fault.jitter-override": 2,
            "fault.link-down": 2,
            "fault.link-up": 2,
            "fault.loss-override": 2,
            "fault.node-crash": 2,
            "fault.node-recover": 2,
            "fault.partition-heal": 1,
            "fault.partition-split": 1,
            "frame.broadcast": 24,
            "frame.dropped": 10,
            "frame.heard": 49,
            "query.completed": 12,
            "result.merged": 39,
            "token.backtrack": 39,
            "token.home": 13,
            "token.received": 77,
        },
    ),
    ("chaos", 23, "bf"): (
        {
            "aodv.discoveries": 11,
            "aodv.route_breaks": 10,
            "aodv.undeliverable": 8,
            "core.local.evaluations": 32,
            "core.local.in_range": 596,
            "core.local.reduced": 46,
            "core.local.scanned": 1223,
            "core.local.skips.mbr": 19,
            "faults.duplication-override": 2,
            "faults.jitter-override": 2,
            "faults.link-down": 2,
            "faults.link-up": 1,
            "faults.loss-override": 4,
            "faults.node-crash": 2,
            "faults.node-recover": 2,
            "faults.partition-heal": 1,
            "faults.partition-split": 1,
            "net.drops": 42,
            "net.drops.loss": 27,
            "net.drops.no-link": 15,
            "net.rx.frames": 131,
            "net.tx.bytes": 4592,
            "net.tx.data": 62,
            "net.tx.frames": 121,
            "net.tx.query": 32,
            "net.tx.rrep": 8,
            "net.tx.rreq": 19,
            "protocol.filter.promotions": 5,
            "protocol.queries.issued": 11,
            "protocol.results.given_up": 2,
            "protocol.results.merged": 19,
            "protocol.results.retransmits": 6,
            "resilience.deadline_closes": 11,
        },
        {
            "aodv.discovery": 11,
            "aodv.route-break": 10,
            "aodv.undeliverable": 8,
            "fault.duplication-override": 2,
            "fault.jitter-override": 2,
            "fault.link-down": 2,
            "fault.link-up": 1,
            "fault.loss-override": 4,
            "fault.node-crash": 2,
            "fault.node-recover": 2,
            "fault.partition-heal": 1,
            "fault.partition-split": 1,
            "filter.promoted": 5,
            "frame.broadcast": 51,
            "frame.dropped": 27,
            "frame.heard": 76,
            "query.deadline-close": 11,
            "result.acked": 19,
            "result.given-up": 2,
            "result.merged": 19,
            "result.retransmit": 6,
        },
    ),
    ("chaos", 23, "df"): (
        {
            "aodv.discoveries": 5,
            "aodv.route_breaks": 4,
            "aodv.undeliverable": 2,
            "core.local.evaluations": 37,
            "core.local.in_range": 754,
            "core.local.reduced": 53,
            "core.local.scanned": 1596,
            "core.local.skips.mbr": 20,
            "faults.duplication-override": 2,
            "faults.jitter-override": 2,
            "faults.link-down": 2,
            "faults.link-up": 1,
            "faults.loss-override": 4,
            "faults.node-crash": 2,
            "faults.node-recover": 2,
            "faults.partition-heal": 1,
            "faults.partition-split": 1,
            "net.drops": 17,
            "net.drops.loss": 8,
            "net.drops.no-link": 9,
            "net.rx.frames": 58,
            "net.tx.bytes": 6547,
            "net.tx.data": 28,
            "net.tx.frames": 68,
            "net.tx.rrep": 3,
            "net.tx.rreq": 8,
            "net.tx.token": 29,
            "protocol.queries.completed": 12,
            "protocol.queries.issued": 12,
            "protocol.results.merged": 23,
            "protocol.token.reissues": 1,
        },
        {
            "aodv.discovery": 5,
            "aodv.route-break": 4,
            "aodv.undeliverable": 2,
            "fault.duplication-override": 2,
            "fault.jitter-override": 2,
            "fault.link-down": 2,
            "fault.link-up": 1,
            "fault.loss-override": 4,
            "fault.node-crash": 2,
            "fault.node-recover": 2,
            "fault.partition-heal": 1,
            "fault.partition-split": 1,
            "frame.broadcast": 8,
            "frame.dropped": 8,
            "frame.heard": 7,
            "query.completed": 12,
            "result.merged": 23,
            "token.backtrack": 25,
            "token.home": 12,
            "token.received": 48,
            "token.reissue": 1,
        },
    ),
    ("continuous", 3, "delta"): (
        {
            "continuous.data_updates": 8,
            "continuous.deltas.merged": 6,
            "continuous.deltas.sent": 6,
            "continuous.end.expired": 1,
            "continuous.epochs.closed": 5,
            "continuous.heal_floods": 4,
            "continuous.silent.no-change": 1,
            "continuous.subscriptions.ended": 1,
            "continuous.subscriptions.installed": 1,
            "core.local.evaluations": 9,
            "core.local.in_range": 325,
            "core.local.reduced": 41,
            "core.local.scanned": 435,
            "faults.duplication-override": 2,
            "faults.jitter-override": 2,
            "faults.link-down": 1,
            "faults.link-up": 1,
            "faults.loss-override": 2,
            "faults.node-crash": 2,
            "faults.node-recover": 2,
            "net.drops": 4,
            "net.drops.loss": 4,
            "net.dup.frames": 9,
            "net.rx.frames": 80,
            "net.tx.bytes": 3108,
            "net.tx.data": 29,
            "net.tx.frames": 52,
            "net.tx.subscribe": 23,
        },
        {
            "data.updated": 8,
            "delta.merged": 6,
            "delta.sent": 6,
            "fault.duplication-override": 2,
            "fault.jitter-override": 2,
            "fault.link-down": 1,
            "fault.link-up": 1,
            "fault.loss-override": 2,
            "fault.node-crash": 2,
            "fault.node-recover": 2,
            "frame.broadcast": 23,
            "frame.dropped": 4,
            "frame.duplicated": 9,
            "frame.heard": 51,
            "safe-region.silent": 1,
            "subscription.end": 1,
            "subscription.heal-flood": 4,
            "subscription.refresh": 5,
        },
    ),
}



def _golden_run(run: str, seed: int, variant: str) -> Observer:
    observer = Observer()
    if run == "chaos":
        run_chaos_point(seed, variant, failover=True, observer=observer)
    else:
        run_continuous_simulation(
            continuous_point_config(seed, variant, faulty=True),
            observer=observer,
        )
    return observer


@pytest.mark.parametrize("run,seed,variant", sorted(GOLDEN))
def test_golden_telemetry(run, seed, variant):
    counters, events = GOLDEN[(run, seed, variant)]
    observer = _golden_run(run, seed, variant)
    assert observer.metrics.counter_values() == counters
    assert dict(Counter(e.name for e in observer.events)) == events


# ---------------------------------------------------------------------------
# Counters the golden runs do not reach
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def four_devices():
    return make_global_dataset(
        1600, 2, 4, "independent", seed=31, value_step=1.0
    )


def _staged(dataset, cls, positions, config, send, hear):
    """Run once cleanly, then again with the originator (device 0)
    crashed halfway between the first ``send`` and ``hear`` flight
    entries (``(node, kind)`` pairs); returns the second observer."""

    def build():
        sim = Simulator()
        world = World(
            sim, StaticPlacement(positions), RadioConfig(radio_range=250.0)
        )
        observer = observe(world)
        devices = [
            cls(world, i, dataset.local(i), config=config)
            for i in range(dataset.devices)
        ]
        return sim, world, devices, observer

    sim, _world, devices, observer = build()
    devices[0].issue_query(d=1.0e6)
    sim.run(until=120.0)
    crash_at = (first_time(observer, *send) + first_time(observer, *hear)) / 2
    sim, world, devices, observer = build()
    sim.schedule_at(crash_at, world.fail_node, 0)
    devices[0].issue_query(d=1.0e6)
    sim.run(until=120.0)
    return observer


def _orphan_counters(observer):
    return {
        name: value
        for name, value in observer.metrics.counter_values().items()
        if name.startswith("resilience.orphans")
    }


def test_orphaned_result_counts_under_its_label(four_devices):
    # The originator dies between its QUERY and device 1's RESULT.
    observer = _staged(
        four_devices, BFDevice,
        [(0.0, 0.0), (200.0, 0.0), (9000.0, 0.0), (9300.0, 0.0)],
        ProtocolConfig(
            query_timeout=60.0, ack_timeout=2.0, result_retries=3,
            resilience=ResiliencePolicy(orphan_suppression=True),
        ),
        send=(0, "tx.query"), hear=(1, "tx.data"),
    )
    assert _orphan_counters(observer) == {
        "resilience.orphans_reaped": 1,
        "resilience.orphans.result": 1,
    }
    reaped = [e for e in observer.events if e.name == "orphan.reaped"]
    assert [(e.node, e.attrs) for e in reaped] == [(1, {"what": "result"})]


def test_orphaned_token_counts_under_its_label(four_devices):
    # The originator dies while the token is on the 1 -> 2 hop.
    observer = _staged(
        four_devices, DFDevice,
        [(0.0, 0.0), (200.0, 0.0), (400.0, 0.0), (9000.0, 9000.0)],
        ProtocolConfig(
            token_watchdog=0.0, query_timeout=60.0,
            resilience=ResiliencePolicy(orphan_suppression=True),
        ),
        send=(1, "tx.token"), hear=(2, "rx.token"),
    )
    assert _orphan_counters(observer) == {
        "resilience.orphans_reaped": 1,
        "resilience.orphans.token": 1,
    }
    reaped = [e for e in observer.events if e.name == "orphan.reaped"]
    assert [(e.node, e.attrs) for e in reaped] == [(2, {"what": "token"})]


@pytest.mark.parametrize("rate,dropped", [(1.0, 16), (0.5, 8)])
def test_duplicate_tokens_are_counted(rate, dropped):
    dataset = make_global_dataset(
        4000, 2, 9, "independent", seed=43, value_step=1.0
    )
    sim = Simulator()
    world = World(
        sim,
        StaticPlacement(
            [dataset.grid.cell_center(i) for i in range(dataset.devices)]
        ),
        RadioConfig(radio_range=360.0),
        seed=7,
    )
    observer = observe(world)
    devices = [
        DFDevice(world, i, dataset.local(i), config=ProtocolConfig())
        for i in range(dataset.devices)
    ]
    world.set_duplication(rate)
    record = devices[4].issue_query(d=450.0)
    sim.run(until=700.0)
    assert record.completion_time is not None
    counters = observer.metrics.counter_values()
    assert counters["protocol.token.duplicates_dropped"] == dropped
    assert counters["net.dup.frames"] >= dropped
    events = [
        e for e in observer.events if e.name == "token.duplicate-dropped"
    ]
    assert len(events) == dropped


# ---------------------------------------------------------------------------
# The guard rule
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _on_observer(expr: ast.expr) -> bool:
    """Whether ``expr`` is an observer (a name or attribute called
    ``obs``) or is reached through one (``obs.metrics.counter(...)``)."""
    while True:
        if isinstance(expr, ast.Name):
            return expr.id == "obs"
        if isinstance(expr, ast.Attribute):
            if expr.attr == "obs":
                return True
            expr = expr.value
        elif isinstance(expr, ast.Call):
            expr = expr.func
        else:
            return False


def _is_enabled(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr == "enabled"
        and _on_observer(expr.value)
    )


def _requires_enabled(test: ast.expr) -> bool:
    """Whether ``test`` can only be true while the observer is on."""
    if _is_enabled(test):
        return True
    return (
        isinstance(test, ast.BoolOp)
        and isinstance(test.op, ast.And)
        and any(_requires_enabled(v) for v in test.values)
    )


def _returns_unless_enabled(stmt: ast.stmt) -> bool:
    """``if not obs.enabled: return ...``"""
    return (
        isinstance(stmt, ast.If)
        and isinstance(stmt.test, ast.UnaryOp)
        and isinstance(stmt.test.op, ast.Not)
        and _is_enabled(stmt.test.operand)
        and isinstance(stmt.body[-1], ast.Return)
    )


def _observer_calls(tree: ast.AST):
    """Yield ``(call, ancestors)`` for each outermost call on an observer,
    ancestors innermost first."""
    stack = [(tree, ())]
    while stack:
        node, ancestors = stack.pop()
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and _on_observer(node.func.value)
            and not isinstance(ancestors[0], ast.Attribute)
        ):
            yield node, ancestors
        for child in ast.iter_child_nodes(node):
            stack.append((child, (node,) + ancestors))


def _guarded(call: ast.Call, ancestors) -> bool:
    inner = call
    for node in ancestors:
        if isinstance(node, ast.If) and _requires_enabled(node.test):
            if any(inner is stmt for stmt in node.body):
                return True
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field, None)
            if isinstance(stmts, list) and any(inner is s for s in stmts):
                before = stmts[:stmts.index(inner)]
                if any(_returns_unless_enabled(s) for s in before):
                    return True
        inner = node
    return False


def test_every_observer_call_is_guarded():
    calls = unguarded = 0
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        if "obs" in path.relative_to(SRC).parts[:1]:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for call, ancestors in _observer_calls(tree):
            calls += 1
            if not _guarded(call, ancestors):
                unguarded += 1
                problems.append(
                    f"{path.relative_to(SRC)}:{call.lineno}: "
                    f"{ast.unparse(call.func)}(...) outside an "
                    "`if obs.enabled:` guard"
                )
    assert calls > 0, "the scan found no observer calls at all"
    assert not problems, "\n".join(problems)
