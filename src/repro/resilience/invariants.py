"""Property invariants the chaos harness checks on every faulted run.

Each check returns a list of human-readable violation strings (empty
when the property holds), so one harness run can report every broken
property at once instead of stopping at the first. The properties:

1. **Closed by deadline** — every issued query's record is closed, with
   ``closed_at`` no later than ``issue_time + deadline``.
2. **Report partitions the population** — every record carries a
   :class:`~repro.resilience.report.CompletionReport` whose classes plus
   the originator exactly partition the device population.
3. **Result soundness** — the reported skyline is an antichain drawn
   entirely from the contributing devices' in-range tuples; and, unless
   a device *outside* the contributing set promoted the in-flight
   filter (its filter can eliminate tuples its own lost result would
   have dominated — see ``docs/protocols.md``), the result equals a
   subset of the true skyline of the contributed union.
4. **Bounded retransmissions** — result retries, token re-issues and
   failover floods never exceed their configured budgets.
5. **No timers survive close** — once the run drains past the last
   deadline, the engine heap holds no live events except the fault
   injector's own still-future transitions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core import skyline_of_relation
from ..faults.injector import FaultInjector
from ..storage import union_all
from .policy import MAX_FAILOVERS

__all__ = [
    "check_closed_by_deadline",
    "check_completion_reports",
    "check_result_soundness",
    "check_retransmission_bounds",
    "check_no_live_timers",
    "verify_run",
]


def _rows(relation) -> set:
    """Identity set of a relation's tuples: ``(site_id, values...)``."""
    return {
        (int(sid), tuple(float(v) for v in row))
        for sid, row in zip(relation.site_ids, relation.values)
    }


def check_closed_by_deadline(records, deadline: float) -> List[str]:
    """Property 1: every record closed inside its deadline budget."""
    out = []
    for record in records:
        if not record.closed:
            out.append(f"{record.key}: record never closed")
            continue
        if record.closed_at is None:
            out.append(f"{record.key}: closed without a close time")
            continue
        if record.closed_at - record.issue_time > deadline + 1e-9:
            out.append(
                f"{record.key}: closed {record.closed_at - record.issue_time:.3f}s "
                f"after issue, budget was {deadline:.3f}s"
            )
    return out


def check_completion_reports(records, population: FrozenSet[int]) -> List[str]:
    """Property 2: each report exactly partitions the population."""
    out = []
    for record in records:
        report = record.report
        if report is None:
            out.append(f"{record.key}: no CompletionReport on closed record")
            continue
        if not report.is_exact_partition(population):
            out.append(
                f"{record.key}: report classes do not partition the "
                f"population (report covers {sorted(report.population())}, "
                f"population is {sorted(population)})"
            )
        if report.outcome not in ("completed", "deadline-expired",
                                  "aborted-by-crash"):
            out.append(f"{record.key}: unknown outcome {report.outcome!r}")
    return out


def _foreign_promoters(observer, key: Tuple[int, int],
                       allowed: FrozenSet[int]) -> FrozenSet[int]:
    """Devices outside ``allowed`` that promoted the filter for ``key``
    (any alias of it). Empty when no observer was attached."""
    if observer is None or not getattr(observer, "enabled", False):
        return frozenset()
    roots = observer._query_roots
    root_sid = roots.get(key)
    promoters = set()
    for event in observer.events:
        if event.name != "filter.promoted" or event.query is None:
            continue
        if event.query == key or (
            root_sid is not None and roots.get(event.query) == root_sid
        ):
            promoters.add(event.node)
    return frozenset(promoters) - allowed


def check_result_soundness(records, dataset, observer=None) -> List[str]:
    """Property 3: provenance + antichain always; true-skyline subset
    unless a non-contributing filter promoter excuses it."""
    out = []
    for record in records:
        members = sorted({record.originator} | set(record.contributions))
        allowed = union_all([dataset.local(i) for i in members]).restrict(
            record.query.pos, record.query.d
        )
        allowed_rows = _rows(allowed)
        result_rows = _rows(record.result)
        stray = result_rows - allowed_rows
        if stray:
            out.append(
                f"{record.key}: {len(stray)} result tuple(s) not drawn from "
                f"the contributing devices' in-range data"
            )
            continue
        reduced = skyline_of_relation(record.result)
        if reduced.cardinality != record.result.cardinality:
            out.append(
                f"{record.key}: reported result is not an antichain "
                f"({record.result.cardinality} tuples, "
                f"{reduced.cardinality} after self-reduction)"
            )
            continue
        foreign = _foreign_promoters(
            observer, record.key, frozenset(members)
        )
        if foreign:
            # A device that promoted the filter but never landed its own
            # result can legitimately have eliminated contributed tuples
            # its (lost) result dominated — the strict check is excused.
            continue
        true_rows = _rows(skyline_of_relation(allowed))
        extra = result_rows - true_rows
        if extra:
            out.append(
                f"{record.key}: {len(extra)} reported tuple(s) outside the "
                f"true skyline of the contributed union"
            )
    return out


def check_retransmission_bounds(records, config, observer=None) -> List[str]:
    """Property 4: retries / re-issues / failovers within budget."""
    out = []
    for record in records:
        if record.reissues > config.token_reissues:
            out.append(
                f"{record.key}: {record.reissues} token re-issues exceed "
                f"budget {config.token_reissues}"
            )
        if record.failovers > MAX_FAILOVERS:
            out.append(
                f"{record.key}: {record.failovers} failovers exceed budget "
                f"{MAX_FAILOVERS}"
            )
    if observer is not None and getattr(observer, "enabled", False):
        attempts: Dict[Tuple, int] = {}
        for event in observer.events:
            if event.name == "result.retransmit":
                k = (event.query, event.node)
                attempts[k] = max(
                    attempts.get(k, 0), event.attrs.get("attempt", 0)
                )
        for (query, node), worst in sorted(attempts.items()):
            if worst > config.result_retries:
                out.append(
                    f"{query}: node {node} retransmitted {worst} times, "
                    f"budget {config.result_retries}"
                )
    return out


def _is_injector_event(handle) -> bool:
    owner = getattr(handle.callback, "__self__", None)
    return isinstance(owner, FaultInjector)


def live_foreign_events(sim) -> List:
    """Live (uncancelled) heap entries that are not fault-injector
    transitions — after a fully drained run these are leaked timers."""
    return [
        h for h in sim.queued()
        if not h.cancelled and not _is_injector_event(h)
    ]


def check_no_live_timers(sim) -> List[str]:
    """Property 5: nothing but future fault transitions left queued."""
    leaked = live_foreign_events(sim)
    if not leaked:
        return []
    names = sorted(
        {getattr(h.callback, "__qualname__",
                 getattr(h.callback, "__name__", repr(h.callback)))
         for h in leaked}
    )
    return [
        f"{len(leaked)} live event(s) survive the drained run: "
        + ", ".join(names)
    ]


def verify_run(
    result,
    dataset,
    config,
    observer=None,
    sim=None,
    deadline: Optional[float] = None,
) -> List[str]:
    """Run every invariant against one finished simulation.

    Args:
        result: The :class:`~repro.protocol.coordinator.SimulationResult`.
        dataset: The :class:`~repro.data.partition.GlobalDataset` the run
            queried.
        config: The run's :class:`~repro.protocol.device.ProtocolConfig`.
        observer: Optional :class:`~repro.obs.observer.Observer` that
            watched the run (enables retransmit accounting and promoter
            excusal).
        sim: Optional :class:`~repro.net.engine.Simulator` (enables the
            leaked-timer check; get it via ``keep_network=True``).
        deadline: Override the effective deadline (defaults to the
            config's).

    Returns:
        Every violation found, as human-readable strings.
    """
    if deadline is None:
        deadline = config.effective_deadline
    population = frozenset(range(result.devices))
    violations = []
    violations += check_closed_by_deadline(result.records, deadline)
    violations += check_completion_reports(result.records, population)
    violations += check_result_soundness(result.records, dataset, observer)
    violations += check_retransmission_bounds(result.records, config, observer)
    if sim is not None:
        violations += check_no_live_timers(sim)
    flight = getattr(observer, "flight", None)
    if violations and flight is not None:
        # Post-mortem: freeze the run's rings for each violation so the
        # blackbox explains what the network was doing when the property
        # broke. Runs after the simulation has drained — pure read.
        for violation in violations:
            flight.dump(
                "invariant-violation",
                result.sim_time,
                detail=violation,
            )
    return violations
