"""Span-based query-lifecycle observer.

One :class:`Observer` watches one simulation run. Protocol code reports
instant milestones through :meth:`Observer.event` — which also bumps the
counters :data:`EVENT_COUNTERS` lists for the event's name — and
stateful ones through a few hooks (``query_issued``, ``local_eval``,
``frame_sent`` ...). The observer turns them into a flat, append-only
stream of :class:`SpanRecord` and :class:`EventRecord` entries carrying
both simulation time and wall time. Span *trees* are a
read-side construct: every record carries its query key ``(origin,
cnt)``, so per-query trees are assembled on demand (see
:func:`~repro.obs.exporters.build_query_trees`).

The contract that makes observability safe to leave wired into the
protocol stack permanently:

* **Passive** — the observer never schedules simulation events, never
  consumes randomness, and never mutates protocol state, so an observed
  run is bit-identical to an unobserved one (results, counters, fault
  traces — pinned by ``tests/test_obs.py``).
* **Cheap when off** — the default world observer is
  :data:`NULL_OBSERVER`, whose ``enabled`` is False and which defines no
  hooks. Every instrumentation site is guarded by that flag (pinned by
  ``tests/test_obs_contract.py``), so the off path costs one attribute
  load and a branch, and an unguarded call raises.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .causal import CausalEvent, TraceContext, trace_of
from .registry import MetricsRegistry

if TYPE_CHECKING:  # import kept type-only: net.world imports this module
    from ..net.messages import Frame
    from .flight import FlightRecorder
    from .stream import StreamAnalyzer

__all__ = [
    "EVENT_COUNTERS",
    "SpanRecord",
    "EventRecord",
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "query_key_of",
]

QueryKey = Tuple[int, int]

#: The counted milestones: event name -> the counters
#: :meth:`Observer.event` bumps when it records one. ``{attr}`` fields
#: are filled from the event's attrs.
EVENT_COUNTERS: Dict[str, Tuple[str, ...]] = {
    "query.completed": ("protocol.queries.completed",),
    "query.aborted-by-crash": ("protocol.queries.aborted_by_crash",),
    "filter.promoted": ("protocol.filter.promotions",),
    "result.merged": ("protocol.results.merged",),
    "result.retransmit": ("protocol.results.retransmits",),
    "result.given-up": ("protocol.results.given_up",),
    "token.reissue": ("protocol.token.reissues",),
    "token.duplicate-dropped": ("protocol.token.duplicates_dropped",),
    "frame.unhandled": (
        "protocol.frames.unhandled", "protocol.frames.unhandled.{reason}",
    ),
    "query.failover": ("resilience.failovers",),
    "query.deadline-close": ("resilience.deadline_closes",),
    "orphan.reaped": (
        "resilience.orphans_reaped", "resilience.orphans.{what}",
    ),
    "subscription.refresh": ("continuous.epochs.closed",),
    "subscription.end": (
        "continuous.subscriptions.ended", "continuous.end.{reason}",
    ),
    "subscription.heal-flood": ("continuous.heal_floods",),
    "safe-region.silent": ("continuous.silent.{reason}",),
    "delta.sent": ("continuous.deltas.sent",),
    "delta.merged": ("continuous.deltas.merged",),
    "delta.retransmit": ("continuous.deltas.retransmits",),
    "delta.given-up": ("continuous.deltas.given_up",),
    "data.updated": ("continuous.data_updates",),
    "aodv.discovery": ("aodv.discoveries",),
    "aodv.route-break": ("aodv.route_breaks",),
    "aodv.ttl-expired": ("aodv.ttl_expired",),
    "aodv.undeliverable": ("aodv.undeliverable",),
}


@dataclass
class SpanRecord:
    """One timed interval in a query's lifecycle.

    Attributes:
        sid: Span id, unique within one observer.
        parent: Enclosing span's sid (None for roots).
        name: Phase name (``query``, ``local-eval``, ``hop`` ...).
        cat: Coarse category, the Chrome trace's ``cat`` field
            (``protocol``, ``net``, ``core`` ...).
        query: ``(origin, cnt)`` key, or None for non-query spans.
        node: Device the span executed on, or None.
        t0: Simulation time the span opened.
        t1: Simulation time it closed (None while open).
        wall0: ``perf_counter`` at open.
        wall1: ``perf_counter`` at close (None while open).
        attrs: Free-form annotations (tuple counts, bytes, fault notes).
    """

    sid: int
    parent: Optional[int]
    name: str
    cat: str
    query: Optional[QueryKey]
    node: Optional[int]
    t0: float
    t1: Optional[float] = None
    wall0: float = 0.0
    wall1: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_duration(self) -> Optional[float]:
        """Wall-clock seconds spent inside the span (None while open)."""
        return None if self.wall1 is None else self.wall1 - self.wall0


@dataclass
class EventRecord:
    """One instantaneous milestone."""

    name: str
    time: float
    query: Optional[QueryKey] = None
    node: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)


def query_key_of(payload: Any) -> Optional[QueryKey]:
    """Extract the ``(origin, cnt)`` key a frame payload belongs to.

    Understands the skyline protocol messages (query / result / token /
    ack) and routed :class:`~repro.net.aodv.DataPacket` wrappers; AODV
    control payloads yield None.
    """
    # DataPacket wraps the protocol payload one level deep.
    inner = getattr(payload, "payload", None)
    if inner is not None and not isinstance(payload, (dict, tuple)):
        kind = getattr(payload, "kind", None)
        if kind is not None and hasattr(payload, "dest"):
            payload = inner
    query = getattr(payload, "query", None)
    if query is not None:
        key = getattr(query, "key", None)
        if key is not None:
            return key
    key = getattr(payload, "query_key", None)
    if key is not None:
        return key
    return None


class Observer:
    """Records the lifecycle of every query in one simulation run."""

    enabled = True

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.spans: List[SpanRecord] = []
        self.events: List[EventRecord] = []
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._next_sid = 0
        self._open: Dict[int, SpanRecord] = {}
        self._query_roots: Dict[QueryKey, int] = {}
        self._hop_spans: Dict[int, int] = {}  # frame_id -> sid
        self._sim = None
        self.faults: List[EventRecord] = []
        #: Flat causal stream (see ``repro.obs.causal``): one record per
        #: issue / send / deliver / drop / dup, linked by parent cid.
        self.causal: List[CausalEvent] = []
        self._next_cid = 0
        #: (node, root sid) -> cid of the last causal event at that
        #: node for that query — the parent of whatever it sends next.
        self._cursor: Dict[Tuple[int, int], int] = {}
        #: root sid -> cid of the delivery that fired completion.
        self._completion_cause: Dict[int, Optional[int]] = {}
        self.flight: Optional["FlightRecorder"] = None
        self.stream: Optional["StreamAnalyzer"] = None

    # -- wiring --------------------------------------------------------------

    def bind(self, world) -> "Observer":
        """Attach to ``world``: future records read its engine's clock,
        and the world's instrumentation sites start reporting here. The
        observer keeps the engine, not the world, so ``world.obs``
        closes no reference cycle."""
        self._sim = world.sim
        world.obs = self
        return self

    @property
    def now(self) -> float:
        """Current simulation time (0.0 before binding)."""
        return self._sim.now if self._sim is not None else 0.0

    def attach_flight(self, recorder: "FlightRecorder") -> "Observer":
        """Mirror protocol/net/fault hooks into ``recorder``'s per-node
        rings and let crash / deadline / invariant triggers dump them."""
        self.flight = recorder
        return self

    def attach_stream(self, analyzer: "StreamAnalyzer") -> "Observer":
        """Feed ``analyzer``'s sliding windows from this observer's
        registry and hooks (windows roll lazily — no sim events)."""
        self.stream = analyzer.attach(self.metrics)
        return self

    # -- causal helpers -------------------------------------------------------

    def _causal_add(
        self,
        kind: str,
        parent: Optional[int],
        root: int,
        node: Optional[int],
        frame: Optional["Frame"] = None,
        note: Optional[str] = None,
    ) -> int:
        cid = self._next_cid
        self._next_cid += 1
        self.causal.append(CausalEvent(
            cid=cid, parent=parent, kind=kind, time=self.now, node=node,
            root=root,
            frame_kind=frame.kind if frame is not None else None,
            frame_id=frame.frame_id if frame is not None else None,
            size_bytes=frame.size_bytes if frame is not None else 0,
            note=note,
        ))
        return cid

    def trace_context(
        self, key: Optional[QueryKey], node: int
    ) -> Optional[TraceContext]:
        """The causal coordinates a message constructed at ``node`` for
        query ``key`` should carry (None for unobserved queries).
        Protocol code stamps this on outgoing wire messages when
        observation is on; it is pure metadata (``compare=False``,
        no wire size), so stamped runs stay bit-identical."""
        if key is None:
            return None
        root = self._query_roots.get(key)
        if root is None:
            return None
        return TraceContext(root=root, parent=self._cursor.get((node, root)))

    def _chain_dicts(
        self, cid: Optional[int], limit: int = 32
    ) -> List[Dict[str, Any]]:
        """JSON-safe causal ancestry of ``cid``, oldest first."""
        if cid is None:
            return []
        by_cid = {e.cid: e for e in self.causal}
        out: List[Dict[str, Any]] = []
        while cid is not None and len(out) < limit:
            event = by_cid.get(cid)
            if event is None:
                break
            out.append(event.to_dict())
            cid = event.parent
        out.reverse()
        return out

    def _node_last_cause(self, node: int) -> Optional[int]:
        """The most recent causal event recorded at ``node``."""
        best = None
        for (owner, _root), cid in self._cursor.items():
            if owner == node and (best is None or cid > best):
                best = cid
        return best

    # -- generic span/event API ---------------------------------------------

    def begin(
        self,
        name: str,
        cat: str = "protocol",
        query: Optional[QueryKey] = None,
        node: Optional[int] = None,
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Open a span at the current sim time; returns its sid."""
        sid = self._next_sid
        self._next_sid += 1
        if parent is None and query is not None:
            parent = self._query_roots.get(query)
        span = SpanRecord(
            sid=sid,
            parent=parent,
            name=name,
            cat=cat,
            query=query,
            node=node,
            t0=self.now,
            wall0=time.perf_counter(),
            attrs=attrs,
        )
        self.spans.append(span)
        self._open[sid] = span
        return sid

    def end(self, sid: int, t: Optional[float] = None, **attrs: Any) -> None:
        """Close a span. ``t`` overrides the sim end time — used for
        modelled intervals whose duration is known analytically (e.g. a
        local evaluation's device processing delay)."""
        span = self._open.pop(sid, None)
        if span is None:
            return
        span.t1 = self.now if t is None else t
        span.wall1 = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)

    def event(
        self,
        name: str,
        query: Optional[QueryKey] = None,
        node: Optional[int] = None,
        **attrs: Any,
    ) -> None:
        """Record an instantaneous milestone at the current sim time and
        bump the counters :data:`EVENT_COUNTERS` lists for ``name``.

        The counters move after the stream analyzer has rolled its
        windows up to now, so they land in the window that holds the
        event."""
        self.events.append(
            EventRecord(name=name, time=self.now, query=query, node=node,
                        attrs=attrs)
        )
        if self.stream is not None:
            self.stream.advance(self.now)
        if self.flight is not None and node is not None:
            self.flight.note(node, name, self.now, query, **attrs)
        for counter in EVENT_COUNTERS.get(name, ()):
            self.metrics.counter(counter.format_map(attrs)).inc()

    # -- query lifecycle hooks ------------------------------------------------

    def query_issued(
        self, query: QueryKey, node: int, **attrs: Any
    ) -> int:
        """Open the root span for a freshly issued query."""
        sid = self.begin("query", cat="protocol", query=query, node=node,
                         **attrs)
        self._query_roots[query] = sid
        cid = self._causal_add("issue", None, sid, node)
        self._cursor[(node, sid)] = cid
        self.metrics.counter("protocol.queries.issued").inc()
        if self.stream is not None:
            self.stream.advance(self.now)
        if self.flight is not None:
            self.flight.note(node, "query.issued", self.now, query)
        return sid

    def alias(self, new_key: QueryKey, root_key: QueryKey) -> None:
        """Map a fresh key of a running query (a DF re-issue or failover
        flood) onto its root query's span tree."""
        sid = self._query_roots.get(root_key)
        if sid is not None:
            self._query_roots[new_key] = sid

    def query_completed(self, query: QueryKey, node: int, **attrs: Any) -> None:
        """Mark the strategy's completion condition on the root span."""
        sid = self._query_roots.get(query)
        if sid is not None:
            span = self._open.get(sid)
            if span is not None:
                span.attrs["completion_time"] = self.now
                span.attrs.update(attrs)
            # The delivery the originator just processed is the causal
            # event that fired completion: the critical path's endpoint.
            self._completion_cause[sid] = self._cursor.get((node, sid))
        self.event("query.completed", query=query, node=node, **attrs)

    def query_closed(self, query: QueryKey, **attrs: Any) -> None:
        """Close the root span (timeout or strategy closure)."""
        sid = self._query_roots.get(query)
        if sid is not None:
            self.end(sid, **attrs)
        if self.stream is not None:
            coverage = attrs.get("coverage")
            if coverage is not None:
                self.stream.observe(
                    "protocol.coverage", float(coverage), self.now
                )

    def local_eval(
        self,
        query: Optional[QueryKey],
        node: int,
        result,
        delay: float,
        wall_s: float,
    ) -> None:
        """Record one local-skyline evaluation as a closed span.

        The sim-time interval is ``[now, now + delay]`` — the modelled
        device processing time the protocol actually waits before acting
        on the result — while ``wall_s`` is the real compute cost.
        """
        now = self.now
        wall1 = time.perf_counter()
        sid = self._next_sid
        self._next_sid += 1
        span = SpanRecord(
            sid=sid,
            parent=self._query_roots.get(query) if query is not None else None,
            name="local-eval",
            cat="core",
            query=query,
            node=node,
            t0=now,
            t1=now + delay,
            wall0=wall1 - wall_s,
            wall1=wall1,
            attrs={
                "scanned": result.scanned,
                "in_range": result.in_range,
                "unreduced": result.unreduced_size,
                "reduced": result.reduced_size,
                "skipped": result.skipped,
            },
        )
        self.spans.append(span)
        m = self.metrics
        m.counter("core.local.evaluations").inc()
        m.counter("core.local.scanned").inc(result.scanned)
        m.counter("core.local.in_range").inc(result.in_range)
        m.counter("core.local.reduced").inc(result.reduced_size)
        if result.skipped is not None:
            m.counter(f"core.local.skips.{result.skipped}").inc()
        m.histogram("core.local.wall_s").observe(wall_s)
        m.histogram("core.local.delay_s").observe(delay)
        if self.stream is not None:
            self.stream.observe("core.local.wall_s", wall_s, now)
        if self.flight is not None:
            self.flight.note(node, "local-eval", now, query,
                             scanned=result.scanned,
                             reduced=result.reduced_size)

    # -- resilience hooks ------------------------------------------------------

    def deadline_close(self, query: QueryKey, node: int) -> None:
        """A record closed on its deadline budget without ever reaching
        its strategy's completion condition."""
        self.event("query.deadline-close", query=query, node=node)
        if self.flight is not None:
            root = self._query_roots.get(query)
            cause = (
                self._cursor.get((node, root)) if root is not None else None
            )
            self.flight.dump(
                "deadline-expiry", self.now, node=node, query=query,
                detail="query closed on deadline budget before completion",
                causal=self._chain_dicts(cause),
            )

    # -- continuous-subscription hooks ----------------------------------------

    def subscription_installed(
        self, sub_key: QueryKey, node: int, **attrs: Any
    ) -> int:
        """Open the root span of a continuous subscription; every
        refresh-epoch event attaches under it via the query-root map."""
        sid = self.begin("subscription", cat="continuous", query=sub_key,
                         node=node, **attrs)
        self._query_roots[sub_key] = sid
        cid = self._causal_add("issue", None, sid, node)
        self._cursor[(node, sid)] = cid
        self.metrics.counter("continuous.subscriptions.installed").inc()
        return sid

    def subscription_cancelled(
        self, sub_key: QueryKey, node: int, reason: str
    ) -> None:
        """The subscription ended (``reason``: cancelled / expired /
        originator-crash); closes the root span."""
        self.event("subscription.end", query=sub_key, node=node,
                   reason=reason)
        sid = self._query_roots.get(sub_key)
        if sid is not None:
            self.end(sid, reason=reason)

    # -- frame-level hooks (called by World) ----------------------------------

    def frame_sent(self, frame: Frame) -> None:
        """A frame hit the air; unicast frames open a hop span.

        Query-attributed frames also get a causal ``send`` event whose
        parent is the last thing that happened to this query at the
        transmitter (the delivery that provoked the send, or the issue
        event at the originator), falling back to the causal context
        stamped on the payload at message-construction time (which is
        what ties a delayed retransmission back to its original cause).
        The frame then carries ``TraceContext(root, send_cid)`` so its
        deliveries and drops attach under the send."""
        key = query_key_of(frame.payload)
        m = self.metrics
        m.counter("net.tx.frames").inc()
        m.counter(f"net.tx.{frame.kind}").inc()
        m.counter("net.tx.bytes").inc(frame.size_bytes)
        if self.stream is not None:
            self.stream.advance(self.now)
        cid = None
        root = self._query_roots.get(key) if key is not None else None
        if root is not None:
            parent = self._cursor.get((frame.src, root))
            if parent is None:
                mtrace = trace_of(frame.payload)
                if mtrace is not None:
                    parent = mtrace.parent
            cid = self._causal_add("send", parent, root, frame.src,
                                   frame=frame)
            frame.trace = TraceContext(root=root, parent=cid)
        if self.flight is not None:
            self.flight.note(frame.src, f"tx.{frame.kind}", self.now, key,
                             dst=frame.dst, bytes=frame.size_bytes)
        if frame.dst is None:
            # Broadcasts fan out to many receivers; model the send as an
            # instant event, deliveries as events referencing frame_id.
            self.event("frame.broadcast", query=key, node=frame.src,
                       frame=frame.kind, frame_id=frame.frame_id,
                       bytes=frame.size_bytes)
            return
        attrs = dict(
            frame=frame.kind, frame_id=frame.frame_id, src=frame.src,
            dst=frame.dst, bytes=frame.size_bytes,
        )
        if cid is not None:
            attrs["cid"] = cid
        sid = self.begin("hop", cat="net", query=key, node=frame.src,
                         **attrs)
        self._hop_spans[frame.frame_id] = sid

    def frame_delivered(self, frame: Frame, node: int) -> None:
        """A frame arrived at ``node``; closes the hop span (unicast).

        The delivery becomes the node's current causal cursor for the
        frame's query, so whatever the node sends next for that query
        inherits this delivery as its parent."""
        self.metrics.counter("net.rx.frames").inc()
        trace = frame.trace
        cid = None
        if trace is not None:
            cid = self._causal_add("deliver", trace.parent, trace.root,
                                   node, frame=frame)
            self._cursor[(node, trace.root)] = cid
        if self.flight is not None:
            self.flight.note(node, f"rx.{frame.kind}", self.now,
                             query_key_of(frame.payload), src=frame.src)
        sid = self._hop_spans.pop(frame.frame_id, None)
        if sid is not None:
            if cid is not None:
                self.end(sid, outcome="delivered", cid=cid)
            else:
                self.end(sid, outcome="delivered")
        else:
            self.event("frame.heard", query=query_key_of(frame.payload),
                       node=node, frame=frame.kind, frame_id=frame.frame_id)

    def frame_duplicated(self, frame: Frame) -> None:
        """The duplication fault delivered a second copy of ``frame``."""
        self.metrics.counter("net.dup.frames").inc()
        trace = frame.trace
        if trace is not None:
            self._causal_add("dup", trace.parent, trace.root, frame.src,
                             frame=frame)
        self.event("frame.duplicated", query=query_key_of(frame.payload),
                   node=frame.src, frame=frame.kind, frame_id=frame.frame_id)

    def frame_dropped(self, frame: Frame, node: int, reason: str) -> None:
        """``frame`` was lost on its way to ``node`` — ``frame.dst`` for
        a unicast, one neighbour for a broadcast (``reason``: no-link /
        loss / moved / fault)."""
        self.metrics.counter("net.drops").inc()
        self.metrics.counter(f"net.drops.{reason}").inc()
        trace = frame.trace
        if trace is not None:
            self._causal_add("drop", trace.parent, trace.root, node,
                             frame=frame, note=reason)
        if self.flight is not None:
            self.flight.note(frame.src, f"drop.{frame.kind}", self.now,
                             query_key_of(frame.payload), reason=reason,
                             dst=node)
        sid = self._hop_spans.pop(frame.frame_id, None)
        if sid is not None:
            self.end(sid, outcome="dropped", reason=reason)
        else:
            self.event("frame.dropped", query=query_key_of(frame.payload),
                       node=node, frame=frame.kind,
                       frame_id=frame.frame_id, reason=reason)

    # -- fault hooks -----------------------------------------------------------

    def fault(self, kind: str, node: Optional[int] = None,
              link: Optional[Tuple[int, int]] = None,
              **attrs: Any) -> None:
        """A fault transition was applied to the world.

        Recorded both in the main event stream and in :attr:`faults`, so
        exporters can annotate every query span the fault overlaps.
        """
        record = EventRecord(
            name=f"fault.{kind}", time=self.now, node=node,
            attrs=dict(attrs, link=link),
        )
        self.events.append(record)
        self.faults.append(record)
        self.metrics.counter(f"faults.{kind}").inc()
        if self.stream is not None:
            self.stream.advance(self.now)
        if self.flight is not None:
            if node is not None:
                self.flight.note(node, f"fault.{kind}", self.now, **attrs)
            elif link is not None:
                for endpoint in link:
                    self.flight.note(endpoint, f"fault.{kind}", self.now,
                                     link=link, **attrs)
            if kind == "node-crash" and node is not None:
                cause = self._node_last_cause(node)
                self.flight.dump(
                    "node-crash", self.now, node=node,
                    detail=f"device {node} crashed"
                    + (f" ({attrs})" if attrs else ""),
                    causal=self._chain_dicts(cause),
                )

    def query_aborted_by_crash(self, query: QueryKey, node: int) -> None:
        """The originator crashed with this query still in flight."""
        sid = self._query_roots.get(query)
        if sid is not None:
            span = self._open.get(sid)
            if span is not None:
                span.attrs["aborted_by_crash"] = True
        self.event("query.aborted-by-crash", query=query, node=node)

    # -- finalization ----------------------------------------------------------

    def finalize(self, result=None) -> None:
        """Close every still-open span at the final sim time and fold
        the run's legacy counter families into named instruments.

        ``result`` is an optional
        :class:`~repro.protocol.coordinator.SimulationResult`; its
        :class:`~repro.net.world.TrafficStats` and energy totals become
        ``net.final.*`` / ``sim.*`` gauges so one registry snapshot
        carries the whole run.
        """
        for sid in list(self._open):
            self.end(sid, outcome="unfinished")
        if self.stream is not None:
            self.stream.finalize(self.now)
        if result is None:
            return
        g = self.metrics.gauge
        stats = result.traffic
        g("net.final.transmissions").set(stats.transmissions)
        g("net.final.deliveries").set(stats.deliveries)
        g("net.final.drops").set(stats.drops)
        g("net.final.bytes_sent").set(stats.bytes_sent)
        g("net.final.protocol_messages").set(stats.protocol_messages())
        g("net.final.control_messages").set(stats.control_messages())
        g("sim.events").set(result.events)
        g("sim.time").set(result.sim_time)
        g("sim.devices").set(result.devices)
        g("sim.queries.issued").set(result.issued)
        g("sim.queries.suppressed").set(result.suppressed)
        g("sim.energy_joules").set(result.total_energy)

    # -- inspection ------------------------------------------------------------

    def query_keys(self) -> List[QueryKey]:
        """Root query keys observed, in issue order (aliases excluded)."""
        seen = []
        roots = set()
        for span in self.spans:
            if span.name == "query" and span.sid not in roots:
                roots.add(span.sid)
                seen.append(span.query)
        return seen

    def faults_during(self, t0: float, t1: float) -> List[EventRecord]:
        """Fault transitions applied inside ``[t0, t1]``."""
        return [f for f in self.faults if t0 <= f.time <= t1]

    def __len__(self) -> int:
        return len(self.spans) + len(self.events)


class NullObserver:
    """The default observer: records nothing and defines no hooks.

    Every instrumentation site guards on :attr:`enabled`, so none of
    them calls into it; an unguarded call raises ``AttributeError``
    instead of being silently absorbed.
    """

    enabled = False


#: Process-wide shared disabled observer — the default ``World.obs``.
NULL_OBSERVER = NullObserver()
