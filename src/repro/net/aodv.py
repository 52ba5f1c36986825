"""AODV routing (Perkins & Royer) — the paper's routing protocol (Table 7).

Implements the core of Ad hoc On-demand Distance Vector routing:

* **Route discovery** — RREQ frames flood with ``(origin, rreq_id)``
  duplicate suppression and a TTL; every node hearing an RREQ installs a
  reverse route toward the origin; the destination (or an intermediate
  node with a fresh-enough route) answers with an RREP unicast back along
  the reverse path, installing forward routes as it travels.
* **Data forwarding** — hop-by-hop via the routing table; using a route
  refreshes its lifetime, and every hop learns the route back to the
  frame's source (RFC 3561 §6.2).
* **Route maintenance** — a route lives :data:`ACTIVE_ROUTE_TIMEOUT`
  seconds past its last use, or longer while an upper-layer session
  holds it (:meth:`AodvRouter.hold_route`: a continuous subscription
  holds every node's route to its originator until its last epoch
  closes). A failed hop invalidates the route, held or not; the
  detecting node attempts a local repair (its own discovery for the
  destination) and, failing that, sends an RERR toward the source, which
  may retry end to end.

Route learning has one rule, :meth:`AodvRouter.learn_route`, keyed on
the destination's sequence number: a lower number never replaces an
entry, a higher one always does, and an equal one only with strictly
fewer hops or over an invalid entry. Everything goes through it: RREQs
(route to the origin), RREPs (route to the destination), routed DATA
frames (route to the source, at the source's number when it sent the
frame), 1-hop overhearing (at the entry's current number) and the
skyline protocols' floods. A BF query, a DF token walk, a DF→BF
failover flood and every subscription flood carry a fresh originator
sequence number (:meth:`AodvRouter.advance_seq`), so the routes toward
the originator they install supersede older ones. A broken route is
invalidated, not deleted: it expires and its number goes up by one
(RFC 3561 §6.11), so the next RREQ asks for a fresher route than any
neighbour whose own route still runs back through this node can offer.
Result ACKs and DELTAs therefore ride routes that already exist, and
the valid next-hop graph toward any destination stays loop-free.

The timers, retry counts and TTL are module constants that every run
shares, named as in RFC 3561 where it has a name (``docs/simulator.md``
lists them with their sources).

Simplifications relative to RFC 3561, none of which affect the paper's
metrics:

* no expanding-ring search: every RREQ floods :data:`NET_DIAMETER`
  hops, and a DATA packet starts with the same TTL;
* no precursor lists (RERRs unicast toward the data source and carry
  no sequence number; the receiver bumps its own copy);
* no HELLO beacons (link failures are detected on use);
* no separate "valid" flag: an entry is valid until it expires, and
  invalidation expires it.

Determinism: RREQ floods rely on ``World.broadcast``, whose receiver
order is the world's sorted-id neighbor order (never attach order), so
route discovery replays identically for identical topologies.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.observer import query_key_of
from .engine import EventHandle, Simulator
from .messages import CONTROL_BYTES, Frame, FrameKind, HEADER_BYTES, SEQ_BYTES
from .world import World

__all__ = ["AodvRouter", "Route", "DataPacket"]


#: Seconds a route lives past its last use (the RFC's default is 3 s);
#: a hold (``hold_route``) can only lengthen it.
ACTIVE_ROUTE_TIMEOUT = 60.0
#: Discoveries after the first before a destination is unreachable.
RREQ_RETRIES = 2
#: Seconds to wait for an RREP per discovery attempt; unlike the RFC,
#: retries do not back off.
NET_TRAVERSAL_TIME = 1.5
#: RREQ flood depth and DATA packet TTL (fixed; no expanding ring).
NET_DIAMETER = 32
#: Local-repair discoveries a forwarding node may try for one packet
#: before sending an RERR (RFC 3561 §6.12 names no count).
LOCAL_REPAIR_ATTEMPTS = 1


@dataclass
class Route:
    """One routing-table entry.

    An expired or invalidated entry stays in the table: its ``dest_seq``
    is the freshness any new route to the destination must match.
    """

    next_hop: int
    hops: int
    dest_seq: int
    expires: float

    def valid_at(self, now: float) -> bool:
        """Is the route still alive at time ``now``?"""
        return now < self.expires


@dataclass
class DataPacket:
    """End-to-end payload carried inside DATA frames.

    ``kind`` is the upper-layer frame kind (query / result / token), kept
    so traffic statistics can attribute DATA hops to the protocol that
    caused them. ``hops_left`` is the packet TTL: a routing loop would
    consume it instead of circulating forever. ``source_seq`` is the
    source's sequence number at send time, from which every hop learns
    the route back to the source.
    """

    source: int
    dest: int
    kind: str
    payload: Any
    size_bytes: int
    repairs: int = 0
    hops_left: int = NET_DIAMETER
    source_seq: int = 0


@dataclass
class _Pending:
    """Packets awaiting a route to one destination.

    ``cause`` and ``kind`` label the discovery for telemetry: why the
    packet that started it found no valid route, and its kind.
    """

    packets: List[Tuple[DataPacket, Optional[Callable[[DataPacket], None]]]]
    cause: str
    kind: str
    attempts: int = 0
    timer: Optional[EventHandle] = None


class AodvRouter:
    """Per-node AODV instance.

    Args:
        world: The wireless world, held through a weak proxy: the world
            owns the node that owns this router.
        node_id: This node's identifier.
        on_data: Callback ``(packet: DataPacket) -> None`` invoked when a
            DATA frame addressed to this node arrives.
        on_undeliverable: Callback ``(packet: DataPacket) -> None`` when
            a locally originated packet is dropped for good.
    """

    def __init__(
        self,
        world: World,
        node_id: int,
        on_data: Optional[Callable[[DataPacket], None]] = None,
        on_undeliverable: Optional[Callable[[DataPacket], None]] = None,
    ) -> None:
        self.world = weakref.proxy(world)
        #: The event engine, held directly (it is on every hop's path).
        self.sim: Simulator = world.sim
        self.node_id = node_id
        self.on_data = on_data
        self.on_undeliverable = on_undeliverable
        self.routes: Dict[int, Route] = {}
        self._seq = 0
        self._rreq_id = 0
        #: RREQ duplicate cache: one flag byte per ``rreq_id`` for each
        #: origin. Ids are per-origin counters from 1 that survive
        #: :meth:`reset`, so the flags are exact, and a flood reaches
        #: most nodes, so they cost far less than a set of
        #: ``(origin, rreq_id)`` tuples.
        self._seen_rreq: Dict[int, bytearray] = {}
        self._pending: Dict[int, _Pending] = {}
        #: Expiry floor per destination (:meth:`hold_route`).
        self._holds: Dict[int, float] = {}

    # -- public API ---------------------------------------------------------

    def send_data(
        self,
        dest: int,
        kind: str,
        payload: Any,
        size_bytes: int,
        on_undeliverable: Optional[Callable[[DataPacket], None]] = None,
    ) -> None:
        """Send an upper-layer payload to ``dest``, discovering a route
        if necessary."""
        if dest == self.node_id:
            raise ValueError("cannot send data to self")
        packet = DataPacket(
            source=self.node_id, dest=dest, kind=kind,
            payload=payload, size_bytes=size_bytes,
            hops_left=NET_DIAMETER, source_seq=self._seq,
        )
        self._dispatch(packet, on_undeliverable)

    def learn_route(self, dest: int, next_hop: int, hops: int, seq: int) -> None:
        """Install or refresh the route to ``dest`` via ``next_hop`` —
        the one rule every piece of route learning goes through (RFC
        3561 §6.2), whether the news came from an RREQ, an RREP, a
        routed DATA frame or a protocol flood.

        A lower ``seq`` never replaces an entry, valid or invalid; a
        higher one always does; an equal one only with strictly fewer
        hops or over an invalid entry. Re-learning the current next hop
        without replacing the entry refreshes its lifetime.
        """
        if dest == self.node_id:
            return
        now = self.sim.now
        current = self.routes.get(dest)
        if current is not None:
            if seq < current.dest_seq:
                return
            if (
                seq == current.dest_seq
                and hops >= current.hops
                and current.valid_at(now)
            ):
                if next_hop == current.next_hop:
                    current.expires = self._lifetime(dest, now)
                return
        self.routes[dest] = Route(
            next_hop=next_hop, hops=hops, dest_seq=seq,
            expires=self._lifetime(dest, now),
        )

    def hold_route(self, dest: int, until: float) -> None:
        """Keep the route to ``dest`` valid until ``until``, for an
        upper-layer session that still needs it.

        The hold is a floor under the lifetime that :meth:`learn_route`
        and forwarding give the route, so it never shortens one, and it
        outlives route changes: a route learned later, at any sequence
        number, gets it too. It never revives a broken route: a hop
        failure or an RERR still invalidates the route, and only the
        next route learned for ``dest`` is held again. Holds only grow
        and :meth:`reset` drops them.
        """
        if dest == self.node_id:
            return
        if until > self._holds.get(dest, float("-inf")):
            self._holds[dest] = until
        route = self.routes.get(dest)
        now = self.sim.now
        if route is not None and route.valid_at(now) and route.expires < until:
            route.expires = until

    def _lifetime(self, dest: int, now: float) -> float:
        """Expiry of a route to ``dest`` installed or used at ``now``."""
        expires = now + ACTIVE_ROUTE_TIMEOUT
        floor = self._holds.get(dest)
        if floor is not None and floor > expires:
            return floor
        return expires

    def learn_neighbor(self, neighbor: int) -> None:
        """Install the 1-hop route to a node just heard transmitting.

        It keeps the entry's current sequence number: a route straight
        to the destination cannot loop, so it needs no fresher one. A
        valid 1-hop entry is refreshed in place, which is what
        :meth:`learn_route` would do with it.
        """
        current = self.routes.get(neighbor)
        if current is None:
            self.learn_route(neighbor, neighbor, 1, 0)
            return
        now = self.sim.now
        if current.next_hop == neighbor and current.hops == 1 and now < current.expires:
            current.expires = self._lifetime(neighbor, now)
            return
        self.learn_route(neighbor, neighbor, 1, current.dest_seq)

    def advance_seq(self) -> int:
        """Bump and return this node's own sequence number.

        Called for every flood the node originates, which carries the
        value so the reverse routes it installs supersede older ones
        (RFC 3561 §6.1).
        """
        self._seq += 1
        return self._seq

    def has_route(self, dest: int) -> bool:
        """Is a valid route to ``dest`` currently installed?"""
        route = self.routes.get(dest)
        return route is not None and route.valid_at(self.sim.now)

    def reset(self) -> None:
        """Drop all volatile routing state (device crash semantics).

        Pending packets are lost, discovery timers cancelled, the
        routing table, route holds and RREQ duplicate cache wiped.
        Sequence counters survive — monotonic ids across a reboot keep
        stale RREQs from masking fresh ones.
        """
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()
        self.routes.clear()
        self._holds.clear()
        self._seen_rreq.clear()

    def handle_frame(self, frame: Frame, sender: int) -> bool:
        """Process an AODV-relevant frame: one lookup in :attr:`HANDLERS`.
        Returns False if the frame is not AODV's business (the device
        handles it instead)."""
        handler = self.HANDLERS.get(frame.kind)
        if handler is None:
            return False
        handler(self, frame.payload, sender)
        return True

    # -- data path ----------------------------------------------------------

    def _dispatch(
        self,
        packet: DataPacket,
        on_undeliverable: Optional[Callable[[DataPacket], None]],
    ) -> None:
        route = self.routes.get(packet.dest)
        if route is not None and route.valid_at(self.sim.now):
            self._forward(packet, route, on_undeliverable)
            return
        self._enqueue_pending(packet, on_undeliverable)

    def _forward(
        self,
        packet: DataPacket,
        route: Route,
        on_undeliverable: Optional[Callable[[DataPacket], None]],
    ) -> None:
        route.expires = self._lifetime(packet.dest, self.sim.now)
        frame = Frame(
            kind=FrameKind.DATA,
            src=self.node_id,
            dst=route.next_hop,
            payload=packet,
            size_bytes=HEADER_BYTES + SEQ_BYTES + packet.size_bytes,
        )

        def failed(frame: Frame) -> None:
            self._on_hop_failure(packet, frame.dst, on_undeliverable)

        self.world.send(frame, on_failure=failed)

    def _on_hop_failure(
        self,
        packet: DataPacket,
        next_hop: int,
        on_undeliverable: Optional[Callable[[DataPacket], None]],
    ) -> None:
        """The next hop is gone: invalidate and attempt local repair."""
        if self.world.obs.enabled:
            self.world.obs.event(
                "aodv.route-break", query=query_key_of(packet),
                node=self.node_id, dest=packet.dest, repairs=packet.repairs,
            )
        self._invalidate(packet.dest, next_hop)
        if packet.repairs < LOCAL_REPAIR_ATTEMPTS:
            packet.repairs += 1
            self._dispatch(packet, on_undeliverable)
            return
        if packet.source == self.node_id:
            self._give_up(packet, on_undeliverable)
        else:
            self._send_rerr(packet)
            self._give_up(packet, on_undeliverable)

    def _on_data_frame(self, packet: DataPacket, sender: int) -> None:
        # Every hop learns the route back to the source (RFC 3561 §6.2),
        # so replies such as result ACKs find it already installed.
        self.learn_route(
            packet.source, sender,
            NET_DIAMETER - packet.hops_left + 1, packet.source_seq,
        )
        if packet.dest == self.node_id:
            if self.on_data is not None:
                self.on_data(packet)
            return
        packet.hops_left -= 1
        if packet.hops_left <= 0:
            # TTL expired — a routing loop or an absurdly long path;
            # drop and tell the source so it can rediscover.
            if self.world.obs.enabled:
                self.world.obs.event(
                    "aodv.ttl-expired", query=query_key_of(packet),
                    node=self.node_id, source=packet.source,
                    dest=packet.dest, kind=packet.kind,
                )
            self._send_rerr(packet)
            return
        self._dispatch(packet, on_undeliverable=None)

    # -- discovery ----------------------------------------------------------

    def _enqueue_pending(
        self,
        packet: DataPacket,
        on_undeliverable: Optional[Callable[[DataPacket], None]],
    ) -> None:
        pending = self._pending.get(packet.dest)
        if pending is None:
            if packet.repairs > 0:
                cause = "repair"
            elif packet.dest in self.routes:
                cause = "expired"
            else:
                cause = "no-route"
            pending = _Pending(packets=[], cause=cause, kind=packet.kind)
            self._pending[packet.dest] = pending
            self._start_discovery(packet.dest, pending)
        pending.packets.append((packet, on_undeliverable))

    def _start_discovery(self, dest: int, pending: _Pending) -> None:
        pending.attempts += 1
        if self.world.obs.enabled:
            self.world.obs.event(
                "aodv.discovery", node=self.node_id, dest=dest,
                attempt=pending.attempts, cause=pending.cause,
                kind=pending.kind,
            )
        self._rreq_id += 1
        payload = {
            "rreq_id": self._rreq_id,
            "origin": self.node_id,
            "origin_seq": self.advance_seq(),
            "dest": dest,
            "dest_seq": self.routes[dest].dest_seq if dest in self.routes else 0,
            "hops": 0,
            "ttl": NET_DIAMETER,
        }
        self._mark_seen(self.node_id, self._rreq_id)
        self.world.broadcast(
            Frame(
                kind=FrameKind.RREQ, src=self.node_id, dst=None,
                payload=payload, size_bytes=CONTROL_BYTES,
            )
        )
        pending.timer = self.sim.schedule(
            NET_TRAVERSAL_TIME, self._on_discovery_timeout, dest
        )

    def _on_discovery_timeout(self, dest: int) -> None:
        pending = self._pending.get(dest)
        if pending is None:
            return
        if self.has_route(dest):
            self._flush_pending(dest)
            return
        if pending.attempts > RREQ_RETRIES:
            del self._pending[dest]
            for packet, cb in pending.packets:
                self._give_up(packet, cb)
            return
        self._start_discovery(dest, pending)

    def _flush_pending(self, dest: int) -> None:
        pending = self._pending.pop(dest, None)
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
        route = self.routes.get(dest)
        for packet, cb in pending.packets:
            if route is not None and route.valid_at(self.sim.now):
                self._forward(packet, route, cb)
            else:
                self._give_up(packet, cb)

    def _give_up(
        self,
        packet: DataPacket,
        on_undeliverable: Optional[Callable[[DataPacket], None]],
    ) -> None:
        if self.world.obs.enabled:
            self.world.obs.event(
                "aodv.undeliverable", query=query_key_of(packet),
                node=self.node_id, dest=packet.dest, kind=packet.kind,
            )
        if on_undeliverable is not None:
            on_undeliverable(packet)
        elif packet.source == self.node_id and self.on_undeliverable is not None:
            self.on_undeliverable(packet)

    # -- control frames -----------------------------------------------------

    def _mark_seen(self, origin: int, rreq_id: int) -> bool:
        """Record RREQ ``(origin, rreq_id)``; return whether it was
        already seen."""
        flags = self._seen_rreq.get(origin)
        if flags is None:
            flags = self._seen_rreq[origin] = bytearray()
        if rreq_id >= len(flags):
            flags.extend(bytes(rreq_id + 1 - len(flags)))
        elif flags[rreq_id]:
            return True
        flags[rreq_id] = 1
        return False

    def _on_rreq(self, payload: dict, sender: int) -> None:
        if self._mark_seen(payload["origin"], payload["rreq_id"]):
            return
        hops = payload["hops"] + 1
        self.learn_route(payload["origin"], sender, hops, payload["origin_seq"])
        dest = payload["dest"]
        route = self.routes.get(dest)
        if dest == self.node_id:
            self._seq = max(self._seq, payload["dest_seq"]) + 1
            self._send_rrep(payload["origin"], dest, self._seq, 0)
            return
        if (
            route is not None
            and route.valid_at(self.sim.now)
            and route.dest_seq >= payload["dest_seq"]
            and route.dest_seq > 0
        ):
            self._send_rrep(payload["origin"], dest, route.dest_seq, route.hops)
            return
        if payload["ttl"] <= 1:
            return
        forwarded = dict(payload, hops=hops, ttl=payload["ttl"] - 1)
        self.world.broadcast(
            Frame(
                kind=FrameKind.RREQ, src=self.node_id, dst=None,
                payload=forwarded, size_bytes=CONTROL_BYTES,
            )
        )

    def _send_rrep(self, origin: int, dest: int, dest_seq: int, hops: int) -> None:
        payload = {"origin": origin, "dest": dest, "dest_seq": dest_seq, "hops": hops}
        if origin == self.node_id:
            return
        route = self.routes.get(origin)
        if route is None or not route.valid_at(self.sim.now):
            return  # reverse route evaporated; the origin will retry
        self.world.send(
            Frame(
                kind=FrameKind.RREP, src=self.node_id, dst=route.next_hop,
                payload=payload, size_bytes=CONTROL_BYTES,
            )
        )

    def _on_rrep(self, payload: dict, sender: int) -> None:
        hops = payload["hops"] + 1
        self.learn_route(payload["dest"], sender, hops, payload["dest_seq"])
        if payload["origin"] == self.node_id:
            self._flush_pending(payload["dest"])
            return
        forwarded = dict(payload, hops=hops)
        route = self.routes.get(payload["origin"])
        if route is None or not route.valid_at(self.sim.now):
            return
        self.world.send(
            Frame(
                kind=FrameKind.RREP, src=self.node_id, dst=route.next_hop,
                payload=forwarded, size_bytes=CONTROL_BYTES,
            )
        )

    def _send_rerr(self, packet: DataPacket) -> None:
        route = self.routes.get(packet.source)
        payload = {"dest": packet.dest, "source": packet.source}
        if route is None or not route.valid_at(self.sim.now):
            return
        self.world.send(
            Frame(
                kind=FrameKind.RERR, src=self.node_id, dst=route.next_hop,
                payload=payload, size_bytes=CONTROL_BYTES,
            )
        )

    def _on_rerr(self, payload: dict, sender: int) -> None:
        self._invalidate(payload["dest"], sender)
        if payload["source"] != self.node_id:
            nxt = self.routes.get(payload["source"])
            if nxt is not None and nxt.valid_at(self.sim.now):
                self.world.send(
                    Frame(
                        kind=FrameKind.RERR, src=self.node_id, dst=nxt.next_hop,
                        payload=payload, size_bytes=CONTROL_BYTES,
                    )
                )

    def _invalidate(self, dest: int, next_hop: int) -> None:
        """Expire a valid route to ``dest`` through the broken link to
        ``next_hop`` and bump its sequence number (RFC 3561 §6.11).

        The entry stays in the table: the next RREQ asks for a route
        fresher than the bumped number, so no neighbour whose own route
        still runs back through this node can answer it.
        """
        route = self.routes.get(dest)
        now = self.sim.now
        if route is not None and route.next_hop == next_hop and route.valid_at(now):
            route.expires = now
            route.dest_seq += 1

    #: ``FrameKind -> handler(self, payload, sender)`` for the frames
    #: AODV consumes; :meth:`~repro.net.node.Node.on_frame` reads it.
    HANDLERS: Dict[str, Callable[["AodvRouter", Any, int], None]] = {
        FrameKind.RREQ: _on_rreq,
        FrameKind.RREP: _on_rrep,
        FrameKind.RERR: _on_rerr,
        FrameKind.DATA: _on_data_frame,
    }
