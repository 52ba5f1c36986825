"""The wireless world: connectivity, transmission, and frame accounting.

Links follow the unit-disk model used by ad hoc network simulators: two
nodes can exchange frames iff they are within radio range. Frame delivery
takes ``LATENCY + size / BANDWIDTH_BPS`` seconds; a frame is lost if the
receiver has moved out of range by delivery time (mobility-induced loss,
the dominant loss mode the paper's setting cares about). IEEE
802.11b-flavoured defaults: 250 m range, 2 Mbit/s effective bandwidth.

A broadcast is delivered as one engine event per *wave*: the receiver
set is resolved once at transmit time and the single event fans out to
every receiver callback in sorted-id order. At 10k nodes this collapses
the per-broadcast heap traffic from ``O(degree)`` events to one. Loss,
duplication and jitter randomness is drawn per receiver in that order,
and fault state is re-checked per receiver at fire time, so the
outcome matches scheduling one event per receiver.

A delivery hands the frame straight to the receiving node's
``on_frame``. The unicast link test at send and at delivery is a pair
question to the neighbor index: the candidate window's positions and
the mobility model's speed bound settle most pairs without a position
lookup, and the rest get the exact test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol

import numpy as np

from ..obs.observer import NULL_OBSERVER
from .engine import Simulator
from .messages import Frame, FrameKind
from .mobility import MobilityModel
from .spatial_index import NeighborIndex

__all__ = ["World", "RadioConfig", "TrafficStats", "NetworkNode"]

#: Effective link bandwidth in bits per second and fixed per-hop
#: latency in seconds (propagation + MAC): IEEE 802.11b-flavoured
#: defaults, the same for every run.
BANDWIDTH_BPS = 2_000_000.0
LATENCY = 0.002


@dataclass(frozen=True)
class RadioConfig:
    """Physical/link layer parameters.

    Attributes:
        radio_range: Unit-disk communication range in metres.
        loss_rate: Independent per-frame loss probability in [0, 1]
            (failure injection; 0 by default — mobility already causes
            losses; 1.0 is a total blackout, useful for fault tests).
    """

    radio_range: float = 250.0
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.radio_range <= 0:
            raise ValueError("radio_range must be > 0")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")

    def transfer_delay(self, size_bytes: int) -> float:
        """Seconds to push ``size_bytes`` over one hop."""
        return LATENCY + (size_bytes * 8.0) / BANDWIDTH_BPS


@dataclass
class TrafficStats:
    """Frame accounting for the whole world."""

    transmissions: int = 0
    deliveries: int = 0
    drops: int = 0
    duplicates: int = 0
    bytes_sent: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def record_send(self, frame: Frame) -> None:
        self.transmissions += 1
        self.bytes_sent += frame.size_bytes
        self.by_kind[frame.kind] = self.by_kind.get(frame.kind, 0) + 1

    def protocol_messages(self) -> int:
        """Transmissions of query-processing frames (Figure 12's count)."""
        return sum(
            n for kind, n in self.by_kind.items() if kind in FrameKind.PROTOCOL
        )

    def control_messages(self) -> int:
        """Transmissions of AODV control frames."""
        return sum(
            n for kind, n in self.by_kind.items() if kind in FrameKind.CONTROL
        )


class NetworkNode(Protocol):
    """What the world requires of an attached node."""

    node_id: int

    def on_frame(self, frame: Frame, sender: int) -> None:
        """Handle a delivered frame."""


class EnergyMeterLike(Protocol):
    """What the world needs from an energy meter (duck-typed so the
    net layer does not depend on :mod:`repro.devices`)."""

    def on_transmit(self, size_bytes: int) -> None: ...

    def on_receive(self, size_bytes: int) -> None: ...


class World:
    """Glue between the event engine, mobility, and the nodes.

    Besides geometry, the world tracks *fault* state injected by a
    :class:`~repro.faults.FaultInjector`: crashed (down) nodes, blacked
    out node pairs, a temporary loss-rate override, half-plane network
    partitions, message duplication, and per-hop delay jitter. Every
    link a frame crosses passes the same rule: the fault rule
    (:meth:`_fault_free`) and the unit-disk test. A unicast asks it as
    :meth:`can_communicate`, at send and again at delivery; a broadcast
    reads it as its source's :meth:`neighbors` row.

    Connectivity questions are answered by an epoch-cached
    :class:`~repro.net.spatial_index.NeighborIndex`: one pair pass per
    speed-bounded candidate window, which serves the rows and the full
    adjacency; pair questions settled from the window's positions where
    the speed bound allows and from scalar lookups where it does not;
    and epoch invalidation on fault transitions.

    The world owns its attached nodes and its index; both refer back
    to it through weak proxies, so a dropped network is freed by
    refcounting (see :class:`~repro.net.node.Node`).

    Args:
        sim: The event engine.
        mobility: Position oracle for all nodes.
        radio: Physical-layer parameters.
        seed: Seed for the loss process.
    """

    def __init__(
        self,
        sim: Simulator,
        mobility: MobilityModel,
        radio: RadioConfig = RadioConfig(),
        seed: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.mobility = mobility
        self.radio = radio
        self.stats = TrafficStats()
        self._nodes: Dict[int, NetworkNode] = {}
        self._rng = np.random.default_rng(seed)
        self._down: set = set()
        #: Monotone per-node crash counters (never reset on recovery):
        #: diffing two snapshots tells whether a node crashed *at any
        #: point* between them, which ``CompletionReport`` needs to
        #: classify devices that crashed mid-query but recovered before
        #: the record closed.
        self._crash_counts: Dict[int, int] = {}
        self._blackouts: set = set()
        self._loss_override: Optional[float] = None
        #: Active network partitions: ``(axis, coord)`` half-plane cuts.
        #: Nodes on opposite sides of any cut cannot communicate.
        self._partitions: List[tuple] = []
        #: Message-duplication fault: probability a successfully sent
        #: frame is delivered twice.
        self._dup_rate: float = 0.0
        #: Delay-jitter fault: max extra uniform delay per hop, seconds.
        self._jitter: float = 0.0
        self._index = NeighborIndex(self)
        #: Observability sink (``repro.obs``). Defaults to the shared
        #: disabled observer, which has no hooks: every instrumentation
        #: site guards on ``self.obs.enabled``, so the off path is one
        #: attribute load and a branch. Attach a live observer with
        #: ``Observer.bind``.
        self.obs = NULL_OBSERVER
        #: Optional per-node energy meters; when present, frame
        #: transmissions and receptions are charged to them
        #: (``repro.devices.EnergyMeter`` instances keyed by node id).
        self.energy_meters: Dict[int, "EnergyMeterLike"] = {}

    # -- topology ---------------------------------------------------------

    def attach(self, node: NetworkNode) -> None:
        """Register a node; its id must match a mobility slot."""
        if not 0 <= node.node_id < self.mobility.node_count:
            raise ValueError(
                f"node id {node.node_id} outside mobility range "
                f"0..{self.mobility.node_count - 1}"
            )
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} already attached")
        self._nodes[node.node_id] = node
        self._index.invalidate()

    @property
    def node_ids(self) -> List[int]:
        """Attached node ids, sorted."""
        return sorted(self._nodes)

    @property
    def connectivity_epoch(self) -> int:
        """Generation counter of fault/topology state; any transition
        that can change a connectivity answer bumps it, invalidating the
        neighbor index."""
        return self._index.epoch

    def position(self, node: int) -> tuple:
        """Current position of ``node``: one scalar mobility lookup, which
        equals the node's row of :meth:`positions` bit for bit."""
        return self.mobility.position(node, self.sim.now)

    def positions(self) -> "np.ndarray":
        """``(node_count, 2)`` array of all positions right now (one
        vectorised mobility sweep, memoised per simulation time)."""
        return self._index.positions()

    def in_range(self, a: int, b: int) -> bool:
        """Are ``a`` and ``b`` geometrically within radio range?

        The squared-distance unit-disk test on float64 positions, read
        from the neighbor index's candidate window where its speed bound
        settles the answer (:meth:`NeighborIndex.in_range`).
        """
        return a != b and self._index.in_range(a, b)

    def can_communicate(self, a: int, b: int) -> bool:
        """Can ``a`` and ``b`` currently exchange frames?

        Geometry plus fault state: both endpoints up, the pairwise link
        not blacked out, no active partition cut between them, and the
        two within range (:meth:`in_range`).
        """
        return self._fault_free(a, b, self.position) and self.in_range(a, b)

    def _fault_free(
        self, a: int, b: int, position: Callable[[int], tuple]
    ) -> bool:
        """The fault rule of a link: both endpoints up, the link not
        blacked out, and no active partition cut between them.

        ``position(node)`` is read only while a cut is active. The
        neighbor index applies the same rule to its candidate rows; its
        bulk build is the one array form of it.
        """
        if a in self._down or b in self._down:
            return False
        if self._blackouts and frozenset((a, b)) in self._blackouts:
            return False
        return not self._partitions or self._same_partition_side(
            position(a), position(b)
        )

    def _same_partition_side(self, pa: tuple, pb: tuple) -> bool:
        """Are two positions on the same side of every active cut?"""
        for axis, coord in self._partitions:
            k = 0 if axis == "x" else 1
            if (pa[k] >= coord) != (pb[k] >= coord):
                return False
        return True

    def neighbors(self, node: int) -> List[int]:
        """Nodes ``node`` can currently exchange frames with, in sorted
        id order (determinism contract: never attach order). Raises
        ``ValueError`` if ``node`` is not attached."""
        return self._index.neighbors(node)

    def reachable_from(self, node: int) -> set:
        """Transitive communication closure of ``node`` right now.

        Breadth-first search over the neighbor index's fault-aware
        adjacency (the links :meth:`can_communicate` allows); includes
        ``node`` itself. The basis of result-coverage accounting: a
        query can only ever gather data from this set.
        """
        if node not in self._nodes:
            raise ValueError(f"unknown node {node}")
        return self._index.reachable_from(node)

    # -- fault state --------------------------------------------------------

    def node_is_up(self, node: int) -> bool:
        """Is ``node`` currently powered on?"""
        return node not in self._down

    @property
    def down_nodes(self) -> List[int]:
        """Currently crashed node ids, sorted."""
        return sorted(self._down)

    def crash_count(self, node: int) -> int:
        """How many times ``node`` has crashed so far (monotone; not
        reset on recovery)."""
        return self._crash_counts.get(node, 0)

    def crash_counts(self) -> Dict[int, int]:
        """Snapshot of every node's crash counter (nodes that never
        crashed are omitted)."""
        return dict(self._crash_counts)

    def fail_node(self, node: int) -> None:
        """Crash ``node``: it stops transmitting and receiving, and its
        in-flight protocol state is lost (``on_crash`` hook). No-op if
        already down."""
        if node in self._down:
            return
        self._down.add(node)
        self._crash_counts[node] = self._crash_counts.get(node, 0) + 1
        self._index.invalidate()
        if self.obs.enabled:
            self.obs.fault("node-crash", node=node)
        attached = self._nodes.get(node)
        on_crash = getattr(attached, "on_crash", None)
        if on_crash is not None:
            on_crash()

    def restore_node(self, node: int) -> None:
        """Bring a crashed ``node`` back up, rejoining clean (``on_recover``
        hook). No-op if the node is already up."""
        if node not in self._down:
            return
        self._down.discard(node)
        self._index.invalidate()
        if self.obs.enabled:
            self.obs.fault("node-recover", node=node)
        attached = self._nodes.get(node)
        on_recover = getattr(attached, "on_recover", None)
        if on_recover is not None:
            on_recover()

    def set_link_blackout(self, a: int, b: int, blocked: bool) -> None:
        """Force the pairwise link ``a``–``b`` down (or lift the blackout)."""
        if a == b:
            raise ValueError("a link needs two distinct endpoints")
        link = frozenset((a, b))
        changed = blocked != (link in self._blackouts)
        if blocked:
            self._blackouts.add(link)
        else:
            self._blackouts.discard(link)
        if changed:
            self._index.invalidate()
            if self.obs.enabled:
                self.obs.fault(
                    "link-down" if blocked else "link-up",
                    link=tuple(sorted(link)),
                )

    def link_blacked_out(self, a: int, b: int) -> bool:
        """Is the pairwise link ``a``–``b`` currently forced down?"""
        return frozenset((a, b)) in self._blackouts

    def set_partition(self, axis: str, coord: float, active: bool) -> bool:
        """Split (or heal) the world along a half-plane cut.

        While active, nodes on opposite sides of ``axis = coord`` cannot
        communicate regardless of radio range — the region-split fault.
        Multiple cuts stack. Returns whether the call changed anything
        (healing a cut that is not active is a no-op).
        """
        if axis not in ("x", "y"):
            raise ValueError(f"partition axis must be 'x' or 'y', got {axis!r}")
        entry = (axis, float(coord))
        if active:
            self._partitions.append(entry)
        else:
            if entry not in self._partitions:
                return False
            self._partitions.remove(entry)
        self._index.invalidate()
        if self.obs.enabled:
            self.obs.fault(
                "partition-split" if active else "partition-heal",
                axis=axis, coord=float(coord),
            )
        return True

    def set_duplication(self, rate: Optional[float]) -> None:
        """Set the message-duplication fault rate (``None`` disables).

        While positive, every successfully transmitted frame copy is
        delivered a second time with probability ``rate`` — stale-token
        and duplicate-result stress for the protocol dedup logic.
        """
        if rate is not None and not 0.0 <= rate <= 1.0:
            raise ValueError("duplication rate must be in [0, 1] or None")
        new = rate if rate is not None else 0.0
        if self.obs.enabled and new != self._dup_rate:
            self.obs.fault("duplication-override", rate=new)
        self._dup_rate = new

    def set_delay_jitter(self, max_delay: Optional[float]) -> None:
        """Set the delay-jitter fault (``None`` disables).

        While positive, every hop's transfer delay gains a uniform extra
        ``[0, max_delay]`` seconds — reordering stress for timers and
        retransmission logic.
        """
        if max_delay is not None and max_delay < 0:
            raise ValueError("jitter max_delay must be >= 0 or None")
        new = max_delay if max_delay is not None else 0.0
        if self.obs.enabled and new != self._jitter:
            self.obs.fault("jitter-override", max_delay=new)
        self._jitter = new

    def set_loss_override(self, loss_rate: Optional[float]) -> None:
        """Temporarily override the radio's loss rate (bursty-loss
        windows); ``None`` restores the configured rate."""
        if loss_rate is not None and not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss_rate override must be in [0, 1] or None")
        if self.obs.enabled and loss_rate != self._loss_override:
            self.obs.fault("loss-override", loss_rate=loss_rate)
        self._loss_override = loss_rate

    @property
    def effective_loss_rate(self) -> float:
        """The loss rate currently applied to transmissions."""
        if self._loss_override is not None:
            return self._loss_override
        return self.radio.loss_rate

    # -- transmission -------------------------------------------------------

    def send(
        self,
        frame: Frame,
        on_failure: Optional[Callable[[Frame], None]] = None,
    ) -> None:
        """Transmit a unicast frame one hop.

        The frame is lost (with ``on_failure`` invoked at what would have
        been delivery time) if the receiver is out of range at send or
        delivery time, or the random loss process fires. Losses are
        silent to the receiver, as on a real radio.
        """
        if frame.dst is None:
            raise ValueError("unicast send needs frame.dst; use broadcast()")
        if frame.dst not in self._nodes:
            raise ValueError(f"unknown destination node {frame.dst}")
        if frame.src not in self._nodes:
            raise ValueError(f"unknown source node {frame.src}")
        if frame.src in self._down:
            # A crashed transmitter radiates nothing: no stats, no
            # failure callback — the sender's state died with it.
            return
        self.stats.record_send(frame)
        self._charge_tx(frame)
        if self.obs.enabled:
            self.obs.frame_sent(frame)
        delay = self._jittered(self.radio.transfer_delay(frame.size_bytes))
        if not self.can_communicate(frame.src, frame.dst) or self._lossy():
            self.stats.drops += 1
            if self.obs.enabled:
                self.obs.frame_dropped(frame, frame.dst, "no-link")
            if on_failure is not None:
                self.sim.schedule(delay, on_failure, frame)
            return
        self.sim.schedule(delay, self._deliver, frame, on_failure)
        if self._duplicated():
            self.stats.duplicates += 1
            if self.obs.enabled:
                self.obs.frame_duplicated(frame)
            self.sim.schedule(
                self._jittered(self.radio.transfer_delay(frame.size_bytes)),
                self._deliver, frame, None,
            )

    def broadcast(self, frame: Frame) -> List[int]:
        """Transmit a one-hop broadcast; returns the receiver ids.

        One broadcast is one transmission on the air regardless of how
        many neighbours hear it (wireless multicast advantage). Receivers
        are bucketed by delivery delay and each distinct delay fires one
        engine event; without the jitter fault the whole wave is a single
        event. Same-time deliveries fire in receiver-loop order, and a
        fault-injected duplicate lands directly after its primary when
        their jittered delays tie.
        """
        if frame.dst is not None:
            raise ValueError("broadcast frames must have dst=None")
        if frame.src not in self._nodes:
            raise ValueError(f"unknown source node {frame.src}")
        if frame.src in self._down:
            return []
        self.stats.record_send(frame)
        self._charge_tx(frame)
        if self.obs.enabled:
            self.obs.frame_sent(frame)
        receivers = []
        delay = self.radio.transfer_delay(frame.size_bytes)
        waves: Dict[float, List[int]] = {}
        for other in self.neighbors(frame.src):
            if self._lossy():
                self.stats.drops += 1
                if self.obs.enabled:
                    self.obs.frame_dropped(frame, other, "loss")
                continue
            receivers.append(other)
            waves.setdefault(self._jittered(delay), []).append(other)
            if self._duplicated():
                self.stats.duplicates += 1
                if self.obs.enabled:
                    self.obs.frame_duplicated(frame)
                waves.setdefault(self._jittered(delay), []).append(other)
        for wave_delay, nodes in waves.items():
            self.sim.schedule(wave_delay, self._deliver_wave, nodes, frame)
        return receivers

    def _deliver_wave(self, nodes: List[int], frame: Frame) -> None:
        """Fan one broadcast wave out to its receivers in order.

        Each receiver's fault state (crash, link blackout; not mobility)
        is re-checked immediately before its callback, as if each
        delivery were its own event firing back to back. A callback that
        crashes a later receiver in the same wave therefore suppresses
        that delivery.
        """
        src = frame.src
        down = self._down
        blackouts = self._blackouts
        stats = self.stats
        meters = self.energy_meters
        attached = self._nodes
        for node in nodes:
            if node in down or (blackouts and frozenset((src, node)) in blackouts):
                stats.drops += 1
                if self.obs.enabled:
                    self.obs.frame_dropped(frame, node, "fault")
                continue
            stats.deliveries += 1
            meter = meters.get(node)
            if meter is not None:
                meter.on_receive(frame.size_bytes)
            if self.obs.enabled:
                self.obs.frame_delivered(frame, node)
            attached[node].on_frame(frame, src)

    def _deliver(self, frame: Frame, on_failure: Optional[Callable[[Frame], None]]) -> None:
        # Check again at delivery time: the receiver may have moved out
        # of range, crashed, or had its link blacked out mid-flight.
        dst = frame.dst
        if not self.can_communicate(frame.src, dst):
            self.stats.drops += 1
            if self.obs.enabled:
                self.obs.frame_dropped(frame, dst, "moved")
            if on_failure is not None:
                on_failure(frame)
            return
        self.stats.deliveries += 1
        meter = self.energy_meters.get(dst)
        if meter is not None:
            meter.on_receive(frame.size_bytes)
        if self.obs.enabled:
            self.obs.frame_delivered(frame, dst)
        self._nodes[dst].on_frame(frame, frame.src)

    def _charge_tx(self, frame: Frame) -> None:
        meter = self.energy_meters.get(frame.src)
        if meter is not None:
            meter.on_transmit(frame.size_bytes)

    def _lossy(self) -> bool:
        rate = self.effective_loss_rate
        return rate > 0 and bool(self._rng.random() < rate)

    def _duplicated(self) -> bool:
        # Guarded on rate > 0 exactly like _lossy(): a fault-free run
        # draws no randomness here and stays bit-identical.
        return self._dup_rate > 0.0 and bool(
            self._rng.random() < self._dup_rate
        )

    def _jittered(self, delay: float) -> float:
        """Per-hop delay with the jitter fault folded in (no RNG draw
        when the fault is inactive — determinism contract)."""
        if self._jitter > 0.0:
            delay += float(self._rng.uniform(0.0, self._jitter))
        return delay
