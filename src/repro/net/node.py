"""Base network node: wires a World slot to an AODV router.

Protocol-level code subclasses :class:`Node` and implements its two
extension points: :meth:`Node.on_protocol_frame` for one-hop protocol
frames and :meth:`Node.on_data` for routed end-to-end payloads. The
skyline devices implement both once, in
:class:`~repro.protocol.device.SkylineDevice`, as a lookup in a
per-class handler table.
"""

from __future__ import annotations

import weakref

from .aodv import AodvRouter, DataPacket
from .engine import Simulator
from .messages import Frame
from .world import World

__all__ = ["Node"]


class Node:
    """A node with an AODV routing layer.

    The world owns its nodes and a node owns its router; the references
    back up are weak, so a network nobody holds is freed by refcounting.
    ``world`` is a weak proxy (using the node after its world is gone
    raises ``ReferenceError``), and the router reaches its node's
    :meth:`on_data` and :meth:`on_undeliverable` through one.

    Args:
        world: The wireless world (the node attaches itself).
        node_id: Identifier matching a mobility slot.

    Attributes:
        sim: The event engine, held directly: it holds no node once its
            queue is empty.
    """

    def __init__(self, world: World, node_id: int) -> None:
        self.world = weakref.proxy(world)
        self.sim: Simulator = world.sim
        self.node_id = node_id
        node = weakref.proxy(self)
        self.router = AodvRouter(
            world,
            node_id,
            on_data=lambda packet: node.on_data(packet),
            on_undeliverable=lambda packet: node.on_undeliverable(packet),
        )
        world.attach(self)

    @property
    def position(self) -> tuple:
        """Current position of this node."""
        return self.world.position(self.node_id)

    def on_frame(self, frame: Frame, sender: int) -> None:
        """World delivery entry point: AODV frames go to the router's
        handler (one lookup in :attr:`AodvRouter.HANDLERS`), everything
        else to the protocol handler.

        Receiving any frame proves the transmitter is currently within
        radio range, so a 1-hop route to it is installed at the entry's
        current sequence number — the standard overhearing optimization,
        which saves a route discovery for the common reply-to-neighbour
        case.

        Ordering contract: within one broadcast, receivers hear the
        frame in sorted-id order (the world fans a delivery wave out
        inside a single event in that order), exactly as if each
        delivery were its own same-time event.
        """
        router = self.router
        router.learn_neighbor(sender)
        handler = router.HANDLERS.get(frame.kind)
        if handler is None:
            self.on_protocol_frame(frame, sender)
        else:
            handler(router, frame.payload, sender)

    # -- extension points ---------------------------------------------------

    def on_protocol_frame(self, frame: Frame, sender: int) -> None:
        """Handle a non-AODV frame (one-hop protocol traffic)."""

    def on_data(self, packet: DataPacket) -> None:
        """Handle a routed end-to-end payload addressed to this node."""

    def on_undeliverable(self, packet: DataPacket) -> None:
        """Called when a locally originated packet is dropped for good."""
