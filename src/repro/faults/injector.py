"""Wiring a :class:`FaultSchedule` into a live simulation.

The injector schedules one engine event per fault transition and applies
it against the :class:`~repro.net.world.World`: crashes call
``World.fail_node`` (which fires the node's ``on_crash`` hook, losing
its in-flight query state), recoveries call ``World.restore_node``
(rejoin clean), link events toggle pairwise blackouts, and loss bursts
push/pop a loss-rate override.

Every *applied* transition is appended to :attr:`FaultInjector.applied`
— the deterministic fault trace the acceptance tests compare bit for bit.
The world itself reports every effective transition to its observer
(``Observer.faults``).

Cache coherence: each connectivity-affecting application (crash,
recovery, blackout toggle) bumps ``World.connectivity_epoch``, which
invalidates the world's epoch-cached neighbor index — fault injection
can never be served a stale ``neighbors``/``reachable_from`` answer,
no matter how queries interleave with transitions at the same
simulation time.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..net.world import World
from .schedule import FaultEvent, FaultSchedule

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies a fault schedule to a world.

    Args:
        schedule: What to inject and when.
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.applied: List[Tuple] = []
        self._world: Optional[World] = None
        self._burst_stack: List[float] = []
        self._dup_stack: List[float] = []
        self._jitter_stack: List[float] = []

    def install(self, world: World) -> "FaultInjector":
        """Schedule every fault transition on the world's engine.
        Returns self."""
        if self._world is not None:
            raise RuntimeError("injector already installed")
        self._world = world
        for event in self.schedule:
            world.sim.schedule_at(event.time, self._apply, event)
        return self

    # -- application --------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        world = self._world
        effective = True
        if event.kind == "node-crash":
            if event.node in world._nodes and world.node_is_up(event.node):
                world.fail_node(event.node)
            else:
                effective = False
        elif event.kind == "node-recover":
            if event.node in world._nodes and not world.node_is_up(event.node):
                world.restore_node(event.node)
            else:
                effective = False
        elif event.kind == "link-down":
            a, b = event.link
            effective = not world.link_blacked_out(a, b)
            world.set_link_blackout(a, b, True)
        elif event.kind == "link-up":
            a, b = event.link
            effective = world.link_blacked_out(a, b)
            world.set_link_blackout(a, b, False)
        elif event.kind == "loss-burst-start":
            self._burst_stack.append(event.loss_rate)
            world.set_loss_override(event.loss_rate)
        elif event.kind == "loss-burst-end":
            if self._burst_stack:
                self._burst_stack.pop()
            world.set_loss_override(
                self._burst_stack[-1] if self._burst_stack else None
            )
        elif event.kind == "partition-split":
            effective = world.set_partition(event.axis, event.coord, True)
        elif event.kind == "partition-heal":
            effective = world.set_partition(event.axis, event.coord, False)
        elif event.kind == "dup-start":
            self._dup_stack.append(event.loss_rate)
            world.set_duplication(event.loss_rate)
        elif event.kind == "dup-end":
            if self._dup_stack:
                self._dup_stack.pop()
            world.set_duplication(
                self._dup_stack[-1] if self._dup_stack else None
            )
        elif event.kind == "jitter-start":
            self._jitter_stack.append(event.jitter)
            world.set_delay_jitter(event.jitter)
        elif event.kind == "jitter-end":
            if self._jitter_stack:
                self._jitter_stack.pop()
            world.set_delay_jitter(
                self._jitter_stack[-1] if self._jitter_stack else None
            )
        self.applied.append(event.signature() + (effective,))

    # -- inspection ---------------------------------------------------------

    def applied_signature(self) -> Tuple[Tuple, ...]:
        """Bit-for-bit identity of everything applied so far."""
        return tuple(self.applied)
