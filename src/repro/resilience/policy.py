"""Per-query reliability policy: failover and orphan suppression.

A :class:`ResiliencePolicy` rides on
:class:`~repro.protocol.device.ProtocolConfig` and grades how a query is
allowed to degrade under faults. Its close budget is
``ProtocolConfig.query_timeout``: the originator closes the record that
long after issue, no matter what is still in flight.

* **DF→BF failover** — when the depth-first token watchdog exhausts its
  ``token_reissues`` budget, the originator abandons the token walk and
  re-floods the query breadth-first to the *unvisited residue* (devices
  that already contributed are excluded from recomputation), charged as
  its own accounting mode, at most once per query.
* **Orphan suppression** — in-flight tokens, result retransmissions and
  flood responses addressed to a crashed originator are dropped and
  their timers cancelled instead of burning radio on a dead letter box.

Every switch defaults to the inert setting, so a default-constructed
policy reproduces the pre-resilience protocol bit for bit — the parity
tests pin this.
"""

from __future__ import annotations

from dataclasses import dataclass
__all__ = ["MAX_FAILOVERS", "ResiliencePolicy"]

#: Failover floods per query (the flood has its own ACK/retransmit
#: recovery, so one is enough).
MAX_FAILOVERS = 1


@dataclass(frozen=True)
class ResiliencePolicy:
    """Behavioural switches for the query-resilience layer.

    Attributes:
        df_failover: Allow a DF originator whose token watchdog ran out
            of re-issues to fall back to a breadth-first flood over the
            unvisited residue.
        orphan_suppression: Drop in-flight work addressed to a crashed
            originator (tokens, result retries, flood responses) and
            cancel the timers that would have driven it.
    """

    df_failover: bool = False
    orphan_suppression: bool = False
