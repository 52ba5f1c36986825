"""Per-node flight recorder: bounded event rings + post-mortem dumps.

Every observed device gets a bounded ring of its most recent protocol,
net, and fault events — cheap enough to leave on for long runs, rich
enough to answer "what was this node doing just before it died?". The
:class:`~repro.obs.observer.Observer` mirrors its hooks into the
recorder (attach with :meth:`Observer.attach_flight`); on a trigger —
node crash, query deadline expiry, or a ``resilience.invariants``
violation — the recorder snapshots the affected ring *and the causal
slice that led to the trigger* into an immutable :class:`FlightDump`.

Dumps are inspectable in-process, serializable as a ``blackbox.json``
document (``schema: obs_blackbox/v1``), and rendered by the ``repro
blackbox`` CLI command. Recording is passive: the recorder never
schedules events, never consumes randomness, and never touches
protocol state, so a run with a flight recorder attached stays
bit-identical to a plain run.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Deque, List, Optional, Tuple

__all__ = [
    "BLACKBOX_SCHEMA",
    "DEFAULT_FLIGHT_CAPACITY",
    "FlightEntry",
    "FlightDump",
    "FlightRecorder",
    "load_blackbox",
    "render_dump",
    "validate_blackbox",
]

QueryKey = Tuple[int, int]

BLACKBOX_SCHEMA = "obs_blackbox/v1"

#: Default ring depth per node — deep enough to cover a query lifetime
#: at smoke scale, shallow enough to bound memory at 10k nodes.
DEFAULT_FLIGHT_CAPACITY = 256


@dataclass
class FlightEntry:
    """One recorded moment on a node's ring."""

    time: float
    kind: str
    query: Optional[QueryKey] = None
    info: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "kind": self.kind,
            "query": list(self.query) if self.query is not None else None,
            "info": {k: _jsonify(v) for k, v in self.info.items()},
        }


def _jsonify(value: Any) -> Any:
    """Best-effort conversion of attr values to JSON-safe types (the
    one sanitizer of ``repro.obs``; the trace exporters use it too)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonify(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return repr(value)


@dataclass
class FlightDump:
    """One post-mortem snapshot, frozen at trigger time.

    Attributes:
        trigger: ``node-crash`` / ``deadline-expiry`` /
            ``invariant-violation``.
        time: Simulation time of the trigger.
        node: The affected device (None for world-level triggers, whose
            ``entries`` then hold the tail of *every* ring).
        query: The query involved, when the trigger names one.
        detail: Free-form trigger description (the violated invariant,
            the crash fault's attrs, ...).
        entries: The ring snapshot, oldest first. For world-level dumps
            each entry's info carries its ``node``.
        causal: JSON-safe causal ancestry (issue → ... → last event at
            the node for the triggering query), oldest first.
    """

    trigger: str
    time: float
    node: Optional[int]
    query: Optional[QueryKey]
    detail: str
    entries: List[Dict[str, Any]]
    causal: List[Dict[str, Any]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trigger": self.trigger,
            "time": self.time,
            "node": self.node,
            "query": list(self.query) if self.query is not None else None,
            "detail": self.detail,
            "entries": self.entries,
            "causal": self.causal,
        }


class FlightRecorder:
    """Bounded per-node rings plus the dumps triggered so far."""

    def __init__(self, capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._rings: Dict[int, Deque[FlightEntry]] = {}
        self.dumps: List[FlightDump] = []
        self.evicted = 0

    # -- recording -----------------------------------------------------------

    def note(
        self,
        node: Optional[int],
        kind: str,
        time: float,
        query: Optional[QueryKey] = None,
        /,
        **info: Any,
    ) -> None:
        """Append one entry to ``node``'s ring (no-op for node=None).

        The leading parameters are positional-only so event attributes
        named ``kind`` / ``time`` / ``query`` (which some protocol
        events legitimately carry) land in ``info`` instead of
        colliding."""
        if node is None:
            return
        ring = self._rings.get(node)
        if ring is None:
            ring = deque(maxlen=self.capacity)
            self._rings[node] = ring
        if len(ring) == self.capacity:
            self.evicted += 1
        ring.append(FlightEntry(time=time, kind=kind, query=query, info=info))

    def snapshot(self, node: int) -> List[FlightEntry]:
        """Copy of ``node``'s ring, oldest first."""
        return list(self._rings.get(node, ()))

    def nodes(self) -> List[int]:
        """Nodes with at least one recorded entry, ascending."""
        return sorted(self._rings)

    # -- triggers ------------------------------------------------------------

    def dump(
        self,
        trigger: str,
        time: float,
        node: Optional[int] = None,
        query: Optional[QueryKey] = None,
        detail: str = "",
        causal: Optional[List[Dict[str, Any]]] = None,
        tail: int = 16,
    ) -> FlightDump:
        """Freeze a post-mortem snapshot and append it to :attr:`dumps`.

        Node-level triggers dump that node's whole ring; world-level
        triggers (``node=None``) dump the last ``tail`` entries of every
        ring, each annotated with its node.
        """
        if node is not None:
            entries = [e.to_dict() for e in self.snapshot(node)]
        else:
            entries = []
            for owner in self.nodes():
                for entry in self.snapshot(owner)[-tail:]:
                    record = entry.to_dict()
                    record["node"] = owner
                    entries.append(record)
            entries.sort(key=lambda e: e["time"])
        dump = FlightDump(
            trigger=trigger,
            time=time,
            node=node,
            query=query,
            detail=detail,
            entries=entries,
            causal=list(causal or ()),
        )
        self.dumps.append(dump)
        return dump

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The ``blackbox.json`` document."""
        return {
            "schema": BLACKBOX_SCHEMA,
            "capacity": self.capacity,
            "evicted": self.evicted,
            "nodes": {
                str(node): [e.to_dict() for e in self.snapshot(node)]
                for node in self.nodes()
            },
            "dumps": [d.to_dict() for d in self.dumps],
        }

    def write_json(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings.values())


def validate_blackbox(doc: Any) -> List[str]:
    """Schema check of a blackbox document; returns violations."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != BLACKBOX_SCHEMA:
        problems.append(f"schema must be {BLACKBOX_SCHEMA!r}")
    if not isinstance(doc.get("capacity"), int) or doc.get("capacity", 0) < 1:
        problems.append("capacity must be a positive integer")
    if not isinstance(doc.get("nodes"), dict):
        problems.append("nodes must be an object")
    dumps = doc.get("dumps")
    if not isinstance(dumps, list):
        problems.append("dumps must be a list")
        return problems
    for i, dump in enumerate(dumps):
        where = f"dumps[{i}]"
        if not isinstance(dump, dict):
            problems.append(f"{where}: not an object")
            continue
        for fld in ("trigger", "time", "entries", "causal"):
            if fld not in dump:
                problems.append(f"{where}: missing {fld}")
        if not isinstance(dump.get("entries", []), list):
            problems.append(f"{where}: entries must be a list")
        if not isinstance(dump.get("causal", []), list):
            problems.append(f"{where}: causal must be a list")
    return problems


def load_blackbox(path) -> Dict[str, Any]:
    """Read and validate a ``blackbox.json``; raises on schema errors."""
    with open(path) as handle:
        doc = json.load(handle)
    problems = validate_blackbox(doc)
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return doc


def render_dump(dump: Dict[str, Any], tail: int = 12) -> str:
    """Human-readable post-mortem of one dump dict."""
    node = dump.get("node")
    query = dump.get("query")
    header = (
        f"=== {dump.get('trigger')} at t={dump.get('time', 0.0):.3f}"
        + (f" node={node}" if node is not None else " (world)")
        + (f" query={query[0]}:{query[1]}" if query else "")
        + " ==="
    )
    lines = [header]
    if dump.get("detail"):
        lines.append(f"  {dump['detail']}")
    entries = dump.get("entries", [])
    if entries:
        lines.append(f"  last {min(tail, len(entries))} of "
                     f"{len(entries)} ring entries:")
        for entry in entries[-tail:]:
            info = entry.get("info", {})
            owner = entry.get("node")
            extra = " ".join(f"{k}={v}" for k, v in sorted(info.items()))
            q = entry.get("query")
            lines.append(
                f"    [{entry.get('time', 0.0):10.3f}] "
                + (f"n{owner} " if owner is not None and node is None else "")
                + f"{entry.get('kind', '?'):<20}"
                + (f" q={q[0]}:{q[1]}" if q else "")
                + (f" {extra}" if extra else "")
            )
    causal = dump.get("causal", [])
    if causal:
        lines.append("  causal slice (issue -> trigger):")
        for event in causal:
            lines.append(
                f"    [{event.get('time', 0.0):10.3f}] "
                f"{event.get('kind', '?'):<8} cid={event.get('cid')} "
                f"node={event.get('node')}"
                + (f" {event['frame_kind']}" if event.get("frame_kind") else "")
                + (f" [{event['note']}]" if event.get("note") else "")
            )
    return "\n".join(lines)
