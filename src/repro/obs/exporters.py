"""Trace exporters: JSONL, Chrome trace-event (Perfetto), text summary.

Three read-side views over one :class:`~repro.obs.observer.Observer`:

* :func:`export_jsonl` — one JSON object per span/event, the archival
  format sweeps drop next to their cached results.
* :func:`export_chrome_trace` — the Chrome trace-event JSON object
  format (loadable in ``ui.perfetto.dev`` or ``chrome://tracing``):
  complete events (``ph: "X"``) for spans, instant events (``ph: "i"``)
  for milestones, with simulation microseconds on the timeline, one
  track (tid) per device, and query keys in ``args``.
* :func:`query_summary` — the per-query text table a human reads first:
  issue/completion times, contributions, frames and bytes attributed to
  the query, and every fault overlapping its lifetime.

:func:`validate_chrome_trace` checks an exported document against the
trace-event schema (required keys, types, monotone-positive durations);
the CI obs smoke job gates on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Tuple, Union

from .flight import _jsonify
from .observer import EventRecord, Observer, SpanRecord

__all__ = [
    "SpanNode",
    "build_query_trees",
    "export_jsonl",
    "export_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "query_summary",
]

QueryKey = Tuple[int, int]


# ---------------------------------------------------------------------------
# Span trees
# ---------------------------------------------------------------------------


@dataclass
class SpanNode:
    """One span plus its children — the materialized tree view."""

    span: SpanRecord
    children: List["SpanNode"] = field(default_factory=list)
    events: List[EventRecord] = field(default_factory=list)

    def walk(self):
        """Depth-first iteration over this node and every descendant."""
        yield self
        for child in self.children:
            yield from child.walk()



def build_query_trees(observer: Observer) -> Dict[QueryKey, SpanNode]:
    """Assemble one span tree per observed query.

    Roots are ``query`` spans; children attach via their recorded
    parent sid, falling back to the query root for spans that carry a
    query key but no explicit parent. Instant events attach to the root
    of their query's tree.
    """
    nodes: Dict[int, SpanNode] = {s.sid: SpanNode(s) for s in observer.spans}
    trees: Dict[QueryKey, SpanNode] = {}
    for span in observer.spans:
        if span.name == "query" and span.query is not None:
            trees.setdefault(span.query, nodes[span.sid])
    for span in observer.spans:
        if span.name == "query":
            continue
        node = nodes[span.sid]
        parent = nodes.get(span.parent) if span.parent is not None else None
        if parent is None and span.query is not None:
            parent = trees.get(span.query)
        if parent is not None:
            parent.children.append(node)
    # Events recorded under a re-issued DF key carry the alias key; the
    # observer's root map points those at the root query's span.
    roots = getattr(observer, "_query_roots", {})
    for event in observer.events:
        if event.query is None:
            continue
        tree = trees.get(event.query)
        if tree is None:
            sid = roots.get(event.query)
            if sid is not None and sid in nodes:
                tree = nodes[sid]
        if tree is not None:
            tree.events.append(event)
    return trees


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


def export_jsonl(observer: Observer, fp: Union[str, IO[str]]) -> int:
    """Dump every span and event as JSON lines; returns the line count.

    Spans come first (open order), then events (record order); each line
    carries a ``rec`` discriminator (``span`` / ``event``).
    """
    own = isinstance(fp, str)
    handle = open(fp, "w") if own else fp
    count = 0
    try:
        for span in observer.spans:
            handle.write(json.dumps({
                "rec": "span",
                "sid": span.sid,
                "parent": span.parent,
                "name": span.name,
                "cat": span.cat,
                "query": list(span.query) if span.query else None,
                "node": span.node,
                "t0": span.t0,
                "t1": span.t1,
                "wall_s": span.wall_duration,
                "attrs": _jsonify(span.attrs),
            }, sort_keys=True))
            handle.write("\n")
            count += 1
        for event in observer.events:
            handle.write(json.dumps({
                "rec": "event",
                "name": event.name,
                "time": event.time,
                "query": list(event.query) if event.query else None,
                "node": event.node,
                "attrs": _jsonify(event.attrs),
            }, sort_keys=True))
            handle.write("\n")
            count += 1
    finally:
        if own:
            handle.close()
    return count


# ---------------------------------------------------------------------------
# Chrome trace-event / Perfetto JSON
# ---------------------------------------------------------------------------

_US = 1_000_000.0  # trace-event timestamps are microseconds


def export_chrome_trace(observer: Observer) -> Dict[str, Any]:
    """Build a Chrome trace-event JSON document from an observer.

    The timeline is *simulation* time in microseconds; each device gets
    its own track (tid = node id + 1; tid 0 is the world track for
    node-less records). Span wall time rides along in ``args.wall_us``.
    """
    events: List[Dict[str, Any]] = []
    tids = set()

    def tid_of(node: Optional[int]) -> int:
        tid = 0 if node is None else node + 1
        tids.add(tid)
        return tid

    for span in observer.spans:
        t1 = span.t1 if span.t1 is not None else span.t0
        args = {"sid": span.sid}
        if span.query is not None:
            args["query"] = f"{span.query[0]}:{span.query[1]}"
        if span.wall_duration is not None:
            args["wall_us"] = span.wall_duration * _US
        args.update(_jsonify(span.attrs))
        events.append({
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": span.t0 * _US,
            "dur": max(0.0, (t1 - span.t0) * _US),
            "pid": 0,
            "tid": tid_of(span.node),
            "args": args,
        })
    for event in observer.events:
        args = {}
        if event.query is not None:
            args["query"] = f"{event.query[0]}:{event.query[1]}"
        args.update(_jsonify(event.attrs))
        events.append({
            "name": event.name,
            "cat": "event",
            "ph": "i",
            "s": "t",
            "ts": event.time * _US,
            "pid": 0,
            "tid": tid_of(event.node),
            "args": args,
        })
    for tid in sorted(tids):
        name = "world" if tid == 0 else f"device {tid - 1}"
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": name},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(observer: Observer, path: str) -> None:
    """Export and write the trace-event document to ``path``."""
    with open(path, "w") as handle:
        json.dump(export_chrome_trace(observer), handle)
        handle.write("\n")


_PHASES = {"X", "i", "I", "M", "B", "E", "b", "e", "n", "C"}


def validate_chrome_trace(doc: Any) -> List[str]:
    """Validate a trace-event document; returns a list of violations
    (empty = valid). Checked: top-level shape, required per-event keys,
    numeric non-negative ``ts``/``dur``, known phase codes.

    A document with an empty ``traceEvents`` list is *valid*: a run
    that observed no spans (no queries issued, observer bound too
    late) still exports a well-formed trace that Perfetto loads —
    whether an empty run deserves a warning is the caller's call
    (the ``repro trace`` command warns and exits nonzero)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list traceEvents"]
    if not events:
        return problems  # explicitly valid: the empty trace
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing name")
        if ph == "M":
            continue  # metadata events carry no timestamp
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
        if "pid" not in event or "tid" not in event:
            problems.append(f"{where}: missing pid/tid")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
    return problems


# ---------------------------------------------------------------------------
# Text summary
# ---------------------------------------------------------------------------


def query_summary(observer: Observer) -> str:
    """Per-query lifecycle table, one row per root query span.

    Columns: query key, originating node, issue time, completion time
    (``-`` if the completion condition never fired), response seconds,
    devices merged, protocol frames and bytes attributed to the query,
    and the fault transitions overlapping its open interval.
    """
    trees = build_query_trees(observer)
    header = (
        f"{'query':>9} {'origin':>6} {'issue':>10} {'complete':>10} "
        f"{'resp_s':>8} {'merged':>6} {'frames':>6} {'bytes':>9}  faults"
    )
    lines = [header, "-" * len(header)]
    for key in observer.query_keys():
        tree = trees.get(key)
        if tree is None:
            continue
        root = tree.span
        completion = root.attrs.get("completion_time")
        response = None if completion is None else completion - root.t0
        merged = sum(1 for e in tree.events if e.name == "result.merged")
        frames = 0
        traffic_bytes = 0
        for node in tree.walk():
            if node.span.name == "hop":
                frames += 1
                traffic_bytes += node.span.attrs.get("bytes", 0)
        for event in tree.events:
            if event.name == "frame.broadcast":
                frames += 1
                traffic_bytes += event.attrs.get("bytes", 0)
        t1 = root.t1 if root.t1 is not None else float("inf")
        faults = observer.faults_during(root.t0, t1)
        fault_note = ",".join(sorted({f.name for f in faults})) or "-"
        if root.attrs.get("aborted_by_crash"):
            fault_note += " [aborted]"
        lines.append(
            f"{key[0]}:{key[1]:<7} {root.node:>6} {root.t0:>10.2f} "
            + (f"{completion:>10.2f} " if completion is not None
               else f"{'-':>10} ")
            + (f"{response:>8.3f} " if response is not None else f"{'-':>8} ")
            + f"{merged:>6} {frames:>6} {traffic_bytes:>9}  {fault_note}"
        )
    if len(lines) == 2:
        lines.append("(no queries observed)")
    return "\n".join(lines)
