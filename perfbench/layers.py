"""Per-layer self-time tracing for the benchmark's traced run.

A layer is a module of ``repro``. :class:`Tracer` installs timing
wrappers around the public entry points of each module in
:data:`LAYERS` (constructors and public methods of the listed classes,
the listed module functions) and around every callback the event engine schedules, so a
fired event is charged to the layer of the module that defined the
callback (the world's delivery callbacks count as ``world``, a device's
scheduled continuation as ``protocol``) and the engine keeps only its
own heap work. Nothing under ``src/`` changes: the wrappers replace
attributes of the live classes and module namespaces, and
:meth:`Tracer.uninstall` puts the originals back.

Self time is a call's duration minus the time its wrapped children
took, kept with a stack of open calls. A span (id, parent span, op,
layer, name, start, end) is recorded each time a call crosses into a
different layer; spans stay in memory up to :data:`SPAN_CAP` and the
caller writes them out when the run ends. Wrappers record only while
:attr:`Tracer.active` is set, so work the benchmark does between ops is
charged to no layer. Time inside an op that no wrapper covers, and
callbacks from modules outside :data:`LAYERS`, go to ``other``;
``attributed_share`` is the named layers' share of the op walls.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Optional

#: ``(layer, module, classes whose public methods are wrapped, module
#: functions wrapped)``. A module maps to exactly one layer; the
#: ``(id, cnt)`` query log of ``repro.core.query`` is protocol state.
LAYERS = (
    ("engine", "repro.net.engine", ("Simulator",), ()),
    ("world", "repro.net.world", ("World",), ()),
    ("mobility", "repro.net.mobility", ("RandomWaypoint", "StaticPlacement"), ()),
    ("spatial_index", "repro.net.spatial_index", ("NeighborIndex",), ()),
    ("aodv", "repro.net.aodv", ("AodvRouter",), ()),
    ("node", "repro.net.node", ("Node",), ()),
    ("protocol", "repro.protocol.device", ("SkylineDevice", "BFDevice", "DFDevice"), ()),
    ("protocol", "repro.core.query", ("QueryLog",), ()),
    ("local", "repro.core.local", ("LocalResultCache",),
     ("local_skyline", "local_skyline_vectorized")),
    ("assembly", "repro.core.assembly", ("SkylineAssembler",),
     ("merge_skylines", "merge_tree")),
    ("continuous", "repro.continuous.device", ("ContinuousDevice",), ()),
    ("continuous", "repro.continuous.subscription", ("SubscriptionRecord",),
     ("apply_delta",)),
    ("continuous", "repro.continuous.safe_region", ("SafeRegion",),
     ("relation_rows", "min_distance_to_mbr")),
    ("updates", "repro.faults.updates", ("UpdateInjector", "DataUpdateSchedule"),
     ("perturb_relation",)),
    ("data", "repro.data.partition", (), ("make_global_dataset",)),
)

#: Public properties whose getters do real work (``World.node_ids``
#: sorts every attached id) and so are wrapped like methods. Other
#: properties are plain field reads and stay unwrapped.
PROPERTIES = {"World": ("node_ids", "down_nodes")}

#: Callbacks from modules outside :data:`LAYERS` fall back to the layer
#: of their package; anything else is ``other``.
PACKAGE_LAYERS = {"repro.protocol": "protocol", "repro.continuous": "continuous"}

#: Spans kept in memory per traced run; later ones are only counted.
SPAN_CAP = 50_000

NAMED_LAYERS = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))
_MODULE_LAYER = {module: layer for layer, module, *_ in LAYERS}


def layer_of_module(module: Optional[str]) -> str:
    """The layer a callback defined in ``module`` is charged to."""
    if module in _MODULE_LAYER:
        return _MODULE_LAYER[module]
    for prefix, layer in PACKAGE_LAYERS.items():
        if module is not None and module.startswith(prefix + "."):
            return layer
    return "other"


class Tracer:
    """Self time, call counts and boundary spans of the wrapped layers.

    Args:
        clock: Time source (tests substitute a fake).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.layer_calls: Counter = Counter()
        self.calls: Counter = Counter()
        #: Counters the :data:`OBSERVERS` derive from calls and results.
        self.counts: Counter = Counter()
        self.spans: list = []
        self.dropped_spans = 0
        #: Wrappers record only while this is set.
        self.active = False
        #: Stamped on every span recorded while set: the op's index.
        self.op: Optional[int] = None
        self._stack: list = []
        self._next_span = 0
        self._restore: list = []
        self._covered = 0.0

    # -- accounting -----------------------------------------------------------

    def timed(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to charge its self time to ``layer``."""
        stack = self._stack
        clock = self.clock
        self_s = self.self_s
        tracer = self
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            boundary = parent is None or parent[1] != layer
            if boundary:
                span_id = tracer._next_span
                tracer._next_span += 1
            else:
                span_id = parent[2]
            frame = [0.0, layer, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                self_s[layer] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                else:
                    tracer._covered += elapsed
                tracer.calls[name] += 1
                tracer.layer_calls[layer] += 1
                if boundary:
                    tracer._span(span_id, parent[2] if parent else None,
                                 layer, name, t0, t1)
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        wrapper._perfbench_layer = layer
        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, span_id, parent, layer, name, t0, t1) -> None:
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, self.op, layer, name, t0, t1))
        else:
            self.dropped_spans += 1

    def end_op(self, wall_s: float) -> None:
        """Charge the part of an op's wall time that no wrapper covered
        to ``other``, so every second of the op lands in some layer."""
        self.self_s["other"] += max(0.0, wall_s - self._covered)
        self._covered = 0.0

    def event_callback(self, callback: Callable) -> Callable:
        """Wrap a callback handed to the engine so that the event's time
        goes to the layer of the module that defined the callback."""
        func = getattr(callback, "__func__", callback)
        if getattr(func, "_perfbench_layer", None) is not None:
            return callback
        module = getattr(func, "__module__", None)
        name = getattr(func, "__qualname__", type(func).__name__)
        return self.timed(layer_of_module(module), name, callback)

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every entry point in :data:`LAYERS`."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer, module_name, classes, functions in LAYERS:
            module = importlib.import_module(module_name)
            for cls_name in classes:
                self._wrap_class(layer, getattr(module, cls_name))
            for fn_name in functions:
                self._wrap_function(layer, getattr(module, fn_name), fn_name)
        self._wrap_scheduling()
        return self

    def uninstall(self) -> None:
        """Put every original attribute back."""
        self.active = False
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, layer: str, cls: type) -> None:
        props = PROPERTIES.get(cls.__name__, ())
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(value, staticmethod):
                new = staticmethod(self.timed(layer, name, value.__func__))
            elif isinstance(value, classmethod):
                new = classmethod(self.timed(layer, name, value.__func__))
            elif isinstance(value, property):
                if attr not in props:
                    continue
                new = property(self.timed(layer, name, value.fget),
                               value.fset, value.fdel, value.__doc__)
            elif inspect.isfunction(value):
                new = self.timed(layer, name, value)
            else:
                continue
            self._replace(cls, attr, new)

    def _wrap_function(self, layer: str, original: Callable, name: str) -> None:
        """Replace ``original`` in every loaded ``repro`` module that bound
        it by name (``from x import f`` copies the reference)."""
        wrapper = self.timed(layer, name, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapper)

    def _wrap_scheduling(self) -> None:
        """Make ``Simulator.schedule`` hand the engine traced callbacks
        (``schedule_at`` delegates to it)."""
        from repro.net.engine import Simulator

        timed_schedule = Simulator.schedule
        tracer = self

        def schedule(sim, delay, callback, *args):
            if tracer.active:
                callback = tracer.event_callback(callback)
            return timed_schedule(sim, delay, callback, *args)

        schedule._perfbench_layer = "engine"
        self._replace(Simulator, "schedule", schedule)

    # -- results --------------------------------------------------------------

    def attributed_s(self) -> float:
        """Self time charged to the named layers."""
        return sum(self.self_s.get(layer, 0.0) for layer in NAMED_LAYERS)

    def calls_matching(self, suffix: str) -> int:
        """Calls of every wrapped name ending with ``suffix``."""
        return sum(n for name, n in self.calls.items() if name.endswith(suffix))


# -- per-layer metrics ------------------------------------------------------------


def _local_eval(counts, args, result) -> None:
    counts["local.in_range"] += result.in_range
    counts["local.kept"] += result.reduced_size


def _cache_get(counts, args, result) -> None:
    counts["local.cache_hits" if result is not None else "local.cache_misses"] += 1


def _log_check(counts, args, result) -> None:
    counts["protocol.log_checks"] += 1
    counts["protocol.log_dups"] += not result


def _delta_accepted(counts, args, result) -> None:
    counts["continuous.deltas"] += bool(result)


#: Counters derived from the arguments and results of wrapped calls,
#: keyed by wrapped name.
OBSERVERS = {
    "local_skyline": _local_eval,
    "local_skyline_vectorized": _local_eval,
    "LocalResultCache.get": _cache_get,
    "QueryLog.check_and_record": _log_check,
    "SubscriptionRecord.accept_delta": _delta_accepted,
}

#: Per-layer metric -> unit. Times and counts are per timed op.
PER_LAYER = {
    "engine.events": "1/op",
    "engine.dispatch_s": "s/op",
    "world.self_s": "s/op",
    "world.transmissions": "1/op",
    "world.deliveries": "1/op",
    "world.drops": "1/op",
    "mobility.self_s": "s/op",
    "mobility.calls": "1/op",
    "spatial_index.self_s": "s/op",
    "spatial_index.rebuilds": "1/op",
    "aodv.self_s": "s/op",
    "aodv.control_frames": "1/op",
    "aodv.routed_frames": "1/op",
    "node.self_s": "s/op",
    "protocol.self_s": "s/op",
    "protocol.handler_calls": "1/op",
    "protocol.dup_share": "ratio",
    "local.self_s": "s/op",
    "local.calls": "1/op",
    "local.cache_hit_rate": "ratio",
    "local.kept_share": "ratio",
    "assembly.self_s": "s/op",
    "assembly.merges": "1/op",
    "assembly.kept_share": "ratio",
    "drr": "ratio",
    "continuous.self_s": "s/op",
    "continuous.deltas": "1/op",
    "continuous.epochs": "1/op",
    "updates.applied": "1/op",
    "updates.self_s": "s/op",
    "data.self_s": "s/op",
    "other.self_s": "s/op",
    "oracle_s": "s",
    "attributed_share": "ratio",
    "trace_overhead": "ratio",
    "host.calib_ms": "ms",
    "host.scale": "ratio",
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, ops: list, oracle_s: float,
                  trace_overhead: float, calib_ms: float,
                  host_scale: float, drr: float) -> Dict[str, float]:
    """The :data:`PER_LAYER` values of a traced phase over ``ops``."""
    n = len(ops)
    total: Counter = Counter()
    for op in ops:
        total.update(op.counters)
    counts, calls = tracer.counts, tracer.calls
    values = {f"{layer}.self_s": tracer.self_s.get(layer, 0.0) / n
              for layer in NAMED_LAYERS}
    values.update({
        "other.self_s": tracer.self_s.get("other", 0.0) / n,
        "engine.events": total["events"] / n,
        "engine.dispatch_s": tracer.self_s.get("engine", 0.0) / n,
        "world.transmissions": total["transmissions"] / n,
        "world.deliveries": total["deliveries"] / n,
        "world.drops": total["drops"] / n,
        "mobility.calls": tracer.layer_calls["mobility"] / n,
        "spatial_index.rebuilds": total["rebuilds"] / n,
        "aodv.control_frames": total["control_frames"] / n,
        "aodv.routed_frames": total["routed_frames"] / n,
        "protocol.handler_calls": (tracer.calls_matching(".on_protocol_frame")
                                   + tracer.calls_matching(".on_data")) / n,
        "protocol.dup_share": _share(counts["protocol.log_dups"],
                                     counts["protocol.log_checks"]),
        "local.calls": (calls["local_skyline"]
                        + calls["local_skyline_vectorized"]) / n,
        "local.cache_hit_rate": _share(
            counts["local.cache_hits"],
            counts["local.cache_hits"] + counts["local.cache_misses"]),
        "local.kept_share": _share(counts["local.kept"], counts["local.in_range"]),
        "assembly.merges": (calls["SkylineAssembler.add"]
                            + calls["merge_skylines"]) / n,
        "assembly.kept_share": _share(total["assembly_kept"],
                                      total["assembly_fed"]),
        "drr": drr,
        "continuous.deltas": counts["continuous.deltas"] / n,
        "continuous.epochs": total["epochs"] / n,
        "updates.applied": calls["perturb_relation"] / n,
        "oracle_s": oracle_s,
        "attributed_share": _share(tracer.attributed_s(),
                                   sum(op.wall_s for op in ops)),
        "trace_overhead": trace_overhead,
        "host.calib_ms": calib_ms,
        "host.scale": host_scale,
    })
    return {name: values[name] for name in PER_LAYER}
