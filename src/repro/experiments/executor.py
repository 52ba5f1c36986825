"""Parallel experiment executor and the persistent run cache.

The figure sweeps of Section 5 are grids of independent
:class:`~repro.experiments.manet_common.ManetPoint` simulations — each
point is fully determined by its identity plus the experiment scale, so
they can fan out across a process pool and be recalled from disk across
invocations:

* :func:`run_points` maps a grid of points over a spawn-safe
  ``multiprocessing`` pool (``workers=1`` is the serial reference path —
  a plain in-process loop, no pool), filling the run cache so the
  subsequent figure assembly is pure lookups. Per-point seeds are fixed
  by the point identity, so serial and parallel execution produce
  bit-identical metrics (``tests/test_fast_path_parity.py`` pins this).
* :class:`RunCache` persists one JSON document per computed point,
  keyed on the point, the scale, and :data:`CACHE_SCHEMA` — bump that
  version string whenever a change alters simulation semantics, and
  every stale entry misses automatically.

Configuration:

* ``REPRO_WORKERS`` — default worker count (falls back to the CPU
  count; ``1`` forces serial; anything but a positive integer raises
  ``ValueError``).
* ``REPRO_CACHE_DIR`` — run-cache directory (default ``.repro_cache``
  in the working directory; ``off`` / ``none`` / ``0`` / empty disables
  disk persistence entirely).

Because the pool uses the ``spawn`` start method, scripts that call
:func:`run_points` (directly or via a figure function) at module level
need the standard ``if __name__ == "__main__":`` guard; ``pytest`` and
the ``repro-skyline`` CLI already satisfy this.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..metrics.collector import RunMetrics
from ..metrics.messages import MessageCounts
from .config import ExperimentScale
from .manet_common import ManetPoint

__all__ = [
    "CACHE_SCHEMA",
    "RunCache",
    "cache_root",
    "configure",
    "default_cache",
    "resolve_workers",
    "run_points",
]

#: Code-schema version of cached run documents. Bump on ANY change that
#: can alter simulation output (protocol semantics, RNG consumption,
#: metric definitions) — old entries then miss and are recomputed.
CACHE_SCHEMA = "manet-run/v2"

_WORKERS_ENV = "REPRO_WORKERS"
_CACHE_ENV = "REPRO_CACHE_DIR"
_DISABLED = ("", "off", "none", "0")

#: Process-wide overrides set by :func:`configure` (CLI flags beat env).
_workers_override: Optional[int] = None
_cache_override: Optional[str] = None
_cache_instance: Optional["RunCache"] = None
_cache_instance_root: Optional[str] = None


def configure(
    workers: Optional[int] = None, cache_dir: Optional[str] = None
) -> None:
    """Set process-wide executor defaults (used by the CLI flags).

    Args:
        workers: Default worker count; ``None`` leaves the current
            setting untouched.
        cache_dir: Run-cache directory; ``"off"`` disables disk
            persistence; ``None`` leaves the current setting untouched.
    """
    global _workers_override, _cache_override
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        _workers_override = workers
    if cache_dir is not None:
        _cache_override = cache_dir


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit > configure() > env > CPU count."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        return workers
    if _workers_override is not None:
        return _workers_override
    env = os.environ.get(_WORKERS_ENV)
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(
                f"{_WORKERS_ENV}={env!r} is not a positive integer"
            )
        return workers
    return os.cpu_count() or 1


def cache_root() -> Optional[Path]:
    """Effective cache directory, or ``None`` when disk caching is off."""
    raw = (
        _cache_override
        if _cache_override is not None
        else os.environ.get(_CACHE_ENV)
    )
    if raw is None:
        return Path(".repro_cache")
    if raw.strip().lower() in _DISABLED:
        return None
    return Path(raw)


def default_cache() -> Optional["RunCache"]:
    """The process-wide :class:`RunCache` for the current cache root."""
    global _cache_instance, _cache_instance_root
    root = cache_root()
    if root is None:
        _cache_instance = None
        _cache_instance_root = None
        return None
    key = str(root)
    if _cache_instance is None or _cache_instance_root != key:
        _cache_instance = RunCache(root)
        _cache_instance_root = key
    return _cache_instance


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------


def _metrics_to_doc(metrics: RunMetrics) -> dict:
    return dataclasses.asdict(metrics)


def _metrics_from_doc(doc: dict) -> RunMetrics:
    fields = dict(doc)
    fields["messages"] = MessageCounts(**fields["messages"])
    return RunMetrics(**fields)


class RunCache:
    """One-JSON-file-per-run persistent cache.

    Keys are a SHA-256 over ``(CACHE_SCHEMA, point, scale)``; the stored
    document carries the full key material so a hash collision (or a
    hand-edited file) is detected on read instead of silently served.
    Writes are atomic (temp file + ``os.replace``), so concurrent
    writers — e.g. two figure runs racing on one grid point — at worst
    both compute; they never corrupt an entry.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    @staticmethod
    def _key_material(point: ManetPoint, scale: ExperimentScale) -> dict:
        material = {
            "schema": CACHE_SCHEMA,
            "point": dataclasses.asdict(point),
            "scale": dataclasses.asdict(scale),
        }
        # Canonicalize through JSON so the in-memory form matches what a
        # stored document reads back (tuples become lists); otherwise the
        # key check on read would never pass.
        return json.loads(json.dumps(material))

    def _path(self, point: ManetPoint, scale: ExperimentScale) -> Path:
        material = json.dumps(self._key_material(point, scale), sort_keys=True)
        digest = hashlib.sha256(material.encode()).hexdigest()[:32]
        return self.root / f"run-{digest}.json"

    def get(
        self, point: ManetPoint, scale: ExperimentScale
    ) -> Optional[RunMetrics]:
        """The cached metrics for ``point``, or ``None`` on a miss."""
        path = self._path(point, scale)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if doc.get("key") != self._key_material(point, scale):
            return None
        try:
            return _metrics_from_doc(doc["metrics"])
        except (KeyError, TypeError):
            return None

    def put(
        self, point: ManetPoint, scale: ExperimentScale, metrics: RunMetrics
    ) -> None:
        """Persist ``metrics`` for ``point`` (atomic replace)."""
        path = self._path(point, scale)
        self.root.mkdir(parents=True, exist_ok=True)
        doc = {
            "key": self._key_material(point, scale),
            "metrics": _metrics_to_doc(metrics),
        }
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every cached run under this root; returns the count."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.glob("run-*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


# ---------------------------------------------------------------------------
# Parallel fan-out
# ---------------------------------------------------------------------------


def _worker(
    args: Tuple[ManetPoint, ExperimentScale],
) -> Tuple[ManetPoint, RunMetrics]:
    """Pool entry point: compute one point, no cache interaction.

    Runs in a spawned child process; the parent owns both cache layers
    and persists whatever comes back.
    """
    from .manet_common import compute_manet_point

    point, scale = args
    return point, compute_manet_point(point, scale)


def run_points(
    points: Iterable[ManetPoint],
    scale: ExperimentScale,
    workers: Optional[int] = None,
) -> Dict[ManetPoint, RunMetrics]:
    """Ensure every point is computed and cached; return all metrics.

    Cached points (memory or disk) are never re-run. With more than one
    uncached point and ``workers > 1``, the remainder fans out over a
    ``spawn`` pool; per-point determinism makes the result identical to
    the serial reference path. If the pool cannot be created (restricted
    environments), the executor silently falls back to serial.
    """
    from .manet_common import run_manet_point

    ordered: List[ManetPoint] = []
    seen = set()
    for point in points:
        if point not in seen:
            seen.add(point)
            ordered.append(point)

    workers = resolve_workers(workers)
    if workers > 1:
        todo = [p for p in ordered if not _is_cached(p, scale)]
        if len(todo) > 1:
            _fan_out(todo, scale, workers)
    # Serial reference path — and the collection pass after a fan-out
    # (every point then hits a cache layer).
    return {point: run_manet_point(point, scale) for point in ordered}


def _is_cached(point: ManetPoint, scale: ExperimentScale) -> bool:
    from .manet_common import _RUN_CACHE

    if point in _RUN_CACHE:
        return True
    disk = default_cache()
    return disk is not None and disk.get(point, scale) is not None


def _spawn_safe() -> bool:
    """Whether ``spawn`` children can re-import ``__main__``.

    The spawn bootstrap re-runs the parent's main module by path; when
    the program came from stdin or an interactive prompt (``__file__``
    missing or not a real file) every worker would crash on startup and
    the pool would respawn them forever. Detect that up front and stay
    serial instead.
    """
    import sys

    main = sys.modules.get("__main__")
    if main is None:
        return False
    file = getattr(main, "__file__", None)
    if file is None:
        # Interactive / -c execution: spawn skips the main re-import.
        return True
    return os.path.isfile(file)


def _fan_out(
    todo: Sequence[ManetPoint], scale: ExperimentScale, workers: int
) -> None:
    import multiprocessing as mp

    from .manet_common import store_run

    if not _spawn_safe():
        return
    try:
        ctx = mp.get_context("spawn")
        with ctx.Pool(processes=min(workers, len(todo))) as pool:
            for point, metrics in pool.imap_unordered(
                _worker, [(p, scale) for p in todo]
            ):
                store_run(point, scale, metrics)
    except (OSError, ValueError, ImportError):
        # Pool creation failed (sandboxed environment, missing
        # semaphores, ...): the serial collection pass in run_points
        # computes whatever is still missing.
        pass
