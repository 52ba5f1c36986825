"""Render the ``trace_smoke.txt`` telemetry snapshot from a trace tree.

Usage::

    PYTHONPATH=src python -m repro trace --scale smoke --obs telemetry/
    python benchmarks/trace_snapshot.py telemetry/ > trace_smoke.out
    diff trace_smoke.txt trace_smoke.out

One section per traced run, in path order: the run's ``summary.txt``
table, then every counter and gauge in its ``metrics.json``. Histograms
are left out because they hold wall time; everything kept is simulated,
so an unchanged program reproduces the snapshot byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def render(root: Path) -> str:
    """The snapshot text for every run bundle under ``root``."""
    lines = []
    for summary in sorted(root.rglob("summary.txt")):
        lines.append(f"=== {summary.parent.name} ===")
        lines.extend(summary.read_text().splitlines())
        lines.append("")
        with open(summary.parent / "metrics.json") as fh:
            instruments = json.load(fh)["instruments"]
        for name, value in sorted(instruments.items()):
            if not isinstance(value, dict):
                lines.append(f"{name} {value!r}")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("telemetry", type=Path,
                        help="directory written by `repro trace --obs`")
    args = parser.parse_args(argv)
    text = render(args.telemetry)
    if not text:
        print(f"no run bundles under {args.telemetry}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
