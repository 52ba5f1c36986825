#!/usr/bin/env python
"""Merged benchmark trend report.

Folds every committed benchmark document (``BENCH_obs.json``,
``BENCH_resilience.json``, ``BENCH_continuous.json``) into one flat
trend table, as markdown and JSON. The speedup summary
puts every suite's headline ratios side by side, so one glance answers
"did any fast path regress since the last run?".

A present ``BENCH_<suite>.json`` whose ``schema`` field does not match
the version this report knows how to read is a hard error (exit 1) —
a silently mis-parsed trend table is worse than no table.

Usage::

    python benchmarks/report.py                       # print markdown
    python benchmarks/report.py --json report.json
    python benchmarks/report.py --markdown report.md
    python benchmarks/report.py --dir path/to/bench/files
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPORT_SCHEMA = "bench_report/v1"

#: Known suites, in display order, with the schema version this report
#: understands. Missing files are skipped (the obs suite only exists
#: after ``benchmarks/obs_overhead.py`` has run); files with any other
#: schema version fail the run.
SUITE_SCHEMAS = {
    "obs": "bench_obs/v2",
    "resilience": "bench_resilience/v1",
    "continuous": "bench_continuous/v1",
}
#: Canonical display order. Every table and section is
#: rendered in this order, never alphabetically, so trend diffs stay
#: stable when suites come and go.
SUITES = tuple(SUITE_SCHEMAS)

#: Keys that are metadata, not measurements.
_META_KEYS = {"schema", "smoke"}


def flatten(doc: Dict, prefix: Tuple[str, ...] = ()) -> List[Tuple[str, float]]:
    """Flatten nested benchmark dicts to sorted ``(dotted.path, value)``."""
    rows: List[Tuple[str, float]] = []
    for key in sorted(doc, key=str):
        if not prefix and key in _META_KEYS:
            continue
        value = doc[key]
        if isinstance(value, dict):
            rows.extend(flatten(value, prefix + (str(key),)))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            rows.append((".".join(prefix + (str(key),)), float(value)))
    return rows


def load_suites(directory: Path) -> Dict[str, Dict]:
    """Read every ``BENCH_<suite>.json`` present in ``directory``.

    Raises:
        ValueError: If a present file carries an unknown ``schema``
            version (or none at all) — the trend table must never be
            built from a document this report cannot interpret.
    """
    suites = {}
    for suite in SUITES:
        path = directory / f"BENCH_{suite}.json"
        if not path.exists():
            continue
        with open(path) as handle:
            doc = json.load(handle)
        expected = SUITE_SCHEMAS[suite]
        found = doc.get("schema")
        if found != expected:
            raise ValueError(
                f"{path.name}: unknown schema version {found!r} "
                f"(this report reads {expected!r})"
            )
        suites[suite] = doc
    return suites


def build_report(suites: Dict[str, Dict]) -> Dict:
    """The merged JSON document: per-suite flat rows + speedup summary."""
    tables = {name: dict(flatten(doc)) for name, doc in suites.items()}
    speedups = {
        f"{suite}.{path}": value
        for suite, rows in tables.items()
        for path, value in rows.items()
        if path.rsplit(".", 1)[-1] in (
            "speedup", "wall_speedup", "overhead_ratio",
            "speedup_vs_legacy", "speedup_vs_incremental", "lookup_speedup",
        )
    }
    return {
        "schema": REPORT_SCHEMA,
        "suites": {
            name: {
                "schema": suites[name].get("schema"),
                "smoke": bool(doc.get("smoke", False)),
                "rows": tables[name],
            }
            for name, doc in suites.items()
        },
        "speedups": speedups,
    }


def _suite_order(report: Dict) -> List[str]:
    """Present suites in canonical :data:`SUITES` order (unknown names,
    which only a hand-edited report can contain, sort last)."""
    known = {name: i for i, name in enumerate(SUITES)}
    return sorted(
        report["suites"], key=lambda name: (known.get(name, len(known)), name)
    )


def render_markdown(report: Dict) -> str:
    """Human-facing trend tables, suites in canonical order."""
    order = _suite_order(report)
    lines = ["# Benchmark trend report", ""]
    if order:
        lines += [
            "## Suites",
            "",
            "| suite | schema | mode | metrics |",
            "| --- | --- | --- | ---: |",
        ]
        for suite in order:
            body = report["suites"][suite]
            lines.append(
                f"| {suite} | `{body.get('schema') or '?'}` | "
                f"{'smoke' if body['smoke'] else 'full'} | "
                f"{len(body['rows'])} |"
            )
        lines.append("")
    speedups = report["speedups"]
    if speedups:
        lines += [
            "## Speedups and ratios",
            "",
            "| metric | ratio |",
            "| --- | ---: |",
        ]
        lines += [
            f"| `{name}` | {value:.3f} |" for name, value in sorted(speedups.items())
        ]
        lines.append("")
    for suite in order:
        body = report["suites"][suite]
        smoke = " (smoke)" if body["smoke"] else ""
        lines += [f"## {suite}{smoke}", "", "| metric | value |", "| --- | ---: |"]
        lines += [
            f"| `{path}` | {value:.6g} |"
            for path, value in sorted(body["rows"].items())
        ]
        lines.append("")
    if not report["suites"]:
        lines.append("_No BENCH_*.json files found._")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir", default=".", metavar="DIR",
        help="directory holding the BENCH_*.json files (default: .)",
    )
    parser.add_argument("--json", metavar="FILE", help="write the merged JSON here")
    parser.add_argument("--markdown", metavar="FILE", help="write markdown here")
    args = parser.parse_args(argv)

    try:
        suites = load_suites(Path(args.dir))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not suites:
        print(f"no BENCH_*.json files under {args.dir}", file=sys.stderr)
        return 1
    report = build_report(suites)
    markdown = render_markdown(report)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(markdown + "\n")
        print(f"wrote {args.markdown}")
    if not args.json and not args.markdown:
        print(markdown)
    return 0


if __name__ == "__main__":
    sys.exit(main())
