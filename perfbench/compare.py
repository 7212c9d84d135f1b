#!/usr/bin/env python3
"""Per-layer compare view: the delta of every metric between two saved
benchmark records.

    python3 perfbench/compare.py BEFORE.json AFTER.json

The records are the files ``perfbench/run.py`` writes under
``perfbench/results/`` (``<workload>-seed<n>-trace1.json`` for a traced
run).  Given two traced records it shows, layer by layer, where a change
saved or lost time, so a claimed gain can be located from files alone.
Records of different workloads are refused: their layers do different
work.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    with open(path) as handle:
        record = json.load(handle)
    if "metrics" not in record or "workload" not in record:
        raise ValueError(f"{path}: not a perfbench record")
    return record


def compare(before: dict, after: dict) -> list:
    """Rows ``(metric, unit, before, after, delta, delta_pct)``."""
    if before["workload"] != after["workload"]:
        raise ValueError(f"workloads differ: {before['workload']} vs "
                         f"{after['workload']}")
    rows = []
    for name, entry in before["metrics"].items():
        other = after["metrics"].get(name)
        if other is None:
            continue
        old, new = entry["value"], other["value"]
        pct = 100.0 * (new - old) / old if old else None
        rows.append((name, entry["unit"], old, new, new - old, pct))
    return rows


def render(before: dict, after: dict) -> str:
    lines = [f"workload {before['workload']}: seed {before['seed']} "
             f"(rev {before['provenance']['git_revision'][:12]}) -> "
             f"seed {after['seed']} "
             f"(rev {after['provenance']['git_revision'][:12]})",
             f"{'metric':<28} {'unit':<8} {'before':>12} {'after':>12} "
             f"{'delta':>12} {'delta%':>8}"]
    for name, unit, old, new, delta, pct in compare(before, after):
        pct_text = f"{pct:+.1f}" if pct is not None else "-"
        lines.append(f"{name:<28} {unit:<8} {old:>12.6g} {new:>12.6g} "
                     f"{delta:>+12.6g} {pct_text:>8}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        print(render(load(args[0]), load(args[1])))
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
