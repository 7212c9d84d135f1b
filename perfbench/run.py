#!/usr/bin/env python3
"""The repository benchmark: one workload, its checks and its metrics.

    python3 perfbench/run.py --workload spec-exec --seed 1 --seconds 20 \\
        --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``spec-exec`` - the 14 SPEC-profile kernels at LFI O2 under the
  superblock engine and the apple-m1 cost model; only
  ``Runtime.run_until_exit`` is timed;
* ``compile-verify`` - seeded generated programs from assembly text to a
  verified, spawned sandbox, and the refusal of their unrewritten builds;
* ``serve-mix`` - the serving gateway, 2 in-process lanes, ~2x overload
  from three tenants, one seeded lane crash.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is the
separate traced run that prints the per-layer metrics and writes a
Chrome trace.  Every run writes its full record (metrics, workload-named
figures, host provenance, failures) under ``perfbench/results/``;
``perfbench/compare.py`` diffs two such records.  The last line of
standard output is the JSON summary.  Exit status is 0 whenever a
result is printed (``correct`` says whether the checks passed) and 2 when
the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("spec-exec", "compile-verify", "serve-mix")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for at least this long (wall time)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.bench import run

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    prov = record["provenance"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} units={record['units']} "
          f"samples={record['samples']}")
    print(f"host: python {prov['python']} nproc={prov['nproc']} "
          f"rev={prov['git_revision'][:12]} "
          f"load {prov['load_avg_start']} -> {prov['load_avg_end']} "
          f"reference-loop slowdown {prov['reference_slowdown']:.2f}")
    for name, entry in record.get("named", {}).items():
        print(f"  {name:<28} {entry['value']:.6g} {entry['unit']}")
    for name, entry in record["metrics"].items():
        print(f"  {name:<28} {entry['value']:.6g} {entry['unit']}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
