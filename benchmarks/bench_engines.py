"""Stepping vs superblock engine: wall-clock speedup + equivalence gate.

Runs every Table-4 workload (the WASM_SUBSET kernels) under the stepping
interpreter and the superblock engine (DESIGN.md §10) and reports, per
workload:

* host wall-clock seconds for each engine (best of ``--repeat``);
* the speedup ratio (stepping / superblock);
* the *emulated* LFI-vs-native overhead percentage, which must come out
  bit-identical under both engines — the architectural-equivalence gate.

Usable three ways: as a script producing ``BENCH_PR4.json`` (the CI
``bench-smoke`` job and the committed snapshot), as a pytest module (the
equivalence assertions), and from ``python -m benchmarks.bench_engines``.
"""

from __future__ import annotations

import argparse
import json
import math
import time

from repro import EngineConfig
from repro.core import O2
from repro.emulator import APPLE_M1
from repro.perf import geomean, lfi_variant, native_variant, run_variant
from repro.workloads import WASM_SUBSET
from repro.workloads.spec import arena_bss_size, build_benchmark

ENGINES = ("stepping", "superblock")


def _timed_run(asm, bss, variant, engine, repeat):
    """(best wall-clock seconds, RunMetrics) over ``repeat`` runs."""
    best = math.inf
    metrics = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        m = run_variant(asm, bss, variant, APPLE_M1,
                        engine=EngineConfig(kind=engine))
        best = min(best, time.perf_counter() - t0)
        if metrics is not None:
            # Architectural equivalence across repeats of one engine.
            assert (m.instructions, m.cycles) \
                == (metrics.instructions, metrics.cycles)
        metrics = m
    return best, metrics


def measure_engines(names=None, target: int = 60_000, repeat: int = 2):
    """The full comparison table; raises if the engines ever disagree."""
    names = sorted(names or WASM_SUBSET)
    lfi = lfi_variant(O2, "LFI O2")
    native = native_variant()
    workloads = {}
    for name in names:
        asm = build_benchmark(name, target_instructions=target)
        bss = arena_bss_size(name)
        row = {}
        for variant in (native, lfi):
            per_engine = {}
            for engine in ENGINES:
                wall, metrics = _timed_run(asm, bss, variant, engine, repeat)
                per_engine[engine] = {
                    "wall_s": round(wall, 6),
                    "instructions": metrics.instructions,
                    "cycles": metrics.cycles,
                }
            # The equivalence gate: identical architectural results.
            for key in ("instructions", "cycles"):
                assert per_engine["stepping"][key] \
                    == per_engine["superblock"][key], \
                    f"{name}/{variant.name}: engines disagree on {key}"
            row[variant.name] = per_engine
        overheads = {
            engine: 100.0 * (row["LFI O2"][engine]["cycles"]
                             - row["native"][engine]["cycles"])
            / row["native"][engine]["cycles"]
            for engine in ENGINES
        }
        assert overheads["stepping"] == overheads["superblock"]
        workloads[name] = {
            "stepping_wall_s": sum(
                row[v][ "stepping"]["wall_s"] for v in row),
            "superblock_wall_s": sum(
                row[v]["superblock"]["wall_s"] for v in row),
            "speedup": (
                sum(row[v]["stepping"]["wall_s"] for v in row)
                / sum(row[v]["superblock"]["wall_s"] for v in row)
            ),
            "overhead_pct": overheads["superblock"],
            "detail": row,
        }
    speedups = [w["speedup"] for w in workloads.values()]
    return {
        "model": APPLE_M1.name,
        "target_instructions": target,
        "workloads": workloads,
        "geomean_speedup": math.exp(
            sum(math.log(s) for s in speedups) / len(speedups)),
        "geomean_overhead_pct": geomean(
            [w["overhead_pct"] for w in workloads.values()]),
    }


# -- pytest entry points ------------------------------------------------------


def test_engines_agree_and_superblock_wins():
    report = measure_engines(target=20_000, repeat=1)
    # Equivalence is asserted inside measure_engines; here the perf gate.
    assert report["geomean_speedup"] > 1.5


# -- script entry point -------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="stepping vs superblock engine comparison")
    parser.add_argument("--target", type=int, default=60_000,
                        help="dynamic instructions per workload run")
    parser.add_argument("--repeat", type=int, default=2,
                        help="wall-clock repeats (best is kept)")
    parser.add_argument("-o", "--out", default="BENCH_PR4.json")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="fail unless the geomean beats this ratio")
    args = parser.parse_args(argv)
    report = measure_engines(target=args.target, repeat=args.repeat)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"{'workload':<16} {'stepping':>9} {'superblock':>10} "
          f"{'speedup':>8} {'overhead':>9}")
    for name, row in sorted(report["workloads"].items()):
        print(f"{name:<16} {row['stepping_wall_s']:>8.3f}s "
              f"{row['superblock_wall_s']:>9.3f}s "
              f"{row['speedup']:>7.2f}x {row['overhead_pct']:>8.2f}%")
    print(f"{'geomean':<16} {'':>9} {'':>10} "
          f"{report['geomean_speedup']:>7.2f}x "
          f"{report['geomean_overhead_pct']:>8.2f}%")
    if report["geomean_speedup"] < args.min_speedup:
        print(f"FAILED: geomean speedup "
              f"{report['geomean_speedup']:.2f}x < {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
