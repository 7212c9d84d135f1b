"""One benchmark run: setup, timed units, output checks, metrics.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the separate traced run: it alternates untraced and
traced units of identical work, reports every per-layer metric as the
median over traced units, reports the tracing overhead as the traced
minus the untraced unit time, and writes the spans once, at the end, as
a Chrome trace.  Both modes check every output and require each unit's
exact virtual outputs to equal the first unit's.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from statistics import median
from typing import List

from repro.obs.chrome import validate_trace

from perfbench import host, layers
from perfbench.spans import Span, SpanRecorder, chrome_trace
from perfbench.workloads import WORKLOADS, Unit, per_op_median, run_setup

#: End-to-end metrics: name -> unit.  Host times are normalized CPU
#: seconds (see perfbench.host.HostClock).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "host_rate": "op/s",
    "host_ms_p50": "ms",
    "virtual_pct": "%",
}

#: Setups per timed run: at least SETUP_REPEATS, and more (up to
#: SETUP_MAX) until they add up to SETUP_MIN_S, so that a short setup is
#: still the median of enough samples to be steady.
SETUP_REPEATS = 3
SETUP_MAX = 15
SETUP_MIN_S = 0.5
#: Units per run at least: the determinism check compares two.
MIN_UNITS = 2
RESULTS_DIR = Path(__file__).resolve().parent / "results"
ROOT = RESULTS_DIR.parent.parent


def _checks(units: List[Unit], finished: dict) -> List[str]:
    failures = [f for u in units for f in u.failures]
    failures += finished["failures"]
    for i, unit in enumerate(units[1:], 1):
        if unit.virtual != units[0].virtual:
            failures.append(f"unit {i}: virtual outputs differ from unit 0")
    return failures


def _merge_spans(per_unit: List[List[Span]]) -> List[Span]:
    merged: List[Span] = []
    for spans in per_unit:
        offset = len(merged)
        merged += [Span(s.name, s.start_ns, s.end_ns,
                        s.parent + offset if s.parent >= 0 else -1,
                        s.request) for s in spans]
    return merged


def _normalize_layers(row: dict, scale: float) -> dict:
    """Scale a traced unit's span times like HostClock scales op times."""
    out = dict(row)
    for name, unit in layers.PER_LAYER.items():
        if unit in ("ms", "ns"):
            out[name] = row[name] * scale
        elif unit == "kinsn/s":
            out[name] = row[name] / scale
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: str = "full", save: bool = True) -> dict:
    """Run one workload; returns the full result record."""
    workload = WORKLOADS[workload_name]
    load_start = host.load_average()
    clock = host.HostClock()
    setup_times = []
    while True:
        ctx = None
        gc.collect()
        ctx, setup_s = run_setup(workload, seed, size, clock)
        setup_times.append(setup_s)
        if trace or len(setup_times) >= SETUP_MAX or (
                len(setup_times) >= SETUP_REPEATS
                and sum(setup_times) >= SETUP_MIN_S):
            break
    min_samples = ctx.get("min_samples", 1)
    deadline = time.perf_counter() + seconds
    plain: List[Unit] = []
    traced: List[Unit] = []
    rows, span_lists = [], []
    while True:
        # The traced run alternates which kind of unit goes first.
        order = ((False, True) if len(plain) % 2 == 0 else (True, False)) \
            if trace else (False,)
        for wrapped in order:
            # No reference to the previous unit's state may survive into
            # prepare(): two gateways alive at once would inflate the peak.
            if not wrapped:
                plain.append(workload.measure(ctx, workload.prepare(ctx),
                                              clock))
                continue
            state = workload.prepare(ctx)
            rec = SpanRecorder()
            first_ref = len(clock.references)
            layers.install(rec)
            try:
                unit = workload.measure(ctx, state, clock)
            finally:
                rec.uninstall()
                state = None
            traced.append(unit)
            scale = host.REFERENCE_S / median(clock.references[first_ref:])
            rows.append(_normalize_layers(
                layers.layer_metrics(rec, unit.gauges), scale))
            span_lists.append(rec.spans)
        samples = sum(len(u.samples_s) for u in plain)
        if (time.perf_counter() >= deadline and len(plain) >= MIN_UNITS
                and samples >= min_samples):
            break
    units = plain + traced
    rss_mb = host.peak_rss_mb()  # before the reference runs of finish()
    finished = workload.finish(ctx, units)
    failures = _checks(units, finished)

    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "size": size, "trace": int(trace),
        "units": len(plain), "traced_units": len(traced),
        "samples": sum(len(u.samples_s) for u in plain),
        "unit_s": [u.cpu_s for u in plain],
    }
    if trace:
        metrics = {name: {"value": median([r[name] for r in rows]),
                          "unit": unit}
                   for name, unit in layers.PER_LAYER.items()
                   if name != "trace.overhead_pct"}
        plain_s = median([u.cpu_s for u in plain])
        traced_s = median([u.cpu_s for u in traced])
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_s - plain_s) / plain_s, "unit": "%"}
        document = chrome_trace(_merge_spans(span_lists))
        failures += [f"chrome trace: {p}"
                     for p in validate_trace(document)[:10]]
        if save:
            RESULTS_DIR.mkdir(exist_ok=True)
            path = RESULTS_DIR / f"{workload_name}-seed{seed}.trace.json"
            path.write_text(document)
            record["trace_file"] = str(path.relative_to(ROOT))
    else:
        per_op = per_op_median([u.samples_s for u in plain])
        values = {
            "setup_s": median(setup_times),
            "peak_rss_mb": rss_mb,
            "host_rate": sum(plain[0].work) / sum(per_op),
            "host_ms_p50": 1e3 * median(per_op),
            "virtual_pct": finished["virtual_pct"],
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in values.items()}
        named = {workload.rate_name: (values["host_rate"],
                                      workload.rate_unit),
                 workload.sample_name: (values["host_ms_p50"], "ms")}
        named.update(finished["named"])
        record["named"] = {k: {"value": v, "unit": u}
                           for k, (v, u) in named.items()}
        record["setup_samples_s"] = setup_times
        record["op_ms"] = [1e3 * s for s in per_op]
    record.update({
        "correct": not failures,
        "attempted": sum(u.attempted for u in units),
        "failed": len(failures),
        "failures": failures[:50],
        "metrics": metrics,
        "provenance": host.provenance(ROOT, load_start, clock),
    })
    if save:
        RESULTS_DIR.mkdir(exist_ok=True)
        name = f"{workload_name}-seed{seed}-trace{int(trace)}.json"
        (RESULTS_DIR / name).write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record
