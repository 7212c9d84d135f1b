"""The repository's layers: where the traced run wraps them, and what it
reports for each.

Every wrapped name is the one its caller looks up, so the span sits on
the real call path:

============================  ==============================================
span                          wrapped at
============================  ==============================================
``arm64.parse``               ``repro.toolchain.parse_assembly``
``core.rewrite``              ``repro.toolchain.rewrite_program``
``arm64.assemble``            ``repro.toolchain.assemble``
``elf.build``                 ``repro.toolchain.build_elf``
``core.verify[_reject]``      ``Verifier.verify_elf`` (split by verdict)
``runtime.load``              ``Runtime.spawn``, ``Runtime.load_template``
``runtime.clone``             ``WarmPool.spawn``
``cluster.image``             ``ImageCache.get``
``emulator.exec``             ``Runtime.run_until_exit``, ``Runtime.run_bounded``
``checkpoint.capture``        ``CheckpointSession.capture``, ``Checkpoint.to_bytes``
``checkpoint.restore``        ``repro.cluster.worker.restore_job``, ``Checkpoint.from_bytes``
``cluster.job``               ``repro.serve.lane.execute_job_steps`` (per resumption)
``serve``                     ``Gateway.run``, ``Gateway.drain``
============================  ==============================================

Runtime calls are counted through the public ``Runtime.call_hooks``
registry, subscribed for the duration of each ``emulator.exec`` span.
"""

from __future__ import annotations

from typing import Dict

import repro.cluster.worker as worker_mod
import repro.serve.lane as lane_mod
import repro.toolchain as toolchain_mod
from repro.checkpoint import Checkpoint, CheckpointSession
from repro.cluster.snapshot import ImageCache, WarmPool
from repro.core.verifier import Verifier
from repro.runtime import Runtime
from repro.serve import Gateway

from perfbench.spans import SpanRecorder

#: Per-layer metrics in report order: name -> unit.
PER_LAYER = {
    "arm64.parse_ms": "ms",
    "arm64.assemble_ms": "ms",
    "core.rewrite_ms": "ms",
    "elf.build_ms": "ms",
    "core.verify_ms": "ms",
    "core.verify_reject_ms": "ms",
    "core.verify_kinsn_per_s": "kinsn/s",
    "runtime.load_ms": "ms",
    "core.guards": "count",
    "arm64.text_insns": "count",
    "emulator.exec_ms": "ms",
    "emulator.host_ns_per_inst": "ns",
    "emulator.instret": "count",
    "emulator.cycles": "count",
    "emulator.compiled_blocks": "count",
    "emulator.chain_links": "count",
    "emulator.fused_calls": "count",
    "emulator.tlb_miss_rate": "ratio",
    "runtime.calls": "count",
    "runtime.clone_ms": "ms",
    "checkpoint.capture_ms": "ms",
    "checkpoint.captures": "count",
    "checkpoint.blob_bytes": "bytes",
    "checkpoint.restore_ms": "ms",
    "checkpoint.restores": "count",
    "cluster.job_ms": "ms",
    "cluster.image_hit_ratio": "ratio",
    "cluster.templates": "count",
    "memory.regions": "count",
    "serve.self_ms": "ms",
    "serve.admitted": "count",
    "serve.shed_throttled": "count",
    "serve.shed_queue_full": "count",
    "serve.peak_queued": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

#: Layer self-time metrics: metric -> span name.
_SELF_MS = {
    "arm64.parse_ms": "arm64.parse",
    "arm64.assemble_ms": "arm64.assemble",
    "core.rewrite_ms": "core.rewrite",
    "elf.build_ms": "elf.build",
    "core.verify_ms": "core.verify",
    "core.verify_reject_ms": "core.verify_reject",
    "runtime.load_ms": "runtime.load",
    "emulator.exec_ms": "emulator.exec",
    "runtime.clone_ms": "runtime.clone",
    "checkpoint.capture_ms": "checkpoint.capture",
    "checkpoint.restore_ms": "checkpoint.restore",
    "cluster.job_ms": "cluster.job",
    "serve.self_ms": "serve",
}

#: Counters read straight from the recorder.
_COUNTS = ("core.guards", "arm64.text_insns", "emulator.instret",
           "emulator.cycles", "emulator.compiled_blocks",
           "emulator.chain_links", "emulator.fused_calls", "runtime.calls",
           "checkpoint.captures", "checkpoint.blob_bytes",
           "checkpoint.restores")

#: Gauges a workload reports at the end of a unit (0 where not reached).
_GAUGES = ("cluster.templates", "memory.regions", "serve.admitted",
           "serve.shed_throttled", "serve.shed_queue_full",
           "serve.peak_queued")


def _machine_counters(machine) -> tuple:
    sb = machine._sb  # the engine's diagnostic counters
    tlb = machine.tlb
    return (machine.instret, machine.cycles, sb.compiled_blocks,
            sb.chain_links, sb.fused_calls,
            tlb.hits if tlb is not None else 0,
            tlb.misses if tlb is not None else 0)


_MACHINE_KEYS = ("emulator.instret", "emulator.cycles",
                 "emulator.compiled_blocks", "emulator.chain_links",
                 "emulator.fused_calls", "tlb.hits", "tlb.misses")


def install(rec: SpanRecorder) -> None:
    """Wrap every layer entry point; undo with ``rec.uninstall()``."""
    count = rec.count

    def guards(_state, result, *_args):
        count("core.guards", sum(result.stats.guard_class_counts().values()))

    def text_insns(_state, image, *_args):
        count("arm64.text_insns", len(image.text.data) // 4)

    def verdict(_state, result, *_args):
        if not result.ok:
            return "core.verify_reject"
        count("verify.insns", result.instructions)
        return None

    def call_counter(_proc, _call):
        count("runtime.calls")

    def exec_before(runtime, *_args):
        runtime.call_hooks.add(call_counter)
        return _machine_counters(runtime.machine)

    def exec_after(before, _result, runtime, *_args):
        runtime.call_hooks.remove(call_counter)
        after = _machine_counters(runtime.machine)
        for key, old, new in zip(_MACHINE_KEYS, before, after):
            count(key, new - old)

    def pool_before(pool, data, *_args):
        # ImageCache.get runs only when the pool has no template for the
        # image, so a template found here is the cache's hit.
        if pool.has_template(data):
            count("image.hits")

    def cache_before(cache, *_args):
        return cache.hits, cache.misses

    def cache_after(before, _result, cache, *_args):
        count("image.hits", cache.hits - before[0])
        count("image.misses", cache.misses - before[1])

    def tally(name):
        return lambda _state, _result, *_args: count(name)

    def blob(_state, data, *_args):
        count("checkpoint.blob_bytes", len(data))

    rec.wrap(toolchain_mod, "parse_assembly", "arm64.parse")
    rec.wrap(toolchain_mod, "rewrite_program", "core.rewrite", after=guards)
    rec.wrap(toolchain_mod, "assemble", "arm64.assemble", after=text_insns)
    rec.wrap(toolchain_mod, "build_elf", "elf.build")
    rec.wrap(Verifier, "verify_elf", "core.verify", after=verdict)
    rec.wrap(Runtime, "spawn", "runtime.load")
    rec.wrap(Runtime, "load_template", "runtime.load")
    rec.wrap(WarmPool, "spawn", "runtime.clone", before=pool_before)
    rec.wrap(ImageCache, "get", "cluster.image", before=cache_before,
             after=cache_after)
    for method in ("run_until_exit", "run_bounded"):
        rec.wrap(Runtime, method, "emulator.exec", before=exec_before,
                 after=exec_after)
    rec.wrap(CheckpointSession, "capture", "checkpoint.capture",
             after=tally("checkpoint.captures"))
    rec.wrap(Checkpoint, "to_bytes", "checkpoint.capture", after=blob)
    rec.wrap(worker_mod, "restore_job", "checkpoint.restore",
             after=tally("checkpoint.restores"))
    rec.wrap(Checkpoint, "from_bytes", "checkpoint.restore")
    rec.wrap_generator(lane_mod, "execute_job_steps", "cluster.job",
                       request_of=lambda _rt, _pool, job, *a: job["job_id"])
    rec.wrap(Gateway, "run", "serve")
    rec.wrap(Gateway, "drain", "serve")


def layer_metrics(rec: SpanRecorder, gauges: Dict[str, float]) -> dict:
    """One traced unit's per-layer metrics (tracing overhead aside)."""
    self_ns = rec.self_ns()
    c = rec.counters
    out = {metric: self_ns.get(span, 0) / 1e6
           for metric, span in _SELF_MS.items()}
    for name in _COUNTS:
        out[name] = c.get(name, 0)
    for name in _GAUGES:
        out[name] = gauges.get(name, 0)
    verify_s = self_ns.get("core.verify", 0) / 1e9
    out["core.verify_kinsn_per_s"] = (c.get("verify.insns", 0) / verify_s
                                      / 1e3 if verify_s else 0.0)
    instret = c.get("emulator.instret", 0)
    out["emulator.host_ns_per_inst"] = (
        self_ns.get("emulator.exec", 0) / instret if instret else 0.0)
    lookups = c.get("tlb.hits", 0) + c.get("tlb.misses", 0)
    out["emulator.tlb_miss_rate"] = (c.get("tlb.misses", 0) / lookups
                                     if lookups else 0.0)
    gets = c.get("image.hits", 0) + c.get("image.misses", 0)
    out["cluster.image_hit_ratio"] = (c.get("image.hits", 0) / gets
                                      if gets else 0.0)
    out["trace.spans"] = len(rec.spans)
    return out
