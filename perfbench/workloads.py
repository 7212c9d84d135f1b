"""The three benchmark workloads: spec-exec, compile-verify, serve-mix.

Every workload has the same four steps, driven by ``run.py``:

* ``setup(seed, size)`` turns the seed into the workload's inputs and
  does the work the measured operations need done first.  It is a
  generator that yields between steps and returns the context;
  :func:`run_setup` times each step on its own (``setup_s``);
* ``prepare(ctx)`` does the untimed, untraced per-unit work (fresh
  sandboxes, a fresh gateway) so a unit starts from the same state;
* ``measure(ctx, state, clock)`` runs one *unit* of timed operations and
  returns a :class:`Unit`: normalized host seconds per operation, the
  exact virtual outputs, and the outcome of every output check;
* ``finish(ctx, units)`` runs the checks that need a reference run (the
  stepping interpreter, native builds) and returns the exact virtual
  metric.

A unit is a fixed amount of work for a given seed (one round of the 14
kernels, one pass over the program pool, one pass of the serving
schedule), so per-unit numbers compare across runs and hosts, and every
unit of one run must produce identical virtual outputs, traced or not.
Host times come from :class:`perfbench.host.HostClock`: CPU seconds
(the process is single-threaded and CPU-bound) normalized by a reference
loop run between operations.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List

from repro import EngineConfig, O2, Runtime, VerificationError
from repro.elf.format import write_elf
from repro.emulator import APPLE_M1
from repro.fuzz.genasm import AsmGenerator, GenConfig
from repro.perf import geomean, overhead_pct
from repro.serve import Gateway, TenantLoad, TenantPolicy, build_arrivals, \
    percentile
from repro.toolchain import compile_lfi, compile_native
from repro.workloads.rtlib import RuntimeCall, busy_program, prologue, \
    rt_exit, rtcall
from repro.workloads.spec import SPEC_BENCHMARKS, arena_bss_size, \
    build_benchmark

from perfbench.host import HostClock


@dataclass
class Unit:
    """The outcome of one measured unit of work."""

    samples_s: List[float]          # normalized CPU seconds per operation
    work: List[float]               # ``host_rate`` operations in each
    virtual: tuple                  # exact outputs; equal for every unit
    attempted: int
    failures: List[str] = field(default_factory=list)
    gauges: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def cpu_s(self) -> float:
        return sum(self.samples_s)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _regions(runtime: Runtime) -> int:
    return sum(1 for _ in runtime.memory.mapped_regions())


# ---------------------------------------------------------------------------
# spec-exec: execution of the SPEC-profile kernels under the cost model
# ---------------------------------------------------------------------------

SPEC_SIZES = {"full": (sorted(SPEC_BENCHMARKS), 165_000, 175_000),
              "tiny": (["505.mcf", "557.xz"], 4_000, 5_000)}

#: Instructions of the stepping-versus-superblock reference prefix, and
#: the timeslice both prefix runs use so they pause at the same slice.
REFERENCE_PREFIX = 20_000
REFERENCE_SLICE = 5_000


def spec_setup(seed: int, size: str):
    names, lo, hi = SPEC_SIZES[size]
    rng = _rng("spec-exec", seed)
    targets = {name: rng.randint(lo, hi) for name in names}
    order = list(names)
    rng.shuffle(order)
    kernels, spawned = [], []
    for name in order:
        asm = build_benchmark(name, target_instructions=targets[name])
        bss = arena_bss_size(name)
        elf = compile_lfi(asm, O2, bss_size=bss).elf
        kernels.append({"name": name, "asm": asm, "bss": bss, "elf": elf})
        # The first round's sandboxes are spawned (and verified) in setup:
        # setup ends where the first timed run_until_exit begins.
        runtime = Runtime(model=APPLE_M1)
        spawned.append((runtime, runtime.spawn(elf)))
        yield
    return {"kernels": kernels, "spawned": spawned}


def spec_prepare(ctx: dict) -> list:
    spawned = ctx.pop("spawned", None)
    if spawned is not None:
        return spawned
    gc.collect()
    out = []
    for kernel in ctx["kernels"]:
        runtime = Runtime(model=APPLE_M1)
        out.append((runtime, runtime.spawn(kernel["elf"])))
    return out


def spec_measure(ctx: dict, spawned: list, clock: HostClock) -> Unit:
    samples, work, virtual, failures, regions = [], [], [], [], 0
    for kernel in ctx["kernels"]:
        # Drop each sandbox after its run so one kernel's pages are live
        # at a time.
        runtime, proc = spawned.pop(0)
        with clock.op() as op:
            try:
                code = runtime.run_until_exit(proc)
            except Exception as exc:  # one failed run must not end the run
                code = f"{type(exc).__name__}: {exc}"
        samples.append(op.seconds)
        machine = runtime.machine
        work.append(machine.instret / 1e6)
        regions += _regions(runtime)
        virtual.append((kernel["name"], code, machine.instret,
                        machine.cycles))
        if code != 0:
            failures.append(f"{kernel['name']}: exit {code!r}, want 0")
    return Unit(samples, work, tuple(virtual), len(samples),
                failures, gauges={"memory.regions": regions})


def _prefix_run(elf, kind: str) -> tuple:
    runtime = Runtime(model=APPLE_M1, timeslice=REFERENCE_SLICE,
                      engine=EngineConfig(kind=kind))
    proc = runtime.spawn(elf)
    runtime.run_bounded(proc, REFERENCE_PREFIX)
    return runtime.machine.instret, runtime.machine.cycles


def spec_reference(ctx: dict) -> Dict[str, tuple]:
    """Stepping-interpreter (instret, cycles) over the reference prefix."""
    return {k["name"]: _prefix_run(k["elf"], "stepping")
            for k in ctx["kernels"]}


def spec_check(ctx: dict, reference: Dict[str, tuple]) -> List[str]:
    """Superblock prefixes must match the stepping interpreter exactly."""
    failures = []
    for kernel in ctx["kernels"]:
        got = _prefix_run(kernel["elf"], "superblock")
        want = reference[kernel["name"]]
        if got != want:
            failures.append(f"{kernel['name']}: superblock prefix "
                            f"(instret, cycles) {got} != stepping {want}")
    return failures


def spec_finish(ctx: dict, units: List[Unit]) -> dict:
    failures = spec_check(ctx, spec_reference(ctx))
    overheads = []
    lfi_cycles = {name: cycles for name, _code, _n, cycles
                  in units[0].virtual}
    for kernel in ctx["kernels"]:
        native = compile_native(kernel["asm"], bss_size=kernel["bss"]).elf
        runtime = Runtime(model=APPLE_M1)
        code = runtime.run_until_exit(runtime.spawn(native, verify=False))
        if code != 0:
            failures.append(f"{kernel['name']}: native exit {code}")
        overheads.append(overhead_pct(runtime.machine.cycles,
                                      lfi_cycles[kernel["name"]]))
    return {"failures": failures,
            "virtual_pct": geomean(overheads),
            "named": {"lfi_overhead_pct": (geomean(overheads), "%")}}


# ---------------------------------------------------------------------------
# compile-verify: assembly text to a verified sandbox, and refusals
# ---------------------------------------------------------------------------

#: (programs in the pool, min/max top-level fragments, min build samples).
#: 185..370 fragments give programs of about 500..1000 instructions.
CV_SIZES = {"full": (48, 185, 370, 200), "tiny": (3, 20, 40, 3)}


def cv_setup(seed: int, size: str):
    count, lo, hi, min_samples = CV_SIZES[size]
    rng = _rng("compile-verify", seed)
    programs = []
    for i in range(count):
        # Sizes are stratified over [lo, hi] (seeded within each stratum),
        # so the pool's size distribution, and with it the build-time
        # median, barely moves from seed to seed.
        fragments = lo + int((hi - lo) * (i + rng.random()) / count)
        generator = AsmGenerator(GenConfig(min_fragments=fragments,
                                           max_fragments=fragments))
        source = generator.generate(rng).source
        native = compile_native(source)
        programs.append({"source": source, "native_elf": native.elf,
                         "native_text": len(native.image.text.data),
                         "expect_accept": True, "expect_refuse": True})
        yield
    return {"programs": programs, "runtime": Runtime(),
            "min_samples": min_samples}


def cv_prepare(ctx: dict):
    gc.collect()
    return None


def cv_measure(ctx: dict, _state, clock: HostClock) -> Unit:
    runtime = ctx["runtime"]
    builds, rejects, virtual, failures = [], [], [], []
    for i, program in enumerate(ctx["programs"]):
        with clock.op() as op:
            try:
                out = compile_lfi(program["source"], O2)
                proc = runtime.spawn(out.elf)
            except Exception as exc:
                proc, out = None, None
                accepted = f"{type(exc).__name__}: {exc}"
            else:
                accepted = True
        builds.append(op.seconds)
        if proc is not None:
            runtime.reclaim(proc)
            runtime.reap(proc)
        with clock.op() as op:
            try:
                runtime.spawn(program["native_elf"])
            except VerificationError:
                refused = True
            except Exception as exc:
                refused = f"{type(exc).__name__}: {exc}"
            else:
                refused = False
        rejects.append(op.seconds)
        if accepted is not program["expect_accept"]:
            failures.append(f"program {i}: O2 build accepted={accepted!r}")
        if refused is not program["expect_refuse"]:
            failures.append(f"program {i}: unrewritten build "
                            f"refused={refused!r}")
        lfi_text = len(out.image.text.data) if out is not None else 0
        virtual.append((accepted, refused, lfi_text))
    return Unit(builds, [1.0] * len(builds), tuple(virtual), 2 * len(builds),
                failures, extra={"reject_s": rejects})


def cv_finish(ctx: dict, units: List[Unit]) -> dict:
    lfi = sum(text for _a, _r, text in units[0].virtual)
    native = sum(p["native_text"] for p in ctx["programs"])
    pct = 100.0 * (lfi - native) / native
    # The p50s take each program's median over its repeats, like
    # ``host_ms_p50``; the p95 takes every build, so that at least 10
    # samples lie beyond it.
    rejects = per_op_median([u.extra["reject_s"] for u in units])
    builds = [s for u in units for s in u.samples_s]
    return {"failures": [], "virtual_pct": pct,
            "named": {
                "build_ms_p95": (1e3 * percentile(builds, 95), "ms"),
                "reject_ms_p50": (1e3 * percentile(rejects, 50), "ms"),
                "code_size_overhead_pct": (pct, "%"),
            }}


# ---------------------------------------------------------------------------
# serve-mix: the serving gateway under 2x overload with one lane crash
# ---------------------------------------------------------------------------

LANES = 2
CHECKPOINT_INTERVAL = 1000
GOLD_SLA_S = 0.05
GOLD_CALLS = 24
GOLD_EXIT = 7
BULK_TARGET = 20_000
BULK_EXIT = 3
#: Offered requests per virtual second: ~2x the lanes' 2M instructions
#: per virtual second.  Gold is call-heavy and short; fresh is admitted
#: in full (so the set of templates a pass builds is fixed per seed
#: count); bulk is admitted up to ~60% of capacity, so the lanes mostly
#: run bulk jobs and a gold request's wait (its p99 tail) is set by bulk
#: residual times.  Everything shed is bulk.
GOLD_RATE = 1000.0
FRESH_RATE = 60.0
BULK_RATE = 170.0
BULK_ADMIT = 60.0
#: Host-timed slices of one pass (see serve_measure).
SLICES = 32
#: Virtual seconds of offered load per pass.
SERVE_SIZES = {"full": 0.5, "tiny": 0.03}


def gold_program(calls: int, code: int) -> str:
    """A runtime-call loop: ``calls`` x (GETPID, write "gold\\n")."""
    asm = prologue() + f"\tmovz x20, #{calls}\n" + "loop:\n"
    asm += rtcall(RuntimeCall.GETPID)
    asm += ("\tmov x0, #1\n\tadrp x1, msg\n\tadd x1, x1, :lo12:msg\n"
            "\tmov x2, #5\n")
    asm += rtcall(RuntimeCall.WRITE)
    asm += "\tsub x20, x20, #1\n\tcbnz x20, loop\n"
    asm += f"\tmov x0, #{code}\n" + rt_exit()
    return asm + ".rodata\nmsg: .ascii \"gold\\n\"\n"


def serve_policies() -> Dict[str, TenantPolicy]:
    return {
        "gold": TenantPolicy(priority=0, rate=1.5 * GOLD_RATE, burst=16.0,
                             queue_limit=32, sla_s=GOLD_SLA_S),
        "fresh": TenantPolicy(priority=1, rate=2.0 * FRESH_RATE,
                              burst=16.0, queue_limit=16),
        "bulk": TenantPolicy(priority=2, rate=BULK_ADMIT, burst=8.0,
                             queue_limit=6),
    }


def serve_setup(seed: int, size: str):
    duration = SERVE_SIZES[size]
    rng = _rng("serve-mix", seed)
    loads = [TenantLoad(tenant, rate=rate) for tenant, rate in
             (("gold", GOLD_RATE), ("fresh", FRESH_RATE),
              ("bulk", BULK_RATE))]
    # Poisson arrival times, but a fixed number per tenant: a pass's mix
    # (and so its request rate) then varies little from seed to seed.
    counts = {load.tenant: round(load.rate * duration) for load in loads}
    arrivals = []
    for at, load in build_arrivals(loads, 1.5 * duration, seed):
        if counts[load.tenant]:
            counts[load.tenant] -= 1
            arrivals.append((at, load))
    gold = write_elf(compile_lfi(gold_program(GOLD_CALLS, GOLD_EXIT)).elf)
    bulk = write_elf(compile_lfi(busy_program(BULK_EXIT, BULK_TARGET)).elf)
    n_fresh = sum(1 for _t, load in arrivals if load.tenant == "fresh")
    iters = rng.sample(range(1500, 3500), n_fresh)
    yield
    offers = []   # (at, tenant, image, expected exit, expected stdout)
    fresh_i = 0
    for at, load in arrivals:
        if load.tenant == "gold":
            offers.append((at, "gold", gold, GOLD_EXIT, "gold\n" * GOLD_CALLS))
        elif load.tenant == "bulk":
            offers.append((at, "bulk", bulk, BULK_EXIT, ""))
        else:
            code = 20 + fresh_i % 200
            image = write_elf(compile_lfi(
                busy_program(code, 2 * iters[fresh_i])).elf)
            offers.append((at, "fresh", image, code, ""))
            fresh_i += 1
    return {"offers": offers, "duration": arrivals[-1][0], "seed": seed,
            "chaos": {rng.randrange(LANES): rng.randint(4, 8)}}


def serve_prepare(ctx: dict) -> Gateway:
    gc.collect()
    gateway = Gateway(serve_policies(), lanes=LANES,
                      checkpoint_interval=CHECKPOINT_INTERVAL,
                      seed=ctx["seed"], chaos=ctx["chaos"])
    for at, tenant, image, _code, _out in ctx["offers"]:
        gateway.offer(tenant, image, at=at)
    return gateway


SHED_REASONS = ("throttled", "queue-full")


def serve_measure(ctx: dict, gateway: Gateway, clock: HostClock) -> Unit:
    # The pass is timed in slices of virtual time so the reference loop
    # runs every ~50 ms of host time; Gateway.run(until) handles exactly
    # the events due by ``until``, so slicing changes no virtual outcome.
    cpu = 0.0
    for k in range(1, SLICES + 1):
        with clock.op() as op:
            gateway.run(ctx["duration"] * k / SLICES)
        cpu += op.seconds
    with clock.op() as op:
        results = gateway.drain()
    cpu += op.seconds
    failures = []
    offers = ctx["offers"]
    if len(results) != len(offers):
        failures.append(f"{len(results)} results for {len(offers)} offers")
    completed = 0
    shed = {reason: 0 for reason in SHED_REASONS}
    gold_latency, restored = [], 0
    for r in results:
        _at, tenant, _image, code, stdout = offers[r.request_id]
        if r.status == "rejected":
            if r.reason in shed:
                shed[r.reason] += 1
            else:
                failures.append(f"request {r.request_id}: shed {r.reason}")
            continue
        completed += 1
        restored += r.attempts > 1
        if (r.exit_code, r.stdout, r.run_status, r.faults) \
                != (code, stdout, "ok", ()):
            failures.append(
                f"request {r.request_id} ({tenant}): exit {r.exit_code} "
                f"stdout {r.stdout[:20]!r} status {r.run_status} faults "
                f"{r.faults}; want exit {code} stdout {stdout[:20]!r}")
        if tenant == "gold":
            gold_latency.append(r.latency_s)
    if not restored:
        failures.append("no request resumed from a checkpoint after the "
                        "lane crash")
    lanes = gateway.lanes.values()
    gauges = {
        "serve.admitted": len(offers) - sum(shed.values()),
        "serve.shed_throttled": shed["throttled"],
        "serve.shed_queue_full": shed["queue-full"],
        "serve.peak_queued": gateway.peak_queued,
        "cluster.templates": sum(len(lane.pool.template_slots())
                                 for lane in lanes),
        "memory.regions": sum(_regions(lane.runtime) for lane in lanes),
        "gold_p99_vms": 1e3 * percentile(gold_latency, 99),
    }
    virtual = tuple(r.deterministic_key() for r in results)
    return Unit([cpu], [completed], virtual, len(offers), failures,
                gauges=gauges)


def serve_finish(ctx: dict, units: List[Unit]) -> dict:
    p99 = units[0].gauges["gold_p99_vms"]
    return {"failures": [],
            "virtual_pct": 100.0 * p99 / (1e3 * GOLD_SLA_S),
            "named": {"serve_gold_p99_vms": (p99, "vms")}}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: Callable
    prepare: Callable
    measure: Callable
    finish: Callable
    #: What one ``host_rate`` operation is, and the ``host_ms_p50`` sample.
    rate_name: str
    rate_unit: str
    sample_name: str


WORKLOADS = {
    "spec-exec": Workload(spec_setup, spec_prepare, spec_measure,
                          spec_finish, "exec_minst_per_s", "Minst/s",
                          "kernel_run_ms_p50"),
    "compile-verify": Workload(cv_setup, cv_prepare, cv_measure, cv_finish,
                               "builds_per_s", "build/s", "build_ms_p50"),
    "serve-mix": Workload(serve_setup, serve_prepare, serve_measure,
                          serve_finish, "serve_req_per_s", "req/s",
                          "pass_ms_p50"),
}


def run_setup(workload: Workload, seed: int, size: str,
              clock: HostClock) -> tuple:
    """Drive ``workload.setup``, timing each step as its own operation
    (short steps track bursts of host contention); ``(ctx, seconds)``."""
    steps = workload.setup(seed, size)
    seconds, ctx = 0.0, None
    while ctx is None:
        with clock.op() as op:
            try:
                next(steps)
            except StopIteration as stop:
                ctx = stop.value
        seconds += op.seconds
    return ctx, seconds


def per_op_median(per_unit: List[List[float]]) -> List[float]:
    """Each operation's median time over the units that repeated it."""
    return [median(times) for times in zip(*per_unit)]
