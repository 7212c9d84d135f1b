"""Differential tests: the superblock engine vs the stepping interpreter.

The superblock engine (DESIGN.md §10) is a pure execution-strategy
change: translated straight-line blocks with fused guard sequences must
be architecturally invisible.  Every test here runs the same program
under ``EngineConfig(kind="stepping")`` and
``EngineConfig(kind="superblock")`` and demands bit-identical
observables: final registers, memory, retired-instruction counts,
modeled cycles, faults, and exported traces.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import EngineConfig
from repro.core import O0, O2
from repro.emulator import APPLE_M1, Machine, OutOfFuel
from repro.emulator.superblock import _COMPILE_MAX_OPS, _COMPILE_THRESHOLD
from repro.memory import PagedMemory
from repro.obs import GuardProfiler, Tracer
from repro.obs.chrome import export_chrome_trace
from repro.perf import lfi_variant, native_variant, run_variant
from repro.runtime import Runtime, RuntimeCall
from repro.toolchain import compile_lfi
from repro.workloads import WASM_SUBSET
from repro.workloads.rtlib import prologue, rt_exit, rtcall
from repro.workloads.spec import arena_bss_size, build_benchmark

from .conftest import load_elf_into

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
STEPPING = EngineConfig(kind="stepping")
SUPERBLOCK = EngineConfig(kind="superblock")
ENGINES = (STEPPING, SUPERBLOCK)


def corpus_programs():
    """Every runnable (non-reject) program in the shrunk-failure corpus."""
    out = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        entry = json.loads(path.read_text())
        if entry.get("kind") == "program" and entry["expect"] != "reject":
            out.append(pytest.param(entry["source"], id=entry["name"]))
    return out


def observables(engine: EngineConfig, elf, model=None,
                timeslice: int = 50_000):
    """Run ``elf`` to completion under ``engine``; return all observables."""
    runtime = Runtime(model=model, timeslice=timeslice, engine=engine)
    proc = runtime.spawn(elf)
    runtime.run()
    memory = {
        base: runtime.memory._raw_read(base, size)
        for base, size, _ in sorted(runtime.memory.mapped_regions())
    }
    return {
        "registers": proc.registers,
        "instret": runtime.machine.instret,
        "cycles": runtime.machine.cycles,
        "faults": [(f.kind, f.detail, f.pc) for f in runtime.faults],
        "exit": proc.exit_code,
        "stdout": runtime.stdout_of(proc),
        "memory": memory,
    }


class TestCorpusDifferential:
    @pytest.mark.parametrize("source", corpus_programs())
    @pytest.mark.parametrize("options", [O0, O2], ids=["O0", "O2"])
    def test_corpus_program_identical(self, source, options):
        elf = compile_lfi(source, options=options).elf
        stepping = observables(STEPPING, elf, model=APPLE_M1)
        superblock = observables(SUPERBLOCK, elf, model=APPLE_M1)
        assert stepping == superblock

    @pytest.mark.parametrize("source", corpus_programs())
    def test_corpus_program_identical_under_preemption(self, source):
        """A tiny odd timeslice forces blocks to split on fuel exhaustion."""
        elf = compile_lfi(source, options=O2).elf
        stepping = observables(STEPPING, elf, timeslice=7)
        superblock = observables(SUPERBLOCK, elf, timeslice=7)
        assert stepping == superblock


class TestTable4Differential:
    @pytest.mark.parametrize("name", sorted(WASM_SUBSET))
    def test_kernel_identical(self, name):
        asm = build_benchmark(name, target_instructions=20_000)
        bss = arena_bss_size(name)
        runs = {}
        for variant in (native_variant(), lfi_variant(O2, "LFI O2")):
            for engine in ENGINES:
                m = run_variant(asm, bss, variant, APPLE_M1, engine=engine)
                runs[(variant.name, engine.kind)] = (m.instructions,
                                                     m.cycles)
            assert runs[(variant.name, "stepping")] \
                == runs[(variant.name, "superblock")]


class TestObservability:
    def _traced_run(self, elf, engine):
        runtime = Runtime(model=APPLE_M1, engine=engine)
        tracer = Tracer().attach(runtime)
        proc = runtime.spawn(elf)
        runtime.run()
        return export_chrome_trace(tracer.events), proc

    def test_trace_export_byte_identical(self):
        asm = build_benchmark("505.mcf", target_instructions=10_000)
        elf = compile_lfi(asm, options=O2,
                          bss_size=arena_bss_size("505.mcf")).elf
        a, _ = self._traced_run(elf, STEPPING)
        b, _ = self._traced_run(elf, SUPERBLOCK)
        assert a == b

    def test_profiler_telescopes_on_superblock_runtime(self):
        """A per-instruction probe forces stepping fallback, and the
        profiler's buckets still sum exactly to the elapsed cycles."""
        asm = build_benchmark("505.mcf", target_instructions=10_000)
        elf = compile_lfi(asm, options=O2,
                          bss_size=arena_bss_size("505.mcf")).elf
        breakdowns = {}
        for engine in ENGINES:
            runtime = Runtime(model=APPLE_M1, engine=engine)
            profiler = GuardProfiler().attach(runtime)
            proc = runtime.spawn(elf)
            runtime.run()
            profiler.detach()
            elapsed = runtime.machine.cycles - profiler.start_cycles
            assert sum(profiler.breakdown().values()) \
                == pytest.approx(elapsed, abs=1e-9)
            breakdowns[engine.kind] = (profiler.breakdown(),
                                       proc.registers)
        assert breakdowns["stepping"] == breakdowns["superblock"]

    def test_fused_call_cold_then_hot_matches_stepping(self):
        """A fused runtime-call block is stepped while cold, so its call
        reaches the runtime through ``HostCallTrap``, and springboarded
        once compiled.  Both paths must leave trace events, profiler
        buckets and state identical to stepping."""
        iterations = 3 * _COMPILE_THRESHOLD
        asm = (prologue() + f"\tmov x20, #{iterations}\nloop:\n"
               + rtcall(RuntimeCall.GETPID)
               + "\tsub x20, x20, #1\n\tcbnz x20, loop\n" + rt_exit())
        elf = compile_lfi(asm, options=O2).elf

        def traced(engine):
            runtime = Runtime(model=APPLE_M1, engine=engine)
            inner = runtime.machine.springboard
            springboarded = []

            def counting(entry):
                springboarded.append(entry)
                return inner(entry)

            runtime.machine.springboard = counting
            tracer = Tracer(record=True).attach(runtime)
            proc = runtime.spawn(elf)
            runtime.run()
            tracer.detach()
            observed = (tracer.events, runtime.machine.cycles,
                        runtime.machine.instret, proc.registers,
                        proc.exit_code)
            return observed, len(springboarded), runtime.machine._sb

        def profiled(engine):
            runtime = Runtime(model=APPLE_M1, engine=engine)
            profiler = GuardProfiler().attach(runtime)
            runtime.spawn(elf)
            runtime.run()
            profiler.detach()
            return profiler.breakdown()

        stepping, _, _ = traced(STEPPING)
        superblock, springboarded, sb = traced(SUPERBLOCK)
        assert superblock == stepping
        assert sb.fused_calls >= 1 and sb.compiled_blocks >= 1
        # Cold executions took the HostCallTrap path, hot ones the
        # springboard.
        assert 0 < springboarded < iterations
        assert profiled(SUPERBLOCK) == profiled(STEPPING)

    def test_step_probe_forces_per_instruction_fallback(self):
        """While a probe is registered, no block is ever dispatched."""
        memory = PagedMemory()
        asm = """
            .globl _start
        _start:
            mov x0, #0
            mov x1, #50
        loop:
            add x0, x0, x1
            sub x1, x1, #1
            cbnz x1, loop
            hlt
        """
        from repro.arm64 import parse_assembly
        from repro.arm64.assembler import assemble
        from repro.elf import build_elf
        from repro.emulator import HltTrap

        elf = build_elf(assemble(parse_assembly(asm)))
        load_elf_into(memory, elf)
        machine = Machine(memory, engine=SUPERBLOCK)
        machine.cpu.pc = elf.entry
        seen = []
        machine.add_step_probe(
            lambda m, pc, klass, delta: seen.append(pc))
        with pytest.raises(HltTrap):
            machine.run(fuel=10_000)
        assert machine._sb.translations == 0
        # The probe saw every retired instruction, not one per block.
        assert len([pc for pc in seen if pc is not None]) == machine.instret


class TestFuel:
    def _machine(self, body: str, engine: EngineConfig,
                 model=None) -> Machine:
        from repro.arm64 import parse_assembly
        from repro.arm64.assembler import assemble
        from repro.elf import build_elf

        elf = build_elf(assemble(parse_assembly(body)))
        memory = PagedMemory()
        load_elf_into(memory, elf)
        machine = Machine(memory, model=model, engine=engine)
        machine.cpu.pc = elf.entry
        return machine

    def _lockstep(self, body: str, fuel: int, model=None):
        """Run ``body`` in slices of ``fuel`` under both engines,
        comparing every observable at every slice boundary; yields the
        superblock machine after each slice, until the final ``hlt``."""
        from repro.emulator import HltTrap

        stepper = self._machine(body, STEPPING, model)
        blocky = self._machine(body, SUPERBLOCK, model)
        while True:
            outcomes = []
            for machine in (stepper, blocky):
                with pytest.raises((OutOfFuel, HltTrap)) as exc:
                    machine.run(fuel=fuel)
                outcomes.append(exc.type)
            assert outcomes[0] is outcomes[1]
            assert blocky.instret == stepper.instret
            assert blocky.cpu.pc == stepper.cpu.pc
            assert blocky.cpu.regs == stepper.cpu.regs
            assert blocky.cycles == stepper.cycles
            yield blocky
            if outcomes[0] is HltTrap:
                return

    #: The entry block is ``mov; mov; add; sub; cbnz`` (5 instructions),
    #: then the 3-instruction loop block runs 99 more times.
    BODY = """
        .globl _start
    _start:
        mov x0, #0
        mov x1, #100
    loop:
        add x0, x0, x1
        sub x1, x1, #1
        cbnz x1, loop
        hlt
    """

    @pytest.mark.parametrize("model", [None, APPLE_M1],
                             ids=["uncosted", "M1"])
    @pytest.mark.parametrize("fuel", [1, 2, 3, 5, 6, 7, 26, 64])
    def test_block_never_overruns_fuel(self, fuel, model):
        """Every slice of ``fuel`` retires exactly ``fuel`` instructions,
        matching the stepping contract instruction-for-instruction; under
        a cost model, slices that split cold (stepped) and hot (compiled)
        blocks keep cycles bit-identical too."""
        for _ in self._lockstep(self.BODY, fuel, model):
            pass

    @pytest.mark.parametrize("extra, compiled", [(0, 1), (1, 0)],
                             ids=["on-compile", "inside-8th"])
    def test_split_at_the_compiling_execution(self, extra, compiled):
        """The first slice ends right after the loop block's compiling
        (``_COMPILE_THRESHOLD``-th) execution, or one instruction into
        where it would start, so the stepping tail retires it instead."""
        k = _COMPILE_THRESHOLD - extra
        slices = self._lockstep(self.BODY, 5 + 3 * k + extra, APPLE_M1)
        assert next(slices)._sb.compiled_blocks == compiled
        blocky = None
        for blocky in slices:
            pass
        assert blocky._sb.compiled_blocks >= 1

    def test_block_longer_than_compile_max_ops_compiles(self):
        """Translation caps blocks at ``_COMPILE_MAX_OPS`` instructions,
        so a longer straight-line loop body still compiles once hot."""
        body = (".globl _start\n_start:\n    mov x1, #10\nloop:\n"
                + "    add x0, x0, #1\n" * (_COMPILE_MAX_OPS + 44)
                + "    sub x1, x1, #1\n    cbnz x1, loop\n    hlt\n")
        blocky = None
        for blocky in self._lockstep(body, 1 << 20, APPLE_M1):
            pass
        blocks = list(blocky._sb._blocks.values())
        assert max(len(b.ops) for b in blocks) == _COMPILE_MAX_OPS
        assert any(len(b.ops) == _COMPILE_MAX_OPS and b.fn is not None
                   for b in blocks)


class TestInvalidation:
    def _runtime_with_cached_proc(self):
        asm = build_benchmark("505.mcf", target_instructions=5_000)
        elf = compile_lfi(asm, options=O2,
                          bss_size=arena_bss_size("505.mcf")).elf
        runtime = Runtime(engine=SUPERBLOCK)
        proc = runtime.spawn(elf)
        return runtime, proc

    def test_mmap_over_cached_text_retranslates(self):
        runtime, proc = self._runtime_with_cached_proc()
        runtime.run()
        sb = runtime.machine._sb
        assert sb.cached_blocks > 0
        before = sb.cached_blocks
        lo = proc.layout.base
        hi = proc.layout.end
        # Re-mapping the slot (exec-into-fresh-image style) must drop
        # every cached block that overlaps it.
        page = runtime.memory.page_size
        runtime.memory.map_region(lo + 64 * page, page, 2 | 1)
        spanning = [s for s in list(sb._blocks)
                    if lo <= s < hi]
        runtime.memory.unmap(lo + 64 * page, page)
        assert sb.invalidations >= 0  # counters exist and move below
        count0 = sb.invalidations
        # Now invalidate the whole slot the way exec/munmap would.
        runtime.machine.invalidate_code(lo, hi - lo)
        assert all(sb.block_at(s) is None for s in spanning)
        assert sb.invalidations >= count0 + len(spanning)
        assert sb.cached_blocks <= before - len(spanning)

    def test_invalidation_is_slot_local(self):
        """Remapping one sandbox's translated text must not disturb a
        sibling sandbox's cached blocks — block keys are absolute pcs, so
        invalidation is naturally range-scoped to the touched slot."""
        asm = build_benchmark("505.mcf", target_instructions=5_000)
        elf = compile_lfi(asm, options=O2,
                          bss_size=arena_bss_size("505.mcf")).elf
        runtime = Runtime(engine=SUPERBLOCK)
        first = runtime.spawn(elf)
        second = runtime.spawn(elf)
        runtime.run()
        sb = runtime.machine._sb

        def blocks_in(layout):
            return {s for s in sb._blocks
                    if layout.base <= s < layout.end}

        first_blocks = blocks_in(first.layout)
        second_blocks = blocks_in(second.layout)
        assert first_blocks and second_blocks
        page = runtime.memory.page_size
        target = min(first_blocks) & ~(page - 1)
        from repro.memory import PERM_RW

        # mmap-over-text in the first slot only.
        runtime.memory.unmap(target, page)
        runtime.memory.map_region(target, page, PERM_RW)
        assert all(sb.block_at(s) is None for s in first_blocks
                   if target <= s < target + page)
        # Blocks outside the touched page survive in the same slot...
        assert all(sb.block_at(s) is not None for s in first_blocks
                   if not target <= s < target + page)
        # ...and the sibling slot is completely untouched.
        assert blocks_in(second.layout) == second_blocks

    def test_permission_downgrade_invalidates(self):
        runtime, proc = self._runtime_with_cached_proc()
        runtime.run()
        sb = runtime.machine._sb
        text_blocks = [s for s in list(sb._blocks)
                       if proc.layout.base <= s < proc.layout.end]
        assert text_blocks
        page = runtime.memory.page_size
        target = min(text_blocks) & ~(page - 1)
        from repro.memory import PERM_RW

        runtime.memory.protect(target, page, PERM_RW)  # drop execute
        assert all(
            sb.block_at(s) is None
            for s in text_blocks
            if target <= s < target + page
        )


class TestWarmClones:
    """Two clones of one template in fresh slots (warm spawn).

    The second clone's decodes come from the machine's word-keyed memo
    (DESIGN.md §10): only pc-relative words are decoded again at the new
    addresses, and both engines still match stepping bit-exactly."""

    LOOP = prologue() + f"""
        mov x20, #{3 * _COMPILE_THRESHOLD}
        mov x3, #0
        adrp x19, buf
        add x19, x19, :lo12:buf
    loop:
        lsl x1, x20, #3
        str x20, [x19, x1]
        ldr x2, [x19, x1]
        add x3, x3, x2
    """ + rtcall(RuntimeCall.GETPID) + """
        sub x20, x20, #1
        cbnz x20, loop
        and x0, x3, #0xff
    """ + rt_exit() + """
    .data
    buf: .skip 512
    """

    @pytest.mark.parametrize("model", [None, APPLE_M1], ids=["none", "m1"])
    def test_second_clone_reuses_decodes(self, model, monkeypatch):
        import repro.emulator.machine as machine_mod
        from repro.arm64.decoder import PC_RELATIVE_CLASSES, decoding_class
        from repro.checkpoint import memory_digest

        elf = compile_lfi(self.LOOP, options=O2).elf
        real_decode = machine_mod.decode_word
        runs = {}
        for engine in ENGINES:
            runtime = Runtime(model=model, engine=engine)
            machine = runtime.machine
            template = runtime.load_template(elf)
            clones = []
            for clone in range(2):
                decoded = []

                def counting(word, pc=0):
                    decoded.append(word)
                    return real_decode(word, pc)

                monkeypatch.setattr(machine_mod, "decode_word", counting)
                proc = runtime.spawn_clone(template)
                instret, cycles = machine.instret, machine.cycles
                code = runtime.run_until_exit(proc)
                clones.append((
                    code, proc.registers,
                    memory_digest(runtime.memory, proc.layout),
                    machine.instret - instret, machine.cycles - cycles))
                classes = {decoding_class(word) for word in decoded}
                if clone == 0:
                    assert classes - PC_RELATIVE_CLASSES  # cold: all words
                else:
                    assert decoded and classes <= PC_RELATIVE_CLASSES
            monkeypatch.undo()
            assert clones[0][1:] != clones[1][1:]  # different slots
            runs[engine.kind] = clones
        assert runs["superblock"] == runs["stepping"]
