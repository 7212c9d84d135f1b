"""PR-9 transition tests: springboard fusion, chaining, batch ABI.

The near-zero-cost transition machinery (DESIGN.md §15) is, like the
superblock engine itself, a pure execution-strategy change: fused
runtime calls, chained block dispatch, and the vectored BATCH ABI must
all be architecturally invisible.  Every differential test here runs
the same program under ``stepping`` and ``superblock`` engines and
demands bit-identical observables — final registers, memory, retired
instructions, modeled cycles, faults, stdout — while also asserting
that the fast paths actually fired (``fused_calls``/``chain_links``
counters), so a silent fallback to the slow path cannot pass.

The :class:`repro.EngineConfig` satellite is covered here too: the
typed rejection of the old string kwarg, dict round-trips across
process/checkpoint boundaries, and the gateway's typed
:class:`~repro.errors.ConfigError` on fuel/timeslice conflicts.
"""

from __future__ import annotations

import pytest

from repro import ENGINE_KINDS, ConfigError, EngineConfig
from repro.checkpoint import Checkpoint, capture_job, restore_job
from repro.core import O2
from repro.emulator import APPLE_M1, HltTrap, Machine, OutOfFuel
from repro.memory import PagedMemory
from repro.runtime import Runtime, RuntimeCall
from repro.runtime.syscalls import BATCHABLE
from repro.runtime.table import BATCH_MAX_RECORDS
from repro.toolchain import compile_lfi
from repro.workloads.rtlib import (
    batch_block,
    mov_imm,
    prologue,
    rt_exit,
    rtcall,
)

from .conftest import load_elf_into

STEPPING = EngineConfig(kind="stepping")
SUPERBLOCK = EngineConfig(kind="superblock")
ENGINES = (STEPPING, SUPERBLOCK)


def observables(engine, elf, model=None, timeslice=50_000):
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


def call_loop_program(iterations: int = 50) -> str:
    """A hot loop making one GETPID runtime call per trip.

    Small enough to translate into a handful of superblocks, hot enough
    that both the fused-call springboard and block chaining must engage.
    """
    return (
        prologue()
        + f"\tmov x20, #{iterations}\n"
        + "\tmov x26, #0\n"
        + "loop:\n"
        + rtcall(RuntimeCall.GETPID)
        + "\tadd x26, x26, x0\n"
        + "\tsub x20, x20, #1\n"
        + "\tcbnz x20, loop\n"
        + "\tmov x0, x26\n"
        + rt_exit()
    )


class TestFusedSpringboard:
    """The tentpole: runtime calls fused at translation time must be
    invisible — identical states, cycle accounting, and stdout — while
    the ``fused_calls`` counter proves the fast path actually ran."""

    @pytest.mark.parametrize("model", [None, APPLE_M1],
                             ids=["uncosted", "M1"])
    @pytest.mark.parametrize("timeslice", [50_000, 64, 7])
    def test_call_loop_identical(self, model, timeslice):
        elf = compile_lfi(call_loop_program(), options=O2).elf
        stepping = observables(STEPPING, elf, model=model,
                               timeslice=timeslice)
        superblock = observables(SUPERBLOCK, elf, model=model,
                                 timeslice=timeslice)
        assert stepping == superblock

    def test_fused_and_chained_paths_fire(self):
        elf = compile_lfi(call_loop_program(200), options=O2).elf
        runtime = Runtime(model=None, engine=EngineConfig())
        runtime.spawn(elf)
        runtime.run()
        sb = runtime.machine._sb
        assert sb.fused_calls > 0, "no runtime call was fused"
        assert sb.chain_links > 100, "the hot loop never chained"

    def test_chaining_off_still_identical(self):
        """chaining=False is a tuning knob, never a semantic one."""
        elf = compile_lfi(call_loop_program(), options=O2).elf
        on = observables(EngineConfig(chaining=True), elf, model=APPLE_M1)
        off = observables(EngineConfig(chaining=False), elf, model=APPLE_M1)
        assert on == off

    def test_block_cache_cap_still_identical(self):
        elf = compile_lfi(call_loop_program(), options=O2).elf
        capped = observables(EngineConfig(block_cache_cap=2), elf)
        unbounded = observables(EngineConfig(), elf)
        assert capped == unbounded

    def test_write_ordering_preserved(self):
        """stdout interleaving across fused crossings matches stepping."""
        asm = prologue() + "\tmov x20, #5\nloop:\n"
        asm += "\tmov x0, #1\n"
        asm += "\tadrp x1, msg\n\tadd x1, x1, :lo12:msg\n"
        asm += "\tmov x2, #2\n"
        asm += rtcall(RuntimeCall.WRITE)
        asm += "\tsub x20, x20, #1\n\tcbnz x20, loop\n"
        asm += "\tmov x0, #0\n" + rt_exit()
        asm += '.rodata\nmsg: .asciz "ab"\n'
        elf = compile_lfi(asm, options=O2).elf
        stepping = observables(STEPPING, elf, model=APPLE_M1)
        superblock = observables(SUPERBLOCK, elf, model=APPLE_M1)
        assert stepping == superblock
        assert stepping["stdout"] == "ab" * 5


class TestChainedFuelLockstep:
    """Chained dispatch must honor fuel instruction-for-instruction."""

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

    def _machine(self, engine) -> Machine:
        from repro.arm64 import parse_assembly
        from repro.arm64.assembler import assemble
        from repro.elf import build_elf

        elf = build_elf(assemble(parse_assembly(self.BODY)))
        memory = PagedMemory()
        load_elf_into(memory, elf)
        machine = Machine(memory, engine=engine)
        machine.cpu.pc = elf.entry
        return machine

    @pytest.mark.parametrize("fuel", [1, 2, 3, 5, 7, 64])
    def test_lockstep_under_exhaustion(self, fuel):
        stepper = self._machine(EngineConfig(kind="stepping"))
        chained = self._machine(EngineConfig(chaining=True))
        for _ in range(400):
            outcomes = []
            for machine in (stepper, chained):
                with pytest.raises((OutOfFuel, HltTrap)) as exc:
                    machine.run(fuel=fuel)
                outcomes.append(exc.type)
            assert outcomes[0] is outcomes[1]
            assert chained.instret == stepper.instret
            assert chained.cpu.pc == stepper.cpu.pc
            assert chained.cpu.regs == stepper.cpu.regs
            if outcomes[0] is HltTrap:
                break
        else:
            pytest.fail("program never completed")
        # Big fuel slices let the loop chain; tiny ones still must not.
        if fuel >= 64:
            assert chained._sb.chain_links > 0


class TestInvalidationUnlinksChains:
    """mmap over translated text must sever chains mid-loop: a stale
    successor link may survive as a pointer, but dispatch must reject it
    (``valid`` is cleared) and retranslation must produce fresh blocks."""

    def _chained_runtime(self):
        elf = compile_lfi(call_loop_program(200), options=O2).elf
        runtime = Runtime(model=None, engine=EngineConfig())
        proc = runtime.spawn(elf)
        runtime.run()
        sb = runtime.machine._sb
        assert sb.chain_links > 0
        return runtime, proc, sb

    def test_mmap_over_chained_loop_invalidates_links(self):
        runtime, proc, sb = self._chained_runtime()
        linked = [blk for blk in sb._blocks.values()
                  if blk.link_taken is not None or blk.link_fall is not None]
        assert linked, "no chained blocks formed"
        # Remap the page holding a chained successor, exec-style.
        target = next(blk.link_taken or blk.link_fall for blk in linked)
        page = runtime.memory.page_size
        page_base = target.start & ~(page - 1)
        from repro.memory import PERM_RW

        runtime.memory.unmap(page_base, page)
        runtime.memory.map_region(page_base, page, PERM_RW)
        # The successor is dead and every surviving chain into the page
        # now points at an invalid block, which dispatch refuses.
        assert target.valid is False
        assert sb.block_at(target.start) is None
        for blk in sb._blocks.values():
            for link in (blk.link_taken, blk.link_fall):
                if link is not None and page_base <= link.start < \
                        page_base + page:
                    assert link.valid is False

    def test_rerun_after_invalidation_matches_stepping(self):
        """After a full-slot invalidation the engine retranslates and
        a fresh guest still matches the stepping engine exactly."""
        runtime, proc, sb = self._chained_runtime()
        runtime.machine.invalidate_code(proc.layout.base,
                                        proc.layout.end - proc.layout.base)
        assert all(not blk.valid for blk in sb._blocks.values()
                   if proc.layout.base <= blk.start < proc.layout.end)
        elf = compile_lfi(call_loop_program(200), options=O2).elf
        second = runtime.spawn(elf)
        runtime.run()
        # GETPID makes the result pid-dependent, so the stepping
        # reference replays the same two-spawn history.
        reference = Runtime(model=None, engine=EngineConfig(kind="stepping"))
        reference.spawn(elf)
        ref_proc = reference.spawn(elf)
        reference.run()
        assert second.exit_code == ref_proc.exit_code
        assert second.registers == ref_proc.registers


def batch_program(records, result_slot: int = 0) -> str:
    """A guest that issues one BATCH of ``records`` and exits with the
    call's return value.  The record buffer lives in the arena
    (``.bss``), 64 bytes in; word ``result_slot`` of the arena receives
    the BATCH return so it lands in the memory observables too."""
    asm = prologue()
    asm += "\tadrp x25, arena\n\tadd x25, x25, :lo12:arena\n"
    asm += "\tadd x19, x25, #64\n"
    asm += batch_block(records, buf_reg="x19")
    asm += f"\tstr x0, [x25, #{8 * result_slot}]\n"
    asm += rt_exit()
    asm += "\n.bss\n.balign 64\narena:\n    .skip 64\n"
    return asm


BATCH_MIXES = {
    "getpid": [(RuntimeCall.GETPID, [])],
    "mixed": [(RuntimeCall.GETPID, []), (RuntimeCall.CLOCK, []),
              (RuntimeCall.BRK, [0])],
    "nonbatchable": [(RuntimeCall.FORK, [])],
    "unknown-call": [(99, [])],
    "write": [(RuntimeCall.WRITE, [1, 0, 0]), (RuntimeCall.GETPID, [])],
}


class TestBatchABI:
    """The vectored runtime-call ABI: one transition, many crossings."""

    @pytest.mark.parametrize("mix", sorted(BATCH_MIXES), ids=str)
    def test_batch_differential(self, mix):
        records = BATCH_MIXES[mix]
        bss = 64 + len(records) * 64
        elf = compile_lfi(batch_program(records), options=O2,
                          bss_size=bss).elf
        stepping = observables(STEPPING, elf, model=APPLE_M1)
        superblock = observables(SUPERBLOCK, elf, model=APPLE_M1)
        assert stepping == superblock
        # The guest exits with the BATCH return: the record count for a
        # well-formed batch (per-record errors land in result words).
        assert stepping["exit"] == len(records) & 0xFF

    def test_result_words_written_back(self):
        records = [(RuntimeCall.GETPID, []), (RuntimeCall.FORK, [])]
        elf = compile_lfi(batch_program(records), options=O2,
                          bss_size=64 + 128).elf
        runtime = Runtime(model=None, engine=EngineConfig())
        proc = runtime.spawn(elf)
        runtime.run()
        import errno

        # Locate the record buffer by its signature: GETPID's call word
        # followed 64 bytes later by FORK's.
        sig0 = int(RuntimeCall.GETPID).to_bytes(8, "little")
        sig1 = int(RuntimeCall.FORK).to_bytes(8, "little")
        buf = None
        for base, size, _ in runtime.memory.mapped_regions():
            if not (proc.layout.base <= base < proc.layout.end):
                continue
            raw = runtime.memory._raw_read(base, size)
            idx = raw.find(sig0)
            while idx != -1:
                if raw[idx + 64:idx + 72] == sig1:
                    buf = base + idx
                    break
                idx = raw.find(sig0, idx + 1)
            if buf is not None:
                break
        assert buf is not None, "batch record buffer not found in memory"

        def result_word(i):
            raw = runtime.memory._raw_read(buf + i * 64 + 56, 8)
            return int.from_bytes(raw, "little")

        assert result_word(0) == proc.pid
        assert result_word(1) == (-errno.ENOSYS) & ((1 << 64) - 1)

    def test_batch_abi_disabled_returns_enosys(self):
        import errno

        records = [(RuntimeCall.GETPID, [])]
        elf = compile_lfi(batch_program(records), options=O2,
                          bss_size=128).elf
        for engine in (EngineConfig(batch_abi=False),
                       EngineConfig(kind="stepping", batch_abi=False)):
            runtime = Runtime(model=None, engine=engine)
            proc = runtime.spawn(elf)
            runtime.run()
            assert proc.exit_code == (-errno.ENOSYS) & 0xFF

    def test_oversized_batch_rejected(self):
        import errno

        asm = prologue()
        asm += "\tadrp x25, arena\n\tadd x25, x25, :lo12:arena\n\tmov x19, x25\n"
        asm += "\tmov x0, x19\n"
        asm += mov_imm("x1", BATCH_MAX_RECORDS + 1)
        asm += rtcall(RuntimeCall.BATCH)
        asm += rt_exit()
        asm += "\n.bss\n.balign 64\narena:\n    .skip 64\n"
        elf = compile_lfi(asm, options=O2).elf
        results = {}
        for engine in ENGINES:
            runtime = Runtime(model=None, engine=engine)
            proc = runtime.spawn(elf)
            runtime.run()
            results[engine.kind] = proc.exit_code
        assert results["stepping"] == results["superblock"] \
            == (-errno.EINVAL) & 0xFF

    def test_scheduling_calls_are_not_batchable(self):
        for call in (RuntimeCall.EXIT, RuntimeCall.FORK, RuntimeCall.WAIT,
                     RuntimeCall.YIELD, RuntimeCall.YIELD_TO,
                     RuntimeCall.BATCH):
            assert call not in BATCHABLE


WRITER = prologue() + """
    mov x20, #20
wloop:
    mov x0, #1
    adrp x1, msg
    add x1, x1, :lo12:msg
    mov x2, #4
""" + rtcall(RuntimeCall.WRITE) + """
    sub x20, x20, #1
    cbnz x20, wloop
    mov x0, #7
""" + rt_exit() + """
.rodata
msg: .asciz "tick"
"""


class TestEngineConfigAPI:
    def test_dict_round_trip(self):
        for config in (EngineConfig(),
                       EngineConfig(kind="stepping"),
                       EngineConfig(fuel=1234, block_cache_cap=7,
                                    chaining=False, batch_abi=False)):
            assert EngineConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            EngineConfig.from_dict({"kind": "superblock", "nitro": True})

    def test_validation(self):
        with pytest.raises(ConfigError):
            EngineConfig(kind="jit")
        with pytest.raises(ConfigError):
            EngineConfig(fuel=0)
        with pytest.raises(ConfigError):
            EngineConfig(block_cache_cap=-1)
        with pytest.raises(ConfigError):
            EngineConfig.coerce(42)

    def test_package_root_exports(self):
        import repro
        from repro.engine import EngineConfig as canonical

        assert repro.EngineConfig is canonical
        assert repro.ENGINE_KINDS == ENGINE_KINDS == \
            ("superblock", "stepping")
        assert issubclass(repro.ConfigError, ValueError)

    def test_string_kwarg_rejected(self):
        with pytest.raises(ConfigError, match="EngineConfig"):
            EngineConfig.coerce("stepping")
        with pytest.raises(ConfigError):
            Runtime(engine="superblock")
        with pytest.raises(ConfigError):
            Machine(PagedMemory(), engine="stepping")

    def test_engine_config_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            runtime = Runtime(engine=EngineConfig(kind="stepping"))
            assert runtime.machine.engine == "stepping"
            Runtime()  # None is not the deprecated spelling either

    def test_fuel_sets_runtime_timeslice(self):
        runtime = Runtime(engine=EngineConfig(fuel=777))
        assert runtime.scheduler.timeslice == 777
        explicit = Runtime(engine=EngineConfig(fuel=777), timeslice=123)
        assert explicit.scheduler.timeslice == 777

    def test_checkpoint_round_trip(self):
        """A job paused under one EngineConfig resumes byte-identically
        in a runtime rebuilt from the config's serialized dict."""
        config = EngineConfig(block_cache_cap=64, chaining=True)
        elf = compile_lfi(WRITER, options=O2).elf

        reference = Runtime(model=None, timeslice=50, engine=config)
        ref = reference.spawn(elf)
        assert reference.run_bounded(ref, 10_000_000)

        first = Runtime(model=None, timeslice=50, engine=config)
        proc = first.spawn(elf)
        assert not first.run_bounded(proc, 60)
        ckpt = Checkpoint.from_bytes(
            capture_job(first, proc,
                        consumed_instructions=first.machine.instret,
                        consumed_cycles=first.machine.cycles).to_bytes())

        revived = EngineConfig.from_dict(config.to_dict())
        assert revived == config
        second = Runtime(model=None, timeslice=50, engine=revived)
        restored = restore_job(second, ckpt)
        assert second.run_bounded(restored, 10_000_000)

        assert second.stdout_of(restored) == reference.stdout_of(ref) \
            == "tick" * 20
        assert restored.exit_code == ref.exit_code == 7
        assert restored.instructions == ref.instructions
        assert restored.registers == ref.registers


class TestGatewayConfigErrors:
    def _policies(self, **kwargs):
        from repro.serve import TenantPolicy

        return {"a": TenantPolicy(**kwargs)}

    def test_fuel_conflicts_with_pinned_timeslice(self):
        from repro.serve import Gateway

        with pytest.raises(ConfigError, match="conflicts with"):
            Gateway(self._policies(), lanes=1, timeslice=200,
                    engine=EngineConfig(fuel=100))

    def test_fuel_exceeding_checkpoint_interval(self):
        from repro.serve import Gateway

        with pytest.raises(ConfigError, match="checkpoint interval"):
            Gateway(self._policies(), lanes=1, checkpoint_interval=2000,
                    engine=EngineConfig(fuel=5000))

    def test_agreeing_fuel_accepted_and_pinned(self):
        from repro.serve import Gateway

        gateway = Gateway(self._policies(), lanes=1,
                          engine=EngineConfig(fuel=500))
        assert gateway.timeslice == 500
        same = Gateway(self._policies(), lanes=1, timeslice=500,
                       engine=EngineConfig(fuel=500))
        assert same.timeslice == 500

    def test_tenant_engine_kind_pin_mismatch(self):
        from repro.serve import Gateway

        with pytest.raises(ConfigError, match="pins engine kind"):
            Gateway(self._policies(
                engine=EngineConfig(kind="stepping")), lanes=1)

    def test_tenant_fuel_pin_mismatch_never_clamped(self):
        from repro.serve import Gateway

        with pytest.raises(ConfigError, match="never silently"):
            Gateway(self._policies(engine=EngineConfig(fuel=999)),
                    lanes=1, timeslice=500)

    def test_tenant_pin_checked_on_hot_reload(self):
        from repro.serve import Gateway, TenantPolicy

        gateway = Gateway(self._policies(), lanes=1)
        matching = TenantPolicy(engine=EngineConfig())
        gateway.reload("a", matching, token=1)
        with pytest.raises(ConfigError):
            gateway.reload("a", TenantPolicy(
                engine=EngineConfig(kind="stepping")), token=2)
