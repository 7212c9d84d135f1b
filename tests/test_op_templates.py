"""The superblock op-template table, differentially, and the code cache.

Every specialized op of the superblock engine comes from one table of
per-op source templates (``superblock._ROWS``) with two consumers: the
uncosted op closures and the inlined source of hot costed blocks
(DESIGN.md §10, §15).  These tests build one-op blocks from random
operands for every row and run each three ways — the stepping
interpreter, the uncosted closure, and the compiled costed block at
compile threshold 1 — demanding identical architectural state, and
float-exact cycles, scoreboard (key order included) and TLB/L1/L2
counters between the two costed runs.  They also pin the compiled
block's partial commit on a mid-block fault, the identity of every
object a compiled block binds, and the process-wide code cache.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import replace

import pytest

from repro import EngineConfig, SpeculationConfig
from repro.arm64 import parse_assembly
from repro.arm64.assembler import assemble
from repro.core import O2
from repro.elf import build_elf
from repro.emulator import APPLE_M1, CpuState, Machine, Trap, superblock
from repro.memory import PERM_RW, MemoryFault, PagedMemory
from repro.runtime import Runtime
from repro.toolchain import compile_lfi
from repro.workloads.spec import arena_bss_size, build_benchmark

from .conftest import load_elf_into

STEPPING = EngineConfig(kind="stepping")
SUPERBLOCK = EngineConfig(kind="superblock")
PAGE = PagedMemory().page_size
DATA = 0x40_0000          # two mapped data pages; unmapped on both sides
DATA_SIZE = 2 * PAGE
ALIAS = 0x80_0000         # a copy-on-write alias of the data pages
#: Register roles: x9 base pointer, w10 index, w11 offset source, x5
#: branch target.  Data operands come from the rest.
DATA_REGS = (0, 1, 2, 3, 4, 6, 7, 8, 12, 13, 14, 15)
CONDS = ("eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc", "hi", "ls", "ge",
         "lt", "gt", "le")
BITMASKS = {64: (0xFF, 0xFF00, 0x0F0F0F0F0F0F0F0F, 0xFFFFFFFF00000000,
                 0x7FFFFFFFFFFFFFFE),
            32: (0xFF, 0xFF00, 0x0F0F0F0F, 0xFFFF0000, 0x7FFFFFFE)}
#: (access, mnemonic + transfer register template, access size).
ACCESSES = (
    ("ld", "ldr {x}", 8), ("ld", "ldr {w}", 4), ("ld", "ldrb {w}", 1),
    ("ld", "ldrh {w}", 2), ("lds", "ldrsb {x}", 1), ("lds", "ldrsh {w}", 2),
    ("lds", "ldrsw {x}", 4), ("st", "str {x}", 8), ("st", "strb {w}", 1),
    ("st", "strh {w}", 2), ("st", "str {w}", 4), ("stz", "str xzr", 8),
    ("stz", "strb wzr", 1), ("vld", "ldr d{v}", 8), ("vld", "ldr q{v}", 16),
    ("vld", "ldr s{v}", 4), ("vst", "str d{v}", 8), ("vst", "str q{v}", 16),
    ("ldp", "ldp {x}, {x2}", 8), ("stp", "stp {x}, {x2}", 8),
)
FORMS = ("imm", "sp", "pre", "pre_sp", "post", "post_sp", "uxtw")
#: Small gauges (more misses and evictions), power-of-two and not: the
#: compiled probes inline the MRU check only for power-of-two geometry.
SMALL = replace(APPLE_M1, tlb_entries=64, l1_lines=128, l2_lines=1024)
ODD = replace(APPLE_M1, tlb_entries=48, l1_lines=96, l2_lines=768)


class Case:
    """One generated one-op block: source lines and the initial state."""

    def __init__(self, lines, guard=False, regs=None, target_regs=(),
                 table_slot=None):
        self.lines = lines
        self.guard = guard
        self.regs = dict(regs or {})
        #: Registers set to the address of the ``tgt`` label.
        self.target_regs = target_regs
        #: A data address that holds the ``tgt`` address (runtime call).
        self.table_slot = table_slot


def _value(rng):
    return rng.choice((0, 1, 2, (1 << 64) - 1, 1 << 63, (1 << 63) - 1,
                       1 << 31, (1 << 32) - 1, rng.getrandbits(64),
                       rng.getrandbits(32), rng.randrange(256)))


def _offset(rng):
    """A pointer offset into the data pages: mostly inside, sometimes
    straddling the inner page boundary, sometimes faulting."""
    r = rng.random()
    if r < 0.8:
        return rng.randrange(512, DATA_SIZE - 512, 8)
    if r < 0.9:
        return PAGE - rng.randrange(1, 16)
    return rng.choice((DATA_SIZE - rng.randrange(1, 16),
                       -rng.randrange(8, 64, 8)))


def _fill(template, rng):
    """Substitute random operands for the ``{...}`` fields of a line:
    ``{x}`` and ``{x2}`` are two distinct registers, ``{w}`` is ``{x}``'s
    32-bit view and ``{v}`` one vector register; ``{xr}``, ``{wr}`` and
    ``{vr}`` draw afresh at every occurrence (so operands may alias)."""
    x, x2 = rng.sample(DATA_REGS, 2)
    fixed = {"x": f"x{x}", "x2": f"x{x2}", "w": f"w{x}",
             "v": str(rng.randrange(8))}

    def pick(match):
        name = match.group(1)
        if name in fixed:
            return fixed[name]
        if name == "vr":
            return str(rng.randrange(8))
        return f"{name[0]}{rng.choice(DATA_REGS)}"
    return re.sub(r"\{(\w+)\}", pick, template)


def _mem_case(rng, text, size, form):
    if text.startswith(("ldp", "stp")):
        imm = rng.randrange(-512, 512, 8)
    elif form.startswith(("pre", "post")):
        imm = rng.randrange(-256, 256)
    else:
        imm = rng.randrange(0, 256, size)
    operand = {"imm": f"[x9, #{imm}]", "sp": f"[sp, #{imm}]",
               "pre": f"[x9, #{imm}]!", "pre_sp": f"[sp, #{imm}]!",
               "post": f"[x9], #{imm}", "post_sp": f"[sp], #{imm}",
               "uxtw": "[x9, w10, uxtw]"}[form]
    regs = {9: DATA + _offset(rng)}
    if form == "uxtw":
        regs = {9: DATA, 10: _offset(rng) & 0xFFFFFFFF}
    return Case([f"{_fill(text, rng)}, {operand}"], regs=regs)


def _cases(rng):
    """One random instance of every instruction shape."""
    out = []
    simple = []
    for w in (64, 32):
        d = "{xr}" if w == 64 else "{wr}"
        simple += [f"add {d}, {d}, #{rng.randrange(4096)}",
                   f"sub {d}, {d}, #{rng.randrange(4096)}",
                   f"add {d}, {d}, {d}", f"sub {d}, {d}, {d}",
                   f"add {d}, {d}, {d}, lsl #{rng.randrange(w)}",
                   f"sub {d}, {d}, {d}, lsl #{rng.randrange(w)}",
                   f"adds {d}, {d}, #{rng.randrange(4096)}",
                   f"subs {d}, {d}, #{rng.randrange(4096)}",
                   f"adds {d}, {d}, {d}", f"subs {d}, {d}, {d}",
                   f"cmp {d}, #{rng.randrange(4096)}",
                   f"cmn {d}, #{rng.randrange(4096)}",
                   f"cmp {d}, {d}", f"cmn {d}, {d}",
                   f"mov {d}, {d}",
                   f"movk {d}, #{rng.randrange(1 << 16)}, "
                   f"lsl #{rng.randrange(0, w, 16)}",
                   f"madd {d}, {d}, {d}, {d}", f"msub {d}, {d}, {d}, {d}",
                   f"mul {d}, {d}, {d}", f"mneg {d}, {d}, {d}",
                   f"udiv {d}, {d}, {d}", f"sdiv {d}, {d}, {d}",
                   f"ubfx {d}, {d}, #{rng.randrange(w // 2)}, "
                   f"#{rng.randrange(1, w // 2)}",
                   f"lsl {d}, {d}, #{rng.randrange(1, w)}",
                   f"sbfx {d}, {d}, #{rng.randrange(w // 2)}, "
                   f"#{rng.randrange(1, w // 2)}",
                   f"sbfm {d}, {d}, #{rng.randrange(w)}, #{rng.randrange(w)}",
                   f"ubfm {d}, {d}, #{rng.randrange(w)}, #{rng.randrange(w)}"]
        for name in ("and", "orr", "eor"):
            simple += [f"{name} {d}, {d}, #{rng.choice(BITMASKS[w]):#x}",
                       f"{name} {d}, {d}, {d}"]
        for name in ("fadd", "fsub", "fmul"):
            v = "d" if w == 64 else "s"
            simple.append(f"{name} {v}{{vr}}, {v}{{vr}}, {v}{{vr}}")
        for name in ("fmadd", "fmsub"):
            v = "d" if w == 64 else "s"
            simple.append(f"{name} {v}{{vr}}, {v}{{vr}}, {v}{{vr}}, "
                          f"{v}{{vr}}")
    for name in ("add", "sub"):
        imm = rng.randrange(4096)
        simple += [f"{name} {{xr}}, sp, #{imm}", f"{name} sp, {{xr}}, #{imm}",
                   f"{name} sp, sp, #{imm}"]
    simple += ["add {xr}, {xr}, {wr}, uxtw",
               f"movz {{xr}}, #{rng.randrange(1 << 16)}, lsl #16",
               f"movn {{wr}}, #{rng.randrange(1 << 16)}"]
    for name in ("add", "sub", "mul", "and", "orr", "eor"):
        arrangements = ["8b", "16b", "4h", "8h", "2s", "4s"]
        if name != "mul":  # no 64-bit lanes for vector mul
            arrangements.append("2d")
        lanes = rng.choice(arrangements)
        simple.append(f"{name} v{{vr}}.{lanes}, v{{vr}}.{lanes}, "
                      f"v{{vr}}.{lanes}")
    out += [Case([_fill(line, rng)]) for line in simple]
    # Division by zero, and the one signed overflow (INT_MIN / -1).
    for r, w in (("x", 64), ("w", 32)):
        for name in ("udiv", "sdiv"):
            out.append(Case([f"{name} {r}3, {r}4, {r}6"], regs={6: 0}))
        out.append(Case([f"sdiv {r}3, {r}4, {r}6"],
                        regs={4: 1 << (w - 1), 6: (1 << 64) - 1}))

    for access, text, size in ACCESSES:
        for form in FORMS:
            if form == "uxtw" and access in ("ldp", "stp"):
                continue
            out.append(_mem_case(rng, text, size, form))

    # Branches: ``tgt`` is two instructions after the branch.
    branches = ["b tgt", "bl tgt", "br x5", "blr x5", "ret",
                "cbz {xr}, tgt", "cbnz {xr}, tgt", "cbz {wr}, tgt",
                "cbnz {wr}, tgt", f"tbz {{xr}}, #{rng.randrange(64)}, tgt",
                f"tbnz {{wr}}, #{rng.randrange(32)}, tgt", "adr {xr}, tgt"]
    branches += [f"b.{cond} tgt" for cond in CONDS]
    for line in branches:
        zero = {r: 0 for r in DATA_REGS if rng.random() < 0.3}
        out.append(Case([_fill(line, rng)], regs=zero,
                        target_regs=(5, 30)))

    # Fused guard sequences (guard pc listed in the guard map).
    off = _offset(rng)
    for access, text in (("ld", "ldr {x}"), ("lds", "ldrsw {x}"),
                         ("st", "str {w}"), ("stz", "str xzr")):
        imm = rng.randrange(0, 256, 8)
        out.append(Case(["add x18, x9, w10, uxtw",
                         f"{_fill(text, rng)}, [x18, #{imm}]"], guard=True,
                        regs={9: DATA, 10: _offset(rng) & 0xFFFFFFFF}))
        for op in ("add", "sub"):
            imm = rng.randrange(4096)
            src = (off - imm if op == "add" else off + imm) & 0xFFFFFFFF
            out.append(Case([f"{op} w10, w11, #{imm}",
                             f"{_fill(text, rng)}, [x9, w10, uxtw]"],
                            guard=True, regs={9: DATA, 11: src}))
    for branch in ("br x18", "blr x18", "ret x18"):
        out.append(Case(["add x18, x9, w10, uxtw", branch], guard=True,
                        regs={9: 0}, target_regs=(10,)))
    out.append(Case(["mov w22, wsp", "add sp, x21, x22"], guard=True,
                    regs={21: rng.choice((0, DATA))}))
    # The runtime-call pair: the table slot holds the entry address.
    slot = DATA + _offset(rng)
    out.append(Case(["ldr x30, [x21, #8]", "blr x30"], regs={21: slot},
                    table_slot=slot + 8))
    return out


def _image(case):
    body = case.lines + ["brk #1", "tgt:", "brk #2"]
    elf = build_elf(assemble(parse_assembly("\n".join(body) + "\n")))
    return elf, elf.entry + 4 * (len(case.lines) + 1)


def _run(case, elf, target, model, engine, seed):
    """Run one case from a seeded state; return everything observable."""
    rng = random.Random(seed)
    memory = PagedMemory()
    load_elf_into(memory, elf)
    memory.map_region(DATA, DATA_SIZE, PERM_RW)
    memory.load_image(DATA, rng.randbytes(DATA_SIZE))
    # Sometimes the data pages are shared copy-on-write, or watched by a
    # write observer: the compiled stores must then leave the fast path.
    if rng.random() < 0.3:
        memory.share_region(DATA, ALIAS, DATA_SIZE)
    writes = []
    if rng.random() < 0.3:
        memory.write_observer = lambda address, size: writes.append(
            (address, size))
    if case.table_slot is not None and \
            DATA <= case.table_slot <= DATA + DATA_SIZE - 8:
        memory.load_image(case.table_slot, target.to_bytes(8, "little"))
    machine = Machine(memory, model=model, engine=engine)
    cpu = machine.cpu
    cpu.regs[:] = [_value(rng) for _ in range(31)]
    cpu.vregs[:] = [rng.getrandbits(128) for _ in range(32)]
    cpu.nzcv = rng.randrange(16)
    cpu.sp = DATA + _offset(rng)
    for index, value in case.regs.items():
        cpu.regs[index] = value
    for index in case.target_regs:
        cpu.regs[index] = target
    cpu.pc = elf.entry
    if case.guard:
        machine.guard_map[elf.entry] = "guard"
    costing = machine._costing
    if costing is not None:
        # A used scoreboard (random keys, values and insertion order)
        # and warm gauges, so compiled blocks meet present and absent
        # keys, MRU hits, LRU hits and misses.
        costing.t_issue = float(rng.randrange(100))
        costing.t_done = costing.t_issue + rng.randrange(50)
        keys = rng.sample(list(range(31)) + list(range(32, 64)) + ["sp"], 12)
        for key in keys:
            costing.ready[key] = rng.randrange(200) / 4
        near = [cpu.sp, DATA + rng.randrange(DATA_SIZE)]
        near += [v for v in cpu.regs if DATA <= v < DATA + DATA_SIZE]
        for address in rng.sample(near * 3, min(8, 3 * len(near))):
            for gauge in (machine.tlb, machine.l1, machine.l2):
                gauge.lookup(address + rng.choice((0, 8, 64, PAGE)))
    try:
        machine.run(fuel=16)
        trap = None
    except Trap as exc:
        trap = (type(exc).__name__, exc.pc, str(exc))
    state = {
        "regs": list(cpu.regs), "sp": cpu.sp, "pc": cpu.pc,
        "nzcv": cpu.nzcv, "vregs": list(cpu.vregs),
        "memory": hashlib.sha256(memory._raw_read(DATA, DATA_SIZE)
                                 + _alias(memory)).hexdigest(),
        "writes": writes, "instret": machine.instret, "trap": trap,
    }
    costed = None
    if costing is not None:
        costed = {
            "cycles": machine.cycles, "t_issue": costing.t_issue,
            "t_done": costing.t_done, "ready": list(costing.ready.items()),
            "gauges": [(g.hits, g.misses)
                       for g in (machine.tlb, machine.l1, machine.l2)],
        }
    return state, costed, machine


def _alias(memory):
    try:
        return memory._raw_read(ALIAS, DATA_SIZE)
    except MemoryFault:
        return b""


def _rows_of(machine):
    rows = set()
    for block in machine._sb._blocks.values():
        rows.update(spec[0] for spec in block.tmpls if spec is not None)
        if block.rtcall is not None:
            rows.add(block.rtcall[-1][0])
    return rows


def _check(case, model, seed, monkeypatch):
    elf, target = _image(case)
    step, step_cost, _ = _run(case, elf, target, model, STEPPING, seed)
    closure, _, uncosted = _run(case, elf, target, None, SUPERBLOCK, seed)
    monkeypatch.setattr(superblock, "_COMPILE_THRESHOLD", 1)
    compiled, compiled_cost, costed = _run(case, elf, target, model,
                                           SUPERBLOCK, seed)
    monkeypatch.undo()
    where = " / ".join(case.lines)
    assert closure == step, where
    assert compiled == step, where
    assert compiled_cost == step_cost, where
    assert costed._sb.compiled_blocks >= 1
    return _rows_of(uncosted) | _rows_of(costed)


@pytest.mark.parametrize("seed, model", [(0, SMALL), (1, ODD),
                                         (2, APPLE_M1)],
                         ids=["small", "odd-geometry", "apple-m1"])
def test_every_row_matches_stepping(seed, model, monkeypatch):
    """Each instruction shape, with fresh random operands per seed, on
    all three tiers; together the shapes reach every table row."""
    rng = random.Random(f"op-templates:{seed}")
    seen = set()
    for i, case in enumerate(_cases(rng)):
        seen |= _check(case, model, seed * 1000 + i, monkeypatch)
    assert seen == set(superblock._ROWS)


@pytest.mark.parametrize("cond", CONDS)
def test_condition_rows_match_the_cpu(cond):
    """Every ``b.cond`` row agrees with ``CpuState.condition_holds`` on
    all 16 flag values (the random cases draw only a few of them)."""
    cpu = CpuState()
    run = superblock._ROWS[f"b.{cond}"].make(
        cpu, cpu.regs, cpu.vregs, None, None, None, 0x1000)
    for nzcv in range(16):
        cpu.nzcv = nzcv
        cpu.pc = 0
        assert run() == cpu.condition_holds(cond), (cond, nzcv)
        assert cpu.pc == (0x1000 if cpu.condition_holds(cond) else 0)


def test_mid_block_fault_commits_partial_state(monkeypatch):
    """A compiled block faulting on its third op commits exactly what
    stepping retired: pc, trap, instret, t_issue/t_done, scoreboard."""
    case = Case(["add x1, x1, #1", "cmp x1, #4", "ldr x2, [x9, #8]",
                 "add x3, x2, #1", "b.ne tgt"], regs={9: DATA - 64})
    elf, target = _image(case)
    results = []
    for engine, threshold in ((STEPPING, None), (SUPERBLOCK, 1)):
        if threshold is not None:
            monkeypatch.setattr(superblock, "_COMPILE_THRESHOLD", threshold)
        results.append(_run(case, elf, target, APPLE_M1, engine, 7))
    (step, step_cost, _), (compiled, compiled_cost, machine) = results
    assert machine._sb.compiled_blocks == 1
    assert step["trap"][0] == "MemTrap"
    assert step["trap"][1] == elf.entry + 8
    assert step["instret"] == 2
    assert compiled == step
    assert compiled_cost == step_cost


def test_bound_objects_survive_a_speculation_window():
    """Speculation rollback restores the scoreboard and gauge set lists
    in place, so every reference a compiled block binds stays valid."""
    asm = build_benchmark("505.mcf", target_instructions=4_000)
    elf = compile_lfi(asm, O2, bss_size=arena_bss_size("505.mcf")).elf
    runtime = Runtime(model=APPLE_M1, engine=EngineConfig(
        kind="stepping", speculation=SpeculationConfig(seed=3)))
    machine = runtime.machine
    bound = [machine._costing.ready] + [g._sets for g in
                                        (machine.tlb, machine.l1, machine.l2)]
    runtime.run_until_exit(runtime.spawn(elf))
    assert machine.speculation_log.windows
    after = [machine._costing.ready] + [
        g._sets for g in (machine.tlb, machine.l1, machine.l2)]
    assert all(a is b for a, b in zip(bound, after))


# ---------------------------------------------------------------------------
# The process-wide code cache
# ---------------------------------------------------------------------------

def _kernel_elf(name="505.mcf", n=6_000):
    asm = build_benchmark(name, target_instructions=n)
    return compile_lfi(asm, options=O2, bss_size=arena_bss_size(name)).elf


def _run_kernel(elf):
    runtime = Runtime(model=APPLE_M1)
    runtime.run_until_exit(runtime.spawn(elf))
    return runtime.machine


class TestCodeCache:
    def test_second_runtime_compiles_nothing(self):
        elf = _kernel_elf()
        first = _run_kernel(elf)
        cached = len(superblock._CODE_CACHE)
        second = _run_kernel(elf)
        assert first._sb.compiled_blocks == second._sb.compiled_blocks > 0
        assert second._sb.code_cache_hits == second._sb.compiled_blocks
        assert len(superblock._CODE_CACHE) == cached

    def test_blocks_differing_in_one_literal_do_not_share(self, monkeypatch):
        monkeypatch.setattr(superblock, "_CODE_CACHE",
                            superblock.OrderedDict())
        sources = []
        for imm in (3, 5):
            case = Case([f"add x1, x1, #{imm}", "add x2, x2, x1"])
            elf, target = _image(case)
            monkeypatch.setattr(superblock, "_COMPILE_THRESHOLD", 1)
            _run(case, elf, target, APPLE_M1, SUPERBLOCK, 1)
            sources.append(list(superblock._CODE_CACHE))
        assert len(sources[1]) == 2
        assert sources[1][0] != sources[1][1]
        # One pc apart: the same instruction one word later.
        case = Case(["nop", "add x1, x1, #3", "add x2, x2, x1"])
        elf, target = _image(case)
        _run(case, elf, target, APPLE_M1, SUPERBLOCK, 1)
        assert len(superblock._CODE_CACHE) == 3

    def test_cache_never_exceeds_its_cap(self, monkeypatch):
        monkeypatch.setattr(superblock, "_CODE_CACHE",
                            superblock.OrderedDict())
        monkeypatch.setattr(superblock, "_CODE_CACHE_CAP", 3)
        sizes = []
        real = superblock.SuperblockEngine._compile_block

        def spy(self, block):
            fn = real(self, block)
            sizes.append(len(superblock._CODE_CACHE))
            return fn
        monkeypatch.setattr(superblock.SuperblockEngine, "_compile_block",
                            spy)
        machine = _run_kernel(_kernel_elf("525.x264"))
        assert machine._sb.compiled_blocks > 3
        assert max(sizes) == 3

    def test_cycles_equal_cold_and_warm(self, monkeypatch):
        monkeypatch.setattr(superblock, "_CODE_CACHE",
                            superblock.OrderedDict())
        elf = _kernel_elf("519.lbm")
        cold = _run_kernel(elf)
        warm = _run_kernel(elf)
        assert cold._sb.code_cache_hits == 0
        assert warm._sb.code_cache_hits == warm._sb.compiled_blocks > 0
        assert (cold.instret, cold.cycles) == (warm.instret, warm.cycles)
        assert [(g.hits, g.misses) for g in (cold.tlb, cold.l1, cold.l2)] \
            == [(g.hits, g.misses) for g in (warm.tlb, warm.l1, warm.l2)]
