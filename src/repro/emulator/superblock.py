"""Superblock (translated-block) execution engine for the emulator hot path.

The stepping interpreter in :mod:`repro.emulator.machine` pays Python
dispatch cost on every instruction: a decode-cache lookup, a handler
dispatch, generic operand evaluation, and a :meth:`_Costing.charge` call.
This module predecodes straight-line instruction runs into immutable
:class:`Superblock` objects whose ops are *specialized closures* (direct
register-list access, precomputed immediates and branch targets) and
dispatches whole blocks from :meth:`Machine.run`.

Design rules (DESIGN.md §10, §15):

* a block ends at the first branch, trap instruction (``svc``/``brk``/
  ``hlt``), registered host entry, undecodable word, or page boundary —
  blocks never cross a page, so invalidation is page-exact;
* verified guard sequences named by the loader's ``guard_map`` are fused
  into a single op that performs both architectural effects and both cost
  updates in one dispatch;
* a block ending in the runtime-call idiom (``ldr x30, [x21, #n]``;
  ``blr x30`` — the rewriter's :func:`is_runtime_call_load` predicate)
  carries a fused ``rtcall`` closure; the dispatch loop executes it and
  hand control straight to the runtime's *springboard*
  (``machine.springboard``) instead of raising ``HostCallTrap``, and the
  springboard resumes translated execution inline when the scheduler
  allows (DESIGN.md §15);
* blocks chain: each block caches its observed fall-through and taken
  successors, validated by a ``valid`` flag plus start-pc check, so hot
  loops dispatch block-to-block without a host-entry check or cache
  lookup; invalidation clears ``valid``, which lazily unlinks every
  chain through the dead block;
* one dispatch loop runs every block.  Uncosted blocks (``model=None``)
  run their op closures directly.  Under a cost model a block is stepped
  through ``Machine.step`` until its ``_COMPILE_THRESHOLD``-th execution
  and then compiled into one generated closure that replicates the
  stepping interpreter's float operation order exactly, so cycle counts,
  trace timestamps, and metrics snapshots are bit-identical between
  engines;
* a block never overruns the remaining fuel: oversized blocks fall back
  to per-instruction stepping for the tail of the timeslice;
* the block cache invalidates on any mapping change (``mmap``/``munmap``/
  ``mprotect``/``share_region``/image load) via the
  :class:`~repro.memory.pages.PagedMemory` map observer, which also covers
  fork (the child's slot is freshly shared into).

The engine is *not* used when per-instruction observability is active:
any registered step probe (profiler, metrics, sampling tracer), a
process's ``step_mode`` flag, or ``engine="stepping"`` forces the
original interpreter, whose behaviour is unchanged.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from ..arm64.instructions import Instruction, access_bytes
from ..arm64.operands import Extended, Imm, Mem, POST_INDEX, PRE_INDEX, \
    Shifted, ShiftedImm, VecReg, canonical_condition
from ..arm64.registers import LR, Reg
from ..core.rewriter import is_runtime_call_load
from ..memory.pages import MemoryFault
from .cpu import MASK32, MASK64

__all__ = ["Superblock", "SuperblockEngine"]

#: Op kinds — the first element of every op tuple.  The uncosted op loop
#: and the block compiler branch on these instead of unpacking a generic
#: handler result.
K_SIMPLE = 0   # exec() -> None; no memory access, never taken
K_MEM = 1      # exec() -> address int; load/store, never taken
K_BRANCH = 2   # exec() -> taken bool; terminator
K_GENERIC = 3  # exec() -> (taken, mem_addr); original handler semantics
K_FUSED_MEM = 4     # guard add + load/store; exec() -> address
K_FUSED_BRANCH = 5  # guard add + br/blr/ret; exec() -> None, always taken
K_FUSED_SIMPLE = 6  # sp guard pair; exec() -> None

#: Costed blocks are compiled into specialized closures once they show
#: signs of re-execution; cold blocks are stepped by ``Machine.step`` so
#: straight-line code never pays the ~1-2ms/block codegen cost (measured:
#: threshold 8 compiles only the hot loop bodies of the Table-4 kernels;
#: compiling every block on first hit adds ~0.28s per SPEC-profile round
#: for no gain, since cold blocks retire well under 1% of instructions).
_COMPILE_THRESHOLD = 8
#: Translation ends a block after this many instructions, so every block
#: can compile: generated source for a page-spanning straight-line run
#: would otherwise cost more to compile than the dispatch it saves.
_COMPILE_MAX_OPS = 256

_TERMINATOR_BASES = frozenset([
    "b", "bl", "br", "blr", "ret", "cbz", "cbnz", "tbz", "tbnz",
    "svc", "brk", "hlt",
])

_UNSIGNED_LOADS = frozenset(["ldr", "ldrb", "ldrh", "ldur"])
_SIGNED_LOADS = {"ldrsb": 8, "ldrsh": 16, "ldrsw": 32}
_SIMPLE_STORES = frozenset(["str", "strb", "strh", "stur"])

#: Generic handlers that read ``cpu.pc`` (link registers, trap pcs).
#: Inside a block ``cpu.pc`` is stale, so their generic fallbacks are
#: wrapped to restore it first.  Every one of them is a terminator.
_PC_READING = frozenset(["bl", "blr", "svc", "brk", "hlt"])


def _pc_fix(cpu, pc, call):
    def run():
        cpu.pc = pc
        return call()
    return run


class Superblock:
    """A predecoded straight-line run of instructions.

    ``ops`` is a list of ``(kind, exec, pc, icost, lat, uses, defs,
    fused)`` tuples; ``count`` is the run's fuel cost (fused ops count
    two, a trailing trap instruction counts one for the attempt);
    ``next_pc`` is the fall-through address; ``end`` is the exclusive
    byte bound used for invalidation overlap checks.

    ``rtcall`` is the fused runtime-call tail (``ldr x30, [x21, #n]`` +
    ``blr x30``): ``(exec, ldr_pc, ldr_icost, ldr_lat, ldr_uses,
    ldr_defs, blr_icost, blr_lat, blr_uses, blr_defs)``, or ``None``.
    The pair is kept out of ``ops`` so the per-op dispatch stays
    branch-free; its two instructions are included in ``count``.

    ``link_fall``/``link_taken`` are the block-chaining inline caches
    (observed successor blocks); ``valid`` is cleared on invalidation so
    stale links are rejected by the dispatch loop without needing to
    find and unlink every predecessor.

    ``fn`` is the block's specialized closure, compiled by
    :meth:`SuperblockEngine._compile_block` on the costed block's
    ``_COMPILE_THRESHOLD``-th execution (``hits`` counts them); None
    until then, and forever on the uncosted path.
    """

    __slots__ = ("start", "end", "ops", "count", "next_pc", "rtcall",
                 "valid", "link_fall", "link_taken", "fn", "hits")

    def __init__(self, start: int, end: int, ops: list, count: int,
                 next_pc: int, rtcall: Optional[tuple] = None):
        self.start = start
        self.end = end
        self.ops = ops
        self.count = count
        self.next_pc = next_pc
        self.rtcall = rtcall
        self.valid = True
        self.link_fall: Optional["Superblock"] = None
        self.link_taken: Optional["Superblock"] = None
        self.fn = None
        self.hits = 0

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"Superblock({self.start:#x}..{self.end:#x}, "
                f"{len(self.ops)} ops, fuel {self.count})")


# ---------------------------------------------------------------------------
# Specialized op thunk factories.
#
# Every factory closes over the CPU register list (kept identity-stable by
# CpuState.restore) and precomputed constants; each replicates the exact
# architectural effect of the corresponding machine.py handler.
# ---------------------------------------------------------------------------

def _is_plain_gpr(reg) -> bool:
    return (isinstance(reg, Reg) and reg.is_gpr and not reg.is_zero
            and not reg.is_sp)


_COND_EVAL = {
    "eq": lambda cpu: cpu.z == 1,
    "ne": lambda cpu: cpu.z == 0,
    "cs": lambda cpu: cpu.c == 1,
    "cc": lambda cpu: cpu.c == 0,
    "mi": lambda cpu: cpu.n == 1,
    "pl": lambda cpu: cpu.n == 0,
    "vs": lambda cpu: cpu.v == 1,
    "vc": lambda cpu: cpu.v == 0,
    "hi": lambda cpu: cpu.c == 1 and cpu.z == 0,
    "ls": lambda cpu: not (cpu.c == 1 and cpu.z == 0),
    "ge": lambda cpu: cpu.n == cpu.v,
    "lt": lambda cpu: cpu.n != cpu.v,
    "gt": lambda cpu: cpu.z == 0 and cpu.n == cpu.v,
    "le": lambda cpu: not (cpu.z == 0 and cpu.n == cpu.v),
    "al": lambda cpu: True,
    "nv": lambda cpu: True,
}


def _t_add_imm(regs, d, a_i, b, width, sub):
    if width == 64:
        if sub:
            def run():
                regs[d] = (regs[a_i] - b) & MASK64
        else:
            def run():
                regs[d] = (regs[a_i] + b) & MASK64
    else:
        if sub:
            def run():
                regs[d] = ((regs[a_i] & MASK32) - b) & MASK32
        else:
            def run():
                regs[d] = ((regs[a_i] & MASK32) + b) & MASK32
    return run


def _t_add_reg(regs, d, a_i, b_i, width, sub):
    if width == 64:
        if sub:
            def run():
                regs[d] = (regs[a_i] - regs[b_i]) & MASK64
        else:
            def run():
                regs[d] = (regs[a_i] + regs[b_i]) & MASK64
    else:
        if sub:
            def run():
                regs[d] = ((regs[a_i] & MASK32)
                           - (regs[b_i] & MASK32)) & MASK32
        else:
            def run():
                regs[d] = ((regs[a_i] & MASK32)
                           + (regs[b_i] & MASK32)) & MASK32
    return run


def _t_add_uxtw(regs, d, a_i, w_i):
    """``add Xd, Xn, wM, uxtw`` — the LFI guard form, unfused."""
    def run():
        regs[d] = (regs[a_i] + (regs[w_i] & MASK32)) & MASK64
    return run


def _flag_thunk(cpu, regs, d, a_i, width, get_b, carry_in):
    """Shared flags body for adds/subs/cmp/cmn (b already inverted for
    subtraction).  Replicates Machine._set_add_flags exactly."""
    mask = (1 << width) - 1
    top = 1 << (width - 1)
    wrap = 1 << width
    if width == 64:
        def read_a():
            return regs[a_i]
    else:
        def read_a():
            return regs[a_i] & MASK32

    def run():
        a = read_a()
        b = get_b()
        raw = a + b + carry_in
        result = raw & mask
        cpu.n = 1 if result & top else 0
        cpu.z = 1 if result == 0 else 0
        cpu.c = 1 if raw > mask else 0
        sa = a - wrap if a & top else a
        sb = b - wrap if b & top else b
        sres = result - wrap if result & top else result
        cpu.v = 1 if (sa + sb + carry_in != sres) else 0
        if d is not None:
            regs[d] = result
    return run


def _t_addsub_flags_imm(cpu, regs, d, a_i, b, width, sub):
    mask = (1 << width) - 1
    if sub:
        b = (~b) & mask
        carry = 1
    else:
        b = b & mask
        carry = 0
    return _flag_thunk(cpu, regs, d, a_i, width, lambda: b, carry)


def _t_addsub_flags_reg(cpu, regs, d, a_i, b_i, width, sub):
    mask = (1 << width) - 1
    if width == 64:
        if sub:
            def get_b():
                return (~regs[b_i]) & mask
        else:
            def get_b():
                return regs[b_i]
    else:
        if sub:
            def get_b():
                return (~(regs[b_i] & MASK32)) & mask
        else:
            def get_b():
                return regs[b_i] & MASK32
    return _flag_thunk(cpu, regs, d, a_i, width, get_b, 1 if sub else 0)


def _t_mov_const(regs, d, const):
    def run():
        regs[d] = const
    return run


def _t_mov_reg(regs, d, s_i, width):
    if width == 64:
        def run():
            regs[d] = regs[s_i]
    else:
        def run():
            regs[d] = regs[s_i] & MASK32
    return run


def _t_movk(regs, d, keep, bits, width):
    if width == 64:
        def run():
            regs[d] = (regs[d] & keep) | bits
    else:
        def run():
            regs[d] = ((regs[d] & MASK32) & keep) | bits
    return run


def _t_logic_imm(regs, d, a_i, b, width, op):
    if width == 64:
        if op == "and":
            def run():
                regs[d] = regs[a_i] & b
        elif op == "orr":
            def run():
                regs[d] = regs[a_i] | b
        else:
            def run():
                regs[d] = regs[a_i] ^ b
    else:
        if op == "and":
            def run():
                regs[d] = (regs[a_i] & MASK32) & b
        elif op == "orr":
            def run():
                regs[d] = (regs[a_i] & MASK32) | b
        else:
            def run():
                regs[d] = (regs[a_i] & MASK32) ^ b
    return run


def _t_logic_reg(regs, d, a_i, b_i, width, op):
    if width == 64:
        if op == "and":
            def run():
                regs[d] = regs[a_i] & regs[b_i]
        elif op == "orr":
            def run():
                regs[d] = regs[a_i] | regs[b_i]
        else:
            def run():
                regs[d] = regs[a_i] ^ regs[b_i]
    else:
        if op == "and":
            def run():
                regs[d] = (regs[a_i] & regs[b_i]) & MASK32
        elif op == "orr":
            def run():
                regs[d] = (regs[a_i] | regs[b_i]) & MASK32
        else:
            def run():
                regs[d] = (regs[a_i] ^ regs[b_i]) & MASK32
    return run


def _t_shift_imm(regs, d, a_i, amount, width, op):
    mask = (1 << width) - 1
    if op == "lsl":
        if width == 64:
            def run():
                regs[d] = (regs[a_i] << amount) & MASK64
        else:
            def run():
                regs[d] = ((regs[a_i] & MASK32) << amount) & MASK32
    elif op == "lsr":
        if width == 64:
            def run():
                regs[d] = regs[a_i] >> amount
        else:
            def run():
                regs[d] = (regs[a_i] & MASK32) >> amount
    else:  # asr
        top = 1 << (width - 1)
        wrap = 1 << width

        def run():
            a = regs[a_i] if width == 64 else regs[a_i] & MASK32
            if a & top:
                a -= wrap
            regs[d] = (a >> amount) & mask
    return run


def _t_addsub_shifted(regs, d, a_i, b_i, amount, width, sub):
    """``add/sub Xd, Xn, Xm, lsl #k`` (array indexing in the FP kernels)."""
    if width == 64:
        if sub:
            def run():
                regs[d] = (regs[a_i]
                           - ((regs[b_i] << amount) & MASK64)) & MASK64
        else:
            def run():
                regs[d] = (regs[a_i]
                           + ((regs[b_i] << amount) & MASK64)) & MASK64
    else:
        if sub:
            def run():
                regs[d] = ((regs[a_i] & MASK32)
                           - (((regs[b_i] & MASK32) << amount)
                              & MASK32)) & MASK32
        else:
            def run():
                regs[d] = ((regs[a_i] & MASK32)
                           + (((regs[b_i] & MASK32) << amount)
                              & MASK32)) & MASK32
    return run


def _t_madd(regs, d, n_i, m_i, a_i, width, msub):
    mask = (1 << width) - 1
    if width == 64:
        if msub:
            def run():
                regs[d] = (regs[a_i] - regs[n_i] * regs[m_i]) & mask
        else:
            def run():
                regs[d] = (regs[a_i] + regs[n_i] * regs[m_i]) & mask
    else:
        if msub:
            def run():
                regs[d] = ((regs[a_i] & MASK32)
                           - (regs[n_i] & MASK32)
                           * (regs[m_i] & MASK32)) & mask
        else:
            def run():
                regs[d] = ((regs[a_i] & MASK32)
                           + (regs[n_i] & MASK32)
                           * (regs[m_i] & MASK32)) & mask
    return run


def _t_bitfield(regs, d, n_i, width, immr, imms, signed):
    """ubfm/sbfm with precomputed field geometry (lsr/lsl/ubfx aliases)."""
    mask = (1 << width) - 1
    if imms >= immr:
        length = imms - immr + 1
        rshift = immr
        shift = 0
    else:
        length = imms + 1
        rshift = 0
        shift = width - immr
    fmask = (1 << length) - 1
    sign_bit = 1 << (length - 1)
    sign_fill = mask & ~((1 << min(shift + length, width)) - 1)
    src64 = width == 64

    def run():
        src = regs[n_i] if src64 else regs[n_i] & MASK32
        field = (src >> rshift) & fmask
        result = (field << shift) & mask
        if signed and field & sign_bit:
            result |= sign_fill
        regs[d] = result
    return run


# -- scalar floating point factories ------------------------------------------

def _t_fp2(vregs, d, n_i, m_i, bits, op, b2f, f2b):
    """Scalar fadd/fsub/fmul with equal-width d/s operands."""
    vmask = (1 << bits) - 1
    if op == "fadd":
        def run():
            vregs[d] = f2b(b2f(vregs[n_i] & vmask, bits)
                           + b2f(vregs[m_i] & vmask, bits), bits)
    elif op == "fsub":
        def run():
            vregs[d] = f2b(b2f(vregs[n_i] & vmask, bits)
                           - b2f(vregs[m_i] & vmask, bits), bits)
    else:  # fmul
        def run():
            vregs[d] = f2b(b2f(vregs[n_i] & vmask, bits)
                           * b2f(vregs[m_i] & vmask, bits), bits)
    return run


def _t_fp3(vregs, d, n_i, m_i, a_i, bits, msub, b2f, f2b):
    """Scalar fmadd/fmsub (the FP kernels' hottest data op)."""
    vmask = (1 << bits) - 1
    if msub:
        def run():
            prod = b2f(vregs[n_i] & vmask, bits) \
                * b2f(vregs[m_i] & vmask, bits)
            vregs[d] = f2b(b2f(vregs[a_i] & vmask, bits) - prod, bits)
    else:
        def run():
            prod = b2f(vregs[n_i] & vmask, bits) \
                * b2f(vregs[m_i] & vmask, bits)
            vregs[d] = f2b(b2f(vregs[a_i] & vmask, bits) + prod, bits)
    return run


# -- vector integer factories -------------------------------------------------

def _t_vec3_bitwise(vregs, d, n_i, m_i, full_mask, op):
    """Lane-independent vector and/orr/eor collapse to one bitop."""
    if op == "and":
        def run():
            vregs[d] = (vregs[n_i] & vregs[m_i]) & full_mask
    elif op == "orr":
        def run():
            vregs[d] = (vregs[n_i] | vregs[m_i]) & full_mask
    else:  # eor
        def run():
            vregs[d] = (vregs[n_i] ^ vregs[m_i]) & full_mask
    return run


def _t_vec3_lanes(vregs, d, n_i, m_i, lanes, bits, op):
    """Lane-wise vector add/sub/mul over a same-arrangement triple."""
    mask = (1 << bits) - 1
    shifts = tuple(range(0, lanes * bits, bits))
    if op == "add":
        def run():
            a = vregs[n_i]
            b = vregs[m_i]
            raw = 0
            for sh in shifts:
                raw |= ((((a >> sh) & mask) + ((b >> sh) & mask))
                        & mask) << sh
            vregs[d] = raw
    elif op == "sub":
        def run():
            a = vregs[n_i]
            b = vregs[m_i]
            raw = 0
            for sh in shifts:
                raw |= ((((a >> sh) & mask) - ((b >> sh) & mask))
                        & mask) << sh
            vregs[d] = raw
    else:  # mul
        def run():
            a = vregs[n_i]
            b = vregs[m_i]
            raw = 0
            for sh in shifts:
                raw |= ((((a >> sh) & mask) * ((b >> sh) & mask))
                        & mask) << sh
            vregs[d] = raw
    return run


# -- memory op factories ------------------------------------------------------

def _t_load(regs, cpu, read, t, base_i, imm, size, signed_bits, tbits,
            sp_base):
    """Loads with a register+immediate address into a GPR target."""
    if signed_bits is None:
        if sp_base:
            def run():
                addr = (cpu.sp + imm) & MASK64
                regs[t] = int.from_bytes(read(addr, size), "little")
                return addr
        else:
            def run():
                addr = (regs[base_i] + imm) & MASK64
                regs[t] = int.from_bytes(read(addr, size), "little")
                return addr
    else:
        sign = 1 << (signed_bits - 1)
        wrap = 1 << signed_bits
        tmask = MASK64 if tbits == 64 else MASK32
        if sp_base:
            def run():
                addr = (cpu.sp + imm) & MASK64
                raw = int.from_bytes(read(addr, size), "little")
                if raw & sign:
                    raw -= wrap
                regs[t] = raw & tmask
                return addr
        else:
            def run():
                addr = (regs[base_i] + imm) & MASK64
                raw = int.from_bytes(read(addr, size), "little")
                if raw & sign:
                    raw -= wrap
                regs[t] = raw & tmask
                return addr
    return run


def _t_load_uxtw(regs, read, t, base_i, w_i, size, signed_bits, tbits):
    """``ldr Xt, [x21, wM, uxtw]`` — the zero-instruction guard mode."""
    if signed_bits is None:
        def run():
            addr = (regs[base_i] + (regs[w_i] & MASK32)) & MASK64
            regs[t] = int.from_bytes(read(addr, size), "little")
            return addr
    else:
        sign = 1 << (signed_bits - 1)
        wrap = 1 << signed_bits
        tmask = MASK64 if tbits == 64 else MASK32

        def run():
            addr = (regs[base_i] + (regs[w_i] & MASK32)) & MASK64
            raw = int.from_bytes(read(addr, size), "little")
            if raw & sign:
                raw -= wrap
            regs[t] = raw & tmask
            return addr
    return run


def _t_store(regs, cpu, write, t, base_i, imm, size, sp_base, zero_src):
    smask = (1 << (size * 8)) - 1
    if sp_base:
        if zero_src:
            data = (0).to_bytes(size, "little")

            def run():
                addr = (cpu.sp + imm) & MASK64
                write(addr, data)
                return addr
        else:
            def run():
                addr = (cpu.sp + imm) & MASK64
                write(addr, (regs[t] & smask).to_bytes(size, "little"))
                return addr
    else:
        if zero_src:
            data = (0).to_bytes(size, "little")

            def run():
                addr = (regs[base_i] + imm) & MASK64
                write(addr, data)
                return addr
        else:
            def run():
                addr = (regs[base_i] + imm) & MASK64
                write(addr, (regs[t] & smask).to_bytes(size, "little"))
                return addr
    return run


def _t_store_uxtw(regs, write, t, base_i, w_i, size, zero_src):
    smask = (1 << (size * 8)) - 1
    if zero_src:
        data = (0).to_bytes(size, "little")

        def run():
            addr = (regs[base_i] + (regs[w_i] & MASK32)) & MASK64
            write(addr, data)
            return addr
    else:
        def run():
            addr = (regs[base_i] + (regs[w_i] & MASK32)) & MASK64
            write(addr, (regs[t] & smask).to_bytes(size, "little"))
            return addr
    return run


def _t_vload(vregs, regs, cpu, read, t, base_i, imm, size, vmask, sp_base):
    """FP/SIMD register load (``ldr d0, [x1, #8]`` and friends)."""
    if sp_base:
        def run():
            addr = (cpu.sp + imm) & MASK64
            vregs[t] = int.from_bytes(read(addr, size), "little") & vmask
            return addr
    else:
        def run():
            addr = (regs[base_i] + imm) & MASK64
            vregs[t] = int.from_bytes(read(addr, size), "little") & vmask
            return addr
    return run


def _t_vload_uxtw(vregs, regs, read, t, base_i, w_i, size, vmask):
    def run():
        addr = (regs[base_i] + (regs[w_i] & MASK32)) & MASK64
        vregs[t] = int.from_bytes(read(addr, size), "little") & vmask
        return addr
    return run


def _t_vstore(vregs, regs, cpu, write, t, base_i, imm, size, vmask, sp_base):
    if sp_base:
        def run():
            addr = (cpu.sp + imm) & MASK64
            write(addr, (vregs[t] & vmask).to_bytes(size, "little"))
            return addr
    else:
        def run():
            addr = (regs[base_i] + imm) & MASK64
            write(addr, (vregs[t] & vmask).to_bytes(size, "little"))
            return addr
    return run


def _t_vstore_uxtw(vregs, regs, write, t, base_i, w_i, size, vmask):
    def run():
        addr = (regs[base_i] + (regs[w_i] & MASK32)) & MASK64
        write(addr, (vregs[t] & vmask).to_bytes(size, "little"))
        return addr
    return run


def _t_ldp(regs, cpu, read, t1, t2, base_i, imm, sp_base):
    if sp_base:
        def run():
            addr = (cpu.sp + imm) & MASK64
            regs[t1] = int.from_bytes(read(addr, 8), "little")
            regs[t2] = int.from_bytes(read(addr + 8, 8), "little")
            return addr
    else:
        def run():
            addr = (regs[base_i] + imm) & MASK64
            regs[t1] = int.from_bytes(read(addr, 8), "little")
            regs[t2] = int.from_bytes(read(addr + 8, 8), "little")
            return addr
    return run


def _t_stp(regs, cpu, write, t1, t2, base_i, imm, sp_base):
    if sp_base:
        def run():
            addr = (cpu.sp + imm) & MASK64
            write(addr, (regs[t1] & MASK64).to_bytes(8, "little"))
            write(addr + 8, (regs[t2] & MASK64).to_bytes(8, "little"))
            return addr
    else:
        def run():
            addr = (regs[base_i] + imm) & MASK64
            write(addr, (regs[t1] & MASK64).to_bytes(8, "little"))
            write(addr + 8, (regs[t2] & MASK64).to_bytes(8, "little"))
            return addr
    return run


# -- branch factories ---------------------------------------------------------

def _t_b(cpu, target):
    def run():
        cpu.pc = target
        return True
    return run


def _t_bl(cpu, regs, target, link):
    def run():
        regs[30] = link
        cpu.pc = target
        return True
    return run


def _t_bcond(cpu, cond, target):
    holds = _COND_EVAL[cond]

    def run():
        if holds(cpu):
            cpu.pc = target
            return True
        return False
    return run


def _t_cb(cpu, regs, t_i, width, want_zero, target):
    if width == 64:
        def read_t():
            return regs[t_i]
    else:
        def read_t():
            return regs[t_i] & MASK32
    if want_zero:
        def run():
            if read_t() == 0:
                cpu.pc = target
                return True
            return False
    else:
        def run():
            if read_t() != 0:
                cpu.pc = target
                return True
            return False
    return run


def _t_tb(cpu, regs, t_i, bit, want_set, target):
    if want_set:
        def run():
            if (regs[t_i] >> bit) & 1:
                cpu.pc = target
                return True
            return False
    else:
        def run():
            if not ((regs[t_i] >> bit) & 1):
                cpu.pc = target
                return True
            return False
    return run


def _t_br(cpu, regs, t_i):
    def run():
        cpu.pc = regs[t_i] & MASK64
        return True
    return run


def _t_blr(cpu, regs, t_i, link):
    def run():
        target = regs[t_i] & MASK64
        regs[30] = link
        cpu.pc = target
        return True
    return run


def _t_rtcall(cpu, regs, read, base_i, imm, link):
    """``ldr x30, [x21, #n]`` + ``blr x30`` — the runtime-call pair (§4.4).

    Net architectural effect of executing both instructions: ``x30``
    holds the return address and ``pc`` the loaded entry point.  A fault
    in the table load raises before any register is written, exactly as
    the stepping ``ldr`` would.  Returns the table address for the
    compiled block's TLB/cache charging.
    """
    def run():
        addr = (regs[base_i] + imm) & MASK64
        target = int.from_bytes(read(addr, 8), "little")
        regs[30] = link
        cpu.pc = target
        return addr
    return run


def _t_trap(cpu, pc, exc_factory):
    def run():
        cpu.pc = pc
        raise exc_factory()
    return run


# -- fused guard factories ----------------------------------------------------

def _t_fused_guard_load(regs, read, g_d, g_s, t, imm, size, signed_bits,
                        tbits, base_i):
    """``add Xg, x21, wS, uxtw`` + ``ldr Xt, [Xg(, #imm)]``."""
    if signed_bits is None:
        def run():
            g = (regs[base_i] + (regs[g_s] & MASK32)) & MASK64
            regs[g_d] = g
            addr = (g + imm) & MASK64
            regs[t] = int.from_bytes(read(addr, size), "little")
            return addr
    else:
        sign = 1 << (signed_bits - 1)
        wrap = 1 << signed_bits
        tmask = MASK64 if tbits == 64 else MASK32

        def run():
            g = (regs[base_i] + (regs[g_s] & MASK32)) & MASK64
            regs[g_d] = g
            addr = (g + imm) & MASK64
            raw = int.from_bytes(read(addr, size), "little")
            if raw & sign:
                raw -= wrap
            regs[t] = raw & tmask
            return addr
    return run


def _t_fused_guard_store(regs, write, g_d, g_s, t, imm, size, base_i,
                         zero_src):
    smask = (1 << (size * 8)) - 1
    if zero_src:
        data = (0).to_bytes(size, "little")

        def run():
            g = (regs[base_i] + (regs[g_s] & MASK32)) & MASK64
            regs[g_d] = g
            addr = (g + imm) & MASK64
            write(addr, data)
            return addr
    else:
        def run():
            g = (regs[base_i] + (regs[g_s] & MASK32)) & MASK64
            regs[g_d] = g
            addr = (g + imm) & MASK64
            write(addr, (regs[t] & smask).to_bytes(size, "little"))
            return addr
    return run


def _t_fused_offset_load(regs, read, o_d, o_s, o_imm, o_sub, t, size,
                         signed_bits, tbits, base_i):
    """``add wD, wS, #imm`` + ``ldr Xt, [x21, wD, uxtw]`` (Table 3)."""
    if signed_bits is None:
        def run():
            if o_sub:
                w = ((regs[o_s] & MASK32) - o_imm) & MASK32
            else:
                w = ((regs[o_s] & MASK32) + o_imm) & MASK32
            regs[o_d] = w
            addr = (regs[base_i] + w) & MASK64
            regs[t] = int.from_bytes(read(addr, size), "little")
            return addr
    else:
        sign = 1 << (signed_bits - 1)
        wrap = 1 << signed_bits
        tmask = MASK64 if tbits == 64 else MASK32

        def run():
            if o_sub:
                w = ((regs[o_s] & MASK32) - o_imm) & MASK32
            else:
                w = ((regs[o_s] & MASK32) + o_imm) & MASK32
            regs[o_d] = w
            addr = (regs[base_i] + w) & MASK64
            raw = int.from_bytes(read(addr, size), "little")
            if raw & sign:
                raw -= wrap
            regs[t] = raw & tmask
            return addr
    return run


def _t_fused_offset_store(regs, write, o_d, o_s, o_imm, o_sub, t, size,
                          base_i, zero_src):
    smask = (1 << (size * 8)) - 1
    if zero_src:
        data = (0).to_bytes(size, "little")

        def run():
            if o_sub:
                w = ((regs[o_s] & MASK32) - o_imm) & MASK32
            else:
                w = ((regs[o_s] & MASK32) + o_imm) & MASK32
            regs[o_d] = w
            addr = (regs[base_i] + w) & MASK64
            write(addr, data)
            return addr
    else:
        def run():
            if o_sub:
                w = ((regs[o_s] & MASK32) - o_imm) & MASK32
            else:
                w = ((regs[o_s] & MASK32) + o_imm) & MASK32
            regs[o_d] = w
            addr = (regs[base_i] + w) & MASK64
            write(addr, (regs[t] & smask).to_bytes(size, "little"))
            return addr
    return run


def _t_fused_guard_branch(cpu, regs, g_d, g_s, base_i, link):
    """``add Xg, x21, wS, uxtw`` + ``br/blr/ret Xg`` (branch guard)."""
    if link is None:
        def run():
            g = (regs[base_i] + (regs[g_s] & MASK32)) & MASK64
            regs[g_d] = g
            cpu.pc = g
    else:
        def run():
            g = (regs[base_i] + (regs[g_s] & MASK32)) & MASK64
            regs[g_d] = g
            regs[30] = link
            cpu.pc = g
    return run


def _t_fused_sp_guard(cpu, regs, w_d, base_i):
    """``mov w22, wsp`` + ``add sp, x21, x22`` (sp guard pair)."""
    def run():
        w = cpu.sp & MASK32
        regs[w_d] = w
        cpu.sp = (regs[base_i] + w) & MASK64
    return run


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class SuperblockEngine:
    """Block cache + translator + block-dispatch loop for one Machine."""

    def __init__(self, machine):
        # Imported lazily: machine.py imports this module at its top.
        from . import machine as M
        self._M = M
        self.machine = machine
        self._blocks: Dict[int, Superblock] = {}
        config = getattr(machine, "engine_config", None)
        #: Whether the dispatch loop follows block successor links.
        self.chaining = config.chaining if config is not None else True
        #: Translation-cache flush threshold (None = unbounded).
        self.block_cache_cap = (config.block_cache_cap
                                if config is not None else None)
        #: Counters exposed for tests and diagnostics.
        self.translations = 0
        self.invalidations = 0
        self.chain_links = 0
        self.fused_calls = 0
        self.compiled_blocks = 0

    # -- cache management ---------------------------------------------------

    def invalidate_range(self, address: int, size: int) -> None:
        """Drop every block overlapping ``[address, address + size)``.

        Dropped blocks are also marked ``valid = False`` so chained
        predecessors reject their stale links on the next dispatch —
        invalidation unlinks chains without a reverse-edge index.
        """
        blocks = self._blocks
        if not blocks:
            return
        end = address + size
        dead = [start for start, block in blocks.items()
                if start < end and block.end > address]
        for start in dead:
            blocks.pop(start).valid = False
        if dead:
            self.invalidations += len(dead)

    def invalidate_all(self) -> None:
        self.invalidations += len(self._blocks)
        for block in self._blocks.values():
            block.valid = False
        self._blocks.clear()

    @property
    def cached_blocks(self) -> int:
        return len(self._blocks)

    def block_at(self, pc: int) -> Optional[Superblock]:
        return self._blocks.get(pc)

    # -- driving ------------------------------------------------------------

    def run(self, fuel: Optional[int]) -> None:
        """Run blocks until a trap; raises OutOfFuel when fuel runs out.

        Semantics match ``Machine.run``'s stepping loop exactly: with
        fuel ``n``, exactly ``n`` instructions retire (the ``n+1``-th may
        raise its trap first) and then ``OutOfFuel`` is raised.
        """
        remaining = fuel if fuel is not None else (1 << 62)
        if remaining <= 0:
            raise self._M.OutOfFuel()
        remaining = self._run(remaining)
        # A block larger than the remaining fuel: fall back to stepping
        # for the tail of the slice, then report preemption.
        step = self.machine.step
        for _ in range(remaining):
            step()
        raise self._M.OutOfFuel()

    def _run(self, remaining: int) -> int:
        """The block dispatch loop; returns the fuel left for stepping.

        Every block takes the same path: chain follow (or host-entry
        check, cache lookup and translation), the fuel check, the block
        body, then the shared tail — fall-through pc, fuel, chain link,
        and for a fused runtime call the springboard.  The body is chosen
        from the block's state:

        * uncosted (``model=None``): the plain op loop;
        * costed and hot: the compiled closure, which commits the cost
          state and retired count itself;
        * costed and cold (fewer than ``_COMPILE_THRESHOLD`` hits):
          ``Machine.step`` retires the block's instructions one by one —
          the reference interpreter, so cold code needs no second costed
          implementation.  A stepped block is never a chain source, and
          a stepped runtime call reaches its host entry the stepping way
          (``HostCallTrap`` on the next dispatch).
        """
        M = self._M
        machine = self.machine
        cpu = machine.cpu
        host = machine._host_entries
        blocks = self._blocks
        translate = self._translate
        springboard = machine.springboard
        chaining = self.chaining
        costed = machine._costing is not None
        step = machine.step
        n = 0
        links = 0
        prev = None
        prev_taken = False
        try:
            while True:
                pc0 = cpu.pc
                block = None
                if prev is not None:
                    nxt = prev.link_taken if prev_taken else prev.link_fall
                    if nxt is not None and nxt.valid and nxt.start == pc0:
                        # Chain follow: a valid linked block can never
                        # start at a host entry (registering one
                        # invalidates every covering block), so the host
                        # check and the cache lookup are both skipped.
                        block = nxt
                        links += 1
                if block is None:
                    if pc0 in host:
                        raise M.HostCallTrap(pc0, pc0)
                    block = blocks.get(pc0)
                    if block is None:
                        block = translate(pc0)
                    if prev is not None:
                        if prev_taken:
                            prev.link_taken = block
                        else:
                            prev.link_fall = block
                count = block.count
                if count > remaining:
                    return remaining
                taken = False
                rtcall = block.rtcall
                if costed:
                    fn = block.fn
                    if fn is None:
                        block.hits += 1
                        if block.hits < _COMPILE_THRESHOLD:
                            for _ in range(count):
                                step()
                            remaining -= count
                            if remaining == 0:
                                raise M.OutOfFuel()
                            prev = None
                            continue
                        fn = block.fn = self._compile_block(block)
                    taken = fn()
                else:
                    try:
                        for kind, exec_, pc, _ic, _lat, _uses, _defs, fused \
                                in block.ops:
                            if kind == 0 or kind == 1:
                                exec_()
                                n += 1
                            elif kind == 2:
                                taken = exec_()
                                n += 1
                            elif kind == 4 or kind == 6:
                                exec_()
                                n += 2
                            elif kind == 5:
                                exec_()
                                n += 2
                                taken = True
                            else:
                                taken, _addr = exec_()
                                n += 1
                    except MemoryFault as fault:
                        if kind == 4:
                            # The guard half retired before the access
                            # faulted.
                            a_pc = fused[4]
                            n += 1
                            cpu.pc = a_pc
                            raise M.MemTrap(a_pc, fault) from None
                        cpu.pc = pc
                        raise M.MemTrap(pc, fault) from None
                    if rtcall is not None:
                        try:
                            rtcall[0]()
                        except MemoryFault as fault:
                            cpu.pc = rtcall[1]
                            raise M.MemTrap(rtcall[1], fault) from None
                        n += 2
                remaining -= count
                if rtcall is None:
                    if not taken:
                        cpu.pc = block.next_pc
                    if remaining == 0:
                        raise M.OutOfFuel()
                    if chaining:
                        prev = block
                        prev_taken = taken
                    continue
                if remaining == 0:
                    # The blr was the slice's last fueled instruction:
                    # preemption wins over the call, as in stepping (the
                    # next slice's host check raises HostCallTrap).
                    raise M.OutOfFuel()
                # Fused runtime call: hand the host entry straight to the
                # runtime's springboard instead of raising HostCallTrap.
                prev = None
                entry = cpu.pc
                if springboard is None or entry not in host:
                    continue
                machine.instret += n
                n = 0
                remaining, force_step = springboard(entry)
                if force_step:
                    return remaining
        finally:
            machine.instret += n
            self.chain_links += links

    def _compile_block(self, block: Superblock):
        """Compile a hot costed block into one straight-line closure.

        A cold block runs through ``Machine.step``, which pays a
        decode-cache lookup, a handler dispatch and a
        :meth:`_Costing.charge` call per instruction.  For a block that
        re-executes (a loop body) all of that is static, so it is
        unrolled here into generated source with every static quantity —
        issue costs, latencies, scoreboard keys, pcs, model miss charges
        — folded in as literals (``repr`` of a float round-trips
        exactly).  The generated function performs the *same float
        operations in the same order* as ``Machine.step``, so cycle
        totals stay bit-identical; compilation is pure host-side speedup
        (DESIGN.md §15).  A fused runtime-call tail is compiled in too:
        the table load is charged like any load, the ``blr`` like a
        taken branch.

        The closure loads ``t_issue``/``t_done`` from the machine's
        ``_Costing`` into locals and writes them back, with the retired
        count, in a ``finally`` — so a mid-block trap commits exactly
        the partial state stepping would have.  It takes no arguments
        and returns whether the block's terminator branched.
        """
        ops = block.ops
        machine = self.machine
        model = machine.model
        has_tlb = machine.tlb is not None
        has_l1 = machine.l1 is not None
        walk_f = model.tlb_walk_cycles * machine.tlb_walk_scale
        walk = repr(walk_f)
        walk_bw = repr(walk_f * model.tlb_walk_issue_fraction)
        l1_cyc = repr(model.l1_miss_cycles)
        l1_bw = repr(model.l1_miss_issue)
        l2_cyc = repr(model.l2_miss_cycles)
        l2_bw = repr(model.l2_miss_issue)
        tb = model.taken_branch_cost

        lines: List[str] = []
        emit = lines.append

        def tail(ind, uses, lat_expr, defs):
            # Everything after the issue charge: dep-chain start, result
            # latency, scoreboard writes, completion horizon.
            emit(f"{ind}start = t_issue")
            for key in uses:
                emit(f"{ind}t = ready_get({key!r})")
                emit(f"{ind}if t is not None and t > start:")
                emit(f"{ind}    start = t")
            emit(f"{ind}finish = start + {lat_expr}")
            for key in defs:
                emit(f"{ind}ready[{key!r}] = finish")
            emit(f"{ind}if finish > t_done:")
            emit(f"{ind}    t_done = finish")

        def probe_checks(ind):
            if has_tlb:
                emit(f"{ind}if not tlb_lookup(addr):")
                emit(f"{ind}    extra += {walk}")
                emit(f"{ind}    bw += {walk_bw}")
            if has_l1:
                emit(f"{ind}if not l1_lookup(addr):")
                emit(f"{ind}    extra += {l1_cyc}")
                emit(f"{ind}    bw += {l1_bw}")
                emit(f"{ind}    if not l2_lookup(addr):")
                emit(f"{ind}        extra += {l2_cyc}")
                emit(f"{ind}        bw += {l2_bw}")

        def guarded(ind, stmt, pc):
            emit(f"{ind}try:")
            emit(f"{ind}    {stmt}")
            emit(f"{ind}except MemoryFault as fault:")
            emit(f"{ind}    cpu.pc = {pc}")
            emit(f"{ind}    raise MemTrap({pc}, fault) from None")

        def charge_access(ind, ic, lt, uses, defs):
            # A load/store's charge: model probes on ``addr``, then the
            # issue cost plus miss bandwidth and the latency plus misses.
            emit(f"{ind}extra = 0.0")
            emit(f"{ind}bw = 0.0")
            probe_checks(ind)
            emit(f"{ind}t_issue += {ic} + bw")
            tail(ind, uses, f"{lt} + extra", defs)

        ind = "            "
        for i, (kind, _exec, pc, icost, lat, uses, defs, fused) in \
                enumerate(ops):
            ic, lt = repr(icost), repr(lat)
            if kind == 0:  # simple
                guarded(ind, f"e{i}()", pc)
                emit(f"{ind}t_issue += {ic}")
                tail(ind, uses, lt, defs)
                emit(f"{ind}n += 1")
            elif kind == 1:  # load/store
                guarded(ind, f"addr = e{i}()", pc)
                charge_access(ind, ic, lt, uses, defs)
                emit(f"{ind}n += 1")
            elif kind == 2:  # branch terminator
                guarded(ind, f"taken = e{i}()", pc)
                emit(f"{ind}if taken:")
                emit(f"{ind}    t_issue += {repr(icost + tb)}")
                emit(f"{ind}else:")
                emit(f"{ind}    t_issue += {ic}")
                tail(ind, uses, lt, defs)
                emit(f"{ind}n += 1")
            elif kind == 4:  # fused guard + load/store
                g_icost, g_lat, g_uses, g_defs, a_pc = fused
                g_ic, g_lt = repr(g_icost), repr(g_lat)
                emit(f"{ind}try:")
                emit(f"{ind}    addr = e{i}()")
                emit(f"{ind}except MemoryFault as fault:")
                # The guard half retired before the access faulted.
                emit(f"{ind}    t_issue += {g_ic}")
                tail(ind + "    ", g_uses, g_lt, g_defs)
                emit(f"{ind}    n += 1")
                emit(f"{ind}    cpu.pc = {a_pc}")
                emit(f"{ind}    raise MemTrap({a_pc}, fault) from None")
                emit(f"{ind}t_issue += {g_ic}")
                tail(ind, g_uses, g_lt, g_defs)
                charge_access(ind, ic, lt, uses, defs)
                emit(f"{ind}n += 2")
            elif kind == 5:  # fused guard + indirect branch
                g_icost, g_lat, g_uses, g_defs, _a_pc = fused
                guarded(ind, f"e{i}()", pc)
                emit(f"{ind}t_issue += {repr(g_icost)}")
                tail(ind, g_uses, repr(g_lat), g_defs)
                emit(f"{ind}t_issue += {repr(icost + tb)}")
                tail(ind, uses, lt, defs)
                emit(f"{ind}n += 2")
                emit(f"{ind}taken = True")
            elif kind == 6:  # fused sp guard pair
                g_icost, g_lat, g_uses, g_defs, _a_pc = fused
                guarded(ind, f"e{i}()", pc)
                emit(f"{ind}t_issue += {repr(g_icost)}")
                tail(ind, g_uses, repr(g_lat), g_defs)
                emit(f"{ind}t_issue += {ic}")
                tail(ind, uses, lt, defs)
                emit(f"{ind}n += 2")
            else:  # generic handler semantics
                guarded(ind, f"taken, addr = e{i}()", pc)
                emit(f"{ind}extra = 0.0")
                emit(f"{ind}bw = 0.0")
                emit(f"{ind}if addr is not None:")
                probe_checks(ind + "    ")
                emit(f"{ind}if taken:")
                emit(f"{ind}    t_issue += {repr(icost + tb)} + bw")
                emit(f"{ind}else:")
                emit(f"{ind}    t_issue += {ic} + bw")
                tail(ind, uses, f"{lt} + extra", defs)
                emit(f"{ind}n += 1")
        rtcall = block.rtcall
        if rtcall is not None:  # fused ldr x30, [x21, #n]; blr x30
            (_exec, r_pc, l_icost, l_lat, l_uses, l_defs,
             b_icost, b_lat, b_uses, b_defs) = rtcall
            guarded(ind, "addr = rt()", r_pc)
            charge_access(ind, repr(l_icost), repr(l_lat), l_uses, l_defs)
            emit(f"{ind}t_issue += {repr(b_icost + tb)}")
            tail(ind, b_uses, repr(b_lat), b_defs)
            emit(f"{ind}n += 2")

        binds = ", ".join(
            [f"e{i}=ops[{i}][1]" for i in range(len(ops))]
            + ["rt=rt", "costing=costing", "machine=machine",
               "ready=ready", "ready_get=ready_get", "cpu=cpu",
               "tlb_lookup=tlb_lookup", "l1_lookup=l1_lookup",
               "l2_lookup=l2_lookup", "MemoryFault=MemoryFault",
               "MemTrap=MemTrap"])
        src = "\n".join(
            ["def _factory(ops, rt, costing, machine, ready, ready_get,",
             "             cpu, tlb_lookup, l1_lookup, l2_lookup,",
             "             MemoryFault, MemTrap):",
             f"    def run({binds}):",
             "        t_issue = costing.t_issue",
             "        t_done = costing.t_done",
             "        n = 0",
             "        taken = False",
             "        try:",
             *lines,
             "        finally:",
             "            costing.t_issue = t_issue",
             "            costing.t_done = t_done",
             "            machine.instret += n",
             "        return taken",
             "    return run",
             ""])
        namespace: Dict[str, object] = {}
        exec(compile(src, f"<superblock {block.start:#x}>", "exec"),
             namespace)
        costing = machine._costing
        fn = namespace["_factory"](
            ops, rtcall[0] if rtcall is not None else None, costing,
            machine, costing.ready, costing.ready.get, machine.cpu,
            machine.tlb.lookup if has_tlb else None,
            machine.l1.lookup if has_l1 else None,
            machine.l2.lookup if machine.l2 is not None else None,
            MemoryFault, self._M.MemTrap)
        self.compiled_blocks += 1
        return fn

    # -- translation --------------------------------------------------------

    def _translate(self, start: int) -> Superblock:
        """Predecode the straight-line run starting at ``start``.

        The run ends at a terminator, a host entry, the page end, or
        after ``_COMPILE_MAX_OPS`` instructions.  Words are decoded
        through ``Machine._decode``, so a block and the stepping
        interpreter share one decode-cache entry per word.  Raises the
        same trap ``Machine.step`` would raise if the *first* instruction
        is unfetchable or undecodable; later problems simply end the
        block (the next dispatch raises them with the exact pc).
        """
        M = self._M
        machine = self.machine
        memory = machine.memory
        decode = machine._decode
        host = machine._host_entries
        page_size = memory.page_size
        limit = (start // page_size + 1) * page_size
        cap = self.block_cache_cap
        if cap is not None and len(self._blocks) >= cap:
            # Deterministic full flush: same translation pressure on every
            # run with the same config, so counters stay reproducible.
            self.invalidate_all()

        decoded: List[Tuple[int, tuple]] = []
        pc = start
        while pc < limit and len(decoded) < _COMPILE_MAX_OPS:
            if pc in host and pc != start:
                break
            try:
                entry = decode(pc)
            except (M.MemTrap, M.UnknownInstructionTrap):
                if not decoded:
                    raise
                break
            decoded.append((pc, entry))
            if entry[0].base in _TERMINATOR_BASES:
                break
            pc += 4

        last_pc = decoded[-1][0]

        # Springboard fusion: a block ending in the verified runtime-call
        # idiom (``ldr x30, [x21, #n]; blr x30`` — recognized by the same
        # predicate the rewriter uses) compiles the pair into a single
        # closure so the dispatch loop can hand control to the runtime
        # springboard without trap-based unwinding.
        rtcall = None
        if len(decoded) >= 2 and decoded[-1][1][0].base == "blr" \
                and is_runtime_call_load(
                    [decoded[-2][1][0], decoded[-1][1][0]], 0):
            ldr_pc, ldr_entry = decoded[-2]
            blr_pc, blr_entry = decoded[-1]
            form = self._mem_form(ldr_entry[0].mem)
            if form is not None and form[0] == "imm" and not form[2]:
                exec_ = _t_rtcall(machine.cpu, machine.cpu.regs,
                                  memory.read, form[1], form[3],
                                  blr_pc + 4)
                l_icost, l_lat, l_uses, l_defs = self._cost_entry(ldr_entry)
                b_icost, b_lat, b_uses, b_defs = self._cost_entry(blr_entry)
                rtcall = (exec_, ldr_pc, l_icost, l_lat, l_uses, l_defs,
                          b_icost, b_lat, b_uses, b_defs)
                decoded = decoded[:-2]
                self.fused_calls += 1

        guard_map = machine.guard_map
        ops = []
        count = 2 if rtcall is not None else 0
        i = 0
        while i < len(decoded):
            pc_i, entry = decoded[i]
            if guard_map and pc_i in guard_map and i + 1 < len(decoded):
                fused = self._try_fuse(pc_i, entry, decoded[i + 1][1])
                if fused is not None:
                    ops.append(fused)
                    count += 2
                    i += 2
                    continue
            ops.append(self._build_op(pc_i, entry))
            count += 1
            i += 1

        block = Superblock(start, last_pc + 4, ops, count, last_pc + 4,
                           rtcall)
        self._blocks[start] = block
        self.translations += 1
        return block

    # -- op construction ----------------------------------------------------

    def _cost_entry(self, entry: tuple):
        """(icost, lat, uses, defs) of a decode-cache entry, priced the
        way ``Machine.step`` charges it."""
        _inst, _handler, klass, uses, defs = entry
        model = self.machine.model
        if model is None:
            return 0.0, 0.0, uses, defs
        return (model.issue_cost(klass), model.result_latency(klass), uses,
                defs)

    def _build_op(self, pc: int, entry: tuple) -> tuple:
        inst, handler = entry[0], entry[1]
        icost, lat, uses, defs = self._cost_entry(entry)
        spec = self._specialize(pc, inst)
        if spec is None:
            exec_ = partial(handler, inst)
            if inst.base in _PC_READING:
                exec_ = _pc_fix(self.machine.cpu, pc, exec_)
            return (K_GENERIC, exec_, pc, icost, lat, uses, defs, None)
        kind, exec_ = spec
        return (kind, exec_, pc, icost, lat, uses, defs, None)

    def _specialize(self, pc: int, inst: Instruction):
        """Build a specialized thunk, or None for the generic fallback."""
        M = self._M
        machine = self.machine
        cpu = machine.cpu
        regs = cpu.regs
        mem = machine.memory
        base = inst.base
        m = inst.mnemonic
        ops = inst.operands

        # -- traps (block terminators; pc set before the raise) -----------
        if base == "svc":
            imm = ops[0].value if ops else 0
            return (K_GENERIC,
                    _t_trap(cpu, pc, lambda: M.SvcTrap(pc, imm)))
        if base == "brk":
            imm = ops[0].value if ops else 0
            return (K_GENERIC,
                    _t_trap(cpu, pc, lambda: M.BrkTrap(pc, imm)))
        if base == "hlt":
            return (K_GENERIC, _t_trap(cpu, pc, lambda: M.HltTrap(pc)))

        # -- branches ------------------------------------------------------
        if base == "b":
            target = ops[0].value & MASK64 if isinstance(ops[0], Imm) \
                else None
            if target is None:
                return None
            if m == "b":
                return (K_BRANCH, _t_b(cpu, target))
            cond = self._canonical(m[2:])
            if cond is None:
                return None
            return (K_BRANCH, _t_bcond(cpu, cond, target))
        if base == "bl":
            if not isinstance(ops[0], Imm):
                return None
            return (K_BRANCH,
                    _t_bl(cpu, regs, ops[0].value & MASK64, pc + 4))
        if base == "br":
            if not _is_plain_gpr(ops[0]):
                return None
            return (K_BRANCH, _t_br(cpu, regs, ops[0].index))
        if base == "blr":
            if not _is_plain_gpr(ops[0]):
                return None
            return (K_BRANCH, _t_blr(cpu, regs, ops[0].index, pc + 4))
        if base == "ret":
            reg = ops[0] if ops else LR
            if not _is_plain_gpr(reg):
                return None
            return (K_BRANCH, _t_br(cpu, regs, reg.index))
        if base in ("cbz", "cbnz"):
            rt, target = ops
            if not _is_plain_gpr(rt) or not isinstance(target, Imm):
                return None
            return (K_BRANCH, _t_cb(cpu, regs, rt.index, rt.bits,
                                    base == "cbz", target.value & MASK64))
        if base in ("tbz", "tbnz"):
            rt, bit, target = ops
            if not _is_plain_gpr(rt) or not isinstance(target, Imm):
                return None
            return (K_BRANCH, _t_tb(cpu, regs, rt.index, bit.value,
                                    base == "tbnz", target.value & MASK64))

        # -- vector / floating point ---------------------------------------
        if ops and isinstance(ops[0], VecReg):
            return self._specialize_vector(inst)

        if base in ("fadd", "fsub", "fmul") and len(ops) == 3:
            rd, rn, rm = ops
            if all(isinstance(r, Reg) and r.is_vector for r in ops) \
                    and rd.bits == rn.bits == rm.bits \
                    and rd.bits in (32, 64):
                return (K_SIMPLE, _t_fp2(
                    cpu.vregs, rd.index, rn.index, rm.index, rd.bits,
                    base, M._bits_to_float, M._float_to_bits))
            return None

        if base in ("fmadd", "fmsub") and len(ops) == 4:
            rd, rn, rm, ra = ops
            if all(isinstance(r, Reg) and r.is_vector for r in ops) \
                    and rd.bits == rn.bits == rm.bits == ra.bits \
                    and rd.bits in (32, 64):
                return (K_SIMPLE, _t_fp3(
                    cpu.vregs, rd.index, rn.index, rm.index, ra.index,
                    rd.bits, base == "fmsub",
                    M._bits_to_float, M._float_to_bits))
            return None

        # -- data processing ----------------------------------------------
        if base in ("add", "sub", "adds", "subs"):
            rd, rn, rm = ops[0], ops[1], ops[2]
            if not isinstance(rd, Reg) or rd.is_vector:
                return None
            setflags = base.endswith("s")
            sub = base.startswith("sub")
            width = rd.bits
            if not _is_plain_gpr(rn):
                return None
            if setflags:
                if not (rd.is_zero or _is_plain_gpr(rd)):
                    return None
                d = None if rd.is_zero else rd.index
                if isinstance(rm, (Imm, ShiftedImm)):
                    b = (rm.value << rm.shift if isinstance(rm, ShiftedImm)
                         else rm.value) & ((1 << width) - 1)
                    return (K_SIMPLE, _t_addsub_flags_imm(
                        cpu, regs, d, rn.index, b, width, sub))
                if _is_plain_gpr(rm) and rm.bits == width:
                    return (K_SIMPLE, _t_addsub_flags_reg(
                        cpu, regs, d, rn.index, rm.index, width, sub))
                return None
            if not _is_plain_gpr(rd):
                return None
            if isinstance(rm, (Imm, ShiftedImm)):
                b = (rm.value << rm.shift if isinstance(rm, ShiftedImm)
                     else rm.value) & ((1 << width) - 1)
                return (K_SIMPLE, _t_add_imm(regs, rd.index, rn.index, b,
                                             width, sub))
            if isinstance(rm, Reg) and _is_plain_gpr(rm) \
                    and rm.bits == width:
                return (K_SIMPLE, _t_add_reg(regs, rd.index, rn.index,
                                             rm.index, width, sub))
            if not sub and width == 64 and isinstance(rm, Extended) \
                    and rm.kind == "uxtw" and not rm.amount \
                    and _is_plain_gpr(rm.reg):
                return (K_SIMPLE, _t_add_uxtw(regs, rd.index, rn.index,
                                              rm.reg.index))
            if isinstance(rm, Shifted) and rm.kind == "lsl" \
                    and _is_plain_gpr(rm.reg) and rm.reg.bits == width:
                return (K_SIMPLE, _t_addsub_shifted(
                    regs, rd.index, rn.index, rm.reg.index,
                    rm.amount % width, width, sub))
            return None

        if base in ("mov", "movz", "movn"):
            rd, src = ops
            if not isinstance(rd, Reg) or not _is_plain_gpr(rd):
                return None
            mask = (1 << rd.bits) - 1
            if isinstance(src, (Imm, ShiftedImm)):
                v = src.value << src.shift if isinstance(src, ShiftedImm) \
                    else src.value
                if base == "movn":
                    v = ~v
                return (K_SIMPLE, _t_mov_const(regs, rd.index, v & mask))
            if base == "mov" and _is_plain_gpr(src):
                return (K_SIMPLE, _t_mov_reg(regs, rd.index, src.index,
                                             rd.bits))
            return None

        if base == "movk":
            rd, src = ops
            if not _is_plain_gpr(rd):
                return None
            shift = src.shift if isinstance(src, ShiftedImm) else 0
            imm = src.value
            keep = ((1 << rd.bits) - 1) & ~(0xFFFF << shift)
            return (K_SIMPLE, _t_movk(regs, rd.index, keep, imm << shift,
                                      rd.bits))

        if base in ("adr", "adrp"):
            rd, src = ops
            if not _is_plain_gpr(rd) or not isinstance(src, Imm):
                return None
            return (K_SIMPLE,
                    _t_mov_const(regs, rd.index, src.value & MASK64))

        if base in ("and", "orr", "eor"):
            rd, rn, rm = ops
            if not isinstance(rd, Reg) or rd.is_vector \
                    or not _is_plain_gpr(rd) or not _is_plain_gpr(rn):
                return None
            width = rd.bits
            if isinstance(rm, Imm):
                b = rm.value & ((1 << width) - 1)
                return (K_SIMPLE, _t_logic_imm(regs, rd.index, rn.index, b,
                                               width, base))
            if isinstance(rm, Reg) and _is_plain_gpr(rm) \
                    and rm.bits == width:
                return (K_SIMPLE, _t_logic_reg(regs, rd.index, rn.index,
                                               rm.index, width, base))
            return None

        if base in ("lsl", "lsr", "asr"):
            rd, rn, src = ops
            if not _is_plain_gpr(rd) or not _is_plain_gpr(rn) \
                    or not isinstance(src, Imm):
                return None
            return (K_SIMPLE, _t_shift_imm(regs, rd.index, rn.index,
                                           src.value % rd.bits, rd.bits,
                                           base))

        if base in ("madd", "msub") and len(ops) == 4:
            rd, rn, rm, ra = ops
            if not (_is_plain_gpr(rd) and _is_plain_gpr(rn)
                    and _is_plain_gpr(rm) and _is_plain_gpr(ra)) \
                    or not rd.bits == rn.bits == rm.bits == ra.bits:
                return None
            return (K_SIMPLE, _t_madd(regs, rd.index, rn.index, rm.index,
                                      ra.index, rd.bits, base == "msub"))

        if base in ("ubfm", "sbfm") and len(ops) == 4:
            rd, rn, immr, imms = ops
            if not _is_plain_gpr(rd) or not _is_plain_gpr(rn) \
                    or rd.bits != rn.bits:
                return None
            return (K_SIMPLE, _t_bitfield(regs, rd.index, rn.index,
                                          rd.bits, immr.value, imms.value,
                                          base == "sbfm"))

        # -- memory --------------------------------------------------------
        if base in _UNSIGNED_LOADS or base in _SIGNED_LOADS:
            rt, memop = ops[0], ops[1]
            if not isinstance(memop, Mem) or isinstance(rt, VecReg):
                return None
            if rt.is_vector:
                if base in _SIGNED_LOADS:
                    return None
                form = self._mem_form(memop)
                if form is None:
                    return None
                mode, base_i, sp_base, imm, w_i = form
                size = access_bytes(inst)
                vmask = (1 << rt.bits) - 1
                if mode == "imm":
                    return (K_MEM, _t_vload(cpu.vregs, regs, cpu, mem.read,
                                            rt.index, base_i, imm, size,
                                            vmask, sp_base))
                return (K_MEM, _t_vload_uxtw(cpu.vregs, regs, mem.read,
                                             rt.index, base_i, w_i, size,
                                             vmask))
            if not (rt.is_zero or _is_plain_gpr(rt)):
                return None
            if rt.is_zero:
                return None  # prefetch-style form: keep generic
            signed_bits = _SIGNED_LOADS.get(base)
            size = access_bytes(inst)
            form = self._mem_form(memop)
            if form is None:
                return None
            mode, base_i, sp_base, imm, w_i = form
            if mode == "imm":
                return (K_MEM, _t_load(regs, cpu, mem.read, rt.index,
                                       base_i, imm, size, signed_bits,
                                       rt.bits, sp_base))
            return (K_MEM, _t_load_uxtw(regs, mem.read, rt.index, base_i,
                                        w_i, size, signed_bits, rt.bits))

        if base in _SIMPLE_STORES:
            rt, memop = ops[0], ops[1]
            if not isinstance(memop, Mem) or isinstance(rt, VecReg):
                return None
            if rt.is_vector:
                form = self._mem_form(memop)
                if form is None:
                    return None
                mode, base_i, sp_base, imm, w_i = form
                size = access_bytes(inst)
                vmask = (1 << rt.bits) - 1
                if mode == "imm":
                    return (K_MEM, _t_vstore(cpu.vregs, regs, cpu,
                                             mem.write, rt.index, base_i,
                                             imm, size, vmask, sp_base))
                return (K_MEM, _t_vstore_uxtw(cpu.vregs, regs, mem.write,
                                              rt.index, base_i, w_i, size,
                                              vmask))
            if not (rt.is_zero or _is_plain_gpr(rt)):
                return None
            size = access_bytes(inst)
            form = self._mem_form(memop)
            if form is None:
                return None
            mode, base_i, sp_base, imm, w_i = form
            t = 0 if rt.is_zero else rt.index
            if mode == "imm":
                return (K_MEM, _t_store(regs, cpu, mem.write, t, base_i,
                                        imm, size, sp_base, rt.is_zero))
            return (K_MEM, _t_store_uxtw(regs, mem.write, t, base_i, w_i,
                                         size, rt.is_zero))

        if base in ("ldp", "stp"):
            rt, rt2, memop = ops
            if rt.is_vector or rt2.is_vector or rt.bits != 64 \
                    or rt2.bits != 64:
                return None
            if not _is_plain_gpr(rt) or not _is_plain_gpr(rt2):
                return None
            form = self._mem_form(memop)
            if form is None:
                return None
            mode, base_i, sp_base, imm, _w_i = form
            if mode != "imm":
                return None
            factory = _t_ldp if base == "ldp" else _t_stp
            accessor = mem.read if base == "ldp" else mem.write
            return (K_MEM, factory(regs, cpu, accessor, rt.index,
                                   rt2.index, base_i, imm, sp_base))

        return None

    def _specialize_vector(self, inst: Instruction):
        """Lane-arranged vector ops (``add v0.4s, v1.4s, v2.4s`` etc.).

        Only the same-arrangement integer triple forms are specialized;
        anything else (float lanes, movi/dup, mixed arrangements) keeps
        the generic handler.
        """
        base = inst.base
        ops = inst.operands
        if base not in ("add", "sub", "mul", "and", "orr", "eor") \
                or len(ops) != 3:
            return None
        rd, rn, rm = ops
        if not all(isinstance(o, VecReg) for o in ops):
            return None
        if not (rd.arrangement == rn.arrangement == rm.arrangement):
            return None
        vregs = self.machine.cpu.vregs
        d, n, m = rd.reg.index, rn.reg.index, rm.reg.index
        bits = rd.lane_bits
        lanes = rd.lanes
        if base in ("and", "orr", "eor"):
            full_mask = (1 << (lanes * bits)) - 1
            return (K_SIMPLE,
                    _t_vec3_bitwise(vregs, d, n, m, full_mask, base))
        return (K_SIMPLE, _t_vec3_lanes(vregs, d, n, m, lanes, bits, base))

    @staticmethod
    def _mem_form(memop: Mem):
        """Classify a Mem operand for specialization.

        Returns ``(mode, base_index, sp_base, imm, w_index)`` where mode
        is ``"imm"`` (base register + immediate) or ``"uxtw"`` (the guard
        addressing mode), or None if the form needs the generic handler.
        """
        if memop.mode in (PRE_INDEX, POST_INDEX):
            return None
        base = memop.base
        if not isinstance(base, Reg) or base.is_zero or base.is_vector:
            return None
        sp_base = base.is_sp
        base_i = None if sp_base else base.index
        off = memop.offset
        if off is None:
            return ("imm", base_i, sp_base, 0, None)
        if isinstance(off, Imm):
            return ("imm", base_i, sp_base, off.value, None)
        if isinstance(off, Extended) and off.kind == "uxtw" \
                and not off.amount and _is_plain_gpr(off.reg) \
                and not sp_base:
            return ("uxtw", base_i, sp_base, 0, off.reg.index)
        return None

    @staticmethod
    def _canonical(cond: str) -> Optional[str]:
        try:
            cond = canonical_condition(cond)
        except ValueError:
            return None
        return cond if cond in _COND_EVAL else None

    # -- guard fusion --------------------------------------------------------

    def _try_fuse(self, pc: int, guard_entry: tuple,
                  access_entry: tuple) -> Optional[tuple]:
        """Fuse a verified guard instruction with its consumer.

        Takes both instructions' decode-cache entries.  Returns a
        complete op tuple (kind K_FUSED_*) or None.  The op's main cost
        fields describe the *access* instruction; the ``fused`` slot
        carries ``(guard_icost, guard_lat, guard_uses, guard_defs,
        access_pc)`` so compiled blocks charge both entries in retire
        order — cycle accounting stays bit-identical to stepping.
        """
        guard, access = guard_entry[0], access_entry[0]
        machine = self.machine
        cpu = machine.cpu
        regs = cpu.regs
        mem = machine.memory
        gops = guard.operands

        fused_exec = None
        kind = None

        # Pattern 1: address guard  add Xg, Xb, wS, uxtw  + consumer.
        if guard.mnemonic == "add" and len(gops) == 3 \
                and _is_plain_gpr(gops[0]) and gops[0].bits == 64 \
                and _is_plain_gpr(gops[1]) \
                and isinstance(gops[2], Extended) \
                and gops[2].kind == "uxtw" and not gops[2].amount \
                and _is_plain_gpr(gops[2].reg):
            g_d = gops[0].index
            base_i = gops[1].index
            g_s = gops[2].reg.index
            aops = access.operands
            ab = access.base
            if ab in ("br", "blr", "ret"):
                reg = aops[0] if aops else LR
                if _is_plain_gpr(reg) and reg.index == g_d:
                    link = pc + 8 if ab == "blr" else None
                    fused_exec = _t_fused_guard_branch(cpu, regs, g_d, g_s,
                                                       base_i, link)
                    kind = K_FUSED_BRANCH
            elif (ab in _UNSIGNED_LOADS or ab in _SIGNED_LOADS
                    or ab in _SIMPLE_STORES) and len(aops) == 2 \
                    and isinstance(aops[1], Mem):
                rt, memop = aops
                form = self._mem_form(memop)
                if form is not None and form[0] == "imm" \
                        and not form[2] and form[1] == g_d \
                        and not rt.is_vector:
                    imm = form[3]
                    size = access_bytes(access)
                    is_store = ab in _SIMPLE_STORES
                    if is_store and (rt.is_zero or _is_plain_gpr(rt)):
                        t = 0 if rt.is_zero else rt.index
                        fused_exec = _t_fused_guard_store(
                            regs, mem.write, g_d, g_s, t, imm, size,
                            base_i, rt.is_zero)
                        kind = K_FUSED_MEM
                    elif not is_store and _is_plain_gpr(rt):
                        fused_exec = _t_fused_guard_load(
                            regs, mem.read, g_d, g_s, rt.index, imm, size,
                            _SIGNED_LOADS.get(ab), rt.bits, base_i)
                        kind = K_FUSED_MEM

        # Pattern 2: offset fold  add/sub wD, wS, #imm  +
        #            op [Xb, wD, uxtw]  (Table 3 rows 2, 5-7).
        elif guard.mnemonic in ("add", "sub") and len(gops) == 3 \
                and _is_plain_gpr(gops[0]) and gops[0].bits == 32 \
                and _is_plain_gpr(gops[1]) and gops[1].bits == 32 \
                and isinstance(gops[2], Imm):
            o_d = gops[0].index
            o_s = gops[1].index
            o_imm = gops[2].value & MASK32
            o_sub = guard.mnemonic == "sub"
            aops = access.operands
            ab = access.base
            if (ab in _UNSIGNED_LOADS or ab in _SIGNED_LOADS
                    or ab in _SIMPLE_STORES) and len(aops) == 2 \
                    and isinstance(aops[1], Mem):
                rt, memop = aops
                form = self._mem_form(memop)
                if form is not None and form[0] == "uxtw" \
                        and form[4] == o_d and not rt.is_vector:
                    base_i = form[1]
                    size = access_bytes(access)
                    is_store = ab in _SIMPLE_STORES
                    if is_store and (rt.is_zero or _is_plain_gpr(rt)):
                        t = 0 if rt.is_zero else rt.index
                        fused_exec = _t_fused_offset_store(
                            regs, mem.write, o_d, o_s, o_imm, o_sub, t,
                            size, base_i, rt.is_zero)
                        kind = K_FUSED_MEM
                    elif not is_store and _is_plain_gpr(rt):
                        fused_exec = _t_fused_offset_load(
                            regs, mem.read, o_d, o_s, o_imm, o_sub,
                            rt.index, size, _SIGNED_LOADS.get(ab),
                            rt.bits, base_i)
                        kind = K_FUSED_MEM

        # Pattern 3: sp guard pair  mov wD, wsp + add sp, Xb, XD.
        elif guard.mnemonic == "mov" and len(gops) == 2 \
                and _is_plain_gpr(gops[0]) and gops[0].bits == 32 \
                and isinstance(gops[1], Reg) and gops[1].is_sp \
                and gops[1].bits == 32:
            w_d = gops[0].index
            aops = access.operands
            if access.mnemonic == "add" and len(aops) == 3 \
                    and isinstance(aops[0], Reg) and aops[0].is_sp \
                    and _is_plain_gpr(aops[1]):
                src = aops[2]
                src_reg = src.reg if isinstance(src, Extended) else src
                src_ok = isinstance(src, Reg) and _is_plain_gpr(src) \
                    and src.bits == 64
                if isinstance(src, Extended):
                    src_ok = src.kind in ("uxtx", "lsl") \
                        and not src.amount and _is_plain_gpr(src.reg) \
                        and src.reg.bits == 64
                if src_ok and src_reg.index == w_d:
                    fused_exec = _t_fused_sp_guard(cpu, regs, w_d,
                                                   aops[1].index)
                    kind = K_FUSED_SIMPLE

        if fused_exec is None:
            return None
        g_icost, g_lat, g_uses, g_defs = self._cost_entry(guard_entry)
        a_icost, a_lat, a_uses, a_defs = self._cost_entry(access_entry)
        fused_info = (g_icost, g_lat, g_uses, g_defs, pc + 4)
        return (kind, fused_exec, pc, a_icost, a_lat, a_uses, a_defs,
                fused_info)
