"""Superblock (translated-block) execution engine for the emulator hot path.

The stepping interpreter in :mod:`repro.emulator.machine` pays Python
dispatch cost on every instruction: a decode-cache lookup, a handler
dispatch, generic operand evaluation, and a :meth:`_Costing.charge` call.
This module predecodes straight-line instruction runs into immutable
:class:`Superblock` objects whose ops are *specialized closures* (direct
register-list access, precomputed immediates and branch targets) and
dispatches whole blocks from :meth:`Machine.run`.

Design rules (DESIGN.md §10, §15):

* every specialized op comes from one table of per-op source templates
  (``_ROWS``).  The uncosted op closures are generated from it at
  import; hot costed blocks inline the same bodies into one generated
  function;
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

import re
import struct
from collections import OrderedDict
from functools import partial
from string import Template
from typing import Callable, Dict, List, Optional, Tuple

from ..arm64.instructions import Instruction, access_bytes
from ..arm64.operands import Extended, Imm, Mem, POST_INDEX, PRE_INDEX, \
    Shifted, ShiftedImm, VecReg, canonical_condition
from ..arm64.registers import LR, Reg
from ..core.rewriter import is_runtime_call_load
from ..memory.pages import PERM_R, PERM_W, MemoryFault
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
#: Process-wide cache of compiled block factories, keyed by the full
#: generated source (which embeds every pc, cost and model constant, so
#: equal keys are equal programs).  Least recently used out past the cap;
#: an evicted entry only costs a recompile.  An entry (source and code)
#: takes ~17 KB on the SPEC-profile kernels, whose 14 images compile
#: about 100 blocks, so the cap bounds the cache near 4 MB.
_CODE_CACHE: "OrderedDict[str, Callable]" = OrderedDict()
_CODE_CACHE_CAP = 256

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


def _trap(cpu, pc, exc_factory):
    def run():
        cpu.pc = pc
        raise exc_factory()
    return run


class Superblock:
    """A predecoded straight-line run of instructions.

    ``ops`` is a list of ``(kind, exec, pc, icost, lat, uses, defs,
    fused)`` tuples; ``tmpls`` is the parallel list of ``(row key,
    args)`` op templates (None for a generic op); ``count`` is the run's
    fuel cost (fused ops count two, a trailing trap instruction counts
    one for the attempt); ``next_pc`` is the fall-through address;
    ``end`` is the exclusive byte bound used for invalidation overlap
    checks.

    ``rtcall`` is the fused runtime-call tail (``ldr x30, [x21, #n]`` +
    ``blr x30``): ``(exec, ldr_pc, ldr_icost, ldr_lat, ldr_uses,
    ldr_defs, blr_icost, blr_lat, blr_uses, blr_defs, tmpl)``, or
    ``None``.  The pair is kept out of ``ops`` so the per-op dispatch
    stays branch-free; its two instructions are included in ``count``.

    ``link_fall``/``link_taken`` are the block-chaining inline caches
    (observed successor blocks); ``valid`` is cleared on invalidation so
    stale links are rejected by the dispatch loop without needing to
    find and unlink every predecessor.

    ``fn`` is the block's specialized closure, compiled by
    :meth:`SuperblockEngine._compile_block` on the costed block's
    ``_COMPILE_THRESHOLD``-th execution (``hits`` counts them); None
    until then, and forever on the uncosted path.
    """

    __slots__ = ("start", "end", "ops", "tmpls", "count", "next_pc",
                 "rtcall", "valid", "link_fall", "link_taken", "fn", "hits")

    def __init__(self, start: int, end: int, ops: list, tmpls: list,
                 count: int, next_pc: int, rtcall: Optional[tuple] = None):
        self.start = start
        self.end = end
        self.ops = ops
        self.tmpls = tmpls
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


def _is_plain_gpr(reg) -> bool:
    return (isinstance(reg, Reg) and reg.is_gpr and not reg.is_zero
            and not reg.is_sp)


# ---------------------------------------------------------------------------
# The op-template table.
#
# One row per specialized instruction form: its op kind, its parameter
# names, and its body as Python source over ``regs``/``vregs``/``cpu``.
# ``$name`` is a parameter, ``$N $Z $C $V`` are the flags, and
# ``LOAD(address, size)`` / ``STORE(address, size, data)`` are memory
# accesses.  Branch rows also carry a condition (None: always taken);
# their body runs when it holds.  Each row's semantics replicate the
# corresponding ``machine.py`` handler exactly.  Two consumers derive
# from every row:
#
# * the uncosted path: at import each row becomes a closure factory
#   (``_Row.make``) whose parameters are closure cells, whose flags are
#   the cpu attributes, and whose accesses call ``PagedMemory.read`` /
#   ``write``;
# * the costed path: :meth:`SuperblockEngine._compile_block` inlines the
#   body with the parameters as literals, the flags as block locals and
#   the accesses as the single-page fast path (see :class:`_Inliner`).
# ---------------------------------------------------------------------------

_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
#: The struct converters the FP rows name: globals of the closure
#: factories, bound locals of compiled blocks.
_FP_ENV = {"pack_u32": _U32.pack, "unpack_f32": _F32.unpack,
           "pack_u64": _U64.pack, "unpack_f64": _F64.unpack,
           "pack_f64": _F64.pack, "unpack_u64": _U64.unpack}


class _Row:
    """One op template (see the table comment above)."""

    __slots__ = ("kind", "params", "body", "cond", "sets_nzcv", "make")

    def __init__(self, kind: int, params: str, body: Tuple[str, ...],
                 cond: Optional[str], sets_nzcv: bool):
        self.kind = kind
        self.params = tuple(params.split())
        self.body = body
        self.cond = cond
        self.sets_nzcv = sets_nzcv
        self.make: Optional[Callable] = None


_ROWS: Dict[str, _Row] = {}


def _row(key: str, kind: int, params: str, *body: str,
         cond: Optional[str] = None, sets_nzcv: bool = False) -> None:
    _ROWS[key] = _Row(kind, params, body, cond, sets_nzcv)


def _view(expr: str, width: int) -> str:
    """A register read at ``width`` bits (GPRs hold 64-bit values)."""
    return expr if width == 64 else f"({expr} & MASK32)"


def _define_rows() -> None:
    for w in (64, 32):
        mask = "MASK64" if w == 64 else "MASK32"
        top, wrap = f"{1 << (w - 1):#x}", f"{1 << w:#x}"
        a, b, c = (_view(f"regs[${p}]", w) for p in ("s1", "s2", "s3"))
        rd = "regs[$d]"
        for name, op in (("add", "+"), ("sub", "-")):
            _row(f"{name}.imm.{w}", K_SIMPLE, "d s1 imm",
                 f"{rd} = ({a} {op} $imm) & {mask}")
            _row(f"{name}.reg.{w}", K_SIMPLE, "d s1 s2",
                 f"{rd} = ({a} {op} {b}) & {mask}")
            _row(f"{name}.lsl.{w}", K_SIMPLE, "d s1 s2 amt",
                 f"{rd} = ({a} {op} (({b} << $amt) & {mask})) & {mask}")
            # Flag-setting forms; a zero destination is cmp/cmn.  For
            # subtraction the operand is inverted with carry in, as in
            # Machine._set_add_flags.
            for src, params, operand in (
                    ("imm", "s1 imm", "$imm"),
                    ("reg", "s1 s2", b if op == "+" else f"~{b} & {mask}")):
                carry = " + 1" if op == "-" else ""
                nzcv = (f"a = {a}", f"b = {operand}",
                        f"raw = a + b{carry}", f"result = raw & {mask}",
                        f"$N = result >> {w - 1}",
                        "$Z = 0 if result else 1",
                        f"$C = raw >> {w}",
                        f"$V = ((a ^ result) & (b ^ result)) >> {w - 1}")
                _row(f"{name}s.{src}.{w}", K_SIMPLE, "d " + params,
                     *nzcv, f"{rd} = result", sets_nzcv=True)
                _row(f"{'cmp' if op == '-' else 'cmn'}.{src}.{w}", K_SIMPLE,
                     params, *nzcv, sets_nzcv=True)
        _row(f"mov.reg.{w}", K_SIMPLE, "d s1", f"{rd} = {a}")
        _row(f"movk.{w}", K_SIMPLE, "d keep ins",
             f"{rd} = ({_view(rd, w)} & $keep) | $ins")
        for name, op in (("and", "&"), ("orr", "|"), ("eor", "^")):
            _row(f"{name}.imm.{w}", K_SIMPLE, "d s1 imm",
                 f"{rd} = {a} {op} $imm")
            _row(f"{name}.reg.{w}", K_SIMPLE, "d s1 s2",
                 f"{rd} = regs[$s1] {op} regs[$s2]" if w == 64
                 else f"{rd} = (regs[$s1] {op} regs[$s2]) & MASK32")
        _row(f"madd.{w}", K_SIMPLE, "d s1 s2 s3",
             f"{rd} = ({c} + {a} * {b}) & {mask}")
        _row(f"msub.{w}", K_SIMPLE, "d s1 s2 s3",
             f"{rd} = ({c} - {a} * {b}) & {mask}")
        _row(f"mul.{w}", K_SIMPLE, "d s1 s2", f"{rd} = ({a} * {b}) & {mask}")
        _row(f"mneg.{w}", K_SIMPLE, "d s1 s2",
             f"{rd} = -({a} * {b}) & {mask}")
        _row(f"udiv.{w}", K_SIMPLE, "d s1 s2", f"b = {b}",
             f"{rd} = {a} // b if b else 0")
        _row(f"sdiv.{w}", K_SIMPLE, "d s1 s2", f"a = {a}", f"b = {b}",
             f"if a & {top}:", f"    a -= {wrap}",
             f"if b & {top}:", f"    b -= {wrap}",
             "if b:", "    q = abs(a) // abs(b)",
             f"    {rd} = (-q if (a < 0) != (b < 0) else q) & {mask}",
             "else:", f"    {rd} = 0")
        # ubfm/sbfm (lsr/lsl/ubfx/sxtw aliases) with precomputed geometry.
        _row(f"ubfm.{w}", K_SIMPLE, "d s1 rsh fmask lsh",
             f"{rd} = ((({a} >> $rsh) & $fmask) << $lsh) & {mask}")
        _row(f"sbfm.{w}", K_SIMPLE, "d s1 rsh fmask lsh sign fill",
             f"field = ({a} >> $rsh) & $fmask",
             "if field & $sign:",
             f"    {rd} = ((field << $lsh) & {mask}) | $fill",
             "else:", f"    {rd} = (field << $lsh) & {mask}")
        _row(f"cbz.{w}", K_BRANCH, "t target", "cpu.pc = $target",
             cond=f"{_view('regs[$t]', w)} == 0")
        _row(f"cbnz.{w}", K_BRANCH, "t target", "cpu.pc = $target",
             cond=f"{_view('regs[$t]', w)} != 0")
    # sp operands of add/sub (frame setup: ``add x29, sp, #0``,
    # ``sub sp, sp, #16``), 64-bit only.
    for name, op in (("add", "+"), ("sub", "-")):
        for form, dst, src in (("ssp", "regs[$d]", "cpu.sp"),
                               ("dsp", "cpu.sp", "regs[$s1]"),
                               ("sp", "cpu.sp", "cpu.sp")):
            params = " ".join(p for p in ("d", "s1") if f"${p}" in dst + src)
            _row(f"{name}.imm.{form}", K_SIMPLE, params + " imm",
                 f"{dst} = ({src} {op} $imm) & MASK64")
    _row("add.uxtw", K_SIMPLE, "d s1 s2",
         "regs[$d] = (regs[$s1] + (regs[$s2] & MASK32)) & MASK64")
    _row("mov.imm", K_SIMPLE, "d imm", "regs[$d] = $imm")

    # -- scalar floating point and vector integer ops ----------------------
    # A double converts through struct directly (packing a Python float
    # as a double never overflows); a float32 result goes through f2b,
    # which saturates an overflow to infinity as Machine's fp_write does.
    for bits in (64, 32):
        def fp(p, bits=bits):
            return (f"unpack_f{bits}(pack_u{bits}(vregs[${p}] & "
                    f"MASK{bits}))[0]")

        def result(expr, bits=bits):
            return ("vregs[$d] = " + (f"unpack_u64(pack_f64({expr}))[0]"
                                      if bits == 64 else f"f2b({expr}, 32)"))
        for name, op in (("fadd", "+"), ("fsub", "-"), ("fmul", "*")):
            _row(f"{name}.{bits}", K_SIMPLE, "d s1 s2",
                 result(f"{fp('s1')} {op} {fp('s2')}"))
        for name, op in (("fmadd", "+"), ("fmsub", "-")):
            _row(f"{name}.{bits}", K_SIMPLE, "d s1 s2 s3",
                 f"prod = {fp('s1')} * {fp('s2')}",
                 result(f"{fp('s3')} {op} prod"))
    for name, op in (("and", "&"), ("orr", "|"), ("eor", "^")):
        _row(f"vec.{name}", K_SIMPLE, "d s1 s2 fmask",
             f"vregs[$d] = (vregs[$s1] {op} vregs[$s2]) & $fmask")
    for name, op in (("add", "+"), ("sub", "-"), ("mul", "*")):
        _row(f"vec.{name}", K_SIMPLE, "d s1 s2 shifts lmask",
             "a = vregs[$s1]", "b = vregs[$s2]", "raw = 0",
             "for sh in $shifts:",
             f"    raw |= ((((a >> sh) & $lmask) {op} ((b >> sh) & $lmask))"
             " & $lmask) << sh",
             "vregs[$d] = raw")

    # -- loads and stores: addressing form x access ------------------------
    accesses = {
        "ld": ("t size", ("regs[$t] = LOAD(addr, $size)",)),
        "lds": ("t size sign wrap tmask", (
            "raw = LOAD(addr, $size)", "if raw & $sign:",
            "    raw -= $wrap", "regs[$t] = raw & $tmask")),
        "st": ("t size smask", (
            'STORE(addr, $size, (regs[$t] & $smask).to_bytes($size, '
            '"little"))',)),
        "stz": ("size zero", ("STORE(addr, $size, $zero)",)),
        "vld": ("t size vmask", ("vregs[$t] = LOAD(addr, $size) & $vmask",)),
        "vst": ("t size vmask", (
            'STORE(addr, $size, (vregs[$t] & $vmask).to_bytes($size, '
            '"little"))',)),
        "ldp": ("t t2", ("regs[$t] = LOAD(addr, 8)",
                         "regs[$t2] = LOAD(addr + 8, 8)")),
        "stp": ("t t2", (
            'STORE(addr, 8, (regs[$t] & MASK64).to_bytes(8, "little"))',
            'STORE(addr + 8, 8, (regs[$t2] & MASK64).to_bytes(8, '
            '"little"))')),
    }
    # Form -> (params, address lines, writeback lines).
    forms = {"uxtw": ("base idx", (
        "addr = (regs[$base] + (regs[$idx] & MASK32)) & MASK64",), ())}
    for sp, reg, params in (("", "regs[$base]", "base imm"),
                            ("_sp", "cpu.sp", "imm")):
        forms["sp" if sp else "imm"] = (
            params, (f"addr = ({reg} + $imm) & MASK64",), ())
        forms["pre" + sp] = (params, (f"addr = ({reg} + $imm) & MASK64",),
                             (f"{reg} = addr",))
        forms["post" + sp] = (params, (f"addr = {reg}",),
                              (f"{reg} = (addr + $imm) & MASK64",))
    for acc, (acc_params, acc_body) in accesses.items():
        for form, (form_params, addr, wb) in forms.items():
            if form == "uxtw" and acc in ("ldp", "stp"):
                continue
            _row(f"{acc}.{form}", K_MEM, f"{form_params} {acc_params}",
                 *addr, *acc_body, *wb)
    _row("rtcall", K_MEM, "base imm link",
         "addr = (regs[$base] + $imm) & MASK64", "target = LOAD(addr, 8)",
         "regs[30] = $link", "cpu.pc = target")

    # -- fused guard sequences (DESIGN.md §10) -----------------------------
    guard = ("g = (regs[$base] + (regs[$gs] & MASK32)) & MASK64",
             "regs[$gd] = g")
    for acc in ("ld", "lds", "st", "stz"):
        acc_params, acc_body = accesses[acc]
        _row(f"guard.{acc}", K_FUSED_MEM, f"base gs gd imm {acc_params}",
             *guard, "addr = (g + $imm) & MASK64", *acc_body)
        for name, op in (("add", "+"), ("sub", "-")):
            _row(f"offset.{name}.{acc}", K_FUSED_MEM,
                 f"base ws wd oimm {acc_params}",
                 f"w = ((regs[$ws] & MASK32) {op} $oimm) & MASK32",
                 "regs[$wd] = w", "addr = (regs[$base] + w) & MASK64",
                 *acc_body)
    _row("guard.br", K_FUSED_BRANCH, "base gs gd", *guard, "cpu.pc = g")
    _row("guard.blr", K_FUSED_BRANCH, "base gs gd link", *guard,
         "regs[30] = $link", "cpu.pc = g")
    _row("guard.sp", K_FUSED_SIMPLE, "base wd", "w = cpu.sp & MASK32",
         "regs[$wd] = w", "cpu.sp = (regs[$base] + w) & MASK64")

    # -- branches ----------------------------------------------------------
    _row("b", K_BRANCH, "target", "cpu.pc = $target")
    for cond, holds in _COND_SRC.items():
        _row(f"b.{cond}", K_BRANCH, "target", "cpu.pc = $target",
             cond=holds)
    _row("bl", K_BRANCH, "target link", "regs[30] = $link",
         "cpu.pc = $target")
    _row("br", K_BRANCH, "t", "cpu.pc = regs[$t] & MASK64")
    _row("blr", K_BRANCH, "t link", "target = regs[$t] & MASK64",
         "regs[30] = $link", "cpu.pc = target")
    _row("tbz", K_BRANCH, "t bit target", "cpu.pc = $target",
         cond="not (regs[$t] >> $bit) & 1")
    _row("tbnz", K_BRANCH, "t bit target", "cpu.pc = $target",
         cond="(regs[$t] >> $bit) & 1")


#: Condition-code tests over the 0/1 flag values (``al``/``nv`` keep the
#: generic handler).
_COND_SRC = {
    "eq": "$Z", "ne": "not $Z", "cs": "$C", "cc": "not $C",
    "mi": "$N", "pl": "not $N", "vs": "$V", "vc": "not $V",
    "hi": "$C and not $Z", "ls": "not $C or $Z",
    "ge": "$N == $V", "lt": "$N != $V",
    "gt": "not $Z and $N == $V", "le": "$Z or $N != $V",
}

_LOAD_RE = re.compile(r"LOAD\(([^,()]+), ([^,()]+)\)")
_STORE_RE = re.compile(r"^(\s*)STORE\(([^,]+), ([^,]+), (.*)\)$")
_CPU_FLAGS = {"N": "cpu.n", "Z": "cpu.z", "C": "cpu.c", "V": "cpu.v"}
_LOCAL_FLAGS = {"N": "f_n", "Z": "f_z", "C": "f_c", "V": "f_v"}
_COMMIT_FLAGS = "cpu.n = f_n; cpu.z = f_z; cpu.c = f_c; cpu.v = f_v"
#: Arguments every generated op factory takes before the row parameters.
_OP_ENV = "cpu, regs, vregs, read, write, f2b"


def _closure_lines(row: _Row) -> List[str]:
    """The uncosted closure body of ``row``."""
    names = dict(_CPU_FLAGS, **{p: p for p in row.params})
    body = []
    for line in row.body:
        line = Template(line).substitute(names)
        match = _STORE_RE.match(line)
        if match:
            ind, addr, _size, data = match.groups()
            line = f"{ind}write({addr}, {data})"
        body.append(_LOAD_RE.sub(r'int.from_bytes(read(\1, \2), "little")',
                                 line))
    if row.kind == K_BRANCH:
        if row.cond is None:
            return body + ["return True"]
        cond = Template(row.cond).substitute(names)
        return ([f"if {cond}:"] + ["    " + line for line in body]
                + ["    return True", "return False"])
    if row.kind in (K_MEM, K_FUSED_MEM):
        body.append("return addr")
    return body


def _build_factories() -> None:
    """Compile one closure factory per row (the uncosted op closures)."""
    src = []
    keys = list(_ROWS)
    for i, key in enumerate(keys):
        row = _ROWS[key]
        src.append(f"def make{i}({_OP_ENV}, {', '.join(row.params)}):")
        src.append("    def run():")
        src.extend("        " + line for line in _closure_lines(row))
        src.append("    return run")
    namespace = dict(_FP_ENV, MASK64=MASK64, MASK32=MASK32)
    exec(compile("\n".join(src), "<superblock op templates>", "exec"),
         namespace)
    for i, key in enumerate(keys):
        _ROWS[key].make = namespace[f"make{i}"]


_define_rows()
_build_factories()


def _literal(value) -> str:
    text = repr(value)
    return f"({text})" if isinstance(value, int) and value < 0 else text


class _Inliner:
    """Renders op-template rows as inline source for one machine.

    The memory fast paths replicate :meth:`PagedMemory.read` /
    :meth:`~PagedMemory.write` for a permitted access within one page;
    anything else (a fault, a page-crossing access, a COW page, a write
    observer) calls the method itself, so every ``MemoryFault`` is the
    one stepping raises.  A page with permissions always has storage
    (``PagedMemory`` maps and unmaps both together), so the fast path
    indexes the page table directly.
    """

    def __init__(self, page_size: int):
        self.page_size = page_size
        self.shift = page_size.bit_length() - 1

    @staticmethod
    def render(text: str, row: _Row, args: tuple,
               flags: Dict[str, str]) -> str:
        """``text`` of ``row`` with its parameters as literals."""
        names = dict(flags, **{p: _literal(v)
                               for p, v in zip(row.params, args)})
        return Template(text).substitute(names).replace(
            "MASK64", f"{MASK64:#x}").replace("MASK32", f"{MASK32:#x}")

    def lines(self, row: _Row, args: tuple, flags: Dict[str, str],
              ind: str) -> List[str]:
        """The inline body of ``row``, indented by ``ind``."""
        out: List[str] = []
        for line in row.body:
            line = self.render(line, row, args, flags)
            match = _STORE_RE.match(line)
            if match:
                sub_ind, addr, size, data = match.groups()
                self._store(out, ind + sub_ind, addr, int(size), data)
                continue
            match = _LOAD_RE.search(line)
            if match:
                sub_ind = line[:len(line) - len(line.lstrip())]
                self._load(out, ind + sub_ind, match.group(1),
                           int(match.group(2)))
                line = line[:match.start()] + "val" + line[match.end():]
            out.append(ind + line)
        return out

    def _locate(self, out, ind, addr) -> str:
        addr = addr if addr.isidentifier() else f"({addr})"
        out.append(f"{ind}off = {addr} & {self.page_size - 1}")
        out.append(f"{ind}pg = {addr} >> {self.shift}")
        return addr

    def _load(self, out, ind, addr, size) -> None:
        paren = self._locate(out, ind, addr)
        out.append(f"{ind}if off <= {self.page_size - size} and "
                   f"perms_get(pg, 0) & {PERM_R}:")
        out.append(f"{ind}    val = int.from_bytes(pages[pg][off:off + "
                   f"{size}], 'little')")
        out.append(f"{ind}else:")
        out.append(f"{ind}    val = int.from_bytes(read({paren}, {size}), "
                   f"'little')")

    def _store(self, out, ind, addr, size, data) -> None:
        paren = self._locate(out, ind, addr)
        out.append(f"{ind}if off <= {self.page_size - size} and not cow "
                   f"and mem.write_observer is None and "
                   f"perms_get(pg, 0) & {PERM_W}:")
        out.append(f"{ind}    pages[pg][off:off + {size}] = {data}")
        out.append(f"{ind}else:")
        out.append(f"{ind}    write({paren}, {data})")


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
        cpu = machine.cpu
        memory = machine.memory
        #: The leading arguments of every row's closure factory.
        self._env = (cpu, cpu.regs, cpu.vregs, memory.read, memory.write,
                     M._float_to_bits)
        self._inliner = _Inliner(memory.page_size)
        #: Counters exposed for tests and diagnostics.
        self.translations = 0
        self.invalidations = 0
        self.chain_links = 0
        self.fused_calls = 0
        self.compiled_blocks = 0
        #: Compiled blocks whose code came from the process-wide cache.
        self.code_cache_hits = 0

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
        unrolled here into generated source: each op's template body is
        inlined with its operands as literals, and every static cost
        quantity — issue costs, latencies, pcs, model miss charges — is
        folded in (``repr`` of a float round-trips exactly).  The
        generated function performs the *same float operations in the
        same order* as ``Machine.step``, so cycle totals stay
        bit-identical; compilation is pure host-side speedup (DESIGN.md
        §15).  A fused runtime-call tail is compiled in too: the table
        load is charged like any load, the ``blr`` like a taken branch.
        An op without a template calls its generic closure (``e{i}()``).

        The closure keeps the block's machine state in locals: the
        ``t_issue``/``t_done`` horizons, one local per scoreboard key
        (loaded at entry only when read before the block defines it),
        the NZCV flags once an op sets them, and the hit counts of the
        inline TLB/L1 probes.  It commits them on exit — the
        scoreboard in first-definition order, so the dict's key order is
        the one stepping builds.  On a trap it commits exactly the
        partial state stepping would have: every raising op records the
        retired count ``n``, and a key is written back only once its
        first definition retired.  It takes no arguments and returns
        whether the block's terminator branched.

        The source is the key of the process-wide code cache: a block
        with the same source (the same image at the same address under
        the same model, in any machine) reuses its compiled factory.
        """
        machine = self.machine
        model = machine.model
        tlb, l1, l2 = machine.tlb, machine.l1, machine.l2
        tb = model.taken_branch_cost
        walk_f = model.tlb_walk_cycles * machine.tlb_walk_scale
        inline = self._inliner
        ind = "            "
        body: List[str] = []
        emit = body.append
        #: scoreboard key -> retired count once its first def retired.
        first_def: Dict[object, int] = {}
        loads: Dict[object, None] = {}  # keys read before any def
        mru: List[Tuple[str, str]] = []  # (gauge, hit counter) inlined
        generic: List[int] = []
        k = 0  # instructions retired before the one being emitted
        flags_local = writes_flags = False

        def local(key) -> str:
            return "rsp" if key == "sp" else f"r{key}"

        def charge(ind, issue, uses, lat, defs):
            # _Costing.charge for one retired instruction; ``issue`` is
            # None when the caller already added the issue cost.
            nonlocal k
            k += 1
            if issue is not None:
                emit(f"{ind}t_issue += {issue}")
            start = "t_issue"
            if uses:
                start = "start"
                emit(f"{ind}start = t_issue")
                for key in dict.fromkeys(uses):
                    if key not in first_def:
                        loads[key] = None
                    emit(f"{ind}if {local(key)} > start:")
                    emit(f"{ind}    start = {local(key)}")
            emit(f"{ind}finish = {start} + {lat}")
            for key in defs:
                first_def.setdefault(key, k)
                emit(f"{ind}{local(key)} = finish")
            emit(f"{ind}if finish > t_done:")
            emit(f"{ind}    t_done = finish")

        def gauge_probe(ind, gauge, name, hits, cycles, issue, on_miss):
            # ``name`` prefixes the gauge's bound set list and lookup.
            # A hit replicates Tlb.lookup's (MRU shortcut, then LRU
            # move); a miss, or a geometry that is not a power of two,
            # calls the lookup itself.
            miss = [f"{ind}    extra += {cycles!r}",
                    f"{ind}    bw += {issue!r}", *on_miss]
            if gauge._shift is None or gauge._mask is None:
                emit(f"{ind}if not {name}_lookup(addr):")
                body.extend(miss)
                return
            if (name, hits) not in mru:
                mru.append((name, hits))
            emit(f"{ind}pg = addr >> {gauge._shift}")
            emit(f"{ind}es = {name}sets[pg & {gauge._mask}]")
            emit(f"{ind}if es and es[-1] == pg:")
            emit(f"{ind}    {hits} += 1")
            emit(f"{ind}elif pg in es:")
            emit(f"{ind}    es.remove(pg)")
            emit(f"{ind}    es.append(pg)")
            emit(f"{ind}    {hits} += 1")
            emit(f"{ind}elif not {name}_lookup(addr):")
            body.extend(miss)

        def probe(ind):
            # Machine.step's model probes of ``addr``: TLB, L1, then L2
            # on an L1 miss.
            emit(f"{ind}extra = 0.0")
            emit(f"{ind}bw = 0.0")
            if tlb is not None:
                gauge_probe(ind, tlb, "tlb", "th", walk_f,
                            walk_f * model.tlb_walk_issue_fraction, ())
            if l1 is not None:
                gauge_probe(ind, l1, "l1", "l1h", model.l1_miss_cycles,
                            model.l1_miss_issue, (
                                f"{ind}    if not l2_lookup(addr):",
                                f"{ind}        extra += "
                                f"{model.l2_miss_cycles!r}",
                                f"{ind}        bw += "
                                f"{model.l2_miss_issue!r}"))

        def guarded(ind, lines, pc):
            emit(f"{ind}try:")
            body.extend(lines)
            emit(f"{ind}except MemoryFault as fault:")
            emit(f"{ind}    n = {k}")
            emit(f"{ind}    cpu.pc = {pc}")
            emit(f"{ind}    raise MemTrap({pc}, fault) from None")

        for i, (kind, _exec, pc, icost, lat, uses, defs, fused) in \
                enumerate(block.ops):
            ic, lt, ictb = repr(icost), repr(lat), repr(icost + tb)
            spec = block.tmpls[i]
            if spec is None:  # generic handler semantics
                if flags_local:  # the handler may read or set NZCV
                    emit(f"{ind}{_COMMIT_FLAGS}")
                    emit(f"{ind}f_n = None")
                    flags_local = False
                generic.append(i)
                emit(f"{ind}try:")
                emit(f"{ind}    taken, addr = e{i}()")
                emit(f"{ind}except MemoryFault as fault:")
                emit(f"{ind}    n = {k}")
                emit(f"{ind}    cpu.pc = {pc}")
                emit(f"{ind}    raise MemTrap({pc}, fault) from None")
                emit(f"{ind}except BaseException:")
                emit(f"{ind}    n = {k}")
                emit(f"{ind}    raise")
                emit(f"{ind}if addr is None:")
                emit(f"{ind}    extra = 0.0")
                emit(f"{ind}    bw = 0.0")
                emit(f"{ind}else:")
                probe(ind + "    ")
                emit(f"{ind}if taken:")
                emit(f"{ind}    t_issue += {ictb} + bw")
                emit(f"{ind}else:")
                emit(f"{ind}    t_issue += {ic} + bw")
                charge(ind, None, uses, f"{lt} + extra", defs)
                continue
            row = _ROWS[spec[0]]
            if row.sets_nzcv:
                flags_local = writes_flags = True
            names = _LOCAL_FLAGS if flags_local else _CPU_FLAGS
            if fused is not None:  # the guard half retires first
                g_icost, g_lat, g_uses, g_defs, a_pc = fused
                charge(ind, repr(g_icost), g_uses, repr(g_lat), g_defs)
                pc = a_pc
            if kind == K_BRANCH and row.cond is not None:
                cond = inline.render(row.cond, row, spec[1], names)
                emit(f"{ind}if {cond}:")
                body.extend(inline.lines(row, spec[1], names, ind + "    "))
                emit(f"{ind}    taken = True")
                emit(f"{ind}    t_issue += {ictb}")
                emit(f"{ind}else:")
                emit(f"{ind}    t_issue += {ic}")
                charge(ind, None, uses, lt, defs)
            elif kind in (K_BRANCH, K_FUSED_BRANCH):
                body.extend(inline.lines(row, spec[1], names, ind))
                emit(f"{ind}taken = True")
                charge(ind, ictb, uses, lt, defs)
            elif kind in (K_MEM, K_FUSED_MEM):
                guarded(ind, inline.lines(row, spec[1], names, ind + "    "),
                        pc)
                probe(ind)
                charge(ind, f"{ic} + bw", uses, f"{lt} + extra", defs)
            else:  # K_SIMPLE, K_FUSED_SIMPLE
                body.extend(inline.lines(row, spec[1], names, ind))
                charge(ind, ic, uses, lt, defs)
        rtcall = block.rtcall
        if rtcall is not None:  # fused ldr x30, [x21, #n]; blr x30
            (_exec, r_pc, l_icost, l_lat, l_uses, l_defs,
             b_icost, b_lat, b_uses, b_defs, spec) = rtcall
            row = _ROWS[spec[0]]
            guarded(ind, inline.lines(row, spec[1], _CPU_FLAGS, ind + "    "),
                    r_pc)
            probe(ind)
            charge(ind, f"{l_icost!r} + bw", l_uses, f"{l_lat!r} + extra",
                   l_defs)
            charge(ind, repr(b_icost + tb), b_uses, repr(b_lat), b_defs)

        head = ["t_issue = costing.t_issue", "t_done = costing.t_done"]
        head += [f"{local(key)} = ready_get({key!r}, ABSENT)"
                 for key in loads]
        if writes_flags:
            head.append("f_n = None")
        head += [f"{hits} = 0" for _gauge, hits in mru]
        head += ["n = 0", "taken = False"]
        # Exit commits: partial on a trap (``n`` retired), full otherwise.
        partial_commit = ["costing.t_issue = t_issue",
                          "costing.t_done = t_done"]
        commit = list(partial_commit)
        for key, retired in first_def.items():
            partial_commit += [f"if n >= {retired}:",
                               f"    ready[{key!r}] = {local(key)}"]
            commit.append(f"ready[{key!r}] = {local(key)}")
        if writes_flags:
            partial_commit += ["if f_n is not None:", "    " + _COMMIT_FLAGS]
            if flags_local:
                commit.append(_COMMIT_FLAGS)
        for gauge, hits in mru:
            partial_commit.append(f"{gauge}.hits += {hits}")
            commit.append(f"{gauge}.hits += {hits}")
        partial_commit += ["machine.instret += n", "raise"]
        commit.append(f"machine.instret += {k}")

        env = self._block_env()
        binds = ", ".join([f"e{i}=ops[{i}][1]" for i in generic]
                          + [f"{name}={name}" for name in env])
        src = "\n".join(
            [f"def _factory(ops, {', '.join(env)}):",
             f"    def run({binds}):",
             *("        " + line for line in head),
             "        try:",
             *body,
             "        except BaseException:",
             *("            " + line for line in partial_commit),
             *("        " + line for line in commit),
             "        return taken",
             "    return run",
             ""])
        factory = _CODE_CACHE.get(src)
        if factory is None:
            namespace: Dict[str, object] = {}
            exec(compile(src, f"<superblock {block.start:#x}>", "exec"),
                 namespace)
            factory = _CODE_CACHE[src] = namespace["_factory"]
            if len(_CODE_CACHE) > _CODE_CACHE_CAP:
                _CODE_CACHE.popitem(last=False)
        else:
            _CODE_CACHE.move_to_end(src)
            self.code_cache_hits += 1
        fn = factory(block.ops, **env)
        self.compiled_blocks += 1
        return fn

    def _block_env(self) -> Dict[str, object]:
        """Everything a compiled block may bind, by its name in the
        generated source (the same names for every machine).

        A block binds them all as default arguments, i.e. fast locals,
        so each must keep its identity for the
        machine's lifetime: the register lists (``CpuState.restore``
        copies in place), the scoreboard dict, the gauges' set lists and
        the memory's page tables are only ever mutated, never rebound
        (speculation rollback restores them in place).
        """
        machine = self.machine
        costing = machine._costing
        cpu = machine.cpu
        memory = machine.memory
        tlb, l1, l2 = machine.tlb, machine.l1, machine.l2
        return dict(
            costing=costing, machine=machine, cpu=cpu, regs=cpu.regs,
            vregs=cpu.vregs, ready=costing.ready, ready_get=costing.ready.get,
            tlb=tlb, tlbsets=tlb and tlb._sets, tlb_lookup=tlb and tlb.lookup,
            l1=l1, l1sets=l1 and l1._sets, l1_lookup=l1 and l1.lookup,
            l2_lookup=l2 and l2.lookup, mem=memory, pages=memory._pages,
            perms_get=memory._perms.get, cow=memory._cow, read=memory.read,
            write=memory.write, f2b=self._M._float_to_bits, **_FP_ENV,
            MemoryFault=MemoryFault, MemTrap=self._M.MemTrap,
            ABSENT=float("-inf"))

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
            if form is not None and form[0] == "imm":
                args = form[1] + (blr_pc + 4,)
                exec_ = _ROWS["rtcall"].make(*self._env, *args)
                l_icost, l_lat, l_uses, l_defs = self._cost_entry(ldr_entry)
                b_icost, b_lat, b_uses, b_defs = self._cost_entry(blr_entry)
                rtcall = (exec_, ldr_pc, l_icost, l_lat, l_uses, l_defs,
                          b_icost, b_lat, b_uses, b_defs, ("rtcall", args))
                decoded = decoded[:-2]
                self.fused_calls += 1

        guard_map = machine.guard_map
        ops = []
        tmpls = []
        count = 2 if rtcall is not None else 0
        i = 0
        while i < len(decoded):
            pc_i, entry = decoded[i]
            if guard_map and pc_i in guard_map and i + 1 < len(decoded):
                fused = self._try_fuse(pc_i, entry, decoded[i + 1][1])
                if fused is not None:
                    ops.append(fused[0])
                    tmpls.append(fused[1])
                    count += 2
                    i += 2
                    continue
            op, spec = self._build_op(pc_i, entry)
            ops.append(op)
            tmpls.append(spec)
            count += 1
            i += 1

        block = Superblock(start, last_pc + 4, ops, tmpls, count,
                           last_pc + 4, rtcall)
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

    def _build_op(self, pc: int, entry: tuple) -> Tuple[tuple, object]:
        """The op tuple for one instruction, and its template (or None)."""
        inst, handler = entry[0], entry[1]
        icost, lat, uses, defs = self._cost_entry(entry)
        spec = self._specialize(pc, inst)
        if spec is not None:
            row = _ROWS[spec[0]]
            return (row.kind, row.make(*self._env, *spec[1]), pc, icost,
                    lat, uses, defs, None), spec
        M = self._M
        cpu = self.machine.cpu
        base = inst.base
        ops = inst.operands
        # Traps (block terminators; pc set before the raise).
        imm = ops[0].value if ops and base in ("svc", "brk") else 0
        if base == "svc":
            exec_ = _trap(cpu, pc, lambda: M.SvcTrap(pc, imm))
        elif base == "brk":
            exec_ = _trap(cpu, pc, lambda: M.BrkTrap(pc, imm))
        elif base == "hlt":
            exec_ = _trap(cpu, pc, lambda: M.HltTrap(pc))
        else:
            exec_ = partial(handler, inst)
            if base in _PC_READING:
                exec_ = _pc_fix(cpu, pc, exec_)
        return (K_GENERIC, exec_, pc, icost, lat, uses, defs, None), None

    def _specialize(self, pc: int, inst: Instruction):
        """The ``(row key, args)`` template of ``inst``, or None for the
        generic handler."""
        base = inst.base
        m = inst.mnemonic
        ops = inst.operands

        # -- branches ------------------------------------------------------
        if base == "b":
            if not isinstance(ops[0], Imm):
                return None
            target = ops[0].value & MASK64
            if m == "b":
                return "b", (target,)
            cond = self._canonical(m[2:])
            if cond is None:
                return None
            return f"b.{cond}", (target,)
        if base == "bl":
            if not isinstance(ops[0], Imm):
                return None
            return "bl", (ops[0].value & MASK64, pc + 4)
        if base in ("br", "blr", "ret"):
            reg = ops[0] if ops else LR
            if not _is_plain_gpr(reg):
                return None
            if base == "blr":
                return "blr", (reg.index, pc + 4)
            return "br", (reg.index,)
        if base in ("cbz", "cbnz"):
            rt, target = ops
            if not _is_plain_gpr(rt) or not isinstance(target, Imm):
                return None
            return f"{base}.{rt.bits}", (rt.index, target.value & MASK64)
        if base in ("tbz", "tbnz"):
            rt, bit, target = ops
            if not _is_plain_gpr(rt) or not isinstance(target, Imm):
                return None
            return base, (rt.index, bit.value, target.value & MASK64)

        # -- vector / floating point ---------------------------------------
        if ops and isinstance(ops[0], VecReg):
            return self._specialize_vector(inst)

        if base in ("fadd", "fsub", "fmul", "fmadd", "fmsub"):
            arity = 3 if base in ("fadd", "fsub", "fmul") else 4
            if len(ops) == arity \
                    and all(isinstance(r, Reg) and r.is_vector for r in ops) \
                    and len({r.bits for r in ops}) == 1 \
                    and ops[0].bits in (32, 64):
                return f"{base}.{ops[0].bits}", tuple(r.index for r in ops)
            return None

        # -- data processing ----------------------------------------------
        if base in ("add", "sub", "adds", "subs"):
            rd, rn, rm = ops[0], ops[1], ops[2]
            if not isinstance(rd, Reg) or rd.is_vector \
                    or not isinstance(rn, Reg):
                return None
            width = rd.bits
            mask = (1 << width) - 1
            name = base[:3]
            imm = isinstance(rm, (Imm, ShiftedImm))
            b = ((rm.value << rm.shift if isinstance(rm, ShiftedImm)
                  else rm.value) & mask) if imm else None
            if base.endswith("s"):
                if not _is_plain_gpr(rn) \
                        or not (rd.is_zero or _is_plain_gpr(rd)):
                    return None
                row = ("cmp" if name == "sub" else "cmn") if rd.is_zero \
                    else base
                dest = () if rd.is_zero else (rd.index,)
                if imm:
                    b = (~b) & mask if name == "sub" else b
                    return f"{row}.imm.{width}", dest + (rn.index, b)
                if _is_plain_gpr(rm) and rm.bits == width:
                    return f"{row}.reg.{width}", dest + (rn.index, rm.index)
                return None
            if imm and width == 64 and (rd.is_sp or rn.is_sp) \
                    and (rd.is_sp or _is_plain_gpr(rd)) \
                    and (rn.is_sp or _is_plain_gpr(rn)):
                if rd.is_sp and rn.is_sp:
                    return f"{name}.imm.sp", (b,)
                if rd.is_sp:
                    return f"{name}.imm.dsp", (rn.index, b)
                return f"{name}.imm.ssp", (rd.index, b)
            if not _is_plain_gpr(rd) or not _is_plain_gpr(rn):
                return None
            if imm:
                return f"{name}.imm.{width}", (rd.index, rn.index, b)
            if _is_plain_gpr(rm) and rm.bits == width:
                return f"{name}.reg.{width}", (rd.index, rn.index, rm.index)
            if name == "add" and width == 64 and isinstance(rm, Extended) \
                    and rm.kind == "uxtw" and not rm.amount \
                    and _is_plain_gpr(rm.reg):
                return "add.uxtw", (rd.index, rn.index, rm.reg.index)
            if isinstance(rm, Shifted) and rm.kind == "lsl" \
                    and _is_plain_gpr(rm.reg) and rm.reg.bits == width:
                return f"{name}.lsl.{width}", (rd.index, rn.index,
                                               rm.reg.index,
                                               rm.amount % width)
            return None

        if base in ("mov", "movz", "movn"):
            rd, src = ops
            if not _is_plain_gpr(rd):
                return None
            if isinstance(src, (Imm, ShiftedImm)):
                v = src.value << src.shift if isinstance(src, ShiftedImm) \
                    else src.value
                if base == "movn":
                    v = ~v
                return "mov.imm", (rd.index, v & ((1 << rd.bits) - 1))
            if base == "mov" and _is_plain_gpr(src):
                return f"mov.reg.{rd.bits}", (rd.index, src.index)
            return None

        if base == "movk":
            rd, src = ops
            if not _is_plain_gpr(rd):
                return None
            shift = src.shift if isinstance(src, ShiftedImm) else 0
            keep = ((1 << rd.bits) - 1) & ~(0xFFFF << shift)
            return f"movk.{rd.bits}", (rd.index, keep, src.value << shift)

        if base in ("adr", "adrp"):
            rd, src = ops
            if not _is_plain_gpr(rd) or not isinstance(src, Imm):
                return None
            return "mov.imm", (rd.index, src.value & MASK64)

        if base in ("and", "orr", "eor"):
            rd, rn, rm = ops
            if not _is_plain_gpr(rd) or not _is_plain_gpr(rn):
                return None
            width = rd.bits
            if isinstance(rm, Imm):
                return f"{base}.imm.{width}", (
                    rd.index, rn.index, rm.value & ((1 << width) - 1))
            if _is_plain_gpr(rm) and rm.bits == width:
                return f"{base}.reg.{width}", (rd.index, rn.index, rm.index)
            return None

        if base in ("madd", "msub", "udiv", "sdiv"):
            regs = ops[1:]
            if not _is_plain_gpr(ops[0]) or len(ops) != (
                    4 if base in ("madd", "msub") else 3) \
                    or any(r.bits != ops[0].bits for r in regs) \
                    or not all(_is_plain_gpr(r) for r in regs[:2]):
                return None
            args = (ops[0].index, regs[0].index, regs[1].index)
            if len(regs) == 2:
                return f"{base}.{ops[0].bits}", args
            if regs[2].is_zero:  # mul / mneg
                return (f"{'mul' if base == 'madd' else 'mneg'}"
                        f".{ops[0].bits}"), args
            if not _is_plain_gpr(regs[2]):
                return None
            return f"{base}.{ops[0].bits}", args + (regs[2].index,)

        if base in ("ubfm", "sbfm") and len(ops) == 4:
            rd, rn, immr, imms = ops
            if not _is_plain_gpr(rd) or not _is_plain_gpr(rn) \
                    or rd.bits != rn.bits:
                return None
            width = rd.bits
            immr, imms = immr.value, imms.value
            if imms >= immr:
                length, rsh, lsh = imms - immr + 1, immr, 0
            else:
                length, rsh, lsh = imms + 1, 0, width - immr
            args = (rd.index, rn.index, rsh, (1 << length) - 1, lsh)
            if base == "ubfm":
                return f"ubfm.{width}", args
            fill = ((1 << width) - 1) \
                & ~((1 << min(lsh + length, width)) - 1)
            return f"sbfm.{width}", args + (1 << (length - 1), fill)

        # -- memory --------------------------------------------------------
        if base in _UNSIGNED_LOADS or base in _SIGNED_LOADS \
                or base in _SIMPLE_STORES:
            rt, memop = ops[0], ops[1]
            if not isinstance(memop, Mem) or isinstance(rt, VecReg):
                return None
            access = self._access(inst, rt)
            form = self._mem_form(memop)
            if access is None or form is None:
                return None
            return f"{access[0]}.{form[0]}", form[1] + access[1]

        if base in ("ldp", "stp"):
            rt, rt2, memop = ops
            if not _is_plain_gpr(rt) or not _is_plain_gpr(rt2) \
                    or rt.bits != 64 or rt2.bits != 64:
                return None
            form = self._mem_form(memop)
            if form is None or form[0] == "uxtw":
                return None
            return f"{base}.{form[0]}", form[1] + (rt.index, rt2.index)

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
        regs = (rd.reg.index, rn.reg.index, rm.reg.index)
        bits = rd.lane_bits
        lanes = rd.lanes
        if base in ("and", "orr", "eor"):
            return f"vec.{base}", regs + ((1 << (lanes * bits)) - 1,)
        return f"vec.{base}", regs + (tuple(range(0, lanes * bits, bits)),
                                      (1 << bits) - 1)

    @staticmethod
    def _access(inst: Instruction, rt) -> Optional[Tuple[str, tuple]]:
        """The transfer half of a single load/store: ``(access, args)``
        naming a table access (``ld``, ``lds``, ``st``, ``stz``, ``vld``,
        ``vst``), or None for the generic handler."""
        base = inst.base
        size = access_bytes(inst)
        if base in _SIMPLE_STORES:
            if rt.is_vector:
                return "vst", (rt.index, size, (1 << rt.bits) - 1)
            if rt.is_zero:
                return "stz", (size, bytes(size))
            if _is_plain_gpr(rt):
                return "st", (rt.index, size, (1 << (size * 8)) - 1)
            return None
        if rt.is_vector:
            if base in _SIGNED_LOADS:
                return None
            return "vld", (rt.index, size, (1 << rt.bits) - 1)
        if not _is_plain_gpr(rt):
            return None  # includes the prefetch-style zero target
        bits = _SIGNED_LOADS.get(base)
        if bits is None:
            return "ld", (rt.index, size)
        return "lds", (rt.index, size, 1 << (bits - 1), 1 << bits,
                       MASK64 if rt.bits == 64 else MASK32)

    @staticmethod
    def _mem_form(memop: Mem) -> Optional[Tuple[str, tuple]]:
        """The table addressing form of a Mem operand: ``(form, args)``.

        ``imm`` (base register + immediate: args ``(base, imm)``), ``sp``
        (sp + immediate: ``(imm,)``), ``pre``/``post`` and their ``_sp``
        variants (writeback, same args), or ``uxtw`` (the guard mode:
        ``(base, index)``); None if the form needs the generic handler.
        """
        base = memop.base
        if not isinstance(base, Reg) or base.is_zero or base.is_vector:
            return None
        sp = base.is_sp
        args = () if sp else (base.index,)
        off = memop.offset
        if memop.mode in (PRE_INDEX, POST_INDEX):
            if not isinstance(off, Imm):
                return None
            form = "pre" if memop.mode == PRE_INDEX else "post"
            return (form + "_sp" if sp else form), args + (off.value,)
        if off is None or isinstance(off, Imm):
            return ("sp" if sp else "imm"), args + (
                off.value if off is not None else 0,)
        if isinstance(off, Extended) and off.kind == "uxtw" \
                and not off.amount and _is_plain_gpr(off.reg) and not sp:
            return "uxtw", (base.index, off.reg.index)
        return None

    @staticmethod
    def _canonical(cond: str) -> Optional[str]:
        try:
            cond = canonical_condition(cond)
        except ValueError:
            return None
        return cond if cond in _COND_SRC else None

    # -- guard fusion --------------------------------------------------------

    def _try_fuse(self, pc: int, guard_entry: tuple,
                  access_entry: tuple) -> Optional[tuple]:
        """Fuse a verified guard instruction with its consumer.

        Takes both instructions' decode-cache entries.  Returns the op
        tuple (kind K_FUSED_*) and its template, or None.  The op's main
        cost fields describe the *access* instruction; the ``fused`` slot
        carries ``(guard_icost, guard_lat, guard_uses, guard_defs,
        access_pc)`` so compiled blocks charge both entries in retire
        order — cycle accounting stays bit-identical to stepping.
        """
        guard, access = guard_entry[0], access_entry[0]
        gops = guard.operands
        aops = access.operands
        ab = access.base
        spec = None

        def transfer(form_name):
            # The fused consumer's (form args, access) if it is a GPR
            # load/store in addressing form ``form_name``.
            if not ((ab in _UNSIGNED_LOADS or ab in _SIGNED_LOADS
                     or ab in _SIMPLE_STORES) and len(aops) == 2
                    and isinstance(aops[1], Mem)
                    and not isinstance(aops[0], VecReg)):
                return None
            form = self._mem_form(aops[1])
            acc = self._access(access, aops[0])
            if form is None or form[0] != form_name or acc is None \
                    or acc[0] not in ("ld", "lds", "st", "stz"):
                return None
            return form[1], acc

        # Pattern 1: address guard  add Xg, Xb, wS, uxtw  + consumer.
        if guard.mnemonic == "add" and len(gops) == 3 \
                and _is_plain_gpr(gops[0]) and gops[0].bits == 64 \
                and _is_plain_gpr(gops[1]) \
                and isinstance(gops[2], Extended) \
                and gops[2].kind == "uxtw" and not gops[2].amount \
                and _is_plain_gpr(gops[2].reg):
            g_d = gops[0].index
            guard_args = (gops[1].index, gops[2].reg.index, g_d)
            if ab in ("br", "blr", "ret"):
                reg = aops[0] if aops else LR
                if _is_plain_gpr(reg) and reg.index == g_d:
                    spec = (("guard.blr", guard_args + (pc + 8,))
                            if ab == "blr" else ("guard.br", guard_args))
            else:
                found = transfer("imm")
                if found is not None and found[0][0] == g_d:
                    (_base, imm), (acc, acc_args) = found
                    spec = (f"guard.{acc}", guard_args + (imm,) + acc_args)

        # Pattern 2: offset fold  add/sub wD, wS, #imm  +
        #            op [Xb, wD, uxtw]  (Table 3 rows 2, 5-7).
        elif guard.mnemonic in ("add", "sub") and len(gops) == 3 \
                and _is_plain_gpr(gops[0]) and gops[0].bits == 32 \
                and _is_plain_gpr(gops[1]) and gops[1].bits == 32 \
                and isinstance(gops[2], Imm):
            o_d = gops[0].index
            found = transfer("uxtw")
            if found is not None and found[0][1] == o_d:
                (base_i, _idx), (acc, acc_args) = found
                spec = (f"offset.{guard.mnemonic}.{acc}",
                        (base_i, gops[1].index, o_d, gops[2].value & MASK32)
                        + acc_args)

        # Pattern 3: sp guard pair  mov wD, wsp + add sp, Xb, XD (the
        # mov decodes as ``add wD, wsp, #0``).
        elif guard.mnemonic == "add" and len(gops) == 3 \
                and _is_plain_gpr(gops[0]) and gops[0].bits == 32 \
                and isinstance(gops[1], Reg) and gops[1].is_sp \
                and gops[1].bits == 32 and isinstance(gops[2], Imm) \
                and gops[2].value == 0:
            w_d = gops[0].index
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
                    spec = ("guard.sp", (aops[1].index, w_d))

        if spec is None:
            return None
        row = _ROWS[spec[0]]
        g_icost, g_lat, g_uses, g_defs = self._cost_entry(guard_entry)
        a_icost, a_lat, a_uses, a_defs = self._cost_entry(access_entry)
        fused_info = (g_icost, g_lat, g_uses, g_defs, pc + 4)
        return (row.kind, row.make(*self._env, *spec[1]), pc, a_icost,
                a_lat, a_uses, a_defs, fused_info), spec
