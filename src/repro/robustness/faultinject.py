"""Deterministic, seeded fault injection for sandboxes.

Related verification work (Sotoudeh & Yedidia) validates SFI systems by
*attacking* them; this module is the runtime-side equivalent.  A
:class:`FaultInjector` draws a plan from a seeded PRNG and delivers it
through two small hook points:

* ``Machine.run_hooks`` — fired at the top of every scheduling slice; used
  to flip bits in loaded text, corrupt guard sequences post-verification,
  and force trap storms on whichever sandbox is about to run;
* ``Runtime.call_hooks`` — consulted before runtime-call dispatch; used to
  inject transient EINTR/ENOMEM-style errors into ``HANDLERS`` results.

Both are multi-subscriber registries (:mod:`repro.hooks`), so the injector
composes with the obs tracer on the same run.

Everything is deterministic: the same seed against the same workload
produces the same delivery log, byte for byte.  Containment is *not*
assumed — the :class:`~repro.robustness.audit.ContainmentAuditor` checks
it after every delivery.
"""

from __future__ import annotations

import errno
import random
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from collections import deque

from ..arm64.decoder import decode_word
from ..arm64.operands import Extended
from ..arm64.registers import Reg
from ..emulator.machine import Machine, MemTrap
from ..memory.pages import MemoryFault, PERM_X
from ..runtime.process import Process
from ..runtime.runtime import Runtime
from ..runtime.table import RuntimeCall

__all__ = ["PlannedFault", "FaultInjector", "KINDS"]

KINDS = ("bitflip", "guard", "callerr", "trapstorm")

#: Transient errnos used by ``callerr`` injections.
_TRANSIENT_ERRNOS = (errno.EINTR, errno.ENOMEM, errno.EAGAIN)

#: ``movz xN, #0`` — overwrites a guard so its output is a raw (unbased)
#: offset; the next access through it must hit unmapped memory and trap.
_MOVZ_ZERO = 0xD2800000


@dataclass(frozen=True)
class PlannedFault:
    """One scheduled injection: fire ``gap`` slices after the previous."""

    index: int
    kind: str
    gap: int
    param: int


class FaultInjector:
    """Seeded fault injector wired into the machine and runtime hooks."""

    def __init__(self, runtime: Runtime, seed: int = 0):
        self.runtime = runtime
        self.seed = seed
        self.rng = random.Random(seed)
        #: Delivery log: ``(seq, kind, pid, detail)`` — deterministic.
        self.delivered: List[Tuple[int, str, int, str]] = []
        self._plan: Deque[PlannedFault] = deque()
        self._slice = 0
        self._next_at: Optional[int] = None
        #: pid -> errno for a one-shot transient runtime-call error.
        self._call_errs: Dict[int, int] = {}
        #: Remaining forced traps delivered to whatever runs next.
        self._storm = 0
        runtime.machine.run_hooks.add(self._on_slice)
        runtime.call_hooks.add(self._on_call)

    # -- planning ------------------------------------------------------------

    def plan(self, count: int, kinds: Tuple[str, ...] = KINDS,
             max_gap: int = 6) -> List[PlannedFault]:
        """Draw a deterministic plan of ``count`` injections."""
        out = []
        for i in range(count):
            out.append(PlannedFault(
                index=i,
                kind=self.rng.choice(kinds),
                gap=self.rng.randrange(1, max_gap + 1),
                param=self.rng.getrandbits(16),
            ))
        return out

    def arm(self, plan: List[PlannedFault]) -> None:
        """Queue a plan for delivery; extends any already-armed plan."""
        self._plan.extend(plan)
        if self._next_at is None and self._plan:
            self._next_at = self._slice + self._plan[0].gap

    @property
    def pending(self) -> int:
        return len(self._plan)

    @property
    def delivered_count(self) -> int:
        return len(self.delivered)

    def delivery_log(self) -> List[str]:
        return [f"#{seq:04d} {kind:<9} pid={pid} {detail}"
                for seq, kind, pid, detail in self.delivered]

    # -- hooks ---------------------------------------------------------------

    def _on_slice(self, machine: Machine, fuel: Optional[int]) -> None:
        self._slice += 1
        victim = self.runtime._current
        if victim is None:
            return
        if self._storm > 0:
            self._storm -= 1
            self._record("trapstorm", victim.pid,
                         f"forced trap ({self._storm} left in storm)")
            raise MemTrap(machine.cpu.pc, MemoryFault(
                "unmapped", 0, "read", "injected trap storm"))
        if self._next_at is None or self._slice < self._next_at:
            return
        planned = self._plan.popleft()
        self._next_at = (self._slice + self._plan[0].gap
                         if self._plan else None)
        self._fire(planned, victim)

    def _on_call(self, proc: Process, call: int) -> Optional[int]:
        err = self._call_errs.get(proc.pid)
        if err is None or call == RuntimeCall.EXIT:
            return None
        del self._call_errs[proc.pid]
        self._record("callerr", proc.pid,
                     f"call {RuntimeCall.NAMES.get(call, call)} -> "
                     f"-{errno.errorcode.get(err, err)}")
        return -err

    # -- delivery ------------------------------------------------------------

    def _record(self, kind: str, pid: int, detail: str) -> None:
        self.delivered.append((len(self.delivered), kind, pid, detail))

    def _fire(self, planned: PlannedFault, victim: Process) -> None:
        if planned.kind == "bitflip":
            self._fire_bitflip(victim, planned.param)
        elif planned.kind == "guard":
            self._fire_guard(victim, planned.param)
        elif planned.kind == "callerr":
            err = _TRANSIENT_ERRNOS[planned.param % len(_TRANSIENT_ERRNOS)]
            self._call_errs[victim.pid] = err
            self._record("callerr-arm", victim.pid,
                         f"next call returns -{errno.errorcode[err]}")
        elif planned.kind == "trapstorm":
            self._storm = 1 + planned.param % 3
            self._record("trapstorm-arm", victim.pid,
                         f"storm of {self._storm} forced traps")
        else:
            raise ValueError(f"unknown fault kind {planned.kind!r}")

    def _text_regions(self, victim: Process) -> List[Tuple[int, int]]:
        return [
            (base, size)
            for base, size, perms in self.runtime.memory.mapped_regions(
                victim.layout.base, victim.layout.end)
            if perms & PERM_X
        ]

    def _fire_bitflip(self, victim: Process, param: int) -> None:
        regions = self._text_regions(victim)
        if not regions:
            self._record("bitflip", victim.pid, "no text mapped; skipped")
            return
        base, size = regions[param % len(regions)]
        word_addr = base + 4 * (self.rng.randrange(size // 4))
        bit = self.rng.randrange(32)
        memory = self.runtime.memory
        word = int.from_bytes(memory._raw_read(word_addr, 4), "little")
        flipped = word ^ (1 << bit)
        # load_image bypasses the R/X permission (simulating a hardware
        # upset) and breaks any COW sharing so siblings stay pristine.
        memory.load_image(word_addr, flipped.to_bytes(4, "little"))
        self.runtime.machine.invalidate_code(word_addr, 4)
        self._record("bitflip", victim.pid,
                     f"text[{word_addr:#x}] bit {bit}: "
                     f"{word:#010x} -> {flipped:#010x}")

    def _fire_guard(self, victim: Process, param: int) -> None:
        """Corrupt a verified guard sequence (defense-in-depth check).

        The guard ``add xN, x21, wM, uxtw`` is replaced with
        ``movz xN, #0`` so the guarded pointer loses its sandbox base; the
        next dereference lands in unmapped low memory and must trap rather
        than escape.
        """
        guards = []
        memory = self.runtime.memory
        for base, size in self._text_regions(victim):
            for addr in range(base, base + size, 4):
                word = int.from_bytes(memory._raw_read(addr, 4), "little")
                inst = decode_word(word, addr)
                if inst is None or inst.base != "add":
                    continue
                if len(inst.operands) != 3:
                    continue
                rn = inst.operands[1]
                ext = inst.operands[2]
                if (isinstance(rn, Reg) and rn.index == 21
                        and isinstance(ext, Extended)
                        and ext.kind == "uxtw"):
                    guards.append((addr, word, inst.operands[0]))
        if not guards:
            return self._fire_bitflip(victim, param)
        addr, word, rd = guards[param % len(guards)]
        corrupted = _MOVZ_ZERO | rd.index
        memory.load_image(addr, corrupted.to_bytes(4, "little"))
        self.runtime.machine.invalidate_code(addr, 4)
        self._record("guard", victim.pid,
                     f"guard at {addr:#x} ({word:#010x}) -> "
                     f"movz x{rd.index}, #0")
