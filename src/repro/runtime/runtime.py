"""The LFI runtime: one host process managing many sandboxes (paper §5.3).

Responsibilities:

* allocate 4GiB slots and load verified ELF executables into them;
* install the runtime-call table and service runtime calls;
* schedule sandboxes preemptively (instruction-fuel timeslices standing in
  for ``setitimer`` alarms);
* implement single-address-space ``fork`` by copying the sandbox image to
  a new slot — possible because all pointers are rebased by the guards;
* provide the ~50-cycle direct-invoke ``yield`` used for IPC.

Context switches save/restore only register state — no page-table or
protection changes are ever needed once sandboxes are mapped, which is the
source of LFI's context-switch advantage (§6.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.verifier import VerifierPolicy
from ..elf.format import ElfImage, read_elf
from ..emulator.costs import CostModel
from ..engine import EngineConfig
from ..errors import Deadlock as _Deadlock
from ..errors import RuntimeError_ as _RuntimeError
from ..hooks import HookRegistry
from ..emulator.machine import (
    BrkTrap,
    HltTrap,
    HostCallTrap,
    Machine,
    MemTrap,
    OutOfFuel,
    SvcTrap,
    Trap,
    UnknownInstructionTrap,
)
from ..memory.layout import MAX_SANDBOXES_48BIT, PAGE_SIZE, SandboxLayout
from ..memory.pages import PERM_RW, PERM_X, PagedMemory
from ..obs.events import (
    ContextSwitch,
    FaultEvent,
    ProcessEvent,
    RuntimeCallSpan,
)
from .loader import DEFAULT_STACK_SIZE, alias_slot, clone_process, load_image
from .process import Process, ProcessState, StdStream
from .scheduler import Scheduler
from .syscalls import BLOCK, EXITED, HANDLERS, SWITCH
from .table import HOST_ENTRY_BASE, RuntimeCall, call_for_entry, \
    entry_address
from .vfs import Pipe, PipeEnd, Vfs

__all__ = ["Runtime", "ProcessFault", "ResourceQuota"]

_MASK64 = (1 << 64) - 1

#: Host-side cycles charged per runtime call beyond the emulated
#: instructions (argument checks, save/restore of the runtime's state).
#: Calibrated so a null runtime call costs ~22ns at 3.2GHz (Table 5).
CALL_OVERHEAD_CYCLES = 58.0

#: The optimized direct-invoke yield saves/restores only callee-saved
#: registers: roughly 50 cycles end to end (§5.3).
YIELD_CYCLES = 44.0

_YIELD_CALLS = frozenset((RuntimeCall.YIELD, RuntimeCall.YIELD_TO))


class _SliceExit(Exception):
    """Control-flow signal from the springboard to :meth:`Runtime._run_one`.

    Raised after the springboard has fully closed the current slice
    (state saved, trace emitted, call dispatched, instructions accounted)
    and translated execution must *not* resume inline — the scheduler
    loop takes over exactly as if the slice had ended by trap.
    """



@dataclass
class ProcessFault:
    """Recorded when a sandbox is killed by a trap."""

    pid: int
    kind: str
    detail: str
    pc: int


@dataclass(frozen=True)
class ResourceQuota:
    """Per-sandbox resource limits enforced by the runtime (§5.3).

    ``None`` for any field means unlimited.  Mapped pages are counted in
    the sandbox's 4GiB slot at the :class:`PagedMemory` boundary; fd slots
    at the :class:`Vfs` boundary; instructions cumulatively per process.
    """

    max_mapped_pages: Optional[int] = None
    max_fds: Optional[int] = None
    max_instructions: Optional[int] = None


class Runtime:
    """One runtime instance owning an address space and its sandboxes."""

    def __init__(self, model: Optional[CostModel] = None,
                 timeslice: int = 50_000,
                 stack_size: int = DEFAULT_STACK_SIZE,
                 first_slot: int = 1,
                 tlb_walk_scale: float = 1.0,
                 engine=None):
        #: The validated engine selection + tuning.  ``engine`` accepts an
        #: :class:`~repro.engine.EngineConfig`, a config dict, or ``None``
        #: (the defaults).
        config = EngineConfig.coerce(engine)
        self.engine_config = config
        #: Whether the vectored BATCH runtime call is serviced (the
        #: handler returns ``-ENOSYS`` to the guest when disabled).
        self.batch_abi = config.batch_abi
        timeslice = config.resolve_timeslice(timeslice)
        self.memory = PagedMemory()
        self.machine = Machine(self.memory, model=model,
                               tlb_walk_scale=tlb_walk_scale,
                               engine=config)
        self.model = model
        self.vfs = Vfs()
        self.scheduler = Scheduler(timeslice=timeslice)
        self.stack_size = stack_size
        self.processes: Dict[int, Process] = {}
        self.faults: List[ProcessFault] = []
        self._next_pid = 1
        self._next_slot = first_slot
        self._current: Optional[Process] = None
        self._mmap_cursors: Dict[int, int] = {}
        #: Per-pid pending blocked runtime call number.
        self._pending_call: Dict[int, int] = {}
        #: Per-pid resource quotas (set by a supervisor; inherited on fork).
        self.quotas: Dict[int, ResourceQuota] = {}
        #: Multi-subscriber hook consulted before every runtime-call
        #: dispatch with ``(proc, call)``.  The first subscriber returning
        #: an ``int`` short-circuits the handler with that result — the
        #: fault injector uses this for transient EINTR/ENOMEM-style
        #: errors; the tracer subscribes alongside and returns ``None``.
        self.call_hooks = HookRegistry(first_result=True)
        #: The attached obs event bus, or ``None``.  Set by
        #: :meth:`repro.obs.Tracer.attach`; every emission is guarded by a
        #: ``None`` check so untraced runs pay one attribute load.
        self.tracer = None
        #: True while the machine is executing sandbox code (as opposed to
        #: host-side runtime work); used by the containment auditor to
        #: attribute memory writes.
        self._in_guest = False
        #: Slice anchors for the scheduling slice currently being run by
        #: :meth:`_run_one` (instance state, not locals, so the fused
        #: springboard can close one slice and open the next inline).
        self._run_start = 0
        self._slice_before = 0
        self._slice_start_cycles = 0.0
        for call in RuntimeCall.ALL:
            self.machine.register_host_entry(entry_address(call), call)
        self.machine.springboard = self._springboard

    def _emit(self, event) -> None:
        if self.tracer is not None:
            self.tracer.emit(event)

    # -- spawning ---------------------------------------------------------------

    def allocate_slot(self) -> SandboxLayout:
        if self._next_slot >= MAX_SANDBOXES_48BIT - 1:
            raise _RuntimeError("out of sandbox slots")
        layout = SandboxLayout.for_slot(self._next_slot)
        self._next_slot += 1
        return layout

    def spawn(self, image, verify: bool = True,
              policy: Optional[VerifierPolicy] = None) -> Process:
        """Load an ELF image (or raw bytes) into a fresh sandbox.

        ``verify=False`` runs *native* (trusted) code under the runtime —
        the paper's baseline methodology (§6.1): native code still benefits
        from accelerated runtime calls.
        """
        if isinstance(image, (bytes, bytearray)):
            image = read_elf(bytes(image))
        layout = self.allocate_slot()
        pid = self._next_pid
        self._next_pid += 1
        proc = load_image(self.memory, image, layout, pid, verify=verify,
                          policy=policy, stack_size=self.stack_size)
        self.processes[pid] = proc
        self.scheduler.add(proc)
        self._emit(ProcessEvent(ts=self.machine.cycles, pid=pid,
                                kind="spawn",
                                detail="native" if not verify else ""))
        return proc

    def load_template(self, image, verify: bool = True,
                      policy: Optional[VerifierPolicy] = None) -> Process:
        """Load an image into a slot as a *template*: mapped, never run.

        The returned process is not scheduled and never appears in
        :attr:`processes`; it exists only as a pristine snapshot for
        :meth:`spawn_clone` to restore from (warm spawn).  Verification is
        paid here, once, regardless of how many clones follow.
        """
        if isinstance(image, (bytes, bytearray)):
            image = read_elf(bytes(image))
        layout = self.allocate_slot()
        pid = self._next_pid
        self._next_pid += 1
        proc = load_image(self.memory, image, layout, pid, verify=verify,
                          policy=policy, stack_size=self.stack_size)
        self._emit(ProcessEvent(ts=self.machine.cycles, pid=pid,
                                kind="spawn", detail="template"))
        return proc

    def spawn_clone(self, template: Process) -> Process:
        """Warm-spawn: snapshot-restore ``template`` into a fresh sandbox.

        Equivalent to :meth:`spawn` of the template's image — same initial
        registers (at the new base), same memory contents (COW-aliased,
        copied lazily on first write) — but skips ELF parsing, verification,
        and page population entirely.
        """
        layout = self.allocate_slot()
        pid = self._next_pid
        self._next_pid += 1
        proc = clone_process(self.memory, template, layout, pid)
        self.processes[pid] = proc
        self.scheduler.add(proc)
        self._emit(ProcessEvent(ts=self.machine.cycles, pid=pid,
                                kind="spawn", detail="warm"))
        return proc

    # -- resource quotas -----------------------------------------------------------

    def set_quota(self, proc: Process, quota: Optional[ResourceQuota]) -> None:
        """Attach (or clear) a resource quota for ``proc``."""
        if quota is None:
            self.quotas.pop(proc.pid, None)
        else:
            self.quotas[proc.pid] = quota

    def fd_slots_free(self, proc: Process, count: int = 1) -> bool:
        """Whether ``proc`` may allocate ``count`` more fd-table slots."""
        quota = self.quotas.get(proc.pid)
        if quota is None or quota.max_fds is None:
            return True
        return len(proc.fds) + count <= quota.max_fds

    def pages_quota_allows(self, proc: Process, new_pages: int) -> bool:
        """Whether mapping ``new_pages`` more pages stays within quota."""
        quota = self.quotas.get(proc.pid)
        if quota is None or quota.max_mapped_pages is None:
            return True
        used = self.memory.pages_in_range(proc.layout.base, proc.layout.end)
        return used + new_pages <= quota.max_mapped_pages

    # -- state switching -----------------------------------------------------------

    def _switch_to(self, proc: Process) -> None:
        self._current = proc
        self.machine.cpu.restore(proc.registers)
        # Per-process superblock context: the fusion patterns depend on the
        # process's guard provenance, and a per-instruction probe forces
        # the stepping fallback (observability contract, DESIGN.md §10).
        self.machine.guard_map = proc.guard_map
        self.machine.force_stepping = proc.step_mode

    def _save(self, proc: Process) -> None:
        proc.registers = self.machine.cpu.snapshot()

    def complete_call(self, proc: Process, result: int) -> None:
        """Write a runtime call's result and return point into ``proc``."""
        regs = proc.registers
        regs["regs"][0] = result & _MASK64
        regs["pc"] = regs["regs"][30]

    # -- process management -------------------------------------------------------

    def terminate(self, proc: Process, code: int) -> None:
        proc.state = ProcessState.ZOMBIE
        proc.exit_code = code
        self._emit(ProcessEvent(ts=self.machine.cycles, pid=proc.pid,
                                kind="exit", exit_code=code))
        proc.block_pipe = None
        self._pending_call.pop(proc.pid, None)
        # Close pipe ends (waking peers) but keep std streams readable so
        # the host can collect output after exit.
        for fd, obj in list(proc.fds.items()):
            if isinstance(obj, PipeEnd):
                obj.close()
                self.wake_pipe_waiters(obj.pipe)
                del proc.fds[fd]
        if proc.parent is not None:
            parent = self.processes.get(proc.parent)
            if parent is not None and parent.state == ProcessState.BLOCKED \
                    and parent.block_reason == "call":
                self._retry_blocked(parent)

    def reap(self, child: Process) -> None:
        self.processes.pop(child.pid, None)
        self.scheduler.forget(child)

    def reclaim(self, proc: Process) -> None:
        """Unmap a dead sandbox's slot so long runs stay bounded.

        Executable pages are swept out of the translation caches; the
        slot's mmap cursor and quota records are dropped too.  The slot
        number itself is not recycled (monotonic allocation keeps fork and
        clone layouts deterministic).
        """
        self.reclaim_slot(proc.layout)
        self._mmap_cursors.pop(proc.pid, None)
        self.quotas.pop(proc.pid, None)

    def reclaim_slot(self, layout: SandboxLayout) -> None:
        """Unmap everything in ``layout``'s slot (see :meth:`reclaim`)."""
        lo, hi = layout.base, layout.end
        for base, size, perms in list(self.memory.mapped_regions()):
            if base >= lo and base + size <= hi:
                self.memory.unmap(base, size)
                if perms & PERM_X:
                    self.machine.invalidate_code(base, size)

    def fork(self, parent: Process,
             cow: bool = True) -> Optional[Process]:
        """Single-address-space fork (§5.3): place the image in a new slot.

        All sandbox pointers are 32-bit offsets under the guard discipline,
        so only pc/sp/x30/x21 need rebasing; everything else transfers
        bit-for-bit and the guards re-add the new base on every access.

        With ``cow=True`` (default) the child's pages alias the parent's
        and are copied lazily on first write — the paper's memfd
        optimization.  ``cow=False`` copies eagerly.
        """
        layout = self.allocate_slot()
        pid = self._next_pid
        self._next_pid += 1

        if cow:
            alias_slot(self.memory, parent.layout, layout)
        else:
            lo, hi = parent.layout.base, parent.layout.end
            for base, size, perms in list(self.memory.mapped_regions()):
                if base >= hi or base + size <= lo:
                    continue
                offset = base - lo
                self.memory.map_region(layout.base + offset, size, PERM_RW)
                data = self.memory._raw_read(base, size)
                self.memory.load_image(layout.base + offset, data)
                self.memory.protect(layout.base + offset, size, perms)

        def rebase(value: int) -> int:
            return layout.guarded(value)

        regs = {
            "regs": list(parent.registers["regs"]),
            "sp": rebase(parent.registers["sp"]),
            "pc": rebase(parent.registers["regs"][30]),
            "nzcv": parent.registers["nzcv"],
            "vregs": list(parent.registers["vregs"]),
        }
        regs["regs"][0] = 0  # fork() returns 0 in the child
        regs["regs"][21] = layout.base
        regs["regs"][30] = rebase(regs["regs"][30])
        # Reserved address registers must hold valid addresses in the child.
        for idx in (18, 23, 24):
            regs["regs"][idx] = rebase(regs["regs"][idx])

        child = Process(
            pid=pid, layout=layout, registers=regs, parent=parent.pid,
            brk=rebase(parent.brk), heap_start=rebase(parent.heap_start),
            state=ProcessState.READY,
            guard_map={rebase(addr): klass
                       for addr, klass in parent.guard_map.items()},
            step_mode=parent.step_mode,
        )
        child.fds = dict(parent.fds)  # shared descriptions, like Unix
        for obj in child.fds.values():
            if isinstance(obj, PipeEnd):
                obj.retain()  # the child's table is a second referent
        if parent.pid in self.quotas:
            self.quotas[pid] = self.quotas[parent.pid]
        self.processes[pid] = child
        parent.children.append(pid)
        self.scheduler.add(child)
        self._emit(ProcessEvent(ts=self.machine.cycles, pid=pid,
                                kind="fork", parent=parent.pid,
                                detail="cow" if cow else "eager"))
        return child

    def mmap_allocate(self, proc: Process, length: int) -> Optional[int]:
        """Bump allocator below the stack for anonymous mappings."""
        cursor = self._mmap_cursors.get(
            proc.pid, proc.layout.usable_end - self.stack_size
        )
        base = cursor - length
        if base < proc.brk + PAGE_SIZE:
            return None
        self._mmap_cursors[proc.pid] = base
        return base

    # -- blocking -----------------------------------------------------------------

    def wake_pipe_waiters(self, pipe: Pipe) -> None:
        """Retry only the processes actually blocked on ``pipe``."""
        for proc in list(self.processes.values()):
            if proc.state == ProcessState.BLOCKED \
                    and proc.block_reason == "call" \
                    and proc.block_pipe is pipe:
                self._retry_blocked(proc)

    def _retry_blocked(self, proc: Process) -> None:
        call = self._pending_call.get(proc.pid)
        if call is None:
            return
        proc.block_pipe = None  # the handler re-records it if still blocked
        result = HANDLERS[call](self, proc)
        if result is BLOCK:
            return
        self._pending_call.pop(proc.pid, None)
        proc.block_reason = None
        if result is SWITCH or result is EXITED:
            return
        self.complete_call(proc, result)
        self.scheduler.add(proc)

    # -- dispatch -----------------------------------------------------------------

    def _dispatch(self, proc: Process, call: int) -> None:
        handler = HANDLERS.get(call)
        # ``entry_cycles`` only feeds span emission; skip the costing
        # property walk on untraced runs (the springboard hot path).
        entry_cycles = self.machine.cycles if self.tracer is not None else 0.0
        self.machine.add_cycles(
            YIELD_CYCLES if call in _YIELD_CALLS
            else CALL_OVERHEAD_CYCLES,
            kind="call",
        )
        if handler is None:
            self._fault(proc, "badcall", f"unknown runtime call {call}")
            return
        injected = self.call_hooks(proc, call) if self.call_hooks else None
        if injected is not None:
            self.complete_call(proc, injected)
            self.scheduler.add_front(proc)
            self._emit_call_span(proc, call, entry_cycles, injected,
                                 blocked=False, injected=True)
            return
        proc.block_pipe = None
        result = handler(self, proc)
        if result is BLOCK:
            proc.state = ProcessState.BLOCKED
            proc.block_reason = "call"
            self._pending_call[proc.pid] = call
            self._emit_call_span(proc, call, entry_cycles, None, blocked=True)
            return
        if result is SWITCH or result is EXITED:
            self._emit_call_span(proc, call, entry_cycles, None, blocked=False)
            return
        self.complete_call(proc, result)
        self.scheduler.add_front(proc)
        self._emit_call_span(proc, call, entry_cycles, result, blocked=False)

    def _emit_call_span(self, proc: Process, call: int, entry_cycles: float,
                        result: Optional[int], blocked: bool,
                        injected: bool = False) -> None:
        if self.tracer is None:
            return
        self.tracer.emit(RuntimeCallSpan(
            ts=entry_cycles,
            pid=proc.pid,
            call=RuntimeCall.NAMES.get(call, f"call{call}"),
            dur=self.machine.cycles - entry_cycles,
            result=result,
            blocked=blocked,
            injected=injected,
        ))

    def _fault(self, proc: Process, kind: str, detail: str,
               status: int = 128 + 11) -> None:
        pc = proc.registers.get("pc", 0)
        self.faults.append(ProcessFault(proc.pid, kind, detail, pc))
        self._emit(FaultEvent(ts=self.machine.cycles, pid=proc.pid,
                              kind=kind, detail=detail, pc=pc))
        self.terminate(proc, status)  # SIGSEGV-style status by default

    # -- main loop -----------------------------------------------------------------

    def run(self, max_instructions: Optional[int] = None) -> None:
        """Run until every process has exited (or faulted)."""
        start = self.machine.instret
        while True:
            proc = self.scheduler.pick()
            if proc is None:
                live = [p for p in self.processes.values()
                        if p.state not in (ProcessState.ZOMBIE,)]
                if not live:
                    return
                blocked = [p for p in live
                           if p.state == ProcessState.BLOCKED]
                if blocked:
                    for p in blocked:
                        self._retry_blocked(p)
                    if self.scheduler.empty:
                        raise _Deadlock(
                            f"{len(blocked)} process(es) blocked forever"
                        )
                    continue
                return
            self._run_one(proc)
            if max_instructions is not None \
                    and self.machine.instret - start > max_instructions:
                raise _RuntimeError("global instruction budget exceeded")

    def run_until_exit(self, proc: Process,
                       max_instructions: Optional[int] = None) -> int:
        """Run until ``proc`` exits; returns its exit code."""
        start = self.machine.instret
        while proc.state != ProcessState.ZOMBIE:
            self._step_target()
            if max_instructions is not None \
                    and self.machine.instret - start > max_instructions:
                raise _RuntimeError("instruction budget exceeded")
        return proc.exit_code or 0

    def run_bounded(self, proc: Process, max_instructions: int) -> bool:
        """Run toward ``proc``'s exit for at most ~``max_instructions``.

        Returns True once ``proc`` has exited, False when the budget ran
        out first (checked between scheduling slices, so the pause always
        lands on a slice boundary — the precondition for checkpointing
        without perturbing the slice pattern).  Unlike
        :meth:`run_until_exit` the budget is a pause, not an error, so
        callers can interleave work (checkpoints, control messages) and
        resume by calling again.
        """
        start = self.machine.instret
        while proc.state != ProcessState.ZOMBIE:
            self._step_target()
            if self.machine.instret - start > max_instructions:
                return False
        return True

    def _step_target(self) -> None:
        """One scheduling step: pick and run a slice, or retry the blocked."""
        runnable = self.scheduler.pick()
        if runnable is None:
            blocked = [p for p in self.processes.values()
                       if p.state == ProcessState.BLOCKED]
            for p in blocked:
                self._retry_blocked(p)
            if self.scheduler.empty:
                raise _Deadlock("target process cannot make progress")
            return
        self._run_one(runnable)

    def _run_one(self, proc: Process) -> None:
        machine = self.machine
        self._switch_to(proc)
        self._run_start = machine.instret
        self._slice_before = machine.instret
        self._slice_start_cycles = machine.cycles
        try:
            self._in_guest = True
            try:
                machine.run(fuel=self.scheduler.timeslice)
            finally:
                self._in_guest = False
        except _SliceExit:
            # The springboard fully closed the final slice before raising.
            return
        except OutOfFuel:
            # A springboard may have switched processes mid-call; every
            # trap belongs to whoever is current *now*, not to the proc
            # this call started with.
            proc = self._current
            self._save(proc)
            self.scheduler.requeue(proc)  # timer preemption
            self._close_slice(proc, "preempt")
        except HostCallTrap as trap:
            proc = self._current
            self._save(proc)
            self._emit_slice(proc, self._slice_start_cycles, machine.cycles,
                             machine.instret - self._slice_before, "call")
            self._dispatch(proc, call_for_entry(trap.entry))
            self._close_slice(proc, "call", emit=False)
        except MemTrap as trap:
            proc = self._current
            self._save(proc)
            self._fault(proc, "segv", str(trap))
            self._close_slice(proc, "fault")
        except (UnknownInstructionTrap, SvcTrap, BrkTrap, HltTrap) as trap:
            proc = self._current
            self._save(proc)
            self._fault(proc, "sigill", str(trap))
            self._close_slice(proc, "fault")

    def _close_slice(self, proc: Process, reason: str,
                     emit: bool = True) -> None:
        """Account the just-ended slice and retire the RUNNING state."""
        machine = self.machine
        proc.instructions += machine.instret - self._slice_before
        if proc.state == ProcessState.RUNNING:
            proc.state = ProcessState.READY
        if emit:
            self._emit_slice(proc, self._slice_start_cycles, machine.cycles,
                             machine.instret - self._slice_before, reason)
        self._check_instruction_quota(proc)

    def _springboard(self, entry: int):
        """Service a fused runtime call without unwinding the engine.

        Called by the superblock dispatch loop when a fused
        ``ldr x30, [x21, #n]; blr x30`` pair lands on a registered host
        entry.  Replicates the ``HostCallTrap`` path of :meth:`_run_one`
        byte-for-byte — save, slice trace emission, dispatch (which
        charges ``CALL_OVERHEAD_CYCLES``/``YIELD_CYCLES`` and runs call
        hooks), instruction accounting, quota check — then decides
        whether translated execution may resume *inline*:

        * the slice budget must not be spent (bounds one
          :meth:`_run_one` to ~2 timeslices, so ``run_bounded`` pauses
          keep landing on slice boundaries);
        * :meth:`Scheduler.peek` must see a runnable process.  ``peek``
          is pure, so when resumption is declined the scheduler is
          untouched and the outer loop's ``pick()`` sequence — and any
          checkpoint taken at the pause — is identical to stepping's.

        On resume: exactly one ``pick()`` (the one the outer loop would
        have issued), a context switch, fresh slice anchors, and a
        ``run_hooks`` refire, exactly like a fresh ``machine.run`` slice.
        Returns ``(fresh_fuel, force_step)``; ``force_step`` tells the
        engine to finish the slice in the stepping interpreter (a hook
        registered a probe, or the new process is in step mode).
        Raises :class:`_SliceExit` when the slice must end instead.
        """
        machine = self.machine
        scheduler = self.scheduler
        proc = self._current
        self._in_guest = False
        proc.registers = machine.cpu.snapshot()
        executed = machine.instret - self._slice_before
        if self.tracer is not None:
            self._emit_slice(proc, self._slice_start_cycles, machine.cycles,
                             executed, "call")
        self._dispatch(proc, (entry - HOST_ENTRY_BASE) // 8)
        proc.instructions += executed
        if proc.state == ProcessState.RUNNING:
            proc.state = ProcessState.READY
        if self.quotas:
            self._check_instruction_quota(proc)
        timeslice = scheduler.timeslice
        if machine.instret - self._run_start >= timeslice:
            raise _SliceExit()
        if scheduler.peek() is None:
            raise _SliceExit()
        nxt = scheduler.pick()
        self._switch_to(nxt)
        self._slice_before = machine.instret
        self._slice_start_cycles = machine.cycles
        self._in_guest = True
        if machine.run_hooks:
            machine.run_hooks(machine, timeslice)
        force_step = bool(machine.force_stepping or machine._step_probes)
        return timeslice, force_step

    def _emit_slice(self, proc: Process, start: float, end: float,
                    instructions: int, reason: str) -> None:
        if self.tracer is None:
            return
        if proc.state == ProcessState.BLOCKED:
            reason = "block"
        self.tracer.emit(ContextSwitch(ts=start, pid=proc.pid,
                                       dur=end - start,
                                       instructions=instructions,
                                       reason=reason))

    def _check_instruction_quota(self, proc: Process) -> None:
        quota = self.quotas.get(proc.pid)
        if quota is None or quota.max_instructions is None \
                or proc.state == ProcessState.ZOMBIE:
            return
        if proc.instructions > quota.max_instructions:
            self._fault(
                proc, "quota",
                f"instruction budget exceeded "
                f"({proc.instructions} > {quota.max_instructions})",
                status=128 + 9,  # SIGKILL-style status
            )

    # -- observability ----------------------------------------------------------

    def stdout_of(self, proc: Process) -> str:
        obj = proc.fds.get(1)
        if isinstance(obj, StdStream):
            return obj.text()
        return ""

    def virtual_ns(self) -> float:
        if self.model is None:
            return float(self.machine.instret)
        return self.machine.cycles * self.model.ns_per_cycle()

    @property
    def cycles(self) -> float:
        return self.machine.cycles
