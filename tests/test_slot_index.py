"""The per-slot page index and the per-request paths that read it.

``PagedMemory`` keeps an index of mapped pages per 4GiB slot so warm
spawn, job cleanup, quota checks and checkpoint capture cost O(pages in
the slot) however many sandboxes are resident (DESIGN.md §11).  These
tests pin the index to the global scan it replaces, check that the
per-request path never walks the whole page table, and cover slot reuse
once the bump allocator reaches the top of the address space.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import WarmPool, execute_job
from repro.elf.format import write_elf
from repro.errors import RuntimeError_, VerificationError
from repro.memory import (
    MAX_SANDBOXES_48BIT,
    PERM_R,
    PERM_RW,
    PERM_RX,
    SANDBOX_BITS,
    SANDBOX_SIZE,
    PagedMemory,
)
from repro.runtime import ResourceQuota, Runtime, RuntimeCall
from repro.runtime.table import RUNTIME_REGION_BASE
from repro.toolchain import compile_lfi, compile_native
from repro.workloads.rtlib import busy_program, prologue, rt_exit, rtcall

PS = PagedMemory().page_size
SLOT_PAGES = SANDBOX_SIZE // PS
SLOTS = (1, 2, 3)
#: In-slot page offsets: the low pages plus the last pages of the slot,
#: so mappings can run up to (and across) a slot boundary.
OFFSETS = (0, 1, 2, 3, 5, SLOT_PAGES - 3, SLOT_PAGES - 2, SLOT_PAGES - 1)

_page = st.tuples(st.sampled_from(SLOTS), st.sampled_from(OFFSETS)).map(
    lambda so: so[0] * SLOT_PAGES + so[1])
_perms = st.sampled_from((PERM_R, PERM_RW, PERM_RX))
_ops = st.lists(st.one_of(
    st.tuples(st.just("map"), _page, st.integers(1, 4), _perms),
    st.tuples(st.just("unmap"), _page, st.integers(1, 4)),
    st.tuples(st.just("protect"), _page, st.integers(1, 3), _perms),
    st.tuples(st.just("share"), _page, _page, st.integers(1, 3)),
), max_size=40)


def _apply(memory: PagedMemory, op) -> None:
    kind = op[0]
    try:
        if kind == "map":
            memory.map_region(op[1] * PS, op[2] * PS, op[3])
        elif kind == "unmap":
            memory.unmap(op[1] * PS, op[2] * PS)
        elif kind == "protect":
            memory.protect(op[1] * PS, op[2] * PS, op[3])
        else:
            memory.share_region(op[1] * PS, op[2] * PS, op[3] * PS)
    except ValueError:
        pass  # unmapped source/target: partial effects must stay indexed


def _scan_pages(memory: PagedMemory, lo: int, hi: int) -> list:
    return sorted(p for p in memory._pages if lo <= p * PS < hi)


def _scan_regions(memory: PagedMemory, lo: int, hi: int) -> list:
    runs = []
    for page in _scan_pages(memory, lo, hi):
        perms = memory.perms_at(page * PS)
        if runs and runs[-1][0] + runs[-1][1] == page * PS \
                and runs[-1][2] == perms:
            runs[-1][1] += PS
        else:
            runs.append([page * PS, PS, perms])
    return [tuple(run) for run in runs]


def _queries():
    for slot in (0,) + SLOTS + (4,):
        base = slot * SANDBOX_SIZE
        yield base, base + SANDBOX_SIZE
        yield base + 2 * PS, base + 5 * PS
        yield base + 100, base + 3 * PS - 1              # unaligned bounds
        yield base + SANDBOX_SIZE - 2 * PS, base + SANDBOX_SIZE + 2 * PS
    yield 0, 1 << 48
    yield SANDBOX_SIZE, 4 * SANDBOX_SIZE
    yield 5 * PS, 5 * PS


class TestIndexProperty:
    @given(_ops)
    @settings(max_examples=80, deadline=None)
    def test_range_queries_equal_filtered_scan(self, ops):
        memory = PagedMemory()
        for op in ops:
            _apply(memory, op)
        for lo, hi in _queries():
            assert list(memory.mapped_regions(lo, hi)) \
                == _scan_regions(memory, lo, hi), (lo, hi)
            assert memory.pages_in_range(lo, hi) \
                == len(_scan_pages(memory, lo, hi)), (lo, hi)
            assert [a for a, _p, _b in memory.page_items(lo, hi)] \
                == [p * PS for p in _scan_pages(memory, lo, hi)]
        # Page-aligned queries also equal the global runs clipped.
        for slot in SLOTS:
            lo, hi = slot * SANDBOX_SIZE, (slot + 1) * SANDBOX_SIZE
            clipped = [(max(b, lo), min(b + s, hi) - max(b, lo), p)
                       for b, s, p in memory.mapped_regions()
                       if b < hi and b + s > lo]
            assert list(memory.mapped_regions(lo, hi)) == clipped
        # The index holds exactly the occupied slots, each non-empty.
        index = memory._slot_pages
        assert set(index) == {p * PS >> SANDBOX_BITS for p in memory._pages}
        assert set().union(*index.values()) == set(memory._pages)

    def test_emptied_slot_leaves_no_entry(self):
        memory = PagedMemory()
        memory.map_region(SANDBOX_SIZE, 4 * PS, PERM_RW)
        memory.share_region(SANDBOX_SIZE, 2 * SANDBOX_SIZE, 4 * PS)
        memory.unmap(SANDBOX_SIZE, 4 * PS)
        assert set(memory._slot_pages) == {2}
        memory.unmap(2 * SANDBOX_SIZE, SANDBOX_SIZE)
        assert memory._slot_pages == {}
        assert list(memory.mapped_regions(0, 1 << 48)) == []


class _WalkCountingDict(dict):
    """A page table that counts whole-table walks."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()


def _count_walks(runtime: Runtime) -> _WalkCountingDict:
    memory = runtime.memory
    memory._pages = _WalkCountingDict(memory._pages)
    return memory._pages


WRITER = prologue() + """
    mov x0, #1
    adrp x1, msg
    add x1, x1, :lo12:msg
    mov x2, #3
""" + rtcall(RuntimeCall.WRITE) + """
    mov x0, #7
""" + rt_exit() + """
.rodata
msg: .asciz "ok\\n"
"""

MMAPPER = prologue() + """
    mov x0, #0
    movz x1, #0x8000
    mov x2, #3
    mov x3, #0x22
    movn x4, #0
    mov x5, #0
""" + rtcall(RuntimeCall.MMAP) + """
    tbnz x0, #63, failed
    mov x1, #77
    str x1, [x0]
    ldr x0, [x0]
""" + rt_exit() + """
failed:
    mov x0, #1
""" + rt_exit()

FORKER = prologue() + rtcall(RuntimeCall.FORK) + """
    cbnz x0, parent
    mov x0, #5
""" + rt_exit() + """
parent:
    adrp x1, status
    add x1, x1, :lo12:status
    mov x0, x1
""" + rtcall(RuntimeCall.WAIT) + """
    mov x0, #9
""" + rt_exit() + """
.data
.balign 8
status: .quad 0
"""


class TestNoWholeTableWalks:
    def test_warm_request_path(self):
        # Slices as long as the checkpoint interval, as a serving lane
        # runs them, so every boundary captures.
        runtime = Runtime(model=None, timeslice=1_000)
        pool = WarmPool(runtime)
        resident = compile_lfi(busy_program(1, 1_000)).elf
        for _ in range(20):
            runtime.load_template(resident)
        program = write_elf(compile_lfi(busy_program(3, 5_000)).elf)
        pages = _count_walks(runtime)
        for job_id in range(2):  # template build, then a pure warm hit
            payload = execute_job(runtime, pool,
                                  {"job_id": job_id, "program": program},
                                  checkpoint_interval=1_000)
            assert payload["exit_code"] == 3
            assert payload["diag"]["checkpoints"] >= 3
        assert payload["diag"]["warm"]
        assert pages.walks == 0

    def test_quota_checked_mmap(self):
        # The guest maps two pages: a quota with room for exactly two
        # grants the mmap, one page less refuses it with ENOMEM.
        for room, code in ((2, 77), (1, 1)):
            runtime = Runtime(model=None)
            for _ in range(20):
                runtime.load_template(compile_lfi(WRITER).elf)
            proc = runtime.spawn(compile_lfi(MMAPPER).elf)
            used = runtime.memory.pages_in_range(proc.layout.base,
                                                 proc.layout.end)
            runtime.set_quota(proc,
                              ResourceQuota(max_mapped_pages=used + room))
            pages = _count_walks(runtime)
            assert runtime.run_until_exit(proc) == code
            assert pages.walks == 0


class TestSlotReuse:
    def test_runtime_at_the_limit_survives_spawn_reclaim_cycles(self):
        first = MAX_SANDBOXES_48BIT - 4
        runtime = Runtime(first_slot=first)
        elf = compile_lfi(WRITER).elf
        slots = []
        for _ in range(10):
            proc = runtime.spawn(elf)
            assert runtime.run_until_exit(proc) == 7
            assert runtime.stdout_of(proc) == "ok\n"
            slots.append(proc.layout.slot)
            runtime.reclaim(proc)
            runtime.reap(proc)
        # Bump allocation while it lasts (the last slot is the runtime's
        # own), then the lowest reclaimed slot.
        assert slots == [first, first + 1, first + 2] + [first] * 7

    def test_lowest_reclaimed_slot_first(self):
        first = MAX_SANDBOXES_48BIT - 4
        runtime = Runtime(first_slot=first)
        layouts = [runtime.allocate_slot() for _ in range(3)]
        runtime.reclaim_slot(layouts[2])
        runtime.reclaim_slot(layouts[1])
        assert runtime.allocate_slot().slot == first + 1
        assert runtime.allocate_slot().slot == first + 2
        with pytest.raises(RuntimeError_, match="out of sandbox slots"):
            runtime.allocate_slot()  # every slot is live again

    def test_refused_image_frees_its_slot(self):
        runtime = Runtime(first_slot=MAX_SANDBOXES_48BIT - 2)
        unrewritten = compile_native(prologue() + """
            mov x1, #0
            str x0, [x1]
        """ + rt_exit()).elf
        for _ in range(3):
            with pytest.raises(VerificationError):
                runtime.spawn(unrewritten)
        assert runtime.run_until_exit(runtime.spawn(
            compile_lfi(WRITER).elf)) == 7

    def test_execute_job_near_the_limit_leaves_only_templates(self):
        runtime = Runtime(first_slot=MAX_SANDBOXES_48BIT - 4, timeslice=50)
        pool = WarmPool(runtime)
        program = write_elf(compile_lfi(FORKER).elf)
        for job_id in range(6):  # each job takes two slots: clone + child
            payload = execute_job(runtime, pool,
                                  {"job_id": job_id, "program": program},
                                  checkpoint_interval=50)
            assert payload["exit_code"] == 9
            assert runtime.processes == {}
            memory = runtime.memory
            (template,) = pool.template_slots()
            outside = [
                (base, size) for base, size, _ in memory.mapped_regions()
                if not template <= base < template + SANDBOX_SIZE
                and base < RUNTIME_REGION_BASE
            ]
            assert outside == []
