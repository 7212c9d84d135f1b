"""Sparse paged virtual memory with R/W/X permissions and faults.

This is the substitute for real MMU-protected memory (see DESIGN.md §2):
guard regions are genuinely unmapped, the text segment is mapped
read+execute-only, and any access that violates permissions raises a
:class:`MemoryFault`, exactly the behaviour the paper's runtime relies on
for stack-pointer guard elision and write protection of code.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .layout import SANDBOX_BITS

__all__ = [
    "PERM_R",
    "PERM_W",
    "PERM_X",
    "PERM_RW",
    "PERM_RX",
    "MemoryFault",
    "PagedMemory",
]

PERM_R = 0b001
PERM_W = 0b010
PERM_X = 0b100
PERM_RW = PERM_R | PERM_W
PERM_RX = PERM_R | PERM_X
PERM_NONE = 0

#: Default page size: 16KiB, matching Apple ARM64 machines (paper §3).
DEFAULT_PAGE_SIZE = 16 * 1024

_FAULT_NAMES = {"unmapped": "unmapped address", "perm": "permission violation",
                "align": "misaligned access"}


class MemoryFault(Exception):
    """A memory access trap (unmapped page, permission, or alignment)."""

    def __init__(self, kind: str, address: int, access: str,
                 detail: str = ""):
        self.kind = kind
        self.address = address
        self.access = access  # "read" | "write" | "execute"
        message = (
            f"{_FAULT_NAMES.get(kind, kind)} on {access} at {address:#x}"
        )
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class PagedMemory:
    """A sparse page-granular address space.

    Pages are materialized lazily on mapping.  All multi-byte accessors are
    little-endian, matching AArch64.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE,
                 va_bits: int = 48):
        if page_size & (page_size - 1):
            raise ValueError("page size must be a power of two")
        self.page_size = page_size
        self.va_bits = va_bits
        self.va_limit = 1 << va_bits
        self._pages: Dict[int, bytearray] = {}
        self._perms: Dict[int, int] = {}
        #: Per-slot index: 4GiB granule (``SANDBOX_BITS``) -> the mapped
        #: page numbers in it.  Kept current by every mapping change so
        #: per-slot queries cost O(pages in the slot), not O(all pages).
        #: A granule with no mapped page has no entry.
        self._slot_pages: Dict[int, Set[int]] = {}
        self._granule_shift = SANDBOX_BITS - (page_size.bit_length() - 1)
        #: Pages whose storage is shared and must be copied before a write
        #: (single-address-space copy-on-write fork, paper §5.3).
        self._cow: set = set()
        self.cow_copies = 0
        #: Optional callback ``(address, size)`` invoked on every
        #: permission-checked write.  The containment auditor uses it to
        #: attribute stores to the sandbox that issued them.
        self.write_observer = None
        #: Callbacks ``(address, size)`` invoked whenever the *mapping*
        #: of a region changes (map, unmap, protect, share).  The machine
        #: uses this to drop translated superblocks and cached decodes
        #: whose backing text may have changed.
        self.map_observers: list = []

    def _notify_map_change(self, address: int, size: int) -> None:
        for observer in self.map_observers:
            observer(address, size)

    # -- mapping -----------------------------------------------------------

    def _page_range(self, address: int, size: int) -> range:
        if address % self.page_size or size % self.page_size:
            raise ValueError(
                f"region {address:#x}+{size:#x} not page-aligned"
            )
        return range(address // self.page_size,
                     (address + size) // self.page_size)

    def map_region(self, address: int, size: int, perms: int) -> None:
        """Map (or re-map) a page-aligned region with the given permissions."""
        if address < 0 or address + size > self.va_limit:
            raise ValueError(f"region outside {self.va_bits}-bit VA space")
        for page in self._page_range(address, size):
            if page not in self._pages:
                self._pages[page] = bytearray(self.page_size)
                self._index_add(page)
            self._perms[page] = perms
        self._notify_map_change(address, size)

    def protect(self, address: int, size: int, perms: int) -> None:
        """Change permissions of an already-mapped region."""
        for page in self._page_range(address, size):
            if page not in self._pages:
                raise ValueError(f"page at {page * self.page_size:#x} not mapped")
            self._perms[page] = perms
        self._notify_map_change(address, size)

    def unmap(self, address: int, size: int) -> None:
        for page in self._page_range(address, size):
            if self._pages.pop(page, None) is not None:
                self._index_remove(page)
            self._perms.pop(page, None)
            self._cow.discard(page)
        self._notify_map_change(address, size)

    def share_region(self, src: int, dst: int, size: int,
                     perms: Optional[int] = None) -> None:
        """Map ``dst`` onto the same storage as ``src``, copy-on-write.

        This is the paper's memfd-style fork optimization (§5.3): the same
        memory appears at multiple places in the address space, and pages
        are physically copied only when either side first writes.
        """
        src_pages = list(self._page_range(src, size))
        dst_pages = list(self._page_range(dst, size))
        for s, d in zip(src_pages, dst_pages):
            if s not in self._pages:
                raise ValueError(f"source page {s * self.page_size:#x} "
                                 f"not mapped")
            if d not in self._pages:
                self._index_add(d)
            self._pages[d] = self._pages[s]
            self._perms[d] = self._perms[s] if perms is None else perms
            self._cow.add(s)
            self._cow.add(d)
        self._notify_map_change(dst, size)

    def _index_add(self, page: int) -> None:
        granule = page >> self._granule_shift
        pages = self._slot_pages.get(granule)
        if pages is None:
            pages = self._slot_pages[granule] = set()
        pages.add(page)

    def _index_remove(self, page: int) -> None:
        granule = page >> self._granule_shift
        pages = self._slot_pages[granule]
        pages.discard(page)
        if not pages:
            del self._slot_pages[granule]

    def _break_cow(self, first_page: int, last_page: int) -> None:
        for page in range(first_page, last_page + 1):
            if page in self._cow:
                self._pages[page] = bytearray(self._pages[page])
                self._cow.discard(page)
                self.cow_copies += 1

    def _page_bounds(self, lo: int, hi: int) -> Tuple[int, int]:
        """Page numbers ``[first, end)`` of the pages based in [lo, hi)."""
        ps = self.page_size
        return -(-lo // ps), -(-hi // ps)

    def _index_sets(self, first: int,
                    end: int) -> Iterator[Tuple[Set[int], bool]]:
        """The index sets holding the mapped pages numbered [first, end).

        Yields ``(pages, whole)`` per occupied granule, in address order;
        ``whole`` says the granule lies entirely inside the range, so its
        set needs no filtering.
        """
        if first >= end:
            return
        shift = self._granule_shift
        g0, g1 = first >> shift, (end - 1) >> shift
        index = self._slot_pages
        if g1 - g0 < len(index):
            granules = range(g0, g1 + 1)
        else:
            granules = sorted(g for g in index if g0 <= g <= g1)
        for granule in granules:
            pages = index.get(granule)
            if pages is not None:
                yield pages, (first <= granule << shift
                              and (granule + 1) << shift <= end)

    def _pages_between(self, lo: int, hi: int) -> List[int]:
        """Sorted page numbers of the mapped pages based in ``[lo, hi)``."""
        first, end = self._page_bounds(lo, hi)
        out: List[int] = []
        for pages, whole in self._index_sets(first, end):
            if whole:
                out.extend(pages)
            else:
                out.extend(p for p in pages if first <= p < end)
        out.sort()
        return out

    def pages_in_range(self, lo: int, hi: int) -> int:
        """Number of mapped pages whose base lies in ``[lo, hi)``.

        Used by the runtime to enforce per-sandbox mapped-page quotas at
        the memory boundary.  Answered from the per-slot index: a whole
        slot costs O(1), a partial one O(pages in the slot).
        """
        first, end = self._page_bounds(lo, hi)
        count = 0
        for pages, whole in self._index_sets(first, end):
            if whole:
                count += len(pages)
            else:
                count += sum(1 for p in pages if first <= p < end)
        return count

    def perms_at(self, address: int) -> int:
        return self._perms.get(address // self.page_size, PERM_NONE)

    def mapped_regions(self, lo: Optional[int] = None,
                       hi: Optional[int] = None
                       ) -> Iterator[Tuple[int, int, int]]:
        """Yield (base, size, perms) for maximal contiguous mapped runs.

        With no bounds this scans the whole address space, so a run may
        cross a slot boundary (the containment auditor looks for exactly
        that).  With bounds only pages based in ``[lo, hi)`` are
        considered, read from the per-slot index in O(pages in range):
        the result equals the global runs clipped to the range.  The runs
        are computed before the first yield, so callers may unmap or
        remap while iterating.
        """
        if lo is None:
            pages = sorted(self._pages)
        else:
            pages = self._pages_between(lo, hi)
        perms_of = self._perms
        ps = self.page_size
        runs: List[Tuple[int, int, int]] = []
        i = 0
        while i < len(pages):
            start = pages[i]
            perms = perms_of[start]
            j = i
            while (
                j + 1 < len(pages)
                and pages[j + 1] == pages[j] + 1
                and perms_of[pages[j + 1]] == perms
            ):
                j += 1
            runs.append((start * ps, (j - i + 1) * ps, perms))
            i = j + 1
        return iter(runs)

    def page_items(self, lo: int, hi: int) -> List[Tuple[int, int, bytearray]]:
        """``(address, perms, storage)`` of each mapped page based in
        ``[lo, hi)``, in address order, from the per-slot index.

        ``storage`` is the page's backing buffer itself: pages aliased by
        :meth:`share_region` return the same object until a write copies
        one side out, which is what incremental checkpoints compare.
        Callers must not mutate it.
        """
        ps = self.page_size
        pages, perms = self._pages, self._perms
        return [(page * ps, perms[page], pages[page])
                for page in self._pages_between(lo, hi)]

    def mark_cow(self, address: int) -> None:
        """Make the page at ``address`` copy its storage on the next write.

        Checkpoint capture uses this to detect dirtied pages by buffer
        identity (DESIGN.md §12).
        """
        self._cow.add(address // self.page_size)

    # -- access ------------------------------------------------------------

    def _check(self, address: int, size: int, need: int, access: str) -> None:
        page = address // self.page_size
        end_page = (address + size - 1) // self.page_size
        for p in range(page, end_page + 1):
            perms = self._perms.get(p)
            if perms is None:
                raise MemoryFault("unmapped", address, access)
            if perms & need != need:
                raise MemoryFault("perm", address, access)

    def read(self, address: int, size: int) -> bytes:
        # Fast path: a permitted access within one page (the common case
        # for aligned word loads).  Any failure falls back to the checked
        # path below so the fault kind/message stays identical.
        ps = self.page_size
        page = address // ps
        offset = address - page * ps
        if offset + size <= ps:
            perms = self._perms.get(page)
            if perms is not None and perms & PERM_R:
                buf = self._pages.get(page)
                if buf is not None:
                    return bytes(buf[offset:offset + size])
        self._check(address, size, PERM_R, "read")
        return self._raw_read(address, size)

    def write(self, address: int, data: bytes) -> None:
        size = len(data)
        ps = self.page_size
        page = address // ps
        offset = address - page * ps
        if (offset + size <= ps and self.write_observer is None
                and not self._cow):
            perms = self._perms.get(page)
            if perms is not None and perms & PERM_W:
                buf = self._pages.get(page)
                if buf is not None:
                    buf[offset:offset + size] = data
                    return
        self._check(address, size, PERM_W, "write")
        if self.write_observer is not None:
            self.write_observer(address, size)
        if self._cow:
            self._break_cow(page, (address + size - 1) // ps)
        self._raw_write(address, data)

    def fetch(self, address: int) -> int:
        """Fetch one instruction word (requires execute permission)."""
        if address % 4:
            raise MemoryFault("align", address, "execute")
        self._check(address, 4, PERM_X, "execute")
        return struct.unpack("<I", self._raw_read(address, 4))[0]

    # Raw accessors skip permission checks (used by the loader/runtime).

    def _raw_read(self, address: int, size: int) -> bytes:
        ps = self.page_size
        page, offset = divmod(address, ps)
        if offset + size <= ps:
            buf = self._pages.get(page)
            if buf is None:
                raise MemoryFault("unmapped", address, "read")
            return bytes(buf[offset:offset + size])
        out = bytearray()
        remaining = size
        while remaining:
            buf = self._pages.get(page)
            if buf is None:
                raise MemoryFault("unmapped", page * ps, "read")
            chunk = min(ps - offset, remaining)
            out.extend(buf[offset:offset + chunk])
            remaining -= chunk
            page += 1
            offset = 0
        return bytes(out)

    def _raw_write(self, address: int, data: bytes) -> None:
        ps = self.page_size
        page, offset = divmod(address, ps)
        if offset + len(data) <= ps:
            buf = self._pages.get(page)
            if buf is None:
                raise MemoryFault("unmapped", address, "write")
            buf[offset:offset + len(data)] = data
            return
        pos = 0
        while pos < len(data):
            buf = self._pages.get(page)
            if buf is None:
                raise MemoryFault("unmapped", page * ps, "write")
            chunk = min(ps - offset, len(data) - pos)
            buf[offset:offset + chunk] = data[pos:pos + chunk]
            pos += chunk
            page += 1
            offset = 0

    def load_image(self, address: int, data: bytes) -> None:
        """Write bytes ignoring permissions (loader-only path)."""
        if self._cow:
            self._break_cow(address // self.page_size,
                            (address + len(data) - 1) // self.page_size)
        self._raw_write(address, data)
        if data:
            self._notify_map_change(address, len(data))

    # -- typed helpers -------------------------------------------------------

    def read_u64(self, address: int) -> int:
        return int.from_bytes(self.read(address, 8), "little")

    def read_u32(self, address: int) -> int:
        return int.from_bytes(self.read(address, 4), "little")

    def write_u64(self, address: int, value: int) -> None:
        self.write(address, (value & (2**64 - 1)).to_bytes(8, "little"))

    def write_u32(self, address: int, value: int) -> None:
        self.write(address, (value & (2**32 - 1)).to_bytes(4, "little"))

    def read_cstring(self, address: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated string (for runtime-call arguments)."""
        out = bytearray()
        while len(out) < limit:
            byte = self.read(address + len(out), 1)[0]
            if byte == 0:
                return bytes(out)
            out.append(byte)
        raise MemoryFault("perm", address, "read", "unterminated string")
