"""Host time and host provenance.

:class:`HostClock` times operations in CPU seconds and scales each by an
interleaved reference loop, so that a slower or busier host does not read
as a slower program.  Provenance (Python version, CPU count, git revision,
load average and the reference loop's own speed) goes on every result, so
a noisy sample is easy to spot.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import statistics
import time
from pathlib import Path


class Op:
    """One timed operation: normalized and raw CPU seconds."""

    seconds = 0.0
    raw = 0.0


#: Nominal CPU seconds of one reference loop.  A normalized second is a
#: CPU second on a host where the loop takes exactly this long.
REFERENCE_S = 0.002
_MASK = 0xFFFFFFFF


def reference_loop(n: int = 5000) -> int:
    """Fixed pure-Python work shaped like an interpreter: indexed register
    reads and writes, dict traffic, calls through a table, int masking.
    It allocates three containers per call, so the cyclic GC seldom runs
    inside it."""
    regs = [0] * 32
    mem = {}
    ops = (lambda a, b: (a + b) & _MASK, lambda a, b: (a ^ (b << 1)) & _MASK,
           lambda a, b: (a * 3 + b) & _MASK)
    acc = 1
    for i in range(n):
        r = i & 31
        regs[r] = ops[i % 3](regs[(r + 1) & 31], acc)
        mem[r] = regs[r]
        acc = (acc + mem.get((i >> 1) & 31, 0)) & _MASK
    return acc


class HostClock:
    """CPU time of operations, normalized by an interleaved reference loop.

    Each operation's CPU time is scaled by ``REFERENCE_S`` over the mean
    reference-loop time measured just before and just after it.  On a
    shared host, contention comes in bursts lasting seconds and shifts
    over minutes; the reference loop runs through the same bursts as the
    operation it brackets, so the ratio stays steady while raw CPU time
    swings by tens of percent.
    """

    def __init__(self):
        self.references: list = []
        self._last = self._reference()

    def _reference(self) -> float:
        t0 = time.process_time()
        reference_loop()
        elapsed = time.process_time() - t0
        self.references.append(elapsed)
        return elapsed

    @contextlib.contextmanager
    def op(self):
        """Time the ``with`` body; the yielded :class:`Op` is filled in
        on exit."""
        result = Op()
        t0 = time.process_time()
        try:
            yield result
        finally:
            result.raw = time.process_time() - t0
            before, after = self._last, self._reference()
            self._last = after
            result.seconds = result.raw * REFERENCE_S / (0.5 * (before
                                                                + after))

    def slowdown(self) -> float:
        """Median reference time over nominal: 1.0 is the nominal host."""
        return statistics.median(self.references) / REFERENCE_S


def git_revision(root: Path) -> str:
    """HEAD's commit id, read from ``.git`` without running git.

    A checkout that is not a git repository reports ``"unknown"``.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_average() -> list:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []


def provenance(root: Path, load_start: list, clock: HostClock) -> dict:
    return {
        "reference_slowdown": clock.slowdown(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": git_revision(root),
        "load_avg_start": load_start,
        "load_avg_end": load_average(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
