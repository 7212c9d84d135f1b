"""Host-time spans recorded from outside the program.

The traced run wraps each layer's entry point *at the name its caller
looks up*: a module-level function is replaced in the importing module's
namespace (``repro.toolchain.parse_assembly``, because ``compile_lfi``
resolves it there), a method on its class.  The program's own code is
untouched; :meth:`SpanRecorder.uninstall` puts every original back, so an
untraced unit that follows runs exactly the code the timed runs measure.

Each span holds a name, start and end (``perf_counter_ns``), the index of
its parent span, and the request id that was current when it opened.  A
layer's self time is its span time minus the time of its direct children.
Spans stay in memory; :func:`chrome_trace` serializes them once, at the
end, in the Chrome ``trace_event`` format that ``repro.obs.chrome``
validates.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int        # index into SpanRecorder.spans, -1 for a root
    request: int       # request id current at open time, -1 for none


class SpanRecorder:
    """Collects spans and layer counters while its wrappers are installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.request = -1
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent,
                               self.request))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, name: Optional[str] = None) -> None:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        if name is not None:
            span.name = name
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``before(*args)`` runs first and its return value is handed to
        ``after(state, result, *args)``, which may return a new span name
        (the verifier's accept/reject split is decided by its result).
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(*args) if before is not None else None
            index = recorder.open(name)
            renamed = None
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    renamed = after(state, result, *args)
                return result
            finally:
                recorder.close(index, renamed)

        self._patches.append((owner, attr, raw))
        setattr(owner, attr,
                classmethod(wrapper) if is_classmethod else wrapper)

    def wrap_generator(self, owner, attr: str, name: str,
                       request_of: Callable) -> None:
        """Wrap a generator function: one span per resumption.

        While the inner generator runs, the recorder's current request is
        ``request_of(*args)``, so every child span carries it.
        """
        fn = getattr(owner, attr)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            request = request_of(*args)
            value = None
            while True:
                outer_request = recorder.request
                recorder.request = request
                index = recorder.open(name)
                try:
                    item = inner.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    recorder.close(index)
                    recorder.request = outer_request
                try:
                    value = yield item
                except GeneratorExit:
                    inner.close()
                    raise

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_ns(self) -> Dict[str, int]:
        """Per-layer self time: span time minus direct children's time."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end_ns - span.start_ns
        totals: Dict[str, int] = defaultdict(int)
        for i, span in enumerate(self.spans):
            totals[span.name] += span.end_ns - span.start_ns - child_ns[i]
        return dict(totals)


def chrome_trace(spans: List[Span]) -> str:
    """Spans as a Chrome ``trace_event`` document (complete events, us)."""
    origin = min((s.start_ns for s in spans), default=0)
    events = [{"ph": "M", "ts": 0, "pid": 1, "tid": 0,
               "cat": "__metadata", "name": "process_name",
               "args": {"name": "perfbench host"}}]
    for i, span in enumerate(spans):
        events.append({
            "ph": "X", "pid": 1, "tid": 0, "cat": "host",
            "name": span.name,
            "ts": (span.start_ns - origin) / 1000.0,
            "dur": (span.end_ns - span.start_ns) / 1000.0,
            "args": {"id": i, "parent": span.parent,
                     "request": span.request},
        })
    document = {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"clock": "host-perf-counter-us",
                              "producer": "perfbench"}}
    return json.dumps(document, sort_keys=True, separators=(",", ":"))
