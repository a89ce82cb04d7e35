"""In-memory span recorder for the traced benchmark run.

A span has a name, a layer, a start, an end and the id of the span that
caused it.  Spans opened on the main thread nest through a stack; a span
recorded on another thread (a queue worker) or synthesised from a
program timestamp takes the main thread's innermost open span as its
parent, which is the span that was waiting for it.  Spans stay in
memory and are written out as JSON when the run ends.

A span's self time is its duration minus the part its child spans
cover; a layer's self time is the sum over its spans, and the root
span's self time is the unattributed remainder.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans; ``Tracer(enabled=False)`` records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []
        self._lock = threading.Lock()
        # time.time() -> perf_counter() offset, for program timestamps.
        self._offset = time.perf_counter() - time.time()

    def _parent(self):
        return self._stack[-1]["id"] if self._stack else None

    def add(self, name: str, layer: str, start: float, end: float,
            parent=None, **attrs) -> None:
        """Record a finished span; the parent defaults to the open span."""
        if not self.enabled:
            return
        with self._lock:
            self.spans.append({
                "id": len(self.spans), "name": name, "layer": layer,
                "start": start, "end": end,
                "parent": self._parent() if parent is None else parent,
                **attrs,
            })

    def add_wallclock(self, name: str, layer: str, start: float, end: float,
                      **attrs) -> None:
        """Record a span whose bounds are ``time.time()`` stamps."""
        self.add(name, layer, start + self._offset, end + self._offset,
                 **attrs)

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        """Time the body as a child of the innermost open span."""
        if not self.enabled:
            yield
            return
        with self._lock:
            record = {"id": len(self.spans), "name": name, "layer": layer,
                      "start": time.perf_counter(), "end": None,
                      "parent": self._parent(), **attrs}
            self.spans.append(record)
        self._stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap_worker(self, func, name: str, layer: str):
        """``func`` timed on any thread, parented to the waiting span."""
        if not self.enabled:
            return func

        @functools.wraps(func)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.add(name, layer, start, time.perf_counter())
        return traced

    # ------------------------------------------------------------------
    def named(self, name: str) -> list:
        """Finished spans called ``name``."""
        return [s for s in self.spans if s["name"] == name and s["end"]]

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_times(self, root_id: int) -> dict:
        """Self time per layer over the subtree under ``root_id``."""
        children: dict = {}
        for span in self.spans:
            if span["end"] is not None and span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        totals: dict = {}
        pending = [self.spans[root_id]]
        while pending:
            span = pending.pop()
            kids = children.get(span["id"], [])
            covered = _union_length(
                [(max(k["start"], span["start"]), min(k["end"], span["end"]))
                 for k in kids]
            )
            own = (span["end"] - span["start"]) - covered
            totals[span["layer"]] = totals.get(span["layer"], 0.0) + own
            pending.extend(kids)
        return totals

    def dump(self, path) -> None:
        """Write every span as JSON."""
        with open(path, "w") as stream:
            json.dump({"spans": self.spans}, stream)


def _union_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
