"""Operation counting and in-memory span tracing around public calls.

Every call the benchmark makes into ``amecodes`` goes through
:meth:`Tracer.call`, which counts it as one operation.  When tracing is
on, each call, each pass and each input item also becomes a span (name,
start, end, parent), kept in memory and written out at the end.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class OpFailed(Exception):
    """An operation raised; the rest of its input item is skipped."""


class Tracer:
    def __init__(self):
        self.enabled = False
        self.attempted = 0
        self.failed = 0
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A grouping span (a pass, an input item); free when tracing is off."""
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def call(self, name: str, fn, *args):
        """Run one operation ``fn(*args)`` under the layer span ``name``."""
        self.attempted += 1
        idx = self._open(name) if self.enabled else None
        try:
            return fn(*args)
        except Exception as exc:
            self.failed += 1
            raise OpFailed(f"{name}: {type(exc).__name__}: {exc}") from exc
        finally:
            if idx is not None:
                self._close(idx)

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per span name within the tree under span ``root``."""
        child_time = defaultdict(float)
        out = defaultdict(float)
        members = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] in members:
                members.add(i)
        for i in sorted(members, reverse=True):
            name, start, end, parent = self.spans[i]
            out[name] += (end - start) - child_time[i]
            if parent is not None:
                child_time[parent] += end - start
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
