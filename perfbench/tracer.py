"""Spans recorded from outside the program.

A Tracer replaces functions at the module attributes their callers look up
(for example `notforest.dynamics.opt_sampled_fp`, which
`best_response_dynamics` finds through its module globals) with wrappers that
record one span per call: name, start, end and parent.  Spans are kept in
memory as parallel lists and written out when the benchmark ends.  A span's
self time is its duration minus the durations of its direct children; since
calls nest, the self times of all spans under a root add up to the root's
duration.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._stack = [-1]
        self._patched: list = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str) -> None:
        """Record a span named `name` around every call of module.attr until
        `restore` is called."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def durations(self) -> list:
        return [(e - s) * 1e-9 for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list:
        dur = self.durations()
        own = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[i]
        return own

    def nearest(self, idx: int, names: set):
        """Name of the closest proper ancestor of span idx whose name is in
        `names`, or None."""
        parent = self.parents[idx]
        while parent >= 0:
            if self.names[parent] in names:
                return self.names[parent]
            parent = self.parents[parent]
        return None

    def summary(self) -> dict:
        """Per span name: calls, busy seconds (sum of durations) and self
        seconds."""
        out: dict = {}
        for name, dur, own in zip(self.names, self.durations(), self.self_times()):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += dur
            entry["self_s"] += own
        return out

    def write_csv(self, fh, round_index: int) -> None:
        for i, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)):
            fh.write(f"{round_index},{i},{name},{start},{end},{parent}\n")
