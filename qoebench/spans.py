"""Span recording around functions patched from outside the package.

`Tracer.patch` swaps a module function or a class method for a wrapper that
records one span per call: its name, start, end and the span that was open
when it began (its parent).  A span's self time is its duration minus the
durations of its child spans.  Spans stay in memory until `write_csv`.
"""
from __future__ import annotations

import csv
import functools
import inspect
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, name, start, end, self_s)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []   # [id, parent, name, start, child_s]
        self._next_id = 0
        self._patched: list[tuple] = []

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next_id, parent, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, parent, name, start, child_s = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][4] += dur
        self.spans.append((sid, parent, name, start, end, dur - child_s))
        self.calls[name] += 1
        self.self_s[name] += dur - child_s
        self.total_s[name] += dur

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Record a span named `name` around every call of `owner.attr`.

        `observe(arguments, result)` runs after the span closes, with the
        call's arguments bound to their parameter names.
        """
        orig = getattr(owner, attr)
        sig = inspect.signature(orig) if observe is not None else None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._exit()
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, out)
            return out

        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "start_s", "end_s", "self_s"])
            t0 = min((s[3] for s in self.spans), default=0.0)
            for sid, parent, name, start, end, self_t in sorted(self.spans):
                w.writerow([sid, parent, name, f"{start - t0:.9f}",
                            f"{end - t0:.9f}", f"{self_t:.9f}"])
