"""Spans and call capture around kslab's public functions, from outside.

The benchmark never edits the program.  `Recorder.hooks` swaps the
module attributes through which callers reach a public function (for
example `kslab.solver.run`, or the `run_solver` name that `kslab.cli`
imported) for a wrapper, and puts the originals back on exit.  Each
wrapper keeps the call's result for the correctness gate; when tracing is
on it also records a span: name, start, end, parent span and the op it
belongs to.  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

ROOT = "op"


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float


@dataclass
class Call:
    name: str
    args: tuple
    result: object
    end: float
    nested: bool      # called from inside another call of the same module


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: list[Call] = []
        self.tracing = False
        self.op = -1
        self._ids = itertools.count()
        self._stack: list[tuple[int, str]] = []

    def begin_op(self, tracing: bool) -> None:
        self.op += 1
        self.tracing = tracing
        self.calls = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield
            return
        sid = next(self._ids)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(self.op, sid, parent, name, start, end))

    def _hook(self, fn, name: str):
        module = name.partition(".")[0]

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            nested = bool(self._stack) and \
                self._stack[-1][1].partition(".")[0] == module
            with self.span(name):
                out = fn(*args, **kwargs)
            self.calls.append(Call(name, args, out, time.perf_counter(),
                                   nested))
            return out
        return hooked

    @contextlib.contextmanager
    def hooks(self, targets):
        """Route each (owner, attribute, span name) through a wrapper."""
        saved = []
        try:
            for owner, attr, name in targets:
                orig = inspect.getattr_static(owner, attr)
                if isinstance(orig, staticmethod):
                    new = staticmethod(self._hook(orig.__func__, name))
                else:
                    new = self._hook(orig, name)
                setattr(owner, attr, new)
                saved.append((owner, attr, orig))
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: total duration minus the part its child spans cover."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - covered[s.id]
    return dict(out)


def total_times(spans: list[Span]) -> dict[str, float]:
    out = defaultdict(float)
    for s in spans:
        out[s.name] += s.end - s.start
    return dict(out)
