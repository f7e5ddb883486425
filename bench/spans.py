"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded by wrappers that the benchmark installs around module
attributes of the toolkit for the duration of one traced operation and
removes afterwards, so the untraced operations run the program exactly as
shipped. Each span stores its name, start, end, parent and root (the
operation or set-up span it belongs to) in flat arrays that are kept until
the run ends and aggregated once.

An attribute that does not exist is skipped and a wrapped function that is
never called reports count 0 and time 0, so the same tracer keeps working
when a refactor removes or stops calling one of the wrapped functions.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._root = -1
        self.counters: dict[int, dict[str, float]] = {}
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.root.append(self._root if self._root >= 0 else i)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root_span(self, name: str) -> Iterator[int]:
        """A top-level span (one operation, or set-up); every span opened
        inside it is attributed to it."""
        if self._root >= 0:
            raise RuntimeError("root spans do not nest")
        i = self._open(self.name_id(name))
        self._root = i
        self.counters[i] = {}
        try:
            yield i
        finally:
            self._close(i)
            self._root = -1

    def add(self, key: str, value: float) -> None:
        """Add to a counter of the current root span (ignored outside one)."""
        if self._root >= 0:
            c = self.counters[self._root]
            c[key] = c.get(key, 0.0) + value

    def wrap(self, fn: Callable, name: str, on_result: Callable[[Any], None] | None = None):
        nid = self.name_id(name)
        names, parents, roots, starts, ends = self.name, self.parent, self.root, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            roots.append(self._root)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_minimizer(self, fn: Callable, name: str, eval_name: str, callback_name: str):
        """Wrap an optimizer entry point taking (fun_and_grad, x0, ...,
        callback=...): its objective and callback get spans of their own,
        and the result's iteration count goes into the 'iterations'
        counter."""

        def run(fun_and_grad, *args, **kwargs):
            fun_and_grad = self.wrap(fun_and_grad, eval_name)
            if kwargs.get("callback") is not None:
                kwargs["callback"] = self.wrap(kwargs["callback"], callback_name)
            self.add(f"{name}.calls", 1)
            return fn(fun_and_grad, *args, **kwargs)

        def count(result) -> None:
            self.add(f"{name}.iterations", getattr(result, "iterations", 0))

        return self.wrap(run, name, on_result=count)

    @contextmanager
    def installed(self, targets) -> Iterator[None]:
        """Replace each (owner, attribute, make_wrapper) target with
        make_wrapper(original) and restore the originals on exit. A missing
        attribute is skipped and listed in `missing`."""
        saved = []
        try:
            for owner, attr, make_wrapper in targets:
                if isinstance(owner, type):
                    original = owner.__dict__.get(attr)  # the plain function, for methods
                else:
                    original = getattr(owner, attr, None)
                if original is None:
                    label = f"{owner.__name__}.{attr}"
                    if label not in self.missing:
                        self.missing.append(label)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, make_wrapper(original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict[int, "RootSummary"]:
        """Per root span: inclusive time, self time, call count and
        child-span count for every span name."""
        n = len(self.start)
        if n == 0:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        root = np.frombuffer(self.root, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        child_count = np.bincount(parent[has_parent], minlength=n)
        self_time = dur - child_time
        by_root = np.argsort(root, kind="stable")
        bounds = np.searchsorted(root[by_root], [(r, r + 1) for r in self.counters])
        out = {}
        for r, (lo, hi) in zip(self.counters, bounds):
            members = by_root[lo:hi]
            out[r] = RootSummary(
                tracer=self,
                index=r,
                members=members,
                name=name[members],
                start=np.frombuffer(self.start, dtype=np.float64)[members],
                dur=dur[members],
                self_time=self_time[members],
                child_count=child_count[members],
                counters=self.counters[r],
            )
        return out


class RootSummary:
    """Aggregates over the spans of one root (an operation or set-up)."""

    def __init__(self, tracer, index, members, name, start, dur, self_time, child_count, counters):
        self.tracer = tracer
        self.index = index
        self.members = members
        self._name = name
        self._start = start
        self._dur = dur
        self._self = self_time
        self._child_count = child_count
        self.counters = counters
        at = int(np.flatnonzero(members == index)[0])
        self.wall = float(dur[at])
        self.unspanned = float(self_time[at])

    def _mask(self, span_name: str) -> np.ndarray:
        nid = self.tracer._ids.get(span_name)
        if nid is None:
            return np.zeros(len(self._name), dtype=bool)
        return self._name == nid

    def total(self, *span_names: str) -> float:
        return float(sum(self._dur[self._mask(s)].sum() for s in span_names))

    def self_total(self, span_name: str) -> float:
        return float(self._self[self._mask(span_name)].sum())

    def calls(self, span_name: str) -> int:
        return int(self._mask(span_name).sum())

    def calls_with_children(self, span_name: str) -> int:
        m = self._mask(span_name)
        return int((self._child_count[m] > 0).sum())

    def first_start(self, span_name: str) -> float | None:
        m = self._mask(span_name)
        return float(self._start[m].min()) if m.any() else None

    def top_level(self) -> dict[str, float]:
        """Inclusive time of the root's direct children, by span name,
        plus the part of the root no child covers ('unspanned')."""
        parent = np.frombuffer(self.tracer.parent, dtype=np.int32)[self.members]
        direct = parent == self.index
        out: dict[str, float] = {}
        for nid, d in zip(self._name[direct], self._dur[direct]):
            key = self.tracer.names[nid]
            out[key] = out.get(key, 0.0) + float(d)
        out["unspanned"] = self.unspanned
        return out
