"""Outside-in span tracing for the benchmark's traced run.

The program's own ``repro-spans-v1`` tracing is left off: it switches
the obs layer on and so changes the code path being measured.  Instead
this module wraps public functions at each layer boundary from outside
(:class:`Tracer.install`) and records one span per wrapped call: name,
start, end, parent, op id and a small tag.  Hot helpers such as
``Point.distance_to`` are deliberately not wrapped.

Spans are buffered per process and appended to ``spans-<pid>.jsonl``
in the run's scratch directory.  Pool workers are forked after the
wrappers go in, inherit them, and flush after every work item, because
they exit without running ``atexit``.  :func:`fold` then streams every
file and computes self times: a span's duration minus the part of its
interval that its children cover.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Span record: (id, parent id, name, start, end, op id, top, tag).
#: ``top`` marks a span with no layer span above it (a thread root or a
#: direct child of an ``op`` span); residual time is measured against
#: the union of these per op.
Span = Tuple[int, Optional[int], str, float, float, Optional[int], bool, Optional[str]]

#: Buffered spans per process before an early flush to disk.
_FLUSH_EVERY = 20_000


class Recorder:
    """In-memory span buffer of one process (fork-aware)."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        # next() on a count is atomic under the interpreter lock.
        self._ids = itertools.count(1)
        self.pid = os.getpid()

    # -- fork handling -----------------------------------------------------

    def reset_after_fork(self) -> None:
        """A forked worker starts with empty buffers of its own."""
        self.spans = []
        self.counters = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.pid = os.getpid()

    # -- thread-local context ---------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op(self) -> Optional[int]:
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value: Optional[int]) -> None:
        self._local.op = value

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> list:
        """Open a span; returns the frame :meth:`end` closes."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        top = parent is None or parent[1] == "op"
        frame = [next(self._ids), name, None if parent is None else parent[0],
                 top, time.perf_counter()]
        stack.append(frame)
        return frame

    def end(self, frame: list, tag: Optional[str] = None) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # pragma: no cover - unbalanced only on a wrapper bug
            stack.remove(frame)
        sid, name, parent, top, start = frame
        self.spans.append((sid, parent, name, start, end, self.op, top, tag))
        if len(self.spans) >= _FLUSH_EVERY:
            self.flush()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def flush(self) -> None:
        """Append buffered spans and counters to this process's file."""
        spans, self.spans = self.spans, []
        with self._lock:
            counters, self.counters = self.counters, {}
        if not spans and not counters:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
            if counters:
                handle.write(json.dumps({"counters": counters}) + "\n")


# -- wrappers ----------------------------------------------------------------


def span_wrapper(
    recorder: Recorder,
    name: str,
    fn: Callable,
    tag: Optional[Callable] = None,
    flush: bool = False,
    op_of: Optional[Callable] = None,
) -> Callable:
    """``fn`` recording one span per call.

    ``tag(args, kwargs, result)`` labels the span from its outcome; a
    raised exception tags it ``"raised"``.  ``flush`` writes the
    process's buffer out after each call (the worker entry point).
    ``op_of(args)`` names the op a call serves when the caller's thread
    cannot (a server thread reads it from the request).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if op_of is not None:
            outer, recorder.op = recorder.op, op_of(args)
        frame = recorder.begin(name)
        label = "raised"
        try:
            result = fn(*args, **kwargs)
            label = None if tag is None else tag(args, kwargs, result)
            return result
        finally:
            recorder.end(frame, label)
            if op_of is not None:
                recorder.op = outer
            if flush:
                recorder.flush()

    wrapper.__perfbench_original__ = fn
    return wrapper


def count_wrapper(recorder: Recorder, name: str, fn: Callable,
                  counter: Callable) -> Callable:
    """``fn`` bumping the counter ``counter(args, kwargs)`` names.

    For calls too hot or too thin to deserve a span (memo lookups,
    single-flight registration)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        key = counter(args, kwargs)
        if key is not None:
            recorder.count(f"{name}.{key}")
        return fn(*args, **kwargs)

    wrapper.__perfbench_original__ = fn
    return wrapper


class Tracer:
    """Installs wrappers at layer boundaries and removes them again.

    A module-level function is patched wherever a ``repro`` module binds
    it (``from x import f`` copies the binding, so patching the defining
    module alone would miss those callers); a method is patched on its
    class.  :meth:`uninstall` restores every original object.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._patches: List[Tuple[object, str, object]] = []
        self._fork_hook = False

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module, attr: str, name: str, **options) -> None:
        original = getattr(module, attr)
        wrapped = span_wrapper(self.recorder, name, original, **options)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def method(self, cls, attr: str, name: str, **options) -> None:
        wrapped = span_wrapper(self.recorder, name, cls.__dict__[attr],
                               **options)
        self._set(cls, attr, wrapped)

    def counter(self, cls, attr: str, name: str, counter: Callable) -> None:
        wrapped = count_wrapper(self.recorder, name, cls.__dict__[attr],
                                counter)
        self._set(cls, attr, wrapped)

    def install(self, points: Iterable[Callable[["Tracer"], None]]) -> None:
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook = True
        for point in points:
            point(self)

    def _after_fork(self) -> None:
        if self._patches:
            self.recorder.reset_after_fork()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- folding -----------------------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]],
                 lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Fold:
    """Per-name call counts, total and self time, tags and residuals."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.tags: Dict[str, Dict[str, int]] = {}
        self.counters: Dict[str, int] = {}
        self.intervals: Dict[str, List[Tuple[float, float]]] = {}
        self.op_wall = 0.0
        self.op_residual = 0.0

    def tag(self, name: str, label: str) -> int:
        return self.tags.get(name, {}).get(label, 0)


def fold(spans: Iterable[Span], keep: Iterable[str] = (),
         counters: Iterable[Dict[str, int]] = ()) -> Fold:
    """Fold spans of one process, in end order (children first).

    Spans end after their children, so a parent's children are all known
    when it arrives and the pending state stays as small as the deepest
    open stack.  ``keep`` names whose ``(start, end)`` intervals are
    retained (for cross-process matching such as pool IPC).
    """
    keep = set(keep)
    out = Fold()
    children: Dict[int, List[Tuple[float, float]]] = {}
    ops: Dict[int, Tuple[float, float]] = {}
    covered: Dict[int, List[Tuple[float, float]]] = {}
    for sid, parent, name, start, end, op, top, label in spans:
        kids = children.pop(sid, ())
        duration = end - start
        own = duration - union_length(kids, start, end)
        out.calls[name] = out.calls.get(name, 0) + 1
        out.total_s[name] = out.total_s.get(name, 0.0) + duration
        out.self_s[name] = out.self_s.get(name, 0.0) + max(own, 0.0)
        if label is not None:
            bucket = out.tags.setdefault(name, {})
            bucket[label] = bucket.get(label, 0) + 1
        if name in keep:
            out.intervals.setdefault(name, []).append((start, end))
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
        if name == "op":
            ops[op] = (start, end)
        elif top and op is not None:
            covered.setdefault(op, []).append((start, end))
    for mapping in counters:
        for key, value in mapping.items():
            out.counters[key] = out.counters.get(key, 0) + value
    for op, (start, end) in ops.items():
        out.op_wall += end - start
        out.op_residual += (end - start) - union_length(
            covered.get(op, ()), start, end
        )
    return out


def merge(folds: Iterable[Fold]) -> Fold:
    total = Fold()
    for part in folds:
        for table in ("calls", "total_s", "self_s", "counters"):
            mine = getattr(total, table)
            for key, value in getattr(part, table).items():
                mine[key] = mine.get(key, 0) + value
        for name, bucket in part.tags.items():
            mine = total.tags.setdefault(name, {})
            for label, value in bucket.items():
                mine[label] = mine.get(label, 0) + value
        for name, items in part.intervals.items():
            total.intervals.setdefault(name, []).extend(items)
        total.op_wall += part.op_wall
        total.op_residual += part.op_residual
    return total


def read_dir(out_dir: str, keep: Iterable[str] = ()) -> Fold:
    """Fold every ``spans-<pid>.jsonl`` file of a traced run.

    Op spans and the server-side spans they cover may live on different
    threads of one process, so residuals are folded per file (process).
    """
    parts = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.jsonl"))):
        spans: List[Span] = []
        counters: List[Dict[str, int]] = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if isinstance(record, dict):
                    counters.append(record["counters"])
                else:
                    spans.append(tuple(record))
        parts.append(fold(spans, keep=keep, counters=counters))
    return merge(parts)
