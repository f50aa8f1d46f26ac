"""In-memory span tracer that times calls into the engine from outside.

The tracer replaces chosen functions and methods with timing wrappers for
the duration of a traced run and puts the originals back afterwards.
Every call of a wrapped attribute records one span: its name, the thread
that recorded it, start and end (``time.perf_counter``), and the span
that was open on the same thread when it started (its parent).  Spans
stay in a list in memory; :meth:`Tracer.dump` writes them out once the
run is over.

Self time is a span's duration minus the part of it covered by its direct
child spans, computed per thread so that concurrent server runner threads
never subtract each other's work.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """``span_id -> duration minus the union of its children's intervals``.

    Children are the spans whose ``parent`` is the span, clipped to the
    parent's interval.  Only spans of the parent's own thread count.
    """
    children: dict[int, list] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.thread == span.thread:
            children.setdefault(parent.span_id, []).append(
                (max(span.start, parent.start), min(span.end, parent.end)))
    return {span.span_id: span.duration - _covered(
                [(a, b) for a, b in children.get(span.span_id, ()) if b > a])
            for span in spans}


def coverage(spans, start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by top-level spans (any thread)."""
    if end <= start:
        return 0.0
    top = [(max(span.start, start), min(span.end, end))
           for span in spans if span.parent is None]
    return _covered([(a, b) for a, b in top if b > a]) / (end - start)


def _resolve(path: str):
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, qualname = path.partition(":")
    owner = sys.modules.get(module_name) or __import__(
        module_name, fromlist=["_"])
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps attributes, records spans, restores the originals on exit.

    ``targets`` maps a span name to ``"module:attr"`` or
    ``"module:Class.method"``.  Functions are also replaced in every
    loaded ``repro`` module that imported them by name, so callers that
    hold their own reference are traced too.  ``on_result`` maps a span
    name to a callback that receives the wrapped call's return value.
    """

    def __init__(self, targets: dict[str, str], on_result=None):
        self.targets = dict(targets)
        self.on_result = dict(on_result or {})
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        # (owner, attr, had_own_attr, original) per replaced attribute.
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, func):
        tracer = self
        callback = self.on_result.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, parent, name,
                                         threading.get_ident(), start, end))
            if callback is not None:
                callback(result)
            return result

        return traced

    # -- install / restore -------------------------------------------------

    def _replace(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        self._saved.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for name, path in self.targets.items():
                owner, attr = _resolve(path)
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                self._replace(owner, attr, wrapper)
                if isinstance(owner, type):
                    continue
                for module in list(sys.modules.values()):
                    if module is owner or not getattr(
                            module, "__name__", "").startswith("repro"):
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, alias, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reporting ---------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        own = self_times(self.spans)
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
        return totals

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def dump(self, path, extra: dict | None = None) -> None:
        origin = min((span.start for span in self.spans), default=0.0)
        payload = {
            "fields": ["id", "parent", "name", "thread", "start_s", "end_s"],
            "spans": [[span.span_id, span.parent, span.name, span.thread,
                       round(span.start - origin, 9),
                       round(span.end - origin, 9)]
                      for span in self.spans],
        }
        payload.update(extra or {})
        with open(path, "w") as handle:
            json.dump(payload, handle)
