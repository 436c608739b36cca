"""Span tracing for the traced benchmark run.

The tracer wraps the public entry points of each layer at run time, in
the benchmark process only: :meth:`Tracer.install` rebinds the named
functions and methods to timing wrappers and :meth:`Tracer.uninstall`
puts the originals back. Nothing under ``src/`` is edited, and an
untraced run never installs a wrapper.

A span is ``(id, name, start, end, parent id, request id)``. The parent
is the innermost open span of the same thread; the request id is the one
the load generator set on that thread (``None`` on the daemon's own
threads). Spans are kept in memory and written out when the run ends.
A span's self time is its duration minus the durations of its children;
children run on the span's own thread, inside its interval, so their
intervals never overlap each other.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional

import numpy as np


class _TimedContext:
    """Times the body of a context manager, from a successful enter to exit."""

    def __init__(self, tracer: "Tracer", name: str, inner):
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._token = None

    def __enter__(self):
        value = self._inner.__enter__()
        self._token = self._tracer.begin(self._name)
        return value

    def __exit__(self, *exc_info):
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            self._tracer.end(self._token)


class Tracer:
    """In-memory span recorder plus the run-time wrapping of layer calls."""

    def __init__(self):
        self.spans: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._pid = os.getpid()
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: Optional[int]) -> None:
        """Tag the calling thread's next spans with ``request_id``."""
        self._local.request = request_id

    def begin(self, name: str):
        if os.getpid() != self._pid:
            return None  # a forked worker: its spans could never be written out
        stack = self._stack()
        span_id = next(self._ids)
        token = (span_id, name, stack[-1] if stack else None, time.perf_counter())
        stack.append(span_id)
        return token

    def end(self, token) -> None:
        if token is None:
            return
        end = time.perf_counter()
        span_id, name, parent, start = token
        self._stack().pop()
        self.spans.append(
            (span_id, name, start, end, parent, getattr(self._local, "request", None))
        )

    def call(self, name: str, fn, args, kwargs):
        token = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(token)

    # -- run-time wrapping ----------------------------------------------
    def install(self, targets: Iterable[tuple]) -> None:
        """Wrap each ``(owner, attribute, span name[, "context"])`` target.

        ``owner`` is a module or a class; a class attribute must be
        defined on that class itself. ``"context"`` marks a method that
        returns a context manager, whose body (not its wait) is timed.
        """
        for target in targets:
            owner, attr, name = target[:3]
            is_context = len(target) > 3 and target[3] == "context"
            original = vars(owner)[attr]
            tracer = self
            if is_context:
                @functools.wraps(original)
                def wrapper(*args, _fn=original, _name=name, **kwargs):
                    return _TimedContext(tracer, _name, _fn(*args, **kwargs))
            else:
                @functools.wraps(original)
                def wrapper(*args, _fn=original, _name=name, **kwargs):
                    return tracer.call(_name, _fn, args, kwargs)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def index(self) -> "SpanIndex":
        return SpanIndex(self.spans)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


class SpanIndex:
    """Durations, self times and ancestry over a list of finished spans."""

    def __init__(self, spans: List[tuple]):
        self.by_id: Dict[int, tuple] = {s[0]: s for s in spans}
        child_time: Dict[int, float] = defaultdict(float)
        for span_id, _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.self_time = {
            span_id: (s[3] - s[2]) - child_time.get(span_id, 0.0)
            for span_id, s in self.by_id.items()
        }
        self.by_name: Dict[str, List[tuple]] = defaultdict(list)
        for span in spans:
            self.by_name[span[1]].append(span)

    def has_ancestor(self, span: tuple, names: set, stop: set = frozenset()) -> bool:
        """Whether a span named in ``names`` encloses ``span`` before any in ``stop``."""
        parent = span[4]
        while parent is not None:
            ancestor = self.by_id.get(parent)
            if ancestor is None:
                return False
            if ancestor[1] in stop:
                return False
            if ancestor[1] in names:
                return True
            parent = ancestor[4]
        return False

    def spans(self, name: str, under: Optional[set] = None, not_under: set = frozenset()) -> List[tuple]:
        found = self.by_name.get(name, [])
        if under is not None:
            found = [s for s in found if self.has_ancestor(s, under, not_under)]
        elif not_under:
            found = [s for s in found if not self.has_ancestor(s, not_under)]
        return found

    def total(self, name: str, **filters) -> float:
        return float(sum(s[3] - s[2] for s in self.spans(name, **filters)))

    def self_total(self, name: str) -> float:
        return float(sum(self.self_time[s[0]] for s in self.by_name.get(name, [])))

    def durations(self, name: str) -> np.ndarray:
        return np.array([s[3] - s[2] for s in self.by_name.get(name, [])])

    def self_durations(self, name: str) -> np.ndarray:
        return np.array([self.self_time[s[0]] for s in self.by_name.get(name, [])])

    def split(self, wall_s: float) -> Dict[str, dict]:
        """Each span name's self time, as a share of ``wall_s`` and of the
        time inside root spans (the spans with no traced parent)."""
        root_s = sum(s[3] - s[2] for s in self.by_id.values() if s[4] is None)
        return {
            name: {
                "calls": len(spans),
                "self_s": self.self_total(name),
                "share_of_wall": self.self_total(name) / wall_s if wall_s > 0 else 0.0,
                "share_of_root": self.self_total(name) / root_s if root_s > 0 else 0.0,
            }
            for name, spans in sorted(self.by_name.items())
        }
