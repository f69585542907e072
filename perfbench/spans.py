"""In-memory span tracer for the benchmark's traced runs.

A :class:`Tracer` replaces functions at the module or class attribute that
their callers look up at call time, so the program's source is untouched:
``tracer.wrap(repro.serve.service, "extract_features", "features.extract")``
makes every later ``extract_features(...)`` call inside the service record a
span.  Each span carries its name, start, end, parent span and request id;
spans stay in memory until :meth:`Tracer.write` dumps them at the end of
the run.  A layer's *self time* is its span's duration minus the part of
that interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator

__all__ = ["Span", "Tracer", "self_times", "union_length"]


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request_id: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


_MISSING = object()


class Tracer:
    """Records nested spans per thread; :meth:`restore` puts every wrapped
    attribute back."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_sid = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------ spans ------------------------------ #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, request_id: str | None) -> Iterator[None]:
        """Tag every span this thread opens inside the block."""
        previous = getattr(self._local, "request_id", None)
        self._local.request_id = request_id
        try:
            yield
        finally:
            self._local.request_id = previous

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(
                sid, name, start, end, parent,
                getattr(self._local, "request_id", None),
            )
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # ----------------------------- wrapping ---------------------------- #
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_return: Callable[[tuple, dict, object], None] | None = None,
        request_id: Callable[[tuple], str | None] | None = None,
    ) -> None:
        """Route ``owner.attr`` through a span named ``name``.

        ``on_return(args, kwargs, result)`` runs after the call, outside
        the span, to record counts at the same boundary.  ``request_id``
        marks a request's root span: it reads the id from the call's
        arguments, and every span opened inside carries it.
        """
        original = getattr(owner, attr)
        own = vars(owner).get(attr, _MISSING)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rid = request_id(args) if request_id is not None else None
            with self.request(rid) if request_id is not None else nullcontext():
                with self.span(name):
                    result = original(*args, **kwargs)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, own))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # ----------------------------- output ------------------------------ #
    def write(self, path: str | Path) -> None:
        """Dump every span as one JSON line (called once, at run end)."""
        with self._lock:
            spans = list(self.spans)
        lines = [json.dumps(asdict(s), sort_keys=True) for s in spans]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
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


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, net of the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        clipped = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.sid, ())
            if b > s.start and a < s.end
        ]
        out[s.name] += s.duration - union_length(clipped)
    return dict(out)
