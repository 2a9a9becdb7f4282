"""Outside-in span recorder for the benchmark's traced run.

The recorder replaces public callables of the library (methods at class
level, or module-level functions in the module namespace that calls them)
with thin wrappers that record one span per call: its name, start, end and
the span that was open when it started (its parent).  Self time is a span's
duration minus the time its child spans cover.  Spans stay in memory and are
written to JSON when the run ends (:meth:`SpanRecorder.to_dict`); :meth:`SpanRecorder.restore` puts every
original object back, so the library pays nothing while the recorder is not
installed.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Target", "SpanRecorder", "SpanStats"]

#: Raw spans kept for the JSON dump; aggregates are exact beyond it.
MAX_SPANS = 200_000


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``owner.attr`` recorded under ``span``.

    ``count`` optionally maps the call's positional arguments to extra
    counters (e.g. rows in a score block), added under ``span.<key>``.
    """

    owner: Any
    attr: str
    span: str
    count: Callable[[tuple], dict[str, int]] | None = None


@dataclass
class SpanStats:
    """Aggregate of every span of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class SpanRecorder:
    """Records spans around wrapped callables while installed."""

    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        #: Aggregates per ``(parent name, child name)`` edge of the span tree.
        self.edges: dict[tuple[str, str], SpanStats] = defaultdict(SpanStats)
        self.counters: dict[str, int] = defaultdict(int)
        #: ``(id, name, start_s, end_s, parent_id)``; ``parent_id`` is -1 at the root.
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped_spans = 0
        self._originals: list[tuple[Any, str, Any]] = []
        # open spans: [id, name, start, child_time]
        self._stack: list[list] = []
        self._next_id = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child_s = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
            edge = self.edges[(parent[1], name)]
            edge.calls += 1
            edge.total_s += duration
        stats = self.stats[name]
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - child_s
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent[0] if parent else -1))
        else:
            self.dropped_spans += 1

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def _wrap(self, function: Callable, target: Target) -> Callable:
        recorder, name, count = self, target.span, target.count

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if count is not None:
                for key, value in count(args).items():
                    recorder.counters[f"{name}.{key}"] += value
            frame = recorder._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                recorder._close(frame)

        return wrapper

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Replace every target with its recording wrapper."""
        if self._originals:
            raise RuntimeError("span recorder is already installed")
        for target in self.targets:
            original = vars(target.owner)[target.attr]
            self._originals.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(original, target))

    def restore(self) -> None:
        """Put every original callable back."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    @contextmanager
    def installed(self):
        """Record inside the block; originals are back afterwards."""
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Aggregates, edges, counters and raw spans as plain JSON data."""
        as_dict = lambda s: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
        return {
            "aggregates": {name: as_dict(s) for name, s in sorted(self.stats.items())},
            "edges": {f"{p} > {c}": as_dict(s) for (p, c), s in sorted(self.edges.items())},
            "counters": dict(sorted(self.counters.items())),
            "dropped_spans": self.dropped_spans,
            "span_fields": ["id", "name", "start_s", "end_s", "parent_id"],
            "spans": self.spans,
        }
