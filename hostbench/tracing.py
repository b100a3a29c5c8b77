"""In-memory host-time spans and counters for the traced benchmark run.

The recorder wraps entry points of the program from outside.  A *span*
wrapper times each call; a *counting* wrapper only bumps a counter, for
calls so hot (millions per iteration) that timing each one would cost
more than the call it measures.

Span totals are kept per name as ``calls`` and ``self_s``: a span's self
time is its duration minus the time its child spans cover.  The
program is single-threaded, so spans nest strictly and the children of
one span never overlap; the covered time is the sum of their durations.
Spans of coarse boundaries are also kept one by one and written out by
:func:`write_chrome_trace` as Chrome-trace JSON, which Perfetto
(ui.perfetto.dev) and ``chrome://tracing`` open.  Fine-grained spans
(``keep=False``) count toward the totals and their parents' child time
but are not kept, so that a trace file stays a few megabytes.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Recorder:
    """Spans and counters of one traced iteration (single-threaded)."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        #: Kept spans, ``(name, start_s, end_s)``, in order of ending.
        self.spans: list[tuple[str, float, float]] = []
        #: ``{name: [calls, self_s]}`` over every span, kept or not.
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        #: Counters and tallies (``cluster.node_of.calls``, ...).
        self.counts: dict[str, float] = defaultdict(float)
        #: Open spans, innermost last: ``[name, start_s, child_s]``.
        self._stack: list[list] = []

    def _enter(self, name: str) -> list:
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, keep: bool) -> None:
        end = self.clock()
        self._stack.pop()
        name, start, child_s = frame
        duration = end - start
        total = self.totals[name]
        total[0] += 1
        total[1] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if keep:
            self.spans.append((name, start, end))

    def span(self, name: str, fn, tally=None, keep: bool = True):
        """``fn`` wrapped in a span named ``name``.

        A call made while a span of the same name is the innermost open
        one (an override calling ``super()``, a public method calling its
        sibling) passes through unrecorded, so ``calls`` counts entries
        into the layer.  ``tally(counts, args, kwargs, result)`` may add
        derived counts after each recorded call.
        """
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, keep)
            if tally is not None:
                tally(self.counts, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """``fn`` wrapped so that each call adds one to ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def root(self, name: str):
        """The kept top-level span around the whole iteration."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame, keep=True)


def write_chrome_trace(spans, path: Path, process_name: str) -> Path:
    """Write ``(name, start_s, end_s)`` spans as Chrome-trace JSON."""
    origin = min((start for _, start, _ in spans), default=0.0)
    events = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
        "args": {"name": process_name},
    }]
    for name, start, end in sorted(spans, key=lambda s: (s[1], -s[2])):
        events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
    return path
