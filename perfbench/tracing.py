"""Span tracing and timing statistics for the benchmark.

The program under test carries no instrumentation of its own here:
:class:`Tracer` wraps public functions and methods from the outside
(class or module attributes are swapped for timing wrappers and put
back by :meth:`Tracer.unwrap`). Spans stay in memory; callers aggregate
or dump them when a run ends.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import defaultdict
from collections.abc import Callable, Iterable
from time import perf_counter

#: A span is ``[name, start, end, parent_id, span_id]`` (``parent_id``
#: is -1 for a root). Lists, not objects, so a dump is plain JSON.
Span = list


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, bool, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Callable[[tuple], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is a class or a module. An inherited method is wrapped
        on ``owner`` only, so sibling classes are untouched. ``after``
        sees the call's positional arguments once it returns (e.g. to
        read a counter off ``self``).
        """
        had_own = attr in vars(owner)
        raw = vars(owner).get(attr)
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [name, 0.0, 0.0, stack[-1][4] if stack else -1,
                    next(tracer._ids)]
            stack.append(span)
            span[1] = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                tracer.spans.append(span)
                if after is not None:
                    after(args)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, had_own, raw))

    def span(self, name: str) -> "_ManualSpan":
        """A ``with`` block timed as a span (for the benchmark's own call
        sites, such as trace generation)."""
        return _ManualSpan(self, name)

    def unwrap(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, had_own, raw = self._undo.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


class _ManualSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        stack = self._tracer._stack()
        self._span = [self._name, perf_counter(), 0.0,
                      stack[-1][4] if stack else -1, next(self._tracer._ids)]
        stack.append(self._span)

    def __exit__(self, *exc) -> None:
        self._span[2] = perf_counter()
        self._tracer._stack().pop()
        self._tracer.spans.append(self._span)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children,
    keyed by span id."""
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for name, start, end, parent, sid in spans:
        if parent >= 0:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid]
            for name, start, end, parent, sid in spans}


def self_time_by_name(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name."""
    spans = list(spans)
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span[0]] += own[span[4]]
    return dict(out)


def outermost_time(spans: Iterable[Span], keep: Callable[[str], bool]) -> float:
    """Total duration of the spans ``keep`` selects, counting a selected
    span nested inside another selected span only once."""
    spans = list(spans)
    by_id = {s[4]: s for s in spans}
    total = 0.0
    for name, start, end, parent, sid in spans:
        if not keep(name):
            continue
        p = parent
        while p >= 0 and p in by_id and not keep(by_id[p][0]):
            p = by_id[p][3]
        if p < 0 or p not in by_id:
            total += end - start
    return total


# -- timing statistics ----------------------------------------------------

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between
    closest ranks, the same rule as ``numpy.percentile``'s default."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    if pos == lo or ordered[lo] == ordered[lo + 1]:
        return ordered[lo]  # also keeps an infinite sample from yielding nan
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * (pos - lo)


def highest_supported_percentile(n: int) -> int | None:
    """The highest whole percentile (at most 99) with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it; ``None`` when not even
    the median qualifies."""
    for q in range(99, 49, -1):
        if n * (100 - q) / 100.0 >= MIN_BEYOND:
            return q
    return None


def tail(values: list[float], q: int) -> float:
    """The ``q``-th percentile, refusing one the sample cannot support."""
    best = highest_supported_percentile(len(values))
    if best is None or q > best:
        raise ValueError(
            f"p{q} needs {MIN_BEYOND} samples beyond it; "
            f"{len(values)} samples support at most p{best}"
        )
    return percentile(values, q)
