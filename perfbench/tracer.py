"""In-place span tracing of public boundary callables, for traced runs only.

:class:`Tracer` replaces a class or module attribute with a wrapper
that records a span around each call: name, start, end, parent span
and request id.  Each thread keeps its own span stack, because the
wave service runs waves on an executor thread while ``submit`` and the
event bus run on the event-loop thread.  A span's *self time* is its
duration minus the time of the spans it directly contains.

Self times are kept for every call (one float each, per thread), so
percentiles are exact.  Span records are kept up to :data:`MAX_RECORDS`
per thread and written out by :meth:`Tracer.write`.  Counting wrappers
(:meth:`Tracer.count`) add no span, so the caller's self time still
includes the counted call.  :meth:`Tracer.restore` puts every original
attribute back.
"""

from __future__ import annotations

import functools
import json
import threading
from array import array
from time import perf_counter
from typing import Callable

#: Span records kept per thread; self times and counts are never capped.
MAX_RECORDS = 200_000


class _ThreadState:
    """One thread's span stack, self times, counters and records."""

    __slots__ = (
        "index",
        "stack",
        "self_times",
        "counts",
        "records",
        "next_id",
        "root_time",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        #: Open spans: ``[span id, child time, request id]`` per level.
        self.stack: list[list] = []
        self.self_times: dict[str, array] = {}
        self.counts: dict[str, int] = {}
        self.records: list[tuple] = []
        self.next_id = 0
        #: Summed duration of this thread's root spans, per span name.
        self.root_time: dict[str, float] = {}


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: Request id inherited by root spans on threads that cannot see
        #: the request themselves (the service's wave thread).
        self.ambient_request: int | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        request_of: Callable[[tuple, object], int | None] | None = None,
        on_return: Callable[["Tracer", object], None] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span called ``name``.

        ``request_of(args, result)`` names the request a root span
        belongs to; nested spans inherit their parent's request id.
        ``on_return(tracer, result)`` may record counts from the result.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            span_id = state.next_id
            state.next_id += 1
            request = parent[2] if parent is not None else self.ambient_request
            frame = [span_id, 0.0, request]
            stack.append(frame)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                else:
                    roots = state.root_time
                    roots[name] = roots.get(name, 0.0) + duration
                times = state.self_times.get(name)
                if times is None:
                    times = state.self_times[name] = array("d")
                times.append(duration - frame[1])
                if request_of is not None:
                    request = request_of(args, result)
                if on_return is not None and result is not None:
                    on_return(self, result)
                if len(state.records) < MAX_RECORDS:
                    state.records.append(
                        (
                            state.index,
                            span_id,
                            parent[0] if parent is not None else None,
                            name,
                            start,
                            end,
                            request,
                        )
                    )

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count its calls, without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return counted

    def add(self, name: str, amount: int = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _replace(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner: object, attr: str, name: str, **options) -> None:
        """Trace ``owner.attr`` (a class or module attribute) as ``name``."""
        self._replace(owner, attr, self.wrap(name, getattr(owner, attr), **options))

    def count(self, owner: object, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` as ``name``."""
        self._replace(owner, attr, self.counter(name, getattr(owner, attr)))

    def restore(self) -> None:
        """Put back every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def self_times(self, name: str) -> list[float]:
        """Every recorded self time of ``name``, in seconds, all threads."""
        merged: list[float] = []
        for state in self._threads:
            merged.extend(state.self_times.get(name, ()))
        return merged

    def calls(self, name: str) -> int:
        return sum(len(s.self_times.get(name, ())) for s in self._threads)

    def total(self, name: str) -> float:
        return sum(sum(s.self_times.get(name, ())) for s in self._threads)

    def counted(self, name: str) -> int:
        return sum(s.counts.get(name, 0) for s in self._threads)

    def blocking_time(self) -> float:
        """Summed duration of the busiest root span, over all threads.

        Every workload blocks on one sequence of root spans:
        ``Simulator.run`` calls, ``check_snap_safety`` calls, or the
        service's waves (``WaveEngine.run_wave``, one topology's waves
        run one at a time, on whichever executor thread is free).  So
        this is the traced time that the end-to-end wall time waits on.
        """
        totals: dict[str, float] = {}
        for state in self._threads:
            for name, time in state.root_time.items():
                totals[name] = totals.get(name, 0.0) + time
        return max(totals.values(), default=0.0)

    def records_truncated(self) -> bool:
        return any(len(s.records) >= MAX_RECORDS for s in self._threads)

    def write(self, path) -> int:
        """Write the kept span records as JSON lines; return how many."""
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for state in self._threads:
                for thread, span_id, parent, name, start, end, request in state.records:
                    out.write(
                        json.dumps(
                            {
                                "thread": thread,
                                "span": span_id,
                                "parent": parent,
                                "name": name,
                                "start": start,
                                "end": end,
                                "request": request,
                            }
                        )
                    )
                    out.write("\n")
                    written += 1
        return written
