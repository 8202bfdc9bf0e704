"""Telemetry primitives: spans, counters, gauges, and their collector.

The analyzer instruments its own hot seams (session stages, shard
workers, the fused kernel, trace I/O, the artifact cache, lint rules)
with the primitives in this module.  Design constraints, in order:

1. **Near-zero cost when disabled.**  Observability is off by default;
   every primitive checks one module-level flag before doing anything.
   ``span(...)`` returns a shared no-op singleton when disabled — no
   allocation, no clock read, no lock.  Instrumented modules hold their
   :class:`Counter` handles at import time so the disabled fast path is
   one attribute load and one flag test.
2. **Thread- and process-aware.**  Each thread records into its own
   append-only journal (no locks on the hot path); shard worker
   processes run their own collector and ship a picklable snapshot
   back with their result partials, which the parent merges in shard
   order — exactly how statistics partials travel.
3. **Monotonic, cross-process-comparable timestamps** via
   :class:`repro.measure.clock.RawMonotonicClock`, so worker journals
   merge onto one time axis with the parent's.

The collector's journals convert losslessly into a ``.rpt`` v2 trace
(:mod:`repro.obs.export`): spans become ENTER/LEAVE events, counter
and gauge samples become metric events — the analyzer's telemetry is
a trace the analyzer itself can analyse.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Iterator

__all__ = [
    "Collector",
    "Counter",
    "Gauge",
    "SpanRecord",
    "ThreadJournal",
    "collector",
    "counter",
    "current_context",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "span",
    "traced",
]

#: Journal entry tags.  Entries are tuples ``(tag, time, name)`` for
#: span edges and ``(tag, time, name, value)`` for instrument samples.
ENTER, LEAVE, SAMPLE = 0, 1, 2

# Module-level switch: the whole fast-path story hangs off this one
# boolean.  ``span()``/``Counter.add()`` read it without any lock; the
# rare writers (enable/disable) hold ``_STATE_LOCK``.
_ENABLED: bool = False
_COLLECTOR: "Collector | None" = None
_STATE_LOCK = threading.Lock()


class ThreadJournal:
    """Append-only telemetry journal of one thread.

    Entries are time-ordered by construction (one writer, monotonic
    clock).  ``stack`` tracks currently-open span names so the export
    can close abandoned spans and tests can assert balance.
    """

    __slots__ = ("thread_name", "thread_id", "entries", "stack")

    def __init__(self, thread_name: str, thread_id: int) -> None:
        self.thread_name = thread_name
        self.thread_id = thread_id
        self.entries: list[tuple] = []
        self.stack: list[str] = []


class SpanRecord:
    """One finished span, as yielded by :meth:`Collector.iter_spans`."""

    __slots__ = ("name", "t_start", "t_stop", "depth", "journal")

    def __init__(self, name: str, t_start: float, t_stop: float,
                 depth: int, journal: int) -> None:
        self.name = name
        self.t_start = t_start
        self.t_stop = t_stop
        self.depth = depth
        self.journal = journal

    @property
    def duration(self) -> float:
        return self.t_stop - self.t_start


class Collector:
    """Owns the journals and instrument totals of one process.

    ``origin`` labels where the collector ran (``"main"`` in the
    parent, ``"shard-N"`` inside phase-1/2 workers); it prefixes the
    location names of the exported self-trace so shard workers appear
    as distinct ranks.

    **Trace context.**  Every collector carries a ``trace_id`` (one hex
    id per causal trace), an ``epoch`` (the clock reading that is t=0
    of the exported timeline) and an optional ``parent_span`` (the span
    that launched this process).  Worker collectors inherit all three
    from the payload context (:func:`current_context`), so journals
    recorded in different processes stitch into *one* trace on *one*
    time axis — ``RawMonotonicClock`` is machine-wide, and sharing the
    epoch means a worker span can never appear to start before the
    parent stage that launched it.
    """

    def __init__(self, clock: Any | None = None, origin: str = "main",
                 trace_id: str | None = None, epoch: float | None = None,
                 parent_span: str | None = None) -> None:
        if clock is None:
            from ..measure.clock import RawMonotonicClock

            clock = RawMonotonicClock()
        self.clock = clock
        self.origin = origin
        self.pid = os.getpid()
        if not trace_id:
            import uuid  # deferred: a command run without telemetry needs none

            trace_id = uuid.uuid4().hex[:16]
        self.trace_id = trace_id
        self.epoch = float(epoch) if epoch is not None else float(clock.now())
        self.parent_span = parent_span
        self._local = threading.local()
        self._lock = threading.Lock()
        #: journals of this process, in creation order (main thread first)
        self.journals: list[ThreadJournal] = []
        #: snapshots merged from other processes, in merge order
        self.foreign: list[dict] = []
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}

    # -- journal access (hot path) -------------------------------------

    def _journal(self) -> ThreadJournal:
        jrn = getattr(self._local, "journal", None)
        if jrn is None:
            t = threading.current_thread()
            jrn = ThreadJournal(t.name, t.ident or 0)
            with self._lock:
                self.journals.append(jrn)
            self._local.journal = jrn
        return jrn

    def push(self, name: str) -> ThreadJournal:
        jrn = self._journal()
        jrn.entries.append((ENTER, self.clock.now(), name))
        jrn.stack.append(name)
        return jrn

    @staticmethod
    def pop(jrn: ThreadJournal, name: str, clock: Any) -> None:
        # Static so a Span can close into the journal it opened in even
        # if the active collector changed mid-span (keeps logs balanced).
        if jrn.stack and jrn.stack[-1] == name:
            jrn.stack.pop()
        jrn.entries.append((LEAVE, clock.now(), name))

    def record_span(self, name: str, t_start: float, t_stop: float) -> None:
        """Journal a span whose clock readings were taken before this
        collector existed; it must precede every entry of the thread."""
        entries = self._journal().entries
        entries.append((ENTER, t_start, name))
        entries.append((LEAVE, t_stop, name))

    def sample(self, name: str, value: float) -> None:
        self._journal().entries.append(
            (SAMPLE, self.clock.now(), name, float(value))
        )

    # -- instruments ---------------------------------------------------

    def counter_add(self, name: str, amount: float) -> float:
        now = self.clock.now()
        with self._lock:
            total = self._counters.get(name, 0.0) + amount
            self._counters[name] = total
        self._journal().entries.append((SAMPLE, now, name, total))
        return total

    def gauge_set(self, name: str, value: float) -> None:
        now = self.clock.now()
        value = float(value)
        with self._lock:
            self._gauges[name] = value
        self._journal().entries.append((SAMPLE, now, name, value))

    def _foreign_snaps(self) -> Iterator[dict]:
        """All merged snapshots, depth-first (children after parents).

        A shard worker can itself merge sub-snapshots (nested forks);
        those ride along in the worker snapshot's ``children`` list and
        must count toward totals just like direct merges.
        """
        stack = list(reversed(self.foreign))
        while stack:
            snap = stack.pop()
            yield snap
            stack.extend(reversed(snap.get("children", ())))

    def counters(self) -> dict[str, float]:
        """Counter totals, folding in merged foreign snapshots."""
        with self._lock:
            totals = dict(self._counters)
        for snap in self._foreign_snaps():
            for name, value in snap.get("counters", {}).items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def gauges(self) -> dict[str, float]:
        """Last-written gauge values (local process only)."""
        with self._lock:
            return dict(self._gauges)

    # -- cross-process shipping ----------------------------------------

    def snapshot(self) -> dict:
        """Picklable copy of everything this collector recorded.

        Shipped from shard workers back to the parent alongside their
        statistics partials; :meth:`merge` folds it in.  Snapshots this
        collector itself merged (nested forks — e.g. a shard worker
        that ran its own sub-workers) travel in ``children`` so no
        grandchild journal or counter is lost on the way up.
        """
        with self._lock:
            return {
                "origin": self.origin,
                "pid": self.pid,
                "trace_id": self.trace_id,
                "epoch": self.epoch,
                "parent_span": self.parent_span,
                "journals": [
                    {
                        "thread_name": j.thread_name,
                        "thread_id": j.thread_id,
                        "entries": list(j.entries),
                        "open": list(j.stack),
                    }
                    for j in self.journals
                ],
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "children": list(self.foreign),
            }

    def merge(self, snap: dict) -> None:
        """Fold a worker snapshot in (callers merge in shard order)."""
        with self._lock:
            self.foreign.append(snap)

    def context(self) -> dict:
        """Picklable trace context to hand a child process.

        ``parent_span`` is the innermost span open on the calling
        thread — the causal parent of everything the child records.
        """
        jrn = getattr(self._local, "journal", None)
        parent = jrn.stack[-1] if jrn is not None and jrn.stack else None
        return {
            "trace_id": self.trace_id,
            "epoch": self.epoch,
            "parent_span": parent or self.parent_span,
        }

    # -- span reconstruction -------------------------------------------

    def _all_journals(self) -> list[tuple[str, dict]]:
        """(origin, journal-dict) pairs: local first, then foreign in
        depth-first merge order — the deterministic rank order of the
        self-trace.  Nested-fork children follow their parent snapshot."""
        local = self.snapshot()
        out = [(local["origin"], j) for j in local["journals"]]
        for snap in self._foreign_snaps():
            out.extend((snap["origin"], j) for j in snap["journals"])
        return out

    def attach_profile(self, profiler: Any,
                       origin: str | None = None) -> None:
        """Attach a stopped :class:`repro.obs.profiler.Profiler`.

        The profiler's samples fold into one synthetic ENTER/LEAVE
        journal (consecutive-stack diffing) merged as a foreign
        snapshot, so the self-trace grows a ``profile`` rank whose
        call-path regions are balanced and monotone by construction.
        """
        journal = profiler.journal()
        if not journal["entries"]:
            return
        self.merge({
            "origin": origin or "profile",
            "pid": self.pid,
            "trace_id": self.trace_id,
            "epoch": self.epoch,
            "parent_span": None,
            "journals": [journal],
            "counters": {"profile.samples": float(len(profiler.samples))},
            "gauges": {},
            "children": [],
        })

    def iter_spans(self) -> Iterator[SpanRecord]:
        """Finished spans across all journals (open spans are skipped)."""
        for index, (_origin, jrn) in enumerate(self._all_journals()):
            stack: list[tuple[str, float]] = []
            for entry in jrn["entries"]:
                tag = entry[0]
                if tag == ENTER:
                    stack.append((entry[2], entry[1]))
                elif tag == LEAVE and stack:
                    name, t0 = stack.pop()
                    yield SpanRecord(name, t0, entry[1], len(stack), index)


class Counter:
    """Monotonically accumulating total (hits, bytes, seconds, events).

    Handles are cheap, stateless name references: the value lives in
    the active collector, so ``enable()``/``disable()`` never
    invalidates a handle held by an instrumented module.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def add(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        c = _COLLECTOR
        if c is not None:
            c.counter_add(self.name, amount)

    inc = add

    @property
    def value(self) -> float:
        c = _COLLECTOR
        if c is None:
            return 0.0
        return c.counters().get(self.name, 0.0)


class Gauge:
    """Last-value instrument (queue depth, worker count)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def set(self, value: float) -> None:
        if not _ENABLED:
            return
        c = _COLLECTOR
        if c is not None:
            c.gauge_set(self.name, value)

    @property
    def value(self) -> float:
        c = _COLLECTOR
        if c is None:
            return 0.0
        return c.gauges().get(self.name, 0.0)


class Span:
    """Context manager recording one ENTER/LEAVE pair.

    Only constructed while observability is enabled (``span()`` hands
    out the no-op singleton otherwise).  The journal is captured at
    ``__enter__`` so the pair stays balanced even if ``disable()``
    runs mid-span.
    """

    __slots__ = ("name", "_journal", "_clock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._journal: ThreadJournal | None = None
        self._clock = None

    def __enter__(self) -> "Span":
        c = _COLLECTOR
        if _ENABLED and c is not None:
            self._journal = c.push(self.name)
            self._clock = c.clock
        return self

    def __exit__(self, *exc: object) -> None:
        jrn = self._journal
        if jrn is not None:
            Collector.pop(jrn, self.name, self._clock)
            self._journal = None


class _NullSpan:
    """Shared no-op span: the disabled fast path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(name: str) -> "Span | _NullSpan":
    """Open a span named ``name`` (use as a context manager).

    Disabled mode returns a shared no-op object: the call costs one
    flag test, no allocation.
    """
    if not _ENABLED:
        return _NULL_SPAN
    return Span(name)


def traced(name: str | None = None) -> Callable:
    """Decorator form of :func:`span`.

    The flag is tested per call, so functions decorated at import time
    (while observability is off) still record once it is enabled.
    """

    def decorate(fn: Callable) -> Callable:
        import functools

        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _ENABLED:
                return fn(*args, **kwargs)
            with Span(label):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# -- instrument handle cache ------------------------------------------------

_COUNTERS: dict[str, Counter] = {}
_GAUGES: dict[str, Gauge] = {}


def counter(name: str) -> Counter:
    """Shared :class:`Counter` handle for ``name``."""
    c = _COUNTERS.get(name)
    if c is None:
        c = _COUNTERS[name] = Counter(name)
    return c


def gauge(name: str) -> Gauge:
    """Shared :class:`Gauge` handle for ``name``."""
    g = _GAUGES.get(name)
    if g is None:
        g = _GAUGES[name] = Gauge(name)
    return g


# -- global switch ----------------------------------------------------------


def enabled() -> bool:
    """Whether telemetry is being recorded right now."""
    return _ENABLED


def current_context() -> dict | None:
    """Trace context of the active collector, or ``None`` if disabled.

    This is what worker payloads carry: a picklable
    ``{"trace_id", "epoch", "parent_span"}`` dict that
    lets a child collector join the parent's causal trace on the
    parent's time axis.
    """
    c = _COLLECTOR
    if not _ENABLED or c is None:
        return None
    return c.context()


def collector() -> Collector | None:
    """The active collector, or ``None`` while disabled."""
    return _COLLECTOR


def enable(existing: Collector | None = None, origin: str = "main") -> Collector:
    """Switch telemetry on, installing (or reusing) a collector."""
    global _ENABLED, _COLLECTOR
    with _STATE_LOCK:
        if existing is not None:
            _COLLECTOR = existing
        elif _COLLECTOR is None:
            _COLLECTOR = Collector(origin=origin)
        _ENABLED = True
        return _COLLECTOR


def disable() -> Collector | None:
    """Switch telemetry off; returns the collector for late export."""
    global _ENABLED, _COLLECTOR
    with _STATE_LOCK:
        _ENABLED = False
        c, _COLLECTOR = _COLLECTOR, None
        return c
