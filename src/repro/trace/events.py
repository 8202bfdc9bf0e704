"""Event model for program traces.

A *program trace* is a time-sorted record of timestamped application
behaviour (paper, Section I).  Each processing element (an MPI rank, a
thread, ...) produces one event stream.  We store each stream as a
structure-of-arrays (:class:`EventList`) so that the analysis passes --
stack replay, segment accumulation, heat binning -- can run vectorised
over NumPy arrays instead of iterating Python objects.

Event kinds
-----------

``ENTER``/``LEAVE``
    Entering or leaving a code region (function, loop body, MPI call).
    ``ref`` holds the region id from the trace's
    :class:`~repro.trace.definitions.RegionRegistry`.
``SEND``/``RECV``
    Point-to-point message events.  ``partner`` is the peer location,
    ``size`` the message payload in bytes and ``tag`` the message tag.
``METRIC``
    A sample of a hardware/software counter.  ``ref`` holds the metric id
    and ``value`` the sampled value.

The numeric layout (one NumPy array per field) is part of the public API:
analysis code is encouraged to operate on ``events.time``,
``events.kind`` etc. directly.
"""

from __future__ import annotations

import enum
from typing import Iterator, Sequence

import numpy as np

from .._record import record

__all__ = [
    "EventKind",
    "Event",
    "EventList",
    "EventListBuilder",
    "ColumnNotLoadedError",
    "NO_REF",
    "NO_PARTNER",
]

#: Sentinel for "field not meaningful for this event kind".
NO_REF: int = -1
NO_PARTNER: int = -1


class EventKind(enum.IntEnum):
    """Discriminator for trace events (stored as ``uint8``)."""

    ENTER = 0
    LEAVE = 1
    SEND = 2
    RECV = 3
    METRIC = 4


@record(frozen=True, slots=True)
class Event:
    """A single trace event (row view of :class:`EventList`).

    This object exists for convenience (iteration, debugging, tests);
    performance-sensitive code should use the column arrays instead.
    """

    time: float
    kind: EventKind
    ref: int = NO_REF
    partner: int = NO_PARTNER
    size: int = 0
    tag: int = 0
    value: float = 0.0

    def is_enter(self) -> bool:
        return self.kind == EventKind.ENTER

    def is_leave(self) -> bool:
        return self.kind == EventKind.LEAVE


class ColumnNotLoadedError(RuntimeError):
    """A pass touched an event column excluded from its projection.

    Raised by the placeholder objects that :meth:`EventList.projected`
    installs for columns the caller chose not to materialise.  Any
    meaningful use of the column (indexing, iteration, ufuncs, array
    conversion) fails loudly instead of silently computing on garbage,
    which is what lets the projection tests prove that each analysis
    pass really only reads the columns it declares.
    """


class _MissingColumn:
    """Placeholder stored in an :class:`EventList` slot for a column
    that was not loaded.  Every access path a NumPy consumer can take
    funnels into :meth:`_fail`."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def _fail(self):
        raise ColumnNotLoadedError(
            f"column {self._name!r} was not loaded by this projection; "
            f"add it to the columns= argument of TraceIndex.load()"
        )

    def __getattr__(self, attr):
        if attr.startswith("__") and attr.endswith("__"):
            # Generic protocols (copy.deepcopy, pickle, hasattr probes)
            # look up optional dunders; answering those with
            # ColumnNotLoadedError breaks them with a misleading
            # message.  Only data access on the column should fail.
            raise AttributeError(attr)
        self._fail()

    def __len__(self):
        self._fail()

    def __getitem__(self, index):
        self._fail()

    def __iter__(self):
        self._fail()

    def __bool__(self):
        self._fail()

    def __array__(self, dtype=None, copy=None):
        self._fail()

    def __array_ufunc__(self, *args, **kwargs):
        self._fail()

    def __eq__(self, other):
        self._fail()

    def __ne__(self, other):
        self._fail()

    # Defining __eq__ would otherwise implicitly set __hash__ = None,
    # making placeholders unhashable (identity hashing is fine here).
    __hash__ = object.__hash__

    def __lt__(self, other):
        self._fail()

    def __le__(self, other):
        self._fail()

    def __gt__(self, other):
        self._fail()

    def __ge__(self, other):
        self._fail()

    def __repr__(self) -> str:
        return f"<column {self._name!r} not loaded>"


_FIELDS = ("time", "kind", "ref", "partner", "size", "tag", "value")
_DTYPES = {
    "time": np.float64,
    "kind": np.uint8,
    "ref": np.int32,
    "partner": np.int32,
    "size": np.int64,
    "tag": np.int32,
    "value": np.float64,
}


class EventList:
    """Immutable structure-of-arrays container for one event stream.

    All column arrays have equal length and are read-only.  Events are
    expected (and validated on construction) to be sorted by time with
    deterministic intra-timestamp ordering preserved from insertion.
    """

    __slots__ = ("time", "kind", "ref", "partner", "size", "tag", "value")

    def __init__(
        self,
        time: np.ndarray,
        kind: np.ndarray,
        ref: np.ndarray,
        partner: np.ndarray,
        size: np.ndarray,
        tag: np.ndarray,
        value: np.ndarray,
    ) -> None:
        arrays = (time, kind, ref, partner, size, tag, value)
        n = len(time)
        for name, arr in zip(_FIELDS, arrays):
            if len(arr) != n:
                raise ValueError(
                    f"column {name!r} has length {len(arr)}, expected {n}"
                )
        if n > 1 and np.any(np.diff(time) < 0):
            raise ValueError("event timestamps must be non-decreasing")
        self.time = np.ascontiguousarray(time, dtype=np.float64)
        self.kind = np.ascontiguousarray(kind, dtype=np.uint8)
        self.ref = np.ascontiguousarray(ref, dtype=np.int32)
        self.partner = np.ascontiguousarray(partner, dtype=np.int32)
        self.size = np.ascontiguousarray(size, dtype=np.int64)
        self.tag = np.ascontiguousarray(tag, dtype=np.int32)
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        for name in _FIELDS:
            getattr(self, name).setflags(write=False)

    # -- construction -------------------------------------------------

    @classmethod
    def empty(cls) -> "EventList":
        """Return an event list with zero events."""
        return cls(*(np.empty(0, dtype=_DTYPES[f]) for f in _FIELDS))

    @classmethod
    def from_events(cls, events: Sequence[Event]) -> "EventList":
        """Build from a sequence of :class:`Event` rows (test helper)."""
        builder = EventListBuilder()
        for ev in events:
            builder.append(
                ev.time, ev.kind, ev.ref, ev.partner, ev.size, ev.tag, ev.value
            )
        return builder.freeze()

    @classmethod
    def projected(cls, columns: dict[str, np.ndarray]) -> "EventList":
        """Build a partially-loaded event list.

        ``columns`` maps field names to arrays; ``time`` is mandatory
        (it defines the stream length and carries the ordering
        guarantee).  Supplied columns get the same validation,
        canonicalisation and read-only freeze as ``__init__``; missing
        columns are replaced by placeholders that raise
        :class:`ColumnNotLoadedError` on any use.
        """
        unknown = sorted(set(columns) - set(_FIELDS))
        if unknown:
            raise ValueError(f"unknown event columns: {', '.join(unknown)}")
        if "time" not in columns:
            raise ValueError("projected event lists always require 'time'")
        self = object.__new__(cls)
        time = np.ascontiguousarray(columns["time"], dtype=np.float64)
        n = len(time)
        if n > 1 and np.any(np.diff(time) < 0):
            raise ValueError("event timestamps must be non-decreasing")
        for name in _FIELDS:
            if name in columns:
                arr = np.ascontiguousarray(columns[name], dtype=_DTYPES[name])
                if len(arr) != n:
                    raise ValueError(
                        f"column {name!r} has length {len(arr)}, expected {n}"
                    )
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
            else:
                object.__setattr__(self, name, _MissingColumn(name))
        return self

    @property
    def loaded_columns(self) -> tuple[str, ...]:
        """Names of the columns that are actually materialised."""
        return tuple(
            f for f in _FIELDS
            if not isinstance(getattr(self, f), _MissingColumn)
        )

    # -- container protocol -------------------------------------------

    def __len__(self) -> int:
        return len(self.time)

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, index):
        if isinstance(index, slice):
            if index.step is None or index.step == 1:
                return self._contiguous_slice(index)
            loaded = self.loaded_columns
            if len(loaded) != len(_FIELDS):
                return EventList.projected(
                    {f: getattr(self, f)[index] for f in loaded}
                )
            return EventList(
                *(getattr(self, f)[index] for f in _FIELDS)
            )
        i = int(index)
        return Event(
            time=float(self.time[i]),
            kind=EventKind(int(self.kind[i])),
            ref=int(self.ref[i]),
            partner=int(self.partner[i]),
            size=int(self.size[i]),
            tag=int(self.tag[i]),
            value=float(self.value[i]),
        )

    def _contiguous_slice(self, index: slice) -> "EventList":
        """Unit-step slice without re-validation.

        A contiguous run of a validated, read-only list is itself
        time-ordered, canonically typed and read-only (NumPy views of a
        read-only array are read-only), so only the columns are sliced;
        missing-column placeholders are shared.
        """
        sliced = object.__new__(EventList)
        for name in _FIELDS:
            column = getattr(self, name)
            if not isinstance(column, _MissingColumn):
                column = column[index]
            object.__setattr__(sliced, name, column)
        return sliced

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventList):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in _FIELDS
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventList(n={len(self)})"

    # -- derived views -------------------------------------------------

    def select(self, mask: np.ndarray) -> "EventList":
        """Return a new list with only the rows where ``mask`` is true."""
        return EventList(*(getattr(self, f)[mask] for f in _FIELDS))

    def of_kind(self, kind: EventKind) -> "EventList":
        """Return only the events of the given kind."""
        return self.select(self.kind == np.uint8(kind))

    def time_window(self, start: float, stop: float) -> "EventList":
        """Return events with ``start <= time < stop`` (binary search)."""
        lo = int(np.searchsorted(self.time, start, side="left"))
        hi = int(np.searchsorted(self.time, stop, side="left"))
        return self[lo:hi]

    @property
    def duration(self) -> float:
        """Time span covered by the stream (0.0 when empty)."""
        if len(self) == 0:
            return 0.0
        return float(self.time[-1] - self.time[0])


class EventListBuilder:
    """Append-only accumulator that freezes into an :class:`EventList`.

    Uses plain Python lists during accumulation (amortised O(1) append)
    and converts to contiguous NumPy arrays exactly once in
    :meth:`freeze`, following the "allocate once, vectorise after"
    guidance for hot HPC paths.
    """

    __slots__ = ("_time", "_kind", "_ref", "_partner", "_size", "_tag", "_value")

    def __init__(self) -> None:
        self._time: list[float] = []
        self._kind: list[int] = []
        self._ref: list[int] = []
        self._partner: list[int] = []
        self._size: list[int] = []
        self._tag: list[int] = []
        self._value: list[float] = []

    def __len__(self) -> int:
        return len(self._time)

    @property
    def last_time(self) -> float | None:
        """Timestamp of the most recently appended event, if any."""
        return self._time[-1] if self._time else None

    def append(
        self,
        time: float,
        kind: EventKind,
        ref: int = NO_REF,
        partner: int = NO_PARTNER,
        size: int = 0,
        tag: int = 0,
        value: float = 0.0,
    ) -> None:
        """Append one event; timestamps must be non-decreasing."""
        if self._time and time < self._time[-1]:
            raise ValueError(
                f"non-monotonic timestamp {time} after {self._time[-1]}"
            )
        self._time.append(float(time))
        self._kind.append(int(kind))
        self._ref.append(int(ref))
        self._partner.append(int(partner))
        self._size.append(int(size))
        self._tag.append(int(tag))
        self._value.append(float(value))

    def enter(self, time: float, region: int) -> None:
        self.append(time, EventKind.ENTER, ref=region)

    def leave(self, time: float, region: int) -> None:
        self.append(time, EventKind.LEAVE, ref=region)

    def send(self, time: float, partner: int, size: int = 0, tag: int = 0) -> None:
        self.append(time, EventKind.SEND, partner=partner, size=size, tag=tag)

    def recv(self, time: float, partner: int, size: int = 0, tag: int = 0) -> None:
        self.append(time, EventKind.RECV, partner=partner, size=size, tag=tag)

    def metric(self, time: float, metric: int, value: float) -> None:
        self.append(time, EventKind.METRIC, ref=metric, value=value)

    def freeze(self) -> EventList:
        """Convert the accumulated events into an immutable list."""
        return EventList(
            np.asarray(self._time, dtype=np.float64),
            np.asarray(self._kind, dtype=np.uint8),
            np.asarray(self._ref, dtype=np.int32),
            np.asarray(self._partner, dtype=np.int32),
            np.asarray(self._size, dtype=np.int64),
            np.asarray(self._tag, dtype=np.int32),
            np.asarray(self._value, dtype=np.float64),
        )
