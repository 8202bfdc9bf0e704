"""Programmatic construction of well-formed traces.

:class:`TraceBuilder` is the writing counterpart of :class:`Trace`: it
owns the definition registries and one stack-checked recorder
(:class:`ProcessBuilder`) per location.  Each recorder appends straight
into preallocated NumPy column buffers with the canonical ``.rpt``
dtypes and default values prefilled, so an ENTER costs two array stores
and freezing is a slice — no per-event Python objects are built.  A
location can instead hand over fully computed columns at once
(:meth:`TraceBuilder.adopt`, used by the simulator's vectorised fast
path), and :meth:`TraceBuilder.write` serialises the buffers straight
to ``.rpt`` without building a :class:`Trace`.

It is the one recorder behind the measurement layer, the simulator, the
``--self-trace`` export, the toy traces from the paper's figures and
the tests.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from .definitions import (
    Location,
    MetricMode,
    MetricRegistry,
    Paradigm,
    RegionRegistry,
    RegionRole,
)
from .events import EventKind, EventList
from .trace import Trace

__all__ = ["TraceBuilder", "ProcessBuilder"]

_LEAVE = int(EventKind.LEAVE)
_SEND = int(EventKind.SEND)
_RECV = int(EventKind.RECV)
_METRIC = int(EventKind.METRIC)

#: Canonical column order, matching ``repro.trace.events._FIELDS``.
_COLUMNS = ("time", "kind", "ref", "partner", "size", "tag", "value")


class ProcessBuilder:
    """Stack-checked event writer for a single location.

    Guarantees that the produced stream is well-formed: timestamps are
    non-decreasing and every ``leave`` matches the region on top of the
    call stack.  Buffers are prefilled with the column defaults
    (``kind=ENTER``, ``ref=-1``, ``partner=-1``, zeros elsewhere) so
    each event only stores the fields its kind carries; they double
    when full.
    """

    __slots__ = (
        "location",
        "_tb",
        "_n",
        "_cap",
        "_last",
        "_stack",
        "_time",
        "_kind",
        "_ref",
        "_partner",
        "_size",
        "_tag",
        "_value",
    )

    def __init__(self, builder: "TraceBuilder", location: Location) -> None:
        self._tb = builder
        self.location = location
        self._n = 0
        self._stack: list[int] = []
        self._last = float("-inf")
        self._alloc(32)

    def _alloc(self, cap: int) -> None:
        self._cap = cap
        self._time = np.empty(cap, dtype=np.float64)
        self._kind = np.zeros(cap, dtype=np.uint8)  # default ENTER
        self._ref = np.full(cap, -1, dtype=np.int32)
        self._partner = np.full(cap, -1, dtype=np.int32)
        self._size = np.zeros(cap, dtype=np.int64)
        self._tag = np.zeros(cap, dtype=np.int32)
        self._value = np.zeros(cap, dtype=np.float64)

    def _grow(self) -> None:
        n, old = self._n, self.columns()
        self._alloc(self._cap * 2)
        for name, arr in old.items():
            getattr(self, f"_{name}")[:n] = arr

    # -- stack state ----------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def depth(self) -> int:
        """Current call-stack depth."""
        return len(self._stack)

    @property
    def current_region(self) -> int | None:
        """Region id on top of the stack, or ``None`` at top level."""
        return self._stack[-1] if self._stack else None

    @property
    def now(self) -> float | None:
        """Timestamp of the last recorded event."""
        return self._last if self._n else None

    # -- event writing --------------------------------------------------

    def _row(self, time: float) -> int:
        if time < self._last:
            raise ValueError(
                f"non-monotonic timestamp {time} after {self._last}"
            )
        self._last = time
        n = self._n
        if n == self._cap:
            self._grow()
        self._n = n + 1
        self._time[n] = time
        return n

    def enter(self, time: float, region: int | str) -> int:
        """Record entering a region (by id or by name) and return its id."""
        region_id = self._resolve(region)
        n = self._row(time)
        # kind buffer is prefilled with ENTER
        self._ref[n] = region_id
        self._stack.append(region_id)
        return region_id

    def leave(self, time: float, region: int | str | None = None) -> int:
        """Record leaving the current region.

        If ``region`` is given it must match the top of the stack; this
        catches interleaved enter/leave bugs in workload generators.
        """
        if not self._stack:
            raise ValueError(
                f"leave at t={time} on {self.location.name}: stack is empty"
            )
        top = self._stack[-1]
        if region is not None:
            region_id = self._resolve(region)
            if region_id != top:
                raise ValueError(
                    f"leave({self._region_name(region_id)!r}) at t={time} does not "
                    f"match open region {self._region_name(top)!r}"
                )
        self._stack.pop()
        n = self._row(time)
        self._kind[n] = _LEAVE
        self._ref[n] = top
        return top

    def call(self, t_enter: float, t_leave: float, region: int | str) -> None:
        """Record a complete leaf invocation (enter + leave)."""
        if t_leave < t_enter:
            raise ValueError(f"negative duration: [{t_enter}, {t_leave}]")
        self.enter(t_enter, region)
        self.leave(t_leave)

    def send(self, time: float, partner: int, size: int = 0, tag: int = 0) -> None:
        n = self._row(time)
        self._kind[n] = _SEND
        self._partner[n] = partner
        self._size[n] = size
        self._tag[n] = tag

    def recv(self, time: float, partner: int, size: int = 0, tag: int = 0) -> None:
        n = self._row(time)
        self._kind[n] = _RECV
        self._partner[n] = partner
        self._size[n] = size
        self._tag[n] = tag

    def metric(self, time: float, metric: int | str, value: float) -> None:
        """Record a metric sample (metric by id or by name)."""
        if isinstance(metric, str):
            metric = self._tb.metrics.id_of(metric)
        n = self._row(time)
        self._kind[n] = _METRIC
        self._ref[n] = metric
        self._value[n] = value

    # -- helpers --------------------------------------------------------

    def _resolve(self, region: int | str) -> int:
        if isinstance(region, str):
            return self._tb.regions.id_of(region)
        return int(region)

    def _region_name(self, region_id: int) -> str:
        return self._tb.regions[region_id].name

    def finish(self) -> None:
        """Assert the call stack unwound completely."""
        if self._stack:
            open_names = [self._region_name(r) for r in self._stack]
            raise ValueError(
                f"{self.location.name}: unclosed regions at end of trace: "
                f"{open_names}"
            )

    def columns(self) -> dict[str, np.ndarray]:
        """Trimmed views of the column buffers (no copies)."""
        n = self._n
        return {name: getattr(self, f"_{name}")[:n] for name in _COLUMNS}


class TraceBuilder:
    """Build a complete :class:`Trace` with shared definitions.

    Example
    -------
    >>> tb = TraceBuilder(name="toy")
    >>> tb.region("main"); tb.region("MPI_Barrier", paradigm=Paradigm.MPI)
    0
    1
    >>> p0 = tb.process(0)
    >>> p0.enter(0.0, "main"); p0.leave(1.0)
    0
    0
    >>> trace = tb.freeze()
    """

    def __init__(
        self,
        name: str = "trace",
        attributes: Mapping[str, str] | None = None,
    ) -> None:
        self.name = name
        self.attributes = dict(attributes or {})
        self.regions = RegionRegistry()
        self.metrics = MetricRegistry()
        self._processes: dict[int, ProcessBuilder] = {}
        self._adopted: dict[int, tuple[Location, dict[str, np.ndarray]]] = {}

    # -- definitions ------------------------------------------------------

    def region(
        self,
        name: str,
        paradigm: Paradigm = Paradigm.USER,
        role: RegionRole | None = None,
        source_file: str = "",
        line: int = 0,
    ) -> int:
        """Register a region definition and return its id."""
        return self.regions.register(
            name, paradigm=paradigm, role=role, source_file=source_file, line=line
        )

    def metric(
        self,
        name: str,
        unit: str = "#",
        mode: MetricMode = MetricMode.ABSOLUTE,
        description: str = "",
    ) -> int:
        """Register a metric definition and return its id."""
        return self.metrics.register(
            name, unit=unit, mode=mode, description=description
        )

    # -- processes ----------------------------------------------------------

    def process(self, rank: int, name: str | None = None, group: str = "MPI") -> ProcessBuilder:
        """Return the (lazily created) recorder for one location."""
        pb = self._processes.get(rank)
        if pb is None:
            location = Location(id=rank, name=name or f"Process {rank}", group=group)
            pb = ProcessBuilder(self, location)
            self._processes[rank] = pb
        return pb

    def adopt(
        self, rank: int, name: str, columns: dict[str, np.ndarray]
    ) -> None:
        """Install precomputed, well-formed column arrays for one location."""
        self._adopted[rank] = (Location(id=rank, name=name, group="MPI"), columns)

    @property
    def num_processes(self) -> int:
        return len(self._processes.keys() | self._adopted.keys())

    @property
    def num_events(self) -> int:
        return sum(len(pb) for pb in self._processes.values()) + sum(
            len(cols["time"]) for _, cols in self._adopted.values()
        )

    def _locations(
        self, check_stacks: bool = False
    ) -> Iterator[tuple[Location, dict[str, np.ndarray]]]:
        """Per-location ``(location, columns)`` in ascending rank order."""
        for rank in sorted(self._processes.keys() | self._adopted.keys()):
            pb = self._processes.get(rank)
            if pb is None:
                yield self._adopted[rank]
                continue
            if check_stacks:
                pb.finish()
            yield pb.location, pb.columns()

    # -- finalisation ----------------------------------------------------------

    def freeze(self, check_stacks: bool = True) -> Trace:
        """Produce the immutable :class:`Trace`.

        Parameters
        ----------
        check_stacks:
            When true (default), raise if any recorded process has
            unclosed regions; disable only for deliberately truncated
            traces.
        """
        trace = Trace(
            regions=self.regions,
            metrics=self.metrics,
            name=self.name,
            attributes=self.attributes,
        )
        for location, cols in self._locations(check_stacks):
            trace.add_process(location, EventList(*(cols[c] for c in _COLUMNS)))
        return trace

    def write(
        self,
        path,
        *,
        version: int | None = None,
        codec=None,
        compresslevel: int = 6,
    ) -> int:
        """Serialise the buffers straight to ``.rpt``; returns file bytes.

        Column buffers become codec blobs without building a
        :class:`Trace` or any :class:`EventList` in between; the bytes
        equal :func:`~repro.trace.binio.write_binary` of :meth:`freeze`.
        """
        from .binio import BIN_VERSION, write_binary_arrays

        return write_binary_arrays(
            path,
            name=self.name,
            attributes=self.attributes,
            regions=self.regions,
            metrics=self.metrics,
            locations=(
                (location, len(cols["time"]), cols)
                for location, cols in self._locations()
            ),
            version=BIN_VERSION if version is None else version,
            codec=codec,
            compresslevel=compresslevel,
        )
