"""Top-level trace container.

A :class:`Trace` bundles the shared definition records (regions,
metrics, locations) with one :class:`~repro.trace.events.EventList` per
location.  It corresponds to one measured application run, i.e. one
OTF2 archive in the Score-P world.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from .._record import record
from .definitions import Location, MetricRegistry, Paradigm, RegionRegistry

if TYPE_CHECKING:
    from .events import EventList

__all__ = ["Trace", "ProcessTrace", "time_extent"]


def time_extent(extents) -> tuple[float, float]:
    """``(t_min, t_max)`` over per-rank ``(n_events, t_first, t_last)``
    extents: what :attr:`Trace.t_min` and :attr:`Trace.t_max` report
    for the same streams, ``(0.0, 0.0)`` when all are empty."""
    if not extents:
        return 0.0, 0.0
    return (
        min(lo for _, lo, _ in extents.values()),
        max(hi for _, _, hi in extents.values()),
    )


@record(slots=True)
class ProcessTrace:
    """Event stream of a single processing element."""

    location: Location
    events: EventList

    @property
    def rank(self) -> int:
        return self.location.id

    def __len__(self) -> int:
        return len(self.events)


class Trace:
    """A complete program trace of a parallel application run.

    Parameters
    ----------
    regions, metrics:
        Shared definition registries.
    name:
        Human-readable name of the run (shown in visualizations).
    attributes:
        Free-form run metadata (command line, machine, ...).
    """

    def __init__(
        self,
        regions: RegionRegistry | None = None,
        metrics: MetricRegistry | None = None,
        name: str = "trace",
        attributes: Mapping[str, str] | None = None,
    ) -> None:
        self.regions = regions if regions is not None else RegionRegistry()
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.name = name
        self.attributes: dict[str, str] = dict(attributes or {})
        self._processes: dict[int, ProcessTrace] = {}

    # -- population ----------------------------------------------------

    def add_process(self, location: Location, events: EventList) -> None:
        """Attach the event stream for one location."""
        if location.id in self._processes:
            raise ValueError(f"duplicate location id {location.id}")
        self._processes[location.id] = ProcessTrace(location, events)

    # -- access ----------------------------------------------------------

    @property
    def num_processes(self) -> int:
        return len(self._processes)

    @property
    def ranks(self) -> list[int]:
        """Sorted list of location ids present in the trace."""
        return sorted(self._processes)

    def process(self, rank: int) -> ProcessTrace:
        return self._processes[rank]

    def events_of(self, rank: int) -> EventList:
        return self._processes[rank].events

    def event_counts(self) -> dict[int, int]:
        """``rank -> number of events`` of every process."""
        return {rank: len(self._processes[rank].events) for rank in self.ranks}

    def event_streams(
        self,
        ranks: Sequence[int] | None = None,
        columns: Sequence[str] | None = None,
    ) -> Iterator[tuple[int, EventList]]:
        """``(rank, events)`` of every one of ``ranks`` (default: all)
        in rank order, each once and whole: the fused kernel's input.
        ``columns`` names the event columns the caller reads: a trace
        that decodes its streams on demand may load only those
        (``None``: all)."""
        for rank in self.ranks if ranks is None else ranks:
            yield rank, self._processes[rank].events

    def locations(self) -> list[Location]:
        """Location of every process, in rank order."""
        return [self._processes[rank].location for rank in self.ranks]

    def processes(self) -> Iterator[ProcessTrace]:
        """Iterate process traces in rank order."""
        for rank in self.ranks:
            yield self._processes[rank]

    def __iter__(self) -> Iterator[ProcessTrace]:
        return self.processes()

    def __len__(self) -> int:
        return len(self._processes)

    @property
    def num_events(self) -> int:
        """Total number of events across all processes."""
        return sum(len(p.events) for p in self._processes.values())

    # -- time extent -----------------------------------------------------

    @property
    def t_min(self) -> float:
        """Earliest event timestamp in the trace (0.0 if empty)."""
        times = [p.events.time[0] for p in self._processes.values() if len(p.events)]
        return float(min(times)) if times else 0.0

    @property
    def t_max(self) -> float:
        """Latest event timestamp in the trace (0.0 if empty)."""
        times = [p.events.time[-1] for p in self._processes.values() if len(p.events)]
        return float(max(times)) if times else 0.0

    @property
    def duration(self) -> float:
        return self.t_max - self.t_min

    # -- convenience queries ----------------------------------------------

    def region_ids_matching(self, predicate) -> np.ndarray:
        """Return the ids of all regions for which ``predicate(region)``."""
        return np.asarray(
            [r.id for r in self.regions if predicate(r)], dtype=np.int32
        )

    def mpi_region_ids(self) -> np.ndarray:
        """Ids of all regions in the MPI paradigm."""
        return self.region_ids_matching(lambda r: r.paradigm == Paradigm.MPI)

    def summary(self) -> dict[str, object]:
        """Small human-oriented summary of the trace contents."""
        return {
            "name": self.name,
            "processes": self.num_processes,
            "events": self.num_events,
            "regions": len(self.regions),
            "metrics": len(self.metrics),
            "t_min": self.t_min,
            "t_max": self.t_max,
            "duration": self.duration,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(name={self.name!r}, processes={self.num_processes}, "
            f"events={self.num_events})"
        )
