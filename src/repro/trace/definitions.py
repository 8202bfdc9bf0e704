"""Definition records shared by all event streams of a trace.

Modelled after the definition section of OTF2 traces written by Score-P:
*regions* (functions, loop bodies, MPI operations), *metrics* (hardware
or software counters) and *locations* (processing elements).  Analysis
passes refer to these by dense integer ids, which index directly into
NumPy lookup tables.
"""

from __future__ import annotations

import enum
from typing import Iterator

from .._record import record

__all__ = [
    "Paradigm",
    "RegionRole",
    "Region",
    "RegionRegistry",
    "MetricMode",
    "Metric",
    "MetricRegistry",
    "Location",
]


class Paradigm(enum.IntEnum):
    """Programming model a region belongs to."""

    USER = 0
    MPI = 1
    OPENMP = 2
    IO = 3
    MEASUREMENT = 4


class RegionRole(enum.IntEnum):
    """Semantic role of a region, used for synchronization classification.

    The SOS-time computation (paper Section V) subtracts the duration of
    synchronization and communication operations from segment durations.
    Roles make that classification explicit instead of relying purely on
    name prefixes.
    """

    COMPUTE = 0
    SYNCHRONIZATION = 1  # e.g. MPI_Barrier, MPI_Wait, omp barrier
    COMMUNICATION = 2  # e.g. MPI_Send, MPI_Alltoall
    FILE_IO = 3
    INITIALIZATION = 4
    LOOP = 5
    ARTIFICIAL = 6  # measurement overhead, trace gaps


#: MPI operation names with purely synchronizing semantics.
_MPI_SYNC_NAMES = frozenset(
    {
        "MPI_Barrier",
        "MPI_Wait",
        "MPI_Waitall",
        "MPI_Waitany",
        "MPI_Waitsome",
        "MPI_Test",
        "MPI_Testall",
        "MPI_Win_fence",
    }
)


def default_role(name: str, paradigm: Paradigm) -> RegionRole:
    """Infer a region role from its name and paradigm.

    Mirrors the paper's examples: ``MPI_Wait``/``MPI_Reduce``/``omp
    barrier`` count as synchronization or communication; everything in
    the USER paradigm defaults to compute.
    """
    if paradigm == Paradigm.MPI:
        if name in _MPI_SYNC_NAMES:
            return RegionRole.SYNCHRONIZATION
        return RegionRole.COMMUNICATION
    if paradigm == Paradigm.OPENMP:
        if "barrier" in name.lower() or "critical" in name.lower():
            return RegionRole.SYNCHRONIZATION
        return RegionRole.COMPUTE
    if paradigm == Paradigm.IO:
        return RegionRole.FILE_IO
    return RegionRole.COMPUTE


@record(frozen=True, slots=True)
class Region:
    """A named code region (function, loop body or runtime operation)."""

    id: int
    name: str
    paradigm: Paradigm = Paradigm.USER
    role: RegionRole = RegionRole.COMPUTE
    source_file: str = ""
    line: int = 0


@record(frozen=True, slots=True)
class Metric:
    """A counter definition (PAPI-style hardware or software metric)."""

    id: int
    name: str
    unit: str = "#"
    mode: "MetricMode" = None  # type: ignore[assignment]
    description: str = ""

    def __post_init__(self) -> None:
        if self.mode is None:
            object.__setattr__(self, "mode", MetricMode.ABSOLUTE)


class MetricMode(enum.IntEnum):
    """How consecutive metric samples relate to each other."""

    ABSOLUTE = 0  # each sample is an independent value
    ACCUMULATED = 1  # monotonically increasing counter (e.g. PAPI_TOT_CYC)
    RATE = 2  # value is already a per-second rate


@record(frozen=True, slots=True)
class Location:
    """A processing element producing one event stream (an MPI rank)."""

    id: int
    name: str
    group: str = "MPI"


class RegionRegistry:
    """Dense id ↔ :class:`Region` mapping with name lookup.

    Region ids are assigned densely in registration order so analysis
    code can use them as array indices (e.g. per-region accumulators).
    """

    def __init__(self) -> None:
        self._regions: list[Region] = []
        self._by_name: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions)

    def __getitem__(self, region_id: int) -> Region:
        return self._regions[region_id]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def register(
        self,
        name: str,
        paradigm: Paradigm = Paradigm.USER,
        role: RegionRole | None = None,
        source_file: str = "",
        line: int = 0,
    ) -> int:
        """Register a region (idempotent by name) and return its id.

        Re-registering an existing name returns the existing id; the
        original attributes win, mirroring Score-P's first-writer
        semantics for definition records.
        """
        existing = self._by_name.get(name)
        if existing is not None:
            return existing
        if role is None:
            role = default_role(name, paradigm)
        region = Region(
            id=len(self._regions),
            name=name,
            paradigm=paradigm,
            role=role,
            source_file=source_file,
            line=line,
        )
        self._regions.append(region)
        self._by_name[name] = region.id
        return region.id

    def add(self, region: Region) -> None:
        """Insert a fully-specified region; the id must be the next id."""
        if region.id != len(self._regions):
            raise ValueError(
                f"region id {region.id} out of order; expected {len(self._regions)}"
            )
        if region.name in self._by_name:
            raise ValueError(f"duplicate region name {region.name!r}")
        self._regions.append(region)
        self._by_name[region.name] = region.id

    def id_of(self, name: str) -> int:
        """Return the id of the region with the given name (KeyError if absent)."""
        return self._by_name[name]

    def get(self, name: str) -> Region | None:
        idx = self._by_name.get(name)
        return self._regions[idx] if idx is not None else None

    def names(self) -> list[str]:
        return [r.name for r in self._regions]


class MetricRegistry:
    """Dense id ↔ :class:`Metric` mapping with name lookup."""

    def __init__(self) -> None:
        self._metrics: list[Metric] = []
        self._by_name: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics)

    def __getitem__(self, metric_id: int) -> Metric:
        return self._metrics[metric_id]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def register(
        self,
        name: str,
        unit: str = "#",
        mode: MetricMode = MetricMode.ABSOLUTE,
        description: str = "",
    ) -> int:
        """Register a metric (idempotent by name) and return its id."""
        existing = self._by_name.get(name)
        if existing is not None:
            return existing
        metric = Metric(
            id=len(self._metrics),
            name=name,
            unit=unit,
            mode=mode,
            description=description,
        )
        self._metrics.append(metric)
        self._by_name[name] = metric.id
        return metric.id

    def add(self, metric: Metric) -> None:
        """Insert a fully-specified metric; the id must be the next id."""
        if metric.id != len(self._metrics):
            raise ValueError(
                f"metric id {metric.id} out of order; expected {len(self._metrics)}"
            )
        if metric.name in self._by_name:
            raise ValueError(f"duplicate metric name {metric.name!r}")
        self._metrics.append(metric)
        self._by_name[metric.name] = metric.id

    def id_of(self, name: str) -> int:
        return self._by_name[name]

    def get(self, name: str) -> Metric | None:
        idx = self._by_name.get(name)
        return self._metrics[idx] if idx is not None else None

    def names(self) -> list[str]:
        return [m.name for m in self._metrics]
