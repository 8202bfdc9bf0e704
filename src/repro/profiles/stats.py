"""Per-function aggregated statistics (flat profile).

This is the data a classical profiler (TAU, HPCToolkit) reports and the
input to the dominant-function heuristic of the paper's Section IV:
aggregated inclusive time and invocation counts per function, across
all processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .._record import record

if TYPE_CHECKING:
    from ..trace.trace import Trace
    from .replay import InvocationTable

__all__ = [
    "RegionStats",
    "FunctionStatistics",
    "compute_statistics",
    "rank_statistics_arrays",
    "batch_statistics_arrays",
    "merge_statistics_arrays",
]


@record(frozen=True, slots=True)
class RegionStats:
    """Aggregated timings of one region across the whole run.

    ``inclusive_sum`` counts *outermost* invocations only, so recursive
    functions are not double-counted; ``count`` counts every invocation
    (that is what the paper's ``>= 2p`` criterion refers to).
    """

    region: int
    name: str
    count: int
    inclusive_sum: float
    exclusive_sum: float
    inclusive_min: float
    inclusive_max: float

    @property
    def inclusive_mean(self) -> float:
        return self.inclusive_sum / self.count if self.count else 0.0


#: Column arrays carried by one per-rank statistics partial.
_STAT_COLUMNS = (
    "count",
    "inclusive_sum",
    "exclusive_sum",
    "inclusive_min",
    "inclusive_max",
)


def _empty_statistics_arrays(n_regions: int) -> dict[str, np.ndarray]:
    return {
        "count": np.zeros(n_regions, dtype=np.int64),
        "inclusive_sum": np.zeros(n_regions, dtype=np.float64),
        "exclusive_sum": np.zeros(n_regions, dtype=np.float64),
        "inclusive_min": np.full(n_regions, np.inf, dtype=np.float64),
        "inclusive_max": np.full(n_regions, -np.inf, dtype=np.float64),
    }


def batch_statistics_arrays(
    table: InvocationTable, frame_starts, n_regions: int
) -> list[dict[str, np.ndarray]]:
    """Per-region statistics of each rank of a batch.

    ``table`` holds the rows of several ranks back to back, rank
    ``i`` owning rows ``frame_starts[i]:frame_starts[i + 1]``.  Every
    column accumulates over one (rank, region) key in row order, so
    each rank's partial is bitwise identical to
    :func:`rank_statistics_arrays` of its own table.
    """
    frame_starts = np.asarray(frame_starts, dtype=np.int64)
    n_ranks = len(frame_starts) - 1
    flat = _empty_statistics_arrays(n_ranks * n_regions)
    region = table.region
    if len(region):
        lo, hi = int(region.min()), int(region.max())
        if lo < -n_regions or hi >= n_regions:
            raise IndexError(
                f"region id {lo if lo < -n_regions else hi} out of range "
                f"for {n_regions} regions"
            )
        if lo < 0:  # negative ids count from the end, as in NumPy
            region = np.where(region < 0, region + n_regions, region)
        key = region.astype(np.int64)
        if n_ranks > 1:
            key += np.repeat(
                np.arange(n_ranks, dtype=np.int64) * n_regions,
                np.diff(frame_starts),
            )
        flat["count"] = np.bincount(key, minlength=n_ranks * n_regions)
        outer = table.outermost
        np.add.at(flat["inclusive_sum"], key[outer], table.inclusive[outer])
        np.add.at(flat["exclusive_sum"], key, table.exclusive)
        np.minimum.at(flat["inclusive_min"], key, table.inclusive)
        np.maximum.at(flat["inclusive_max"], key, table.inclusive)
    rows = zip(*[col.reshape(n_ranks, n_regions) for col in flat.values()])
    return [dict(zip(flat, row)) for row in rows]


def rank_statistics_arrays(
    table: InvocationTable, n_regions: int
) -> dict[str, np.ndarray]:
    """Per-region statistics contributed by one rank's invocation table.

    This is the *unit of merging* for distributed/sharded profiling:
    the full-trace statistics are defined as the rank-order merge of
    these per-rank partials (see :func:`merge_statistics_arrays`), so
    any process that holds only some ranks can compute its partials
    independently and the combined result is bit-identical no matter
    how ranks were grouped into shards.  It is the one-rank case of
    :func:`batch_statistics_arrays`.
    """
    return batch_statistics_arrays(table, (0, len(table)), n_regions)[0]


def merge_statistics_arrays(
    partials: "list[dict[str, np.ndarray]]", n_regions: int
) -> dict[str, np.ndarray]:
    """Merge statistics partials **in the given order**.

    Counts and time sums accumulate; min/max reduce element-wise.  The
    float sums make this order-sensitive at the last ulp, so callers
    that need exact reproducibility (the sharded engine, and
    :class:`FunctionStatistics` itself) always merge per-rank partials
    in ascending rank order — which is what makes shard-then-merge
    bitwise identical to the single-process computation.
    """
    acc = _empty_statistics_arrays(n_regions)
    for partial in partials:
        acc["count"] += partial["count"]
        acc["inclusive_sum"] += partial["inclusive_sum"]
        acc["exclusive_sum"] += partial["exclusive_sum"]
        np.minimum(acc["inclusive_min"], partial["inclusive_min"],
                   out=acc["inclusive_min"])
        np.maximum(acc["inclusive_max"], partial["inclusive_max"],
                   out=acc["inclusive_max"])
    return acc


class FunctionStatistics:
    """Column-oriented per-region statistics for one trace.

    Attributes (all NumPy arrays indexed by region id):

    * ``count`` — total invocation count across all processes.
    * ``inclusive_sum`` — aggregated inclusive time (outermost frames).
    * ``exclusive_sum`` — aggregated exclusive time (all frames).
    * ``inclusive_min`` / ``inclusive_max`` — extreme single-invocation
      inclusive durations (+inf/-inf for never-invoked regions).
    """

    def __init__(self, trace: Trace, tables: dict[int, InvocationTable]) -> None:
        n_regions = len(trace.regions)
        self._trace = trace
        merged = merge_statistics_arrays(
            [
                rank_statistics_arrays(tables[rank], n_regions)
                for rank in sorted(tables)
            ],
            n_regions,
        )
        for name in _STAT_COLUMNS:
            setattr(self, name, merged[name])

    _COLUMNS = _STAT_COLUMNS

    @classmethod
    def from_partials(
        cls, trace: Trace, partials: dict[int, dict[str, np.ndarray]]
    ) -> "FunctionStatistics":
        """Build full-trace statistics from per-rank partials.

        ``partials`` maps rank → :func:`rank_statistics_arrays` output;
        they are merged in ascending rank order, so the result is
        bit-identical to ``FunctionStatistics(trace, tables)`` over the
        same ranks regardless of how the partials were produced or
        grouped (the sharded engine relies on this).
        """
        n_regions = len(trace.regions)
        for rank, partial in partials.items():
            if len(partial["count"]) != n_regions:
                raise ValueError(
                    f"rank {rank} partial covers {len(partial['count'])} "
                    f"regions, trace defines {n_regions}"
                )
        merged = merge_statistics_arrays(
            [partials[rank] for rank in sorted(partials)], n_regions
        )
        self = object.__new__(cls)
        self._trace = trace
        for name in _STAT_COLUMNS:
            setattr(self, name, merged[name])
        return self

    @classmethod
    def from_arrays(
        cls, trace: Trace, arrays: dict[str, np.ndarray]
    ) -> "FunctionStatistics":
        """Rebuild statistics from previously exported column arrays.

        Used by the artifact cache (:mod:`repro.core.session`) to
        restore a profile without touching the invocation tables.
        """
        self = object.__new__(cls)
        self._trace = trace
        for name in cls._COLUMNS:
            setattr(self, name, np.asarray(arrays[name]))
        if len(self.count) != len(trace.regions):
            raise ValueError(
                f"statistics cover {len(self.count)} regions, trace defines "
                f"{len(trace.regions)}"
            )
        return self

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Column arrays for :meth:`from_arrays` (cache serialisation)."""
        return {name: getattr(self, name) for name in self._COLUMNS}

    @property
    def num_regions(self) -> int:
        return len(self.count)

    def of(self, region: int | str) -> RegionStats:
        """Statistics row for one region (by id or name)."""
        if isinstance(region, str):
            region = self._trace.regions.id_of(region)
        return RegionStats(
            region=region,
            name=self._trace.regions[region].name,
            count=int(self.count[region]),
            inclusive_sum=float(self.inclusive_sum[region]),
            exclusive_sum=float(self.exclusive_sum[region]),
            inclusive_min=float(self.inclusive_min[region]),
            inclusive_max=float(self.inclusive_max[region]),
        )

    def rows(self) -> list[RegionStats]:
        """All invoked regions, sorted by descending inclusive time."""
        order = np.argsort(-self.inclusive_sum, kind="stable")
        return [self.of(int(r)) for r in order if self.count[r] > 0]

    def top_exclusive(self, k: int = 10) -> list[RegionStats]:
        """The ``k`` regions with the largest aggregated exclusive time."""
        order = np.argsort(-self.exclusive_sum, kind="stable")
        out = [self.of(int(r)) for r in order if self.count[r] > 0]
        return out[:k]


def compute_statistics(
    trace: Trace, tables: dict[int, InvocationTable]
) -> FunctionStatistics:
    """Aggregate per-function statistics for ``trace`` from its
    invocation ``tables`` (a session's, or
    :func:`~repro.profiles.replay.replay_trace`'s)."""
    return FunctionStatistics(trace, tables)
