"""Segmentation of a run by dominant-function invocations.

Each (outermost) invocation of the dominant function becomes one
*segment*; the segment's duration is the invocation's inclusive time
(paper, footnote 1).  Segments of one process are disjoint in time and
stored as a structure-of-arrays for vectorised SOS accumulation and
heat-map binning.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .._record import record

if TYPE_CHECKING:
    from ..profiles.replay import InvocationTable

__all__ = ["RankSegments", "Segmentation", "segment_rank", "segment_trace"]


@record(frozen=True, slots=True)
class RankSegments:
    """Segments of one process, ordered by start time."""

    rank: int
    t_start: np.ndarray  # enter timestamps of the dominant invocations
    t_stop: np.ndarray  # leave timestamps
    #: Row indices into the rank's InvocationTable (for drill-down).
    invocation_row: np.ndarray

    def __len__(self) -> int:
        return len(self.t_start)

    @property
    def duration(self) -> np.ndarray:
        """Segment durations (= inclusive time of the invocation)."""
        return self.t_stop - self.t_start

    def covering(self, t: float) -> int:
        """Index of the segment containing time ``t``, or -1."""
        i = int(np.searchsorted(self.t_start, t, side="right")) - 1
        if i >= 0 and t < self.t_stop[i]:
            return i
        return -1


class Segmentation:
    """Per-rank segment tables for one dominant function.

    Attributes
    ----------
    region:
        Region id of the segmenting (dominant) function.
    per_rank:
        ``rank -> RankSegments`` mapping.
    """

    def __init__(self, region: int, per_rank: dict[int, RankSegments]) -> None:
        self.region = region
        self.per_rank = per_rank

    @property
    def ranks(self) -> list[int]:
        return sorted(self.per_rank)

    def __getitem__(self, rank: int) -> RankSegments:
        return self.per_rank[rank]

    def __iter__(self):
        for rank in self.ranks:
            yield self.per_rank[rank]

    @property
    def total_segments(self) -> int:
        return sum(len(s) for s in self.per_rank.values())

    def counts(self) -> np.ndarray:
        """Number of segments per rank (rank order)."""
        return np.asarray([len(self.per_rank[r]) for r in self.ranks], dtype=np.int64)

    def durations_matrix(self) -> np.ndarray:
        """Segment durations as a dense ``(ranks, max_segments)`` matrix.

        Processes usually have equal segment counts (SPMD); ranks with
        fewer segments are padded with NaN.
        """
        counts = self.counts()
        if len(counts) == 0:
            return np.empty((0, 0), dtype=np.float64)
        width = int(counts.max())
        out = np.full((len(counts), width), np.nan, dtype=np.float64)
        for i, rank in enumerate(self.ranks):
            seg = self.per_rank[rank]
            out[i, : len(seg)] = seg.duration
        return out

    @property
    def t_min(self) -> float:
        starts = [s.t_start[0] for s in self.per_rank.values() if len(s)]
        return float(min(starts)) if starts else 0.0

    @property
    def t_max(self) -> float:
        stops = [s.t_stop[-1] for s in self.per_rank.values() if len(s)]
        return float(max(stops)) if stops else 0.0


def segment_rank(table: InvocationTable, rank: int, region: int) -> RankSegments:
    """Segments of one rank: the outermost ``region`` invocations
    (:func:`segment_trace`'s per-rank kernel)."""
    mask = (table.region == region) & table.outermost
    rows = np.flatnonzero(mask)
    t_start = table.t_enter[rows]
    if len(t_start) > 1 and np.any(np.diff(t_start) < 0):
        # Replay emits tables in enter order, making this argsort the
        # identity; only a table built in another order pays for it.
        order = np.argsort(t_start, kind="stable")
        rows = rows[order]
    return RankSegments(
        rank=rank,
        t_start=table.t_enter[rows],
        t_stop=table.t_leave[rows],
        invocation_row=rows.astype(np.int64),
    )


def segment_trace(
    tables: dict[int, InvocationTable], region: int
) -> Segmentation:
    """Build the segmentation for ``region`` from invocation tables.

    Only *outermost* invocations are used, so a recursive dominant
    function still yields disjoint segments.
    """
    per_rank = {
        rank: segment_rank(table, rank, region)
        for rank, table in tables.items()
    }
    return Segmentation(region, per_rank)
