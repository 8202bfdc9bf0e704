"""Synchronization-oblivious segment time (SOS-time), paper Section V.

Plain segment durations hide *which* process causes an imbalance: the
fast processes absorb the difference as waiting time inside their
synchronization calls (Figure 3).  SOS-time therefore subtracts, from
every segment's inclusive duration, the time spent in synchronization
and communication operations inside that segment::

    SOS(segment) = inclusive(segment) - sum(inclusive(sync ops inside))

Only *top-level* synchronization frames are summed (a sync operation
nested inside another sync operation — e.g. ``MPI_Wait`` inside a
wrapper classified as sync — must not be counted twice).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .._record import record
from .classify import SyncClassifier, default_classifier
from .segments import RankSegments, Segmentation

if TYPE_CHECKING:
    from ..profiles.replay import InvocationTable
    from ..trace.trace import Trace

__all__ = [
    "RankSOS",
    "SOSResult",
    "compute_sos",
    "segment_sync_time",
    "top_level_sync_mask",
]


def _has_sync_ancestor(table: InvocationTable, frame_sync: np.ndarray) -> np.ndarray:
    """True for frames with a synchronization frame among their ancestors.

    Computed level by level: parents are at strictly smaller depth, so
    each level only reads already-finalised values (vectorised per
    depth, no Python-level recursion).
    """
    n = len(table)
    has = np.zeros(n, dtype=bool)
    if n == 0:
        return has
    parent = table.parent
    depth = table.depth
    for d in range(2, int(depth.max()) + 1):
        rows = np.flatnonzero(depth == d)
        if len(rows) == 0:
            continue
        p = parent[rows]
        has[rows] = frame_sync[p] | has[p]
    return has


def top_level_sync_mask(table: InvocationTable, sync_regions: np.ndarray) -> np.ndarray:
    """Mask of frames that are sync operations with no sync ancestor.

    Parameters
    ----------
    sync_regions:
        Boolean array over region ids from
        :meth:`repro.core.classify.SyncClassifier.mask`.
    """
    if len(table) == 0:
        return np.zeros(0, dtype=bool)
    frame_sync = sync_regions[table.region]
    return frame_sync & ~_has_sync_ancestor(table, frame_sync)


@record(frozen=True, slots=True)
class RankSOS:
    """SOS values for the segments of one process."""

    rank: int
    duration: np.ndarray  # plain segment durations (inclusive time)
    sync_time: np.ndarray  # subtracted synchronization time per segment
    sos: np.ndarray  # duration - sync_time

    def __len__(self) -> int:
        return len(self.sos)


class SOSResult:
    """SOS-times of all segments of a trace.

    Provides both per-rank access and dense matrix views (ranks ×
    segment index) used by the imbalance detectors and the heat-map
    visualization.
    """

    def __init__(
        self,
        segmentation: Segmentation,
        per_rank: dict[int, RankSOS],
        classifier: SyncClassifier,
    ) -> None:
        self.segmentation = segmentation
        self.per_rank = per_rank
        self.classifier = classifier

    @property
    def ranks(self) -> list[int]:
        return sorted(self.per_rank)

    def __getitem__(self, rank: int) -> RankSOS:
        return self.per_rank[rank]

    def __iter__(self):
        for rank in self.ranks:
            yield self.per_rank[rank]

    def _matrix_of(self, field: str) -> np.ndarray:
        ranks = self.ranks
        if not ranks:
            return np.empty((0, 0), dtype=np.float64)
        width = max(len(self.per_rank[r]) for r in ranks)
        out = np.full((len(ranks), width), np.nan, dtype=np.float64)
        for i, rank in enumerate(ranks):
            values = getattr(self.per_rank[rank], field)
            out[i, : len(values)] = values
        return out

    def matrix(self) -> np.ndarray:
        """SOS values as ``(ranks, max_segments)``, NaN padded."""
        return self._matrix_of("sos")

    def duration_matrix(self) -> np.ndarray:
        """Plain segment durations in the same layout as :meth:`matrix`."""
        return self._matrix_of("duration")

    def sync_matrix(self) -> np.ndarray:
        """Subtracted synchronization time in the same layout."""
        return self._matrix_of("sync_time")

    # -- aggregation ----------------------------------------------------

    def per_rank_total(self) -> np.ndarray:
        """Total SOS-time per rank (rank order)."""
        return np.asarray(
            [float(np.sum(self.per_rank[r].sos)) for r in self.ranks]
        )

    def flattened(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All segments as ``(rank, segment_index, sos)`` arrays."""
        ranks, indices, values = [], [], []
        for rank in self.ranks:
            sos = self.per_rank[rank].sos
            ranks.append(np.full(len(sos), rank, dtype=np.int64))
            indices.append(np.arange(len(sos), dtype=np.int64))
            values.append(sos)
        if not ranks:
            empty = np.empty(0)
            return empty.astype(np.int64), empty.astype(np.int64), empty
        return np.concatenate(ranks), np.concatenate(indices), np.concatenate(values)


def segment_sync_time(
    segments: RankSegments,
    table: InvocationTable,
    sync_regions: np.ndarray,
) -> np.ndarray:
    """Total top-level sync time inside each segment of one rank."""
    sync_time = np.zeros(len(segments), dtype=np.float64)
    if len(segments) == 0 or len(table) == 0:
        return sync_time
    top_sync = top_level_sync_mask(table, sync_regions)
    rows = np.flatnonzero(top_sync)
    if len(rows) == 0:
        return sync_time
    t_enter = table.t_enter[rows]
    t_leave = table.t_leave[rows]
    seg_idx = np.searchsorted(segments.t_start, t_enter, side="right") - 1
    valid = seg_idx >= 0
    inside = np.zeros_like(valid)
    inside[valid] = t_leave[valid] <= segments.t_stop[seg_idx[valid]]
    keep = valid & inside
    np.add.at(
        sync_time,
        seg_idx[keep],
        (t_leave - t_enter)[keep],
    )
    return sync_time


def compute_sos(
    trace: Trace,
    segmentation: Segmentation,
    tables: dict[int, InvocationTable],
    classifier: SyncClassifier | None = None,
) -> SOSResult:
    """Compute SOS-times for every segment of ``segmentation``.

    Parameters
    ----------
    trace:
        Needed for the region definitions the classifier consults.
    segmentation:
        Output of :func:`repro.core.segments.segment_trace`.
    tables:
        Invocation tables (reused from earlier pipeline stages).
    classifier:
        Synchronization classifier; defaults to the paper-faithful
        MPI/OpenMP policy.
    """
    if classifier is None:
        classifier = default_classifier()
    sync_regions = classifier.mask(trace)

    per_rank: dict[int, RankSOS] = {}
    for rank in segmentation.ranks:
        segments = segmentation[rank]
        duration = segments.duration
        sync_time = segment_sync_time(segments, tables[rank], sync_regions)
        per_rank[rank] = RankSOS(
            rank=rank, duration=duration, sync_time=sync_time, sos=duration - sync_time
        )
    return SOSResult(segmentation, per_rank, classifier)
