"""Streaming (in-situ) performance-variation analysis.

The paper notes that "in-situ analysis while the target application is
still running is feasible as well, but the performance analysis suite
that we use for our prototype does not support such a workflow"
(Section III).  This module implements that workflow: events are fed
incrementally per process, segments complete online, SOS-times are
computed on the fly, and anomalous invocations raise alerts while the
run is still in flight.

Protocol
--------

1. Create a :class:`StreamingAnalyzer` (optionally pinning the dominant
   function up front — e.g. from a previous run's analysis).
2. ``feed(rank, events)`` with time-ordered event chunks per rank —
   or :meth:`StreamingAnalyzer.consume` an
   :class:`~repro.trace.cursor.EventCursor` (a file being tailed, a
   pipe, an in-process feed) and let the analyzer pull.
   During the warm-up phase the analyzer only collects running
   per-function statistics; once ``warmup_invocations`` complete
   invocations have been seen (or :meth:`select_now` is called), it
   picks the dominant function with the paper's criterion and starts
   segmenting *from that point on*.
3. Completed segments are appended to per-rank series; each completed
   segment is tested against the rank's recent history (median/MAD
   over a sliding window) and materially slow ones become
   :class:`StreamAlert` records immediately.

Bounded memory: with ``history_limit`` set, only that many completed
segments are retained per rank (evictions are counted in the
``stream.window_evictions`` telemetry counter); running totals — and
therefore :meth:`StreamingAnalyzer.snapshot_hot_ranks` — are unaffected
by eviction because they accumulate at segment completion.

Batch equivalence: fed a complete trace after pinning the dominant
function, the streamed SOS values equal
:func:`repro.core.sos.compute_sos` exactly (tested), and results are
bitwise independent of how the stream is chunked.  Two processors
share the per-rank state: a per-event state machine over plain Python
scalars (warm-up, selection in the middle of a chunk, and every chunk
shorter than ``_VECTOR_MIN_EVENTS``), and a vectorised chunk processor
(stack validation via the lint engine's depth trick, segment/sync
boundaries via nesting trajectories) for long chunks once a dominant
function is selected.  Both perform the same float operations in the
same order.

Malformed streams raise :class:`StreamOrderError` (out-of-order chunk;
tracelint rule ``TL004``) or :class:`StreamStructureError` (unmatched
or mismatched leave, ``TL001``/``TL003``; a frame still open at
:meth:`StreamingAnalyzer.finish_rank`, ``TL002``) — the codes
``repro lint`` reports for the same defects.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..trace.definitions import RegionRegistry
from ..trace.events import EventKind, EventList
from .classify import SyncClassifier, default_classifier
from .imbalance import _MAD_SCALE

__all__ = [
    "STREAM_COLUMNS",
    "STREAM_METRIC_COLUMNS",
    "StreamAlert",
    "StreamOrderError",
    "StreamStructureError",
    "StreamedSegment",
    "StreamingAnalyzer",
]

#: Event columns the streaming state machine reads; feeders (the
#: ``repro monitor`` command in particular) may project their loads
#: down to these.  The projection tests keep the set truthful.
STREAM_COLUMNS = ("time", "kind", "ref")

#: Columns required when time-resolved metric series are enabled
#: (``metric_window``): METRIC samples additionally carry ``value``.
STREAM_METRIC_COLUMNS = ("time", "kind", "ref", "value")

#: Segments dropped from per-rank histories under ``history_limit``.
_C_EVICTIONS = obs.counter("stream.window_evictions")
#: Events parsed by the driving cursor but not yet fed (backlog).
_G_LAG = obs.gauge("stream.lag_events")

_ENTER = int(EventKind.ENTER)
_LEAVE = int(EventKind.LEAVE)
_METRIC = int(EventKind.METRIC)

#: Shortest chunk the vectorised processor takes.  Its cost is mostly a
#: fixed ~0.4 ms of NumPy calls per chunk, while the per-event machine
#: runs at ~2 Mevents/s at any chunk size.  Measured on 2-core x86 VMs
#: (table in docs/streaming.md), the two cross between 1024 and 4096
#: events: at 64 events the per-event machine is ~8-12x faster, at 1024
#: they are within ~30% of each other either way, and at 64k the
#: vectorised processor is ~1.2x (COSMO-SPECS) to ~4x (dense 3-level
#: stream) faster.
_VECTOR_MIN_EVENTS = 1024


def _small_median(ordered: list) -> float:
    """Median of a pre-sorted sequence (matches ``np.median`` bitwise)."""
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class StreamOrderError(ValueError):
    """A fed chunk starts before the rank's last seen timestamp.

    The stream equivalent of tracelint's ``TL004``: every analysis
    assumption — replay, segmentation, windows — needs time-sorted
    streams per rank.
    """

    code = "TL004"

    def __init__(self, rank: int, t: float, last: float) -> None:
        super().__init__(
            f"[{self.code}] rank {rank}: chunk not time-ordered "
            f"({t} after {last})"
        )
        self.rank = rank


class StreamStructureError(ValueError):
    """A rank's enter/leave events are not properly nested.

    The stream equivalent of tracelint's ``TL001`` (leave on an empty
    stack), ``TL002`` (stream ends inside ``region``) and ``TL003``
    (leave of a region that is not the open one); :attr:`code`
    carries which.
    """

    def __init__(self, rank: int, region: int, code: str) -> None:
        if code == "TL002":
            what = f"region {region} still open at end of stream"
        else:
            what = f"leave of region {region} does not match the open region"
        super().__init__(f"[{code}] rank {rank}: {what}")
        self.rank = rank
        self.code = code


@dataclass(frozen=True, slots=True)
class StreamedSegment:
    """One completed dominant-function invocation seen in the stream."""

    rank: int
    index: int
    t_start: float
    t_stop: float
    sync_time: float

    @property
    def duration(self) -> float:
        return self.t_stop - self.t_start

    @property
    def sos(self) -> float:
        return self.duration - self.sync_time


@dataclass(frozen=True, slots=True)
class StreamAlert:
    """A segment flagged as anomalous at completion time."""

    segment: StreamedSegment
    zscore: float
    window: int  # history size the z-score was computed against

    def __str__(self) -> str:
        s = self.segment
        return (
            f"rank {s.rank} segment {s.index} "
            f"[{s.t_start:.6g}, {s.t_stop:.6g}]: SOS {s.sos:.6g} "
            f"(z={self.zscore:.1f} over {self.window} recent segments)"
        )


class _RankStream:
    """Per-process incremental state machine."""

    __slots__ = (
        "rank",
        "stack",
        "sync_nesting",
        "sync_start",
        "segment_start",
        "segment_sync",
        "dominant_nesting",
        "seg_start",
        "seg_stop",
        "seg_sync",
        "next_index",
        "total_sos",
        "total_count",
        "recent_sos",
        "last_time",
    )

    def __init__(self, rank: int, window: int) -> None:
        self.rank = rank
        self.stack: list[tuple[int, float]] = []
        self.sync_nesting = 0
        self.sync_start = 0.0
        self.segment_start: float | None = None
        self.segment_sync = 0.0
        self.dominant_nesting = 0
        # Completed segments, stored columnar (one float triple per
        # segment, :class:`StreamedSegment` objects are materialised
        # on access) — constructing a frozen dataclass per segment
        # would dominate steady-state streaming cost.
        self.seg_start: deque[float] = deque()
        self.seg_stop: deque[float] = deque()
        self.seg_sync: deque[float] = deque()
        self.next_index = 0
        self.total_sos = 0.0
        self.total_count = 0
        self.recent_sos: deque[float] = deque(maxlen=window)
        self.last_time = -np.inf


class StreamingAnalyzer:
    """Online segment/SOS computation over incrementally fed events.

    Parameters
    ----------
    regions:
        The region registry events refer to (shared with the producer).
    num_processes:
        Total number of processes (for the ``2p`` criterion).
    dominant:
        Region id or name to segment by; ``None`` enables automatic
        warm-up selection.
    warmup_invocations:
        Complete invocations to observe before auto-selecting.
    classifier:
        Synchronization classifier (default: MPI/OpenMP policy).
    window:
        Sliding-window length for the online outlier test.
    alert_threshold:
        Robust z-score a completed segment must exceed to alert.
    min_relative_excess:
        Materiality bar relative to the window median.
    history_limit:
        Maximum completed segments retained *per rank* (``None`` keeps
        everything).  Eviction is FIFO and counted in the
        ``stream.window_evictions`` counter; alerts and running totals
        are unaffected.
    metric_window:
        Bin width (seconds) for time-resolved METRIC series
        (:meth:`metric_series`).  ``None`` (default) ignores METRIC
        events; when set, fed chunks must include the ``value`` column
        (:data:`STREAM_METRIC_COLUMNS`).
    """

    def __init__(
        self,
        regions: RegionRegistry,
        num_processes: int,
        dominant: int | str | None = None,
        warmup_invocations: int = 500,
        classifier: SyncClassifier | None = None,
        window: int = 32,
        alert_threshold: float = 4.0,
        min_relative_excess: float = 0.1,
        history_limit: int | None = None,
        metric_window: float | None = None,
    ) -> None:
        if num_processes <= 0:
            raise ValueError("num_processes must be positive")
        if history_limit is not None and history_limit <= 0:
            raise ValueError("history_limit must be positive")
        if metric_window is not None and metric_window <= 0:
            raise ValueError("metric_window must be positive")
        self.regions = regions
        self.num_processes = num_processes
        self.classifier = classifier if classifier is not None else default_classifier()
        self.window = window
        self.alert_threshold = alert_threshold
        self.min_relative_excess = min_relative_excess
        self.warmup_invocations = warmup_invocations
        self.history_limit = history_limit
        self.metric_window = metric_window

        self._sync_mask = self.classifier.mask_registry(regions)
        # (mask_registry accepts a bare RegionRegistry, see classify.py)
        self._sync_flags: list[bool] = self._sync_mask.tolist()
        self._streams: dict[int, _RankStream] = {}
        self.alerts: list[StreamAlert] = []
        self.window_evictions = 0
        #: ``(rank, metric id) -> {bin index: [value sum, sample count]}``
        self._metric_bins: dict[tuple[int, int], dict[int, list]] = {}

        # Warm-up statistics for automatic dominant selection.
        self._warmup_counts = [0] * len(regions)
        self._warmup_inclusive = [0.0] * len(regions)
        self._warmup_seen = 0

        self.dominant: int | None = None
        if dominant is not None:
            self.dominant = (
                regions.id_of(dominant) if isinstance(dominant, str) else int(dominant)
            )

    # -- public API -----------------------------------------------------

    @property
    def selected(self) -> bool:
        return self.dominant is not None

    @property
    def dominant_name(self) -> str | None:
        return self.regions[self.dominant].name if self.selected else None

    def feed(self, rank: int, events: EventList) -> list[StreamAlert]:
        """Process one time-ordered chunk of events for ``rank``.

        Returns the alerts raised by this chunk (also appended to
        :attr:`alerts`).  Chunk boundaries are observable only in
        latency: results are bitwise identical whether a stream
        arrives one event at a time or as a single chunk.
        """
        stream = self._stream(rank)
        n = len(events)
        if n == 0:
            return []
        times = events.time
        if float(times[0]) < stream.last_time:
            raise StreamOrderError(rank, float(times[0]), stream.last_time)
        kinds = events.kind
        refs = events.ref
        if self.selected and n >= _VECTOR_MIN_EVENTS:
            new_alerts = self._feed_chunk(stream, times, kinds, refs)
            stream.last_time = float(times[-1])
        else:
            new_alerts = self._feed_events(stream, times, kinds, refs)
        if self.metric_window is not None:
            self._feed_metrics(rank, times, kinds, refs, events)
        self.alerts.extend(new_alerts)
        return new_alerts

    def finish_rank(self, rank: int) -> None:
        """Declare ``rank``'s stream complete.

        Raises :class:`StreamStructureError` (``TL002``) if the rank
        still has an open frame.
        """
        stream = self._streams.get(rank)
        if stream is not None and stream.stack:
            raise StreamStructureError(rank, stream.stack[-1][0], "TL002")

    def consume(self, cursor) -> int:
        """Pull an :class:`~repro.trace.cursor.EventCursor` dry.

        Feeds every batch the cursor yields (for a live cursor this
        blocks between polls inside the cursor) and publishes the
        cursor's parsed-but-unfed backlog as the ``stream.lag_events``
        gauge.  Returns the number of events fed.
        """
        fed = 0
        for batch in cursor:
            if len(batch.events):
                self.feed(batch.rank, batch.events)
                fed += len(batch.events)
            _G_LAG.set(float(getattr(cursor, "backlog_events", 0)))
        return fed

    def select_now(self) -> int:
        """Force dominant-function selection from warm-up statistics."""
        if self.selected:
            return self.dominant  # type: ignore[return-value]
        threshold = 2 * self.num_processes
        eligible = self._eligible()
        if not eligible:
            raise ValueError(
                "no dominant-function candidate in the warm-up window "
                f"(need >= {threshold} invocations of a non-sync region)"
            )
        best = max(eligible, key=self._warmup_inclusive.__getitem__)
        self.dominant = best
        # Segments open only at the next top-level dominant enter, but a
        # rank may be inside dominant frames right now: their leaves must
        # find them counted, or the nesting level goes negative.
        for stream in self._streams.values():
            stream.dominant_nesting = sum(
                1 for region, _ in stream.stack if region == best
            )
        return best

    def _eligible(self) -> list[int]:
        """Non-sync regions with at least ``2p`` warm-up invocations."""
        threshold = 2 * self.num_processes
        sync = self._sync_flags
        return [
            r
            for r, count in enumerate(self._warmup_counts)
            if count >= threshold and not sync[r]
        ]

    def candidates(self, k: int = 5) -> list[tuple[int, int, float]]:
        """Rolling dominant-function candidates from warm-up statistics.

        Returns up to ``k`` tuples ``(region id, invocations, inclusive
        seconds)``, ordered by inclusive time over the regions
        :meth:`select_now` would choose from — non-sync with at least
        ``2 * num_processes`` observed invocations (the paper's
        eligibility bar, which also rules out once-per-run wrappers
        like ``main``).  Usable at any time, also after selection.
        """
        ranked = sorted(
            self._eligible(), key=lambda r: -self._warmup_inclusive[r]
        )
        return [
            (r, self._warmup_counts[r], self._warmup_inclusive[r])
            for r in ranked[: max(int(k), 0)]
        ]

    def segments(self, rank: int) -> list[StreamedSegment]:
        """Completed segments of one rank (retained history)."""
        stream = self._streams.get(rank)
        if stream is None:
            return []
        base = stream.next_index - len(stream.seg_start)
        return [
            StreamedSegment(
                rank=rank, index=base + i, t_start=a, t_stop=b, sync_time=c
            )
            for i, (a, b, c) in enumerate(
                zip(stream.seg_start, stream.seg_stop, stream.seg_sync)
            )
        ]

    def sos_series(self, rank: int) -> np.ndarray:
        """SOS values of one rank's completed (retained) segments."""
        stream = self._streams.get(rank)
        if stream is None or not stream.seg_start:
            return np.asarray([])
        start = np.asarray(stream.seg_start)
        stop = np.asarray(stream.seg_stop)
        sync = np.asarray(stream.seg_sync)
        return (stop - start) - sync

    def per_rank_total(self) -> dict[int, float]:
        """Running total SOS per rank (independent of eviction)."""
        return {
            rank: float(stream.total_sos)
            for rank, stream in sorted(self._streams.items())
        }

    def metric_series(self, rank: int, metric: int) -> tuple[np.ndarray, np.ndarray]:
        """Time-resolved mean of one METRIC stream for one rank.

        Returns ``(bin start times, mean values)`` over the
        ``metric_window``-second bins that received samples, in time
        order.  Empty arrays when the pair produced no samples (or
        ``metric_window`` is off).
        """
        bins = self._metric_bins.get((rank, int(metric)))
        if not bins:
            return np.empty(0), np.empty(0)
        order = sorted(bins)
        width = float(self.metric_window)  # type: ignore[arg-type]
        starts = np.asarray([b * width for b in order])
        means = np.asarray([bins[b][0] / bins[b][1] for b in order])
        return starts, means

    def snapshot_hot_ranks(self, threshold: float = 3.0) -> list[int]:
        """Rank-level anomaly check over the running totals."""
        totals = self.per_rank_total()
        if len(totals) < 3:
            return []
        ranks = sorted(totals)
        # Pure-Python medians: np.median would import numpy.ma.
        med = _small_median(sorted(totals.values()))
        mad = _small_median(sorted(abs(v - med) for v in totals.values()))
        mad *= _MAD_SCALE
        scale = max(mad, 0.01 * abs(med))
        if scale <= 0:
            return []
        values = np.asarray([totals[r] for r in ranks])
        z = (values - med) / scale
        hot = (z > threshold) & (values > med * (1 + self.min_relative_excess))
        order = np.argsort(-z)
        return [int(ranks[i]) for i in order if hot[i]]

    # -- internals -----------------------------------------------------

    def _stream(self, rank: int) -> _RankStream:
        stream = self._streams.get(rank)
        if stream is None:
            stream = _RankStream(rank, self.window)
            self._streams[rank] = stream
        return stream

    # .. per-event state machine ......................................

    def _feed_events(self, stream, times, kinds, refs) -> list[StreamAlert]:
        """The reference machine, one event at a time.

        Handles warm-up statistics, dominant selection (event-exact, so
        it may flip in the middle of a chunk) and steady-state
        segmentation in one loop over plain Python scalars.  The rank's
        state lives in locals and is written back when the chunk ends or
        a structure error stops it.
        """
        enter_kind = _ENTER
        leave_kind = _LEAVE
        sync_flags = self._sync_flags
        dominant = self.dominant
        counts = self._warmup_counts
        inclusive = self._warmup_inclusive
        stack = stream.stack
        push = stack.append
        pop = stack.pop
        sync_nesting = stream.sync_nesting
        sync_start = stream.sync_start
        seg_start = stream.segment_start
        seg_sync = stream.segment_sync
        dom_nesting = stream.dominant_nesting
        t = stream.last_time
        new_alerts: list[StreamAlert] = []
        try:
            for t, kind, region in zip(
                times.tolist(), kinds.tolist(), refs.tolist()
            ):
                if kind == enter_kind:
                    push((region, t))
                    if sync_flags[region]:
                        if sync_nesting == 0:
                            sync_start = t
                        sync_nesting += 1
                    if region == dominant:
                        dom_nesting += 1
                        if dom_nesting == 1:
                            seg_start = t
                            seg_sync = 0.0
                elif kind == leave_kind:
                    if not stack or stack[-1][0] != region:
                        raise StreamStructureError(
                            stream.rank, region,
                            "TL003" if stack else "TL001",
                        )
                    t_enter = pop()[1]
                    if sync_flags[region]:
                        sync_nesting -= 1
                        if sync_nesting == 0 and seg_start is not None:
                            seg_sync += t - max(sync_start, seg_start)
                    if dominant is None:
                        # Warm-up statistics (inclusive approximated by
                        # frame duration, which counts recursion
                        # multiply; exact for non-recursive frames,
                        # which dominate in practice).
                        counts[region] += 1
                        inclusive[region] += t - t_enter
                        self._warmup_seen += 1
                        if self._warmup_seen >= self.warmup_invocations:
                            try:
                                dominant = self.select_now()
                            except ValueError:
                                self.warmup_invocations *= 2  # keep collecting
                            else:
                                dom_nesting = stream.dominant_nesting
                    elif region == dominant:
                        dom_nesting -= 1
                        if dom_nesting == 0 and seg_start is not None:
                            alert = self._complete_segment(
                                stream, seg_start, t, seg_sync
                            )
                            seg_start = None
                            if alert is not None:
                                new_alerts.append(alert)
        finally:
            stream.sync_nesting = sync_nesting
            stream.sync_start = sync_start
            stream.segment_start = seg_start
            stream.segment_sync = seg_sync
            stream.dominant_nesting = dom_nesting
            stream.last_time = t
        return new_alerts

    # .. steady-state path (vectorised chunk processor) ................

    def _feed_chunk(self, stream, times, kinds, refs) -> list[StreamAlert]:
        """Vectorised equivalent of the per-event loop after selection.

        Stack validation uses the lint engine's depth trick with a
        carry stack across chunk boundaries; segment and sync
        boundaries come from nesting trajectories (running sums over
        the dominant/sync event subsets), and the handful of boundary
        crossings per chunk are applied by a scalar loop that performs
        the *same float operations in the same order* as the
        per-event machine — results are bitwise chunk-size invariant.
        """
        el_mask = (kinds == _ENTER) | (kinds == _LEAVE)
        el_idx = np.flatnonzero(el_mask)
        if not el_idx.size:
            return []
        el_refs = refs[el_idx]
        pm = np.where(kinds[el_idx] == _ENTER, 1, -1)
        d0 = len(stream.stack)
        depth_after = d0 + np.cumsum(pm)
        self._check_structure(stream, pm, el_refs, depth_after)

        # Boundary crossings of the sync and dominant nesting levels.
        parts: list[tuple[np.ndarray, int]] = []
        sync_sel = self._sync_mask[el_refs]
        if sync_sel.any():
            sidx = np.flatnonzero(sync_sel)
            straj = stream.sync_nesting + np.cumsum(pm[sidx])
            parts.append((sidx[(pm[sidx] > 0) & (straj == 1)], 0))
            parts.append((sidx[(pm[sidx] < 0) & (straj == 0)], 1))
            stream.sync_nesting += int(pm[sidx].sum())
        dom_sel = el_refs == self.dominant
        if dom_sel.any():
            didx = np.flatnonzero(dom_sel)
            dtraj = stream.dominant_nesting + np.cumsum(pm[didx])
            parts.append((didx[(pm[didx] > 0) & (dtraj == 1)], 2))
            parts.append((didx[(pm[didx] < 0) & (dtraj == 0)], 3))
            stream.dominant_nesting += int(pm[didx].sum())

        new_alerts: list[StreamAlert] = []
        parts = [(p, op) for p, op in parts if p.size]
        if parts:
            pos = np.concatenate([p for p, _ in parts])
            ops = np.concatenate(
                [np.full(p.size, op, dtype=np.int8) for p, op in parts]
            )
            # Same-event ordering matches the per-event machine: the
            # sync bookkeeping runs before the dominant bookkeeping.
            order = np.lexsort((ops, pos))
            crossing_times = times[el_idx[pos[order]]].tolist()
            crossing_ops = ops[order].tolist()
            # Locals for the scalar loop; completed segments are
            # collected and post-processed in one batch.
            sync_start = stream.sync_start
            seg_start = stream.segment_start
            seg_sync = stream.segment_sync
            c_start: list[float] = []
            c_stop: list[float] = []
            c_sync: list[float] = []
            for t, op in zip(crossing_times, crossing_ops):
                if op == 0:  # sync episode begins
                    sync_start = t
                elif op == 1:  # sync episode ends
                    if seg_start is not None:
                        seg_sync += t - max(sync_start, seg_start)
                elif op == 2:  # dominant segment opens
                    seg_start = t
                    seg_sync = 0.0
                elif seg_start is not None:  # segment closes
                    c_start.append(seg_start)
                    c_stop.append(t)
                    c_sync.append(seg_sync)
                    seg_start = None
            stream.sync_start = sync_start
            stream.segment_start = seg_start
            stream.segment_sync = seg_sync
            if c_start:
                new_alerts = self._complete_batch(
                    stream, c_start, c_stop, c_sync
                )

        # Carry stack: frames still open after this chunk.
        survivors = min(d0, int(depth_after.min()))
        suffix_min = np.minimum.accumulate(depth_after[::-1])[::-1]
        open_enters = np.flatnonzero((pm > 0) & (suffix_min == depth_after))
        stream.stack = stream.stack[:survivors] + [
            (int(el_refs[i]), float(times[el_idx[i]])) for i in open_enters
        ]
        return new_alerts

    def _check_structure(self, stream, pm, el_refs, depth_after) -> None:
        """Raise on the first leave that does not close the open region.

        Equivalent to the per-event stack machine: for any prefix that
        the per-event loop would accept, the depth-trick pairing *is*
        the stack pairing, so the earliest failing candidate below is
        exactly the event the scalar loop would have raised on.
        """
        under = np.flatnonzero(depth_after < 0)
        limit = int(under[0]) if under.size else pm.size
        candidates: list[tuple[int, str]] = []
        if under.size:
            candidates.append((int(under[0]), "TL001"))
        if limit:
            da = depth_after[:limit]
            pmv = pm[:limit]
            frame_depth = np.where(pmv > 0, da, da + 1)
            order = np.argsort(frame_depth, kind="stable")
            fd_sorted = frame_depth[order]
            starts = np.flatnonzero(
                np.r_[True, fd_sorted[1:] != fd_sorted[:-1]]
            )
            ends = np.r_[starts[1:], fd_sorted.size]
            for s, e in zip(starts, ends):
                level_idx = order[s:e]  # ascending positions, one level
                j = 0
                if pmv[level_idx[0]] < 0:
                    # Leading leave closes a frame carried in from a
                    # previous chunk.
                    carried = stream.stack[int(fd_sorted[s]) - 1][0]
                    if int(el_refs[level_idx[0]]) != carried:
                        candidates.append((int(level_idx[0]), "TL003"))
                    j = 1
                rem = level_idx[j:]
                n_pairs = rem.size // 2
                if n_pairs:
                    enters = rem[: 2 * n_pairs : 2]
                    leaves = rem[1 : 2 * n_pairs : 2]
                    bad = np.flatnonzero(el_refs[enters] != el_refs[leaves])
                    if bad.size:
                        candidates.append((int(leaves[bad[0]]), "TL003"))
        if candidates:
            first, code = min(candidates)
            raise StreamStructureError(
                stream.rank, int(el_refs[first]), code
            )

    # .. segment completion ............................................

    def _complete_segment(
        self,
        stream: _RankStream,
        t_start: float,
        t_stop: float,
        sync_time: float,
    ) -> StreamAlert | None:
        """Record one completed segment (per-event machine)."""
        stream.seg_start.append(t_start)
        stream.seg_stop.append(t_stop)
        stream.seg_sync.append(sync_time)
        index = stream.next_index
        stream.next_index = index + 1
        sos = (t_stop - t_start) - sync_time
        stream.total_sos += sos
        stream.total_count += 1
        if (
            self.history_limit is not None
            and len(stream.seg_start) > self.history_limit
        ):
            stream.seg_start.popleft()
            stream.seg_stop.popleft()
            stream.seg_sync.popleft()
            self.window_evictions += 1
            _C_EVICTIONS.add()
        return self._test_segment(
            stream, sos, index, t_start, t_stop, sync_time
        )

    def _complete_batch(
        self,
        stream: _RankStream,
        starts: list[float],
        stops: list[float],
        syncs: list[float],
    ) -> list[StreamAlert]:
        """Record the segments one chunk completed, test them in bulk.

        Bitwise identical to running :meth:`_complete_segment` per
        segment: the running total accumulates left-to-right, eviction
        commutes with the history test (they touch disjoint state),
        and the vectorised median/MAD below reproduces the scalar
        window test float-for-float.
        """
        count = len(starts)
        base = stream.next_index
        stream.seg_start.extend(starts)
        stream.seg_stop.extend(stops)
        stream.seg_sync.extend(syncs)
        stream.next_index = base + count
        sos = [(b - a) - c for a, b, c in zip(starts, stops, syncs)]
        total = stream.total_sos
        for value in sos:
            total += value
        stream.total_sos = total
        stream.total_count += count
        if self.history_limit is not None:
            overflow = len(stream.seg_start) - self.history_limit
            if overflow > 0:
                for _ in range(overflow):
                    stream.seg_start.popleft()
                    stream.seg_stop.popleft()
                    stream.seg_sync.popleft()
                self.window_evictions += overflow
                _C_EVICTIONS.add(overflow)

        history = stream.recent_sos
        window = history.maxlen or 0
        alerts: list[StreamAlert] = []
        # Until the rolling window is full, windows grow per segment —
        # run those through the scalar test.  Once full, every
        # remaining segment sees exactly ``window`` predecessors and
        # the median/MAD tests vectorise row-wise.
        n_scalar = min(count, max(0, window - len(history)))
        for j in range(n_scalar):
            alert = self._test_segment(
                stream, sos[j], base + j, starts[j], stops[j], syncs[j]
            )
            if alert is not None:
                alerts.append(alert)
        if n_scalar == count:
            return alerts
        rest = sos[n_scalar:]
        if window >= 8:
            hist = np.empty(window + len(rest))
            hist[:window] = history
            hist[window:] = rest
            win = np.lib.stride_tricks.sliding_window_view(hist, window)[
                : len(rest)
            ]
            med = np.median(win, axis=1)
            mad = np.median(np.abs(win - med[:, None]), axis=1) * _MAD_SCALE
            scale = np.maximum(mad, 0.01 * np.abs(med))
            svals = hist[window:]
            with np.errstate(divide="ignore", invalid="ignore"):
                z = (svals - med) / scale
            flag = (
                (scale > 0)
                & (z > self.alert_threshold)
                & (svals > med * (1 + self.min_relative_excess))
            )
            for j in np.flatnonzero(flag):
                i = n_scalar + int(j)
                segment = StreamedSegment(
                    rank=stream.rank,
                    index=base + i,
                    t_start=starts[i],
                    t_stop=stops[i],
                    sync_time=syncs[i],
                )
                alerts.append(
                    StreamAlert(
                        segment=segment,
                        zscore=float(z[j]),
                        window=window,
                    )
                )
        history.extend(rest)
        return alerts

    def _test_segment(
        self,
        stream: _RankStream,
        sos: float,
        index: int,
        t_start: float,
        t_stop: float,
        sync_time: float,
    ) -> StreamAlert | None:
        history = stream.recent_sos
        alert = None
        if len(history) >= 8:
            # Median/MAD over the short window in pure Python: bitwise
            # identical to np.median (even-length means are (a+b)/2 in
            # both) and ~10x cheaper at window sizes.
            med = _small_median(sorted(history))
            mad = _small_median(sorted([abs(v - med) for v in history]))
            mad *= _MAD_SCALE
            scale = max(mad, 0.01 * abs(med))
            if scale > 0:
                z = (sos - med) / scale
                material = sos > med * (1 + self.min_relative_excess)
                if z > self.alert_threshold and material:
                    alert = StreamAlert(
                        segment=StreamedSegment(
                            rank=stream.rank,
                            index=index,
                            t_start=t_start,
                            t_stop=t_stop,
                            sync_time=sync_time,
                        ),
                        zscore=float(z),
                        window=len(history),
                    )
        history.append(sos)
        return alert

    # .. time-resolved metric series ...................................

    def _feed_metrics(self, rank, times, kinds, refs, events) -> None:
        sel = np.flatnonzero(kinds == _METRIC)
        if not sel.size:
            return
        values = events.value[sel]
        bins = (times[sel] // self.metric_window).astype(np.int64)
        metric_refs = refs[sel]
        for ref in np.unique(metric_refs):
            acc = self._metric_bins.setdefault((rank, int(ref)), {})
            mask = metric_refs == ref
            for b, v in zip(bins[mask], values[mask]):
                slot = acc.setdefault(int(b), [0.0, 0])
                slot[0] += float(v)
                slot[1] += 1
