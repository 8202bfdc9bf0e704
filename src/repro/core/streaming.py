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
bitwise independent of how the stream is chunked.  Every chunk is
array passes: stack validation via the lint engine's depth trick,
warm-up statistics and segment and sync boundaries via nesting
trajectories, the window test as one sort per chunk.  They perform the
float operations of a per-event machine in its order
(``tests/stream_reference.py`` is that machine).

Malformed streams raise :class:`StreamOrderError` (out-of-order chunk;
tracelint rule ``TL004``) or :class:`StreamStructureError` (unmatched
or mismatched leave, ``TL001``/``TL003``; a frame still open at
:meth:`StreamingAnalyzer.finish_rank`, ``TL002``) — the codes
``repro lint`` reports for the same defects.
"""

from __future__ import annotations

from array import array
from collections import deque

import numpy as np

from .. import obs
from .._record import record
from ..trace.definitions import RegionRegistry
from ..trace.events import EventKind, EventList
from . import MAD_SCALE
from .classify import SyncClassifier, default_classifier

__all__ = [
    "STREAM_COLUMNS",
    "StreamAlert",
    "StreamOrderError",
    "StreamStructureError",
    "StreamedSegment",
    "StreamingAnalyzer",
]

#: Event columns the streaming analyzer reads; a feeder may project
#: its loads down to these (``repro monitor`` decodes every column, so
#: a corrupt blob gets the verdict ``analyze`` gives it).  The
#: projection tests keep the set truthful.
STREAM_COLUMNS = ("time", "kind", "ref")

#: Segments dropped from per-rank histories under ``history_limit``.
_C_EVICTIONS = obs.counter("stream.window_evictions")
#: Events parsed by the driving cursor but not yet fed (backlog).
_G_LAG = obs.gauge("stream.lag_events")

_LEAVE = int(EventKind.LEAVE)


def _small_median(ordered: list) -> float:
    """Median of a pre-sorted list (matches ``np.median`` bitwise)."""
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _crossings(pm, enter, sel, level: int):
    """Events of the ``sel`` subset that move its nesting level between
    0 and 1: their positions, whether each opens, and the final level."""
    idx = np.flatnonzero(sel)
    if not idx.size:
        return idx, np.zeros(0, dtype=bool), level
    traj = np.cumsum(pm[idx])
    traj += level
    opens = enter[idx] & (traj == 1)
    hit = opens | (traj == 0)
    return idx[hit], opens[hit], int(traj[-1])


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


@record(frozen=True, slots=True)
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


@record(frozen=True, slots=True)
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
    """Per-process state carried from one chunk to the next."""

    __slots__ = (
        "rank",
        "stack",
        "sync_nesting",
        "sync_start",
        "segment_start",
        "segment_sync",
        "dominant_nesting",
        "segs",
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
        # Completed segments as (start, stop, sync) float triples in
        # one flat array; :class:`StreamedSegment` objects are
        # materialised on access.
        self.segs = array("d")
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
    ) -> None:
        if num_processes <= 0:
            raise ValueError("num_processes must be positive")
        if history_limit is not None and history_limit <= 0:
            raise ValueError("history_limit must be positive")
        self.regions = regions
        self.num_processes = num_processes
        self.classifier = classifier if classifier is not None else default_classifier()
        self.window = window
        # ``_halves[k] == k // 2``: the median indices of k sorted values.
        self._halves = np.array([k // 2 for k in range(window + 1)])
        self.alert_threshold = alert_threshold
        self.min_relative_excess = min_relative_excess
        self.warmup_invocations = warmup_invocations
        self.history_limit = history_limit

        self._sync_mask = self.classifier.mask_registry(regions)
        # (mask_registry accepts a bare RegionRegistry, see classify.py)
        self._streams: dict[int, _RankStream] = {}
        self.alerts: list[StreamAlert] = []
        self.window_evictions = 0

        # Warm-up statistics for automatic dominant selection.
        self._warmup_counts = np.zeros(len(regions), dtype=np.int64)
        self._warmup_inclusive = np.zeros(len(regions))
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
        if len(events) == 0:
            return []
        times = events.time
        if float(times[0]) < stream.last_time:
            raise StreamOrderError(rank, float(times[0]), stream.last_time)
        new_alerts = self._feed_chunk(stream, times, events.kind, events.ref)
        stream.last_time = float(times[-1])
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
        eligible = self._eligible()
        if not eligible.size:
            raise ValueError(
                "no dominant-function candidate in the warm-up window "
                f"(need >= {2 * self.num_processes} invocations of a "
                "non-sync region)"
            )
        # argmax takes the first of equal maxima, as max() does.
        best = int(eligible[np.argmax(self._warmup_inclusive[eligible])])
        self.dominant = best
        # Segments open only at the next top-level dominant enter, but a
        # rank may be inside dominant frames right now: their leaves must
        # find them counted, or the nesting level goes negative.
        for stream in self._streams.values():
            stream.dominant_nesting = sum(
                1 for region, _ in stream.stack if region == best
            )
        return best

    def _eligible(self) -> np.ndarray:
        """Non-sync regions with at least ``2p`` warm-up invocations."""
        threshold = 2 * self.num_processes
        eligible = (self._warmup_counts >= threshold) & ~self._sync_mask
        return np.flatnonzero(eligible)

    def candidates(self, k: int = 5) -> list[tuple[int, int, float]]:
        """Rolling dominant-function candidates from warm-up statistics.

        Returns up to ``k`` tuples ``(region id, invocations, inclusive
        seconds)``, ordered by inclusive time over the regions
        :meth:`select_now` would choose from — non-sync with at least
        ``2 * num_processes`` observed invocations (the paper's
        eligibility bar, which also rules out once-per-run wrappers
        like ``main``).  Usable at any time, also after selection.
        """
        eligible = self._eligible()
        order = np.argsort(-self._warmup_inclusive[eligible], kind="stable")
        return [
            (r, int(self._warmup_counts[r]), float(self._warmup_inclusive[r]))
            for r in eligible[order][: max(int(k), 0)].tolist()
        ]

    def _retained(self, rank: int) -> tuple[int, array]:
        """Index of the first retained segment of ``rank``, and the
        retained (start, stop, sync) triples."""
        stream = self._streams.get(rank)
        if stream is None:
            return 0, array("d")
        held = len(stream.segs) // 3
        if self.history_limit is not None:
            held = min(held, self.history_limit)
        return stream.next_index - held, stream.segs[len(stream.segs) - 3 * held :]

    def segments(self, rank: int) -> list[StreamedSegment]:
        """Completed segments of one rank (retained history)."""
        base, flat = self._retained(rank)
        it = iter(flat.tolist())
        return [
            StreamedSegment(
                rank=rank, index=base + i, t_start=a, t_stop=b, sync_time=c
            )
            for i, (a, b, c) in enumerate(zip(it, it, it))
        ]

    def sos_series(self, rank: int) -> np.ndarray:
        """SOS values of one rank's completed (retained) segments."""
        rows = np.array(self._retained(rank)[1]).reshape(-1, 3)
        return (rows[:, 1] - rows[:, 0]) - rows[:, 2]

    def per_rank_total(self) -> dict[int, float]:
        """Running total SOS per rank (independent of eviction)."""
        return {
            rank: float(stream.total_sos)
            for rank, stream in sorted(self._streams.items())
        }

    def snapshot_hot_ranks(self, threshold: float = 3.0) -> list[int]:
        """Rank-level anomaly check over the running totals."""
        totals = self.per_rank_total()
        if len(totals) < 3:
            return []
        ranks = sorted(totals)
        # Pure-Python medians: np.median would import numpy.ma.
        med = _small_median(sorted(totals.values()))
        mad = _small_median(sorted(abs(v - med) for v in totals.values()))
        mad *= MAD_SCALE
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

    # .. chunk processor ...............................................

    def _feed_chunk(self, stream, times, kinds, refs) -> list[StreamAlert]:
        """Validate one chunk's nesting, then advance the rank over it.

        Before selection, the chunk's leaves feed the warm-up statistics
        up to the one at which a selection succeeds.  The chunk splits
        after that leave: the head runs with no dominant function, then
        :meth:`select_now` counts the dominant frames every rank has
        open, then the tail is segmented.
        """
        # ENTER (0) and LEAVE (1) are the two lowest event kinds.
        el_idx = np.flatnonzero(kinds <= _LEAVE)
        if not el_idx.size:
            return []
        el_refs = refs[el_idx]
        enter = kinds[el_idx] < _LEAVE
        pm = np.where(enter, 1, -1)
        depth_after = np.cumsum(pm)
        depth_after += len(stream.stack)
        pairing = self._check_structure(stream, enter, el_refs, depth_after)
        cut = None
        if not self.selected:
            cut = self._warm_up(stream, times[el_idx], enter, el_refs, pairing)
        parts = (el_idx, el_refs, enter, pm, depth_after)
        if cut is None:
            return self._advance(stream, times, *parts)
        self._advance(stream, times, *(a[:cut] for a in parts))
        self.select_now()
        return self._advance(stream, times, *(a[cut:] for a in parts))

    def _check_structure(self, stream, enter, el_refs, depth_after):
        """Raise on the first leave that does not close the open region.

        Equivalent to the per-event stack machine: for any prefix that
        the per-event loop would accept, the depth-trick pairing *is*
        the stack pairing, so the earliest failing candidate below is
        exactly the event the scalar loop would have raised on.  On a
        well-nested chunk, returns that pairing: the events' order
        sorted by frame depth, which leaves close a carried frame, and
        the sorted depths.
        """
        limit = enter.size
        candidates = []
        if int(depth_after.min()) < 0:
            limit = int(np.flatnonzero(depth_after < 0)[0])
            candidates.append((limit, "TL001"))
        # Sorted stably by frame depth (after an enter, before a leave),
        # each depth level alternates enter, leave; a level may open
        # with a leave that closes a frame carried in from an earlier
        # chunk.  Every leave must name the region just before it.
        enter = enter[:limit]
        depth = depth_after[:limit]
        depth = np.where(enter, depth, depth + 1)
        order = np.argsort(depth, kind="stable")
        depth = depth[order]
        region = el_refs[:limit][order]
        leave = ~enter[order]
        match = np.empty(limit, dtype=bool)
        match[1:] = region[1:] == region[:-1]
        carried = leave.copy()
        carried[1:] &= ~(depth[1:] == depth[:-1])
        if carried.any():
            stack = np.array([r for r, _ in stream.stack], dtype=region.dtype)
            match[carried] = region[carried] == stack[depth[carried] - 1]
        bad = order[leave & ~match]
        if bad.size:
            candidates.append((int(bad.min()), "TL003"))
        if candidates:
            first, code = min(candidates)
            raise StreamStructureError(
                stream.rank, int(el_refs[first]), code
            )
        return order, carried, depth

    def _warm_up(self, stream, el_times, enter, el_refs, pairing) -> int | None:
        """Add the chunk's frames to the warm-up statistics.

        A frame's duration stands in for its inclusive time (recursion
        counts multiply; exact for non-recursive frames, which dominate
        in practice).  Selection is tried at the leave that brings the
        global count to ``warmup_invocations``; while no region is
        eligible the bar doubles and counting goes on in the same
        chunk.  Returns the enter/leave position just after the leave
        at which a selection succeeds (the statistics stop there), or
        ``None``.
        """
        order, carried, depth = pairing
        # A leave's frame opens at the event sorted just before it, or
        # at a frame carried in on the rank's stack.
        opened = np.zeros(order.size)
        opened[1:] = el_times[order[:-1]]
        if carried.any():
            stack = np.array([t for _, t in stream.stack])
            opened[carried] = stack[depth[carried] - 1]
        span = np.empty(order.size)
        span[order] = el_times[order] - opened
        leaves = np.flatnonzero(~enter)
        regions = el_refs[leaves]
        done = 0
        while True:
            # The leave at which the count reaches the bar (the next
            # leave once it has).
            at = done + max(self.warmup_invocations - self._warmup_seen, 1) - 1
            upto = min(at + 1, leaves.size)
            # In event order, so each region's sum adds what the scalar
            # ``+=`` of a per-event loop adds, in its order.
            np.add.at(self._warmup_counts, regions[done:upto], 1)
            np.add.at(
                self._warmup_inclusive, regions[done:upto], span[leaves[done:upto]]
            )
            self._warmup_seen += upto - done
            if upto <= at:
                return None
            if self._eligible().size:
                return int(leaves[at]) + 1
            self.warmup_invocations *= 2  # keep collecting
            done = upto

    def _advance(self, stream, times, el_idx, el_refs, enter, pm, depth_after):
        """Move the rank's sync episodes, open segment and carry stack
        over these enter/leave events; record the segments they
        complete and return their alerts.

        Sync episodes and segments open and close where nesting
        trajectories (running sums over the sync/dominant event
        subsets) cross between 0 and 1.  Each episode end finds its
        episode start and open segment by position, and ``np.add.at``
        sums the contributions per segment in event order: the *same
        float operations in the same order* as a per-event machine, so
        results are bitwise chunk-size invariant.
        """
        if not el_idx.size:
            return []
        s_pos, s_open, stream.sync_nesting = _crossings(
            pm, enter, self._sync_mask[el_refs], stream.sync_nesting
        )
        # Before selection no event is dominant (``== None`` is False).
        d_pos, d_open, stream.dominant_nesting = _crossings(
            pm, enter, el_refs == self.dominant, stream.dominant_nesting
        )
        s_time = times[el_idx[s_pos]]
        d_time = times[el_idx[d_pos]]
        # Slot 0 is the segment carried in; slot i + 1 is the one the
        # i-th dominant crossing leaves open (none after a close).
        carried = stream.segment_start
        slot_open = np.concatenate(([carried is not None], d_open))
        slot_start = np.concatenate(([0.0 if carried is None else carried], d_time))
        slot_sync = np.zeros(slot_open.size)
        slot_sync[0] = stream.segment_sync
        if s_pos.size:
            # Crossings alternate between begin and end, so the k-th
            # episode end closes what the k-th begin (counting the
            # carried one) opened.  It sees the dominant crossings
            # strictly before it: at one event, sync bookkeeping runs
            # before dominant bookkeeping.
            ends = ~s_open
            first = int(s_open[0])
            begin_time = np.concatenate(([stream.sync_start], s_time[s_open]))
            episode = begin_time[first : first + np.count_nonzero(ends)]
            before = np.zeros(pm.size + 1, dtype=np.intp)
            before[d_pos + 1] = 1
            slot = np.cumsum(before)[s_pos[ends]]
            live = slot_open[slot]
            slot = slot[live]
            np.add.at(
                slot_sync,
                slot,
                s_time[ends][live] - np.maximum(episode[live], slot_start[slot]),
            )
            stream.sync_start = float(begin_time[-1])
        stream.segment_start = float(slot_start[-1]) if slot_open[-1] else None
        stream.segment_sync = float(slot_sync[-1])
        done = np.flatnonzero(~d_open & slot_open[:-1])
        new_alerts = (
            self._complete_batch(
                stream, slot_start[done], d_time[done], slot_sync[done]
            )
            if done.size
            else []
        )

        # Carry stack: frames still open after these events.
        suffix_min = np.minimum.accumulate(depth_after[::-1])[::-1]
        open_enters = np.flatnonzero(enter & (suffix_min == depth_after))
        kept = min(len(stream.stack), int(suffix_min[0]))
        stream.stack = stream.stack[:kept] + [
            (int(el_refs[i]), float(times[el_idx[i]])) for i in open_enters
        ]
        return new_alerts

    # .. segment completion ............................................

    def _complete_batch(
        self,
        stream: _RankStream,
        starts: np.ndarray,
        stops: np.ndarray,
        syncs: np.ndarray,
    ) -> list[StreamAlert]:
        """Record the segments one chunk completed, test them in one pass.

        Bitwise identical to completing them one at a time: the running
        total accumulates left to right (``cumsum``), eviction commutes
        with the history test (they touch disjoint state), and each
        segment's window, padded to ``window`` with ``+inf`` and sorted,
        yields the median and MAD :func:`_small_median` reads off the
        same values.
        """
        count = starts.size
        base = stream.next_index
        sos = (stops - starts) - syncs
        stream.segs.frombytes(np.stack((starts, stops, syncs), axis=1).tobytes())
        stream.next_index = base + count
        stream.total_sos = float(np.cumsum(np.concatenate(([stream.total_sos], sos)))[-1])
        stream.total_count += count
        self._evict(stream, count)

        history = stream.recent_sos
        window = history.maxlen or 0
        held = len(history)
        # Segment j is tested against the min(held + j, window) values
        # before it, from the first that sees 8 of them.
        first = max(0, 8 - held)
        alerts: list[StreamAlert] = []
        if window >= 8 and first < count:
            padded = np.full(window + held + count, np.inf)
            padded[window : window + held] = history
            padded[window + held :] = sos
            ends = np.arange(held + first, held + count)
            rows = padded[np.add.outer(ends, np.arange(window))]
            sizes = np.minimum(ends, window)
            at = np.arange(ends.size), self._halves[sizes - 1], self._halves[sizes]

            def median(ordered):
                lo, hi = ordered[at[0], at[1]], ordered[at[0], at[2]]
                return np.where(at[1] == at[2], lo, (lo + hi) / 2.0)

            rows.sort(axis=1)
            med = median(rows)
            rows = np.abs(rows - med[:, None])
            rows.sort(axis=1)
            scale = np.maximum(median(rows) * MAD_SCALE, 0.01 * np.abs(med))
            value = sos[first:]
            with np.errstate(divide="ignore", invalid="ignore"):
                z = (value - med) / scale
            flag = (
                (scale > 0)
                & (z > self.alert_threshold)
                & (value > med * (1 + self.min_relative_excess))
            )
            for k in np.flatnonzero(flag).tolist():
                j = first + k
                segment = StreamedSegment(
                    rank=stream.rank,
                    index=base + j,
                    t_start=float(starts[j]),
                    t_stop=float(stops[j]),
                    sync_time=float(syncs[j]),
                )
                alerts.append(
                    StreamAlert(
                        segment=segment,
                        zscore=float(z[k]),
                        window=int(sizes[k]),
                    )
                )
        history.extend(sos.tolist())
        return alerts

    def _evict(self, stream: _RankStream, added: int) -> None:
        """Count the segments ``added`` pushed past ``history_limit`` as
        evicted; drop them from memory once twice the limit is held."""
        limit = self.history_limit
        if limit is None:
            return
        evicted = min(added, stream.next_index - limit)
        if evicted > 0:
            self.window_evictions += evicted
            _C_EVICTIONS.add(evicted)
        if len(stream.segs) >= 6 * limit:
            del stream.segs[: -3 * limit]
