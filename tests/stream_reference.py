"""Per-event reference for :class:`repro.core.streaming.StreamingAnalyzer`.

One Python loop over one event at a time, with an explicit stack: the
warm-up statistics and their ``2p`` selection (exact to the selecting
leave, doubling ``warmup_invocations`` when no region is eligible yet),
sync episodes, segments, the bounded history and the median/MAD window
test.  It imports nothing from :mod:`repro.core.streaming`, so the
array processor there is checked against an implementation it does not
share code with (``tests/test_streaming.py``).

It mirrors only what the comparison reads: ``dominant``,
``warmup_invocations``, ``segments(rank)``, ``alerts``, ``_streams``
(``total_sos``, ``total_count``, ``next_index``) and
``window_evictions``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core import MAD_SCALE
from repro.core.classify import default_classifier

_ENTER = 0
_LEAVE = 1


def _median(ordered: list) -> float:
    """Median of a pre-sorted list (``np.median``'s float operations)."""
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass(frozen=True)
class Segment:
    rank: int
    index: int
    t_start: float
    t_stop: float
    sync_time: float


@dataclass(frozen=True)
class Alert:
    segment: Segment
    zscore: float
    window: int


class _Rank:
    def __init__(self, rank: int, window: int) -> None:
        self.rank = rank
        self.stack: list[tuple[int, float]] = []
        self.sync_nesting = 0
        self.sync_start = 0.0
        self.segment_start: float | None = None
        self.segment_sync = 0.0
        self.dominant_nesting = 0
        self.segments: list[Segment] = []
        self.next_index = 0
        self.total_sos = 0.0
        self.total_count = 0
        self.recent_sos: deque[float] = deque(maxlen=window)


class ReferenceStream:
    """The streaming analyzer's results, one event at a time."""

    def __init__(
        self,
        regions,
        num_processes: int,
        dominant: int | str | None = None,
        warmup_invocations: int = 500,
        window: int = 32,
        alert_threshold: float = 4.0,
        min_relative_excess: float = 0.1,
        history_limit: int | None = None,
    ) -> None:
        self.num_processes = num_processes
        self.warmup_invocations = warmup_invocations
        self.window = window
        self.alert_threshold = alert_threshold
        self.min_relative_excess = min_relative_excess
        self.history_limit = history_limit
        self.sync = [default_classifier().is_sync(r) for r in regions]
        self.counts = [0] * len(regions)
        self.inclusive = [0.0] * len(regions)
        self.seen = 0
        self.alerts: list[Alert] = []
        self.window_evictions = 0
        self._streams: dict[int, _Rank] = {}
        self.dominant = (
            regions.id_of(dominant) if isinstance(dominant, str) else dominant
        )

    def segments(self, rank: int) -> list[Segment]:
        held = self._streams[rank].segments if rank in self._streams else []
        if self.history_limit is not None:
            held = held[len(held) - min(len(held), self.history_limit):]
        return list(held)

    def select_now(self) -> int:
        if self.dominant is not None:
            return self.dominant
        eligible = [
            r
            for r, count in enumerate(self.counts)
            if count >= 2 * self.num_processes and not self.sync[r]
        ]
        if not eligible:
            raise ValueError("no dominant-function candidate")
        best = max(eligible, key=self.inclusive.__getitem__)
        self.dominant = best
        # Frames of the new dominant function open right now close
        # without a segment, but must be counted.
        for stream in self._streams.values():
            stream.dominant_nesting = sum(
                1 for region, _ in stream.stack if region == best
            )
        return best

    def feed(self, rank: int, events) -> None:
        stream = self._streams.setdefault(rank, _Rank(rank, self.window))
        rows = zip(events.time.tolist(), events.kind.tolist(), events.ref.tolist())
        for t, kind, region in rows:
            if kind == _ENTER:
                stream.stack.append((region, t))
                if self.sync[region]:
                    if stream.sync_nesting == 0:
                        stream.sync_start = t
                    stream.sync_nesting += 1
                if region == self.dominant:
                    stream.dominant_nesting += 1
                    if stream.dominant_nesting == 1:
                        stream.segment_start = t
                        stream.segment_sync = 0.0
            elif kind == _LEAVE:
                if not stream.stack or stream.stack[-1][0] != region:
                    code = "TL003" if stream.stack else "TL001"
                    raise ValueError(f"[{code}] rank {rank}")
                t_enter = stream.stack.pop()[1]
                if self.sync[region]:
                    stream.sync_nesting -= 1
                    if stream.sync_nesting == 0 and stream.segment_start is not None:
                        stream.segment_sync += t - max(
                            stream.sync_start, stream.segment_start
                        )
                if self.dominant is None:
                    self.counts[region] += 1
                    self.inclusive[region] += t - t_enter
                    self.seen += 1
                    if self.seen >= self.warmup_invocations:
                        try:
                            self.select_now()
                        except ValueError:
                            self.warmup_invocations *= 2
                elif region == self.dominant:
                    stream.dominant_nesting -= 1
                    if stream.dominant_nesting == 0 and stream.segment_start is not None:
                        self._complete(stream, stream.segment_start, t)
                        stream.segment_start = None

    def _complete(self, stream: _Rank, t_start: float, t_stop: float) -> None:
        segment = Segment(
            stream.rank, stream.next_index, t_start, t_stop, stream.segment_sync
        )
        stream.segments.append(segment)
        stream.next_index += 1
        sos = (t_stop - t_start) - segment.sync_time
        stream.total_sos += sos
        stream.total_count += 1
        limit = self.history_limit
        if limit is not None and stream.next_index > limit:
            self.window_evictions += 1
        history = stream.recent_sos
        if len(history) >= 8:
            med = _median(sorted(history))
            mad = _median(sorted([abs(v - med) for v in history])) * MAD_SCALE
            scale = max(mad, 0.01 * abs(med))
            if scale > 0:
                z = (sos - med) / scale
                material = sos > med * (1 + self.min_relative_excess)
                if z > self.alert_threshold and material:
                    self.alerts.append(Alert(segment, float(z), len(history)))
        history.append(sos)
