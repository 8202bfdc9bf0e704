"""Counter (metric) analysis: series, per-segment deltas, heat binning.

The paper validates two root causes with hardware counters:
``PAPI_TOT_CYC`` exposes the OS interruption (Section VII-B: the slow
invocation has *few* cycles for its wall time) and
``FR_FPU_EXCEPTIONS_SSE_MICROTRAPS`` confirms the slow WRF rank
(Section VII-C: the counter heat map matches the SOS heat map).  This
module provides those views over METRIC events.
"""

from __future__ import annotations

import numpy as np

from .._record import record
from ..trace.definitions import MetricMode
from ..trace.events import EventKind
from ..trace.trace import Trace
from .segments import Segmentation

__all__ = [
    "MetricSeries",
    "metric_series",
    "segment_metric_delta",
    "per_rank_metric_total",
    "binned_metric_matrix",
    "metric_sos_correlation",
]


@record(frozen=True, slots=True)
class MetricSeries:
    """Samples of one metric on one rank."""

    rank: int
    metric: int
    times: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    def value_at(self, t: float) -> float:
        """Last sampled value at or before ``t`` (0.0 before first sample)."""
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return float(self.values[i]) if i >= 0 else 0.0

    def delta(self, t0: float, t1: float) -> float:
        """Increment of an accumulated counter over ``[t0, t1]``."""
        return self.value_at(t1) - self.value_at(t0)


def _resolve_metric(trace: Trace, metric: int | str) -> int:
    if isinstance(metric, str):
        return trace.metrics.id_of(metric)
    return int(metric)


def metric_series(trace: Trace, metric: int | str) -> dict[int, MetricSeries]:
    """Extract the sample series of one metric for every rank.

    Streams are read one at a time, only the columns a sample needs
    (:meth:`Trace.event_streams`), and only the samples are kept.
    """
    metric_id = _resolve_metric(trace, metric)
    out: dict[int, MetricSeries] = {}
    for rank, ev in trace.event_streams(columns=("kind", "ref", "value")):
        mask = (ev.kind == EventKind.METRIC) & (ev.ref == metric_id)
        out[rank] = MetricSeries(
            rank=rank,
            metric=metric_id,
            times=ev.time[mask],
            values=ev.value[mask],
        )
    return out


def per_rank_metric_total(trace: Trace, metric: int | str) -> np.ndarray:
    """Final value of an accumulated counter per rank (rank order)."""
    series = metric_series(trace, metric)
    return np.asarray(
        [
            float(series[r].values[-1]) if len(series[r]) else 0.0
            for r in sorted(series)
        ]
    )


def segment_metric_delta(
    trace: Trace, metric: int | str, segmentation: Segmentation
) -> np.ndarray:
    """Counter increment within each segment, ``(ranks, max_segments)``.

    For an accumulated counter this is the work done inside the
    segment; dividing by the segment duration yields the rate whose
    *drop* betrays an OS interruption.
    """
    series = metric_series(trace, metric)
    ranks = segmentation.ranks
    width = max((len(segmentation[r]) for r in ranks), default=0)
    out = np.full((len(ranks), width), np.nan, dtype=np.float64)
    for i, rank in enumerate(ranks):
        seg = segmentation[rank]
        ms = series.get(rank)
        if ms is None or len(ms) == 0 or len(seg) == 0:
            continue
        start_idx = np.searchsorted(ms.times, seg.t_start, side="right") - 1
        stop_idx = np.searchsorted(ms.times, seg.t_stop, side="right") - 1
        v = np.concatenate(([0.0], ms.values))
        out[i, : len(seg)] = v[stop_idx + 1] - v[start_idx + 1]
    return out


def binned_metric_matrix(
    trace: Trace,
    metric: int | str,
    bins: int = 512,
    t0: float | None = None,
    t1: float | None = None,
    as_rate: bool | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Rasterise a metric onto a ``(ranks, bins)`` time grid.

    For accumulated counters (``as_rate`` defaults to True) each cell
    holds the counter increment per second within the bin — the
    color-coded view of Figure 6c.  For absolute metrics each cell
    holds the last sample value at the bin centre.

    Returns ``(matrix, bin_edges)``.
    """
    metric_id = _resolve_metric(trace, metric)
    mode = trace.metrics[metric_id].mode
    if as_rate is None:
        as_rate = mode == MetricMode.ACCUMULATED
    lo = trace.t_min if t0 is None else t0
    hi = trace.t_max if t1 is None else t1
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    series = metric_series(trace, metric_id)
    ranks = sorted(series)
    out = np.full((len(ranks), bins), np.nan, dtype=np.float64)
    for i, rank in enumerate(ranks):
        ms = series[rank]
        if len(ms) == 0:
            continue
        if as_rate:
            v = np.concatenate(([0.0], ms.values))
            idx = np.searchsorted(ms.times, edges, side="right") - 1
            at_edges = v[idx + 1]
            out[i] = np.diff(at_edges) / np.diff(edges)
        else:
            centers = 0.5 * (edges[:-1] + edges[1:])
            idx = np.searchsorted(ms.times, centers, side="right") - 1
            valid = idx >= 0
            out[i, valid] = ms.values[idx[valid]]
    return out, edges


def metric_sos_correlation(
    per_rank_metric: np.ndarray, per_rank_sos: np.ndarray
) -> float:
    """Pearson correlation between per-rank counter and SOS totals.

    Quantifies the paper's "perfectly match" claim for Figure 6b/6c.
    Returns 0.0 when either vector is degenerate.
    """
    a = np.asarray(per_rank_metric, dtype=np.float64)
    b = np.asarray(per_rank_sos, dtype=np.float64)
    if len(a) != len(b) or len(a) < 2:
        raise ValueError("vectors must have equal length >= 2")
    if np.std(a) == 0 or np.std(b) == 0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])
