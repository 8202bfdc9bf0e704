"""Segment drill-down: what did a hot segment actually spend time on?

The paper ends each case study with "focused subsequent analysis can
... reveal the cause" — the analyst zooms into the flagged spot and
reads the breakdown.  :func:`explain_segment` automates that reading:
for one (rank, segment) it reports the exclusive-time breakdown by
region, the synchronization split, counter rates, and how each number
compares to the same segment index on the other ranks.
"""

from __future__ import annotations

import numpy as np

from .._record import field, record
from ..trace.definitions import MetricMode
from .metrics import metric_series
from .pipeline import VariationAnalysis

__all__ = ["RegionShare", "SegmentExplanation", "explain_segment"]


@record(frozen=True, slots=True)
class RegionShare:
    """Exclusive time of one region inside one segment."""

    name: str
    exclusive: float
    share: float  # of the segment duration
    count: int
    #: Median exclusive time the same region takes in this segment
    #: index on the other ranks (NaN when absent elsewhere).
    typical_elsewhere: float

    @property
    def excess(self) -> float:
        """Seconds above typical (0 when at or below typical)."""
        if not np.isfinite(self.typical_elsewhere):
            return 0.0
        return max(self.exclusive - self.typical_elsewhere, 0.0)


@record(slots=True)
class SegmentExplanation:
    """Complete breakdown of one segment."""

    rank: int
    segment_index: int
    t_start: float
    t_stop: float
    duration: float
    sync_time: float
    sos: float
    regions: list[RegionShare] = field(default_factory=list)
    counter_rates: dict[str, float] = field(default_factory=dict)
    #: Same-counter median rate across the other ranks' segments.
    typical_counter_rates: dict[str, float] = field(default_factory=dict)

    def dominant_excess(self) -> RegionShare | None:
        """The region contributing the most time above typical."""
        candidates = [r for r in self.regions if r.excess > 0]
        return max(candidates, key=lambda r: r.excess, default=None)

    def format(self, k: int = 8) -> str:
        lines = [
            f"segment {self.segment_index} on rank {self.rank} "
            f"[{self.t_start:.6g}s, {self.t_stop:.6g}s]",
            f"  duration {self.duration:.6g}s = SOS {self.sos:.6g}s "
            f"+ sync {self.sync_time:.6g}s",
            f"  {'region':<28}{'excl':>12}{'share':>8}{'typical':>12}",
        ]
        for r in self.regions[:k]:
            typical = (
                f"{r.typical_elsewhere:.4g}"
                if np.isfinite(r.typical_elsewhere)
                else "n/a"
            )
            lines.append(
                f"  {r.name:<28}{r.exclusive:>12.6g}{100 * r.share:>7.1f}%"
                f"{typical:>12}"
            )
        for name, rate in self.counter_rates.items():
            typical = self.typical_counter_rates.get(name, np.nan)
            note = (
                f" (typical {typical:.4g})" if np.isfinite(typical) else ""
            )
            lines.append(f"  counter {name}: {rate:.4g}/s{note}")
        culprit = self.dominant_excess()
        if culprit is not None:
            lines.append(
                f"  -> {culprit.name!r} runs {culprit.excess:.6g}s above "
                "typical; focus there"
            )
        return "\n".join(lines)


def _segment_region_breakdown(
    analysis: VariationAnalysis, rank: int, index: int
) -> dict[int, tuple[float, int]]:
    """region id → (exclusive seconds, count) inside the segment."""
    table = analysis.profile.tables[rank]
    seg = analysis.segmentation[rank]
    t0 = float(seg.t_start[index])
    t1 = float(seg.t_stop[index])
    inside = (table.t_enter >= t0) & (table.t_leave <= t1)
    out: dict[int, tuple[float, int]] = {}
    regions = table.region[inside]
    exclusive = table.exclusive[inside]
    for region in np.unique(regions):
        mask = regions == region
        out[int(region)] = (float(exclusive[mask].sum()), int(mask.sum()))
    return out


def explain_segment(
    analysis: VariationAnalysis,
    rank: int,
    segment_index: int,
    peer_sample: int = 16,
) -> SegmentExplanation:
    """Break one segment down by region and counters.

    ``peer_sample`` bounds how many other ranks are consulted for the
    "typical" baselines (median over that sample).
    """
    seg = analysis.segmentation[rank]
    if not 0 <= segment_index < len(seg):
        raise IndexError(
            f"rank {rank} has {len(seg)} segments; no index {segment_index}"
        )
    sos = analysis.sos[rank]
    t0 = float(seg.t_start[segment_index])
    t1 = float(seg.t_stop[segment_index])
    duration = t1 - t0

    breakdown = _segment_region_breakdown(analysis, rank, segment_index)

    # Typical values: same segment index on a sample of other ranks.
    peers = [r for r in analysis.sos.ranks if r != rank][:peer_sample]
    peer_breakdowns = [
        _segment_region_breakdown(analysis, peer, segment_index)
        for peer in peers
        if segment_index < len(analysis.segmentation[peer])
    ]

    regions = []
    trace = analysis.trace
    for region_id, (exclusive, count) in sorted(
        breakdown.items(), key=lambda kv: -kv[1][0]
    ):
        peer_values = [
            pb[region_id][0] for pb in peer_breakdowns if region_id in pb
        ]
        typical = float(np.median(peer_values)) if peer_values else np.nan
        regions.append(
            RegionShare(
                name=trace.regions[region_id].name,
                exclusive=exclusive,
                share=exclusive / duration if duration > 0 else 0.0,
                count=count,
                typical_elsewhere=typical,
            )
        )

    explanation = SegmentExplanation(
        rank=rank,
        segment_index=segment_index,
        t_start=t0,
        t_stop=t1,
        duration=duration,
        sync_time=float(sos.sync_time[segment_index]),
        sos=float(sos.sos[segment_index]),
        regions=regions,
    )

    # Counter rates inside the segment vs. peers.
    for metric in trace.metrics:
        if metric.mode != MetricMode.ACCUMULATED:
            continue
        series = metric_series(trace, metric.id)
        own = series.get(rank)
        if own is None or len(own) == 0 or duration <= 0:
            continue
        explanation.counter_rates[metric.name] = own.delta(t0, t1) / duration
        peer_rates = []
        for peer in peers:
            ps = series.get(peer)
            pseg = analysis.segmentation[peer]
            if ps is None or len(ps) == 0 or segment_index >= len(pseg):
                continue
            pt0 = float(pseg.t_start[segment_index])
            pt1 = float(pseg.t_stop[segment_index])
            if pt1 > pt0:
                peer_rates.append(ps.delta(pt0, pt1) / (pt1 - pt0))
        if peer_rates:
            explanation.typical_counter_rates[metric.name] = float(
                np.median(peer_rates)
            )
    return explanation
