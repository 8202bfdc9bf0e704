"""Detection of runtime imbalances from SOS-times.

The paper presents SOS-times visually and lets the analyst "follow the
red".  To make the reproduction testable end to end, this module also
implements the detection the visualization performs in the analyst's
eye: robust outlier statistics over the SOS matrix yielding

* **hot ranks** — processes whose computation is consistently slower
  (COSMO-SPECS case, Figure 4b),
* **hot segments** — single invocations far above both their rank's and
  their iteration's typical SOS (COSMO-SPECS+FD4 case, Figure 5c),

each with a severity score (robust z-score based on median/MAD).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import MAD_SCALE
from .._record import field, record

if TYPE_CHECKING:
    from .sos import SOSResult

__all__ = [
    "Hotspot",
    "RankHotspot",
    "ImbalanceReport",
    "robust_zscores",
    "detect_imbalances",
    "imbalance_percentage",
]


# NumPy's median functions import numpy.ma on first use (~15 ms of a
# warm ``analyze``): ``np.median`` touches ``np.ma`` in its NaN check and
# ``np.nanmedian`` masks short rows.  The two helpers below select the
# same order statistics and add them the way NumPy's reductions do,
# starting from +0.0, so every result — a zero median's sign included —
# is bitwise NumPy's.


def finite_median(values: np.ndarray, overwrite_input: bool = False) -> np.float64:
    """``np.median`` of a finite 1-D array, bitwise (NaN when empty).

    ``overwrite_input`` partitions ``values`` in place, as NumPy does.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return np.float64(np.nan)
    half, odd = divmod(v.size, 2)
    kth = half if odd else [half - 1, half]
    if overwrite_input:
        v.partition(kth)
    else:
        v = np.partition(v, kth)
    if odd:
        return v[half] + 0.0
    return (v[half - 1] + v[half] + 0.0) / 2


def _nanmedian_rows(matrix: np.ndarray) -> np.ndarray:
    """``np.nanmedian(matrix, axis=1)`` for rows without infinities and
    with at least one finite value, bitwise.

    NaN sorts last, so the finite count locates the middle pair; an odd
    count pairs the middle element with itself.
    """
    ordered = np.sort(matrix, axis=1)
    count = np.count_nonzero(~np.isnan(matrix), axis=1)
    half = count // 2
    hi = np.take_along_axis(ordered, half[:, None], axis=1)[:, 0]
    lo = np.take_along_axis(ordered, (half - 1 + count % 2)[:, None], axis=1)[:, 0]
    return (lo + hi + 0.0) / 2


def robust_zscores(values: np.ndarray, rel_floor: float = 0.01) -> np.ndarray:
    """Median/MAD-based z-scores, NaN-safe.

    The scale is ``max(1.4826 * MAD, rel_floor * |median|)``.  The
    relative floor handles the common degenerate case of performance
    data where most values are (nearly) identical and a few true
    outliers exist: the MAD collapses to zero there, and a standard-
    deviation fallback would be polluted by the very outliers we want
    to detect.  With the floor, deviations are measured against "1% of
    typical" instead — any materially larger deviation scores high,
    and the caller's materiality threshold keeps noise out.

    Falls back to standard z-scores only when both MAD and median are
    zero, and to zeros when the data has no spread at all.
    """
    values = np.asarray(values, dtype=np.float64)
    out = np.full(values.shape, np.nan)
    finite = np.isfinite(values)
    if not np.any(finite):
        return out
    v = values[finite]
    med = finite_median(v)
    mad = finite_median(np.abs(v - med), overwrite_input=True) * MAD_SCALE
    scale = max(mad, rel_floor * abs(med))
    if scale <= 0:
        std = np.std(v)
        if std <= 0:
            out[finite] = 0.0
            return out
        out[finite] = (v - med) / std
        return out
    out[finite] = (v - med) / scale
    return out


def _robust_zscores_rows(matrix: np.ndarray, rel_floor: float = 0.01) -> np.ndarray:
    """Row-wise :func:`robust_zscores`, vectorised.

    Bitwise-identical to ``np.apply_along_axis(robust_zscores, 1, m)``
    but without the per-row Python dispatch (the dominant cost of
    segment-level detection on long traces).  The identity holds
    because :func:`_nanmedian_rows` over a row computes the median of
    exactly the same value multiset as ``finite_median(row[finite])``,
    and the per-element ``(x - med) / scale`` then sees identical
    operands.  Rows that hit a degenerate branch — infinities (which
    NaN-skipping would treat as finite), zero scale, or no finite
    values — are
    delegated to the exact scalar implementation.
    """
    m = np.asarray(matrix, dtype=np.float64)
    out = np.full(m.shape, np.nan)
    if m.size == 0:
        return out
    finite = np.isfinite(m)
    any_finite = np.any(finite, axis=1)
    simple = any_finite & ~np.any(np.isinf(m), axis=1)
    if np.any(simple):
        sub = m[simple]
        med = _nanmedian_rows(sub)
        mad = _nanmedian_rows(np.abs(sub - med[:, None])) * MAD_SCALE
        scale = np.maximum(mad, rel_floor * np.abs(med))
        good = scale > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            z = (sub - med[:, None]) / scale[:, None]
        rows = np.flatnonzero(simple)
        keep = rows[good]
        out[keep] = np.where(finite[keep], z[good], np.nan)
        for i in rows[~good]:
            out[i] = robust_zscores(m[i], rel_floor)
    for i in np.flatnonzero(any_finite & ~simple):
        out[i] = robust_zscores(m[i], rel_floor)
    return out


@record(frozen=True, slots=True)
class RankHotspot:
    """A process whose aggregate SOS-time is anomalously high."""

    rank: int
    total_sos: float
    zscore: float

    def __str__(self) -> str:
        return f"rank {self.rank}: total SOS {self.total_sos:.6g} (z={self.zscore:.2f})"


@record(frozen=True, slots=True)
class Hotspot:
    """A single segment whose SOS-time is anomalously high.

    ``zscore_rank`` measures the segment against the other segments of
    the *same rank* (temporal anomaly), ``zscore_step`` against the
    same segment index across *all ranks* (spatial anomaly); ``score``
    is the smaller of the two — high only when the segment stands out
    in both directions, which is the Figure-5c signature.
    """

    rank: int
    segment_index: int
    t_start: float
    t_stop: float
    sos: float
    zscore_rank: float
    zscore_step: float

    @property
    def score(self) -> float:
        return min(self.zscore_rank, self.zscore_step)

    def __str__(self) -> str:
        return (
            f"rank {self.rank} segment {self.segment_index} "
            f"[{self.t_start:.6g}, {self.t_stop:.6g}]: SOS {self.sos:.6g} "
            f"(z_rank={self.zscore_rank:.2f}, z_step={self.zscore_step:.2f})"
        )


@record(slots=True)
class ImbalanceReport:
    """All detections for one SOS analysis."""

    hot_ranks: list[RankHotspot] = field(default_factory=list)
    hot_segments: list[Hotspot] = field(default_factory=list)
    #: Percent imbalance of per-rank total SOS: (max-mean)/max * 100.
    imbalance_pct: float = 0.0

    @property
    def has_findings(self) -> bool:
        return bool(self.hot_ranks or self.hot_segments)

    def hottest_rank(self) -> RankHotspot | None:
        return self.hot_ranks[0] if self.hot_ranks else None

    def hottest_segment(self) -> Hotspot | None:
        return self.hot_segments[0] if self.hot_segments else None


def imbalance_percentage(per_rank_total: np.ndarray) -> float:
    """Classical load-imbalance percentage ``(max - mean) / max * 100``."""
    per_rank_total = np.asarray(per_rank_total, dtype=np.float64)
    finite = per_rank_total[np.isfinite(per_rank_total)]
    if len(finite) == 0:
        return 0.0
    mx = float(np.max(finite))
    if mx <= 0:
        return 0.0
    return (mx - float(np.mean(finite))) / mx * 100.0


def detect_imbalances(
    sos: SOSResult,
    rank_threshold: float = 3.0,
    segment_threshold: float = 3.0,
    min_relative_excess: float = 0.1,
    max_findings: int = 50,
) -> ImbalanceReport:
    """Run rank-level and segment-level outlier detection.

    Parameters
    ----------
    rank_threshold, segment_threshold:
        Robust z-score cutoffs; 3.0 flags values more than three
        (MAD-scaled) deviations above the median.
    min_relative_excess:
        A rank additionally needs a total SOS at least this fraction
        above the median to be flagged.  Pure z-scores over-trigger on
        very quiet data where the MAD reflects only measurement jitter;
        the paper's wording ("notably higher runtime") implies a
        materiality bar, not just statistical separation.
    max_findings:
        Keep only the most severe findings of each kind.
    """
    report = ImbalanceReport()
    ranks = np.asarray(sos.ranks, dtype=np.int64)
    if len(ranks) == 0:
        return report

    totals = sos.per_rank_total()
    report.imbalance_pct = imbalance_percentage(totals)
    z_totals = robust_zscores(totals)
    median_total = float(finite_median(totals[np.isfinite(totals)]))
    materiality = median_total * (1.0 + min_relative_excess)
    hot = np.flatnonzero((z_totals > rank_threshold) & (totals > materiality))
    rank_hotspots = [
        RankHotspot(
            rank=int(ranks[i]), total_sos=float(totals[i]), zscore=float(z_totals[i])
        )
        for i in hot
    ]
    rank_hotspots.sort(key=lambda h: -h.zscore)
    report.hot_ranks = rank_hotspots[:max_findings]

    matrix = sos.matrix()  # (ranks, segments)
    if matrix.size:
        # Temporal anomaly: each segment vs. the segments of its rank.
        z_rank = _robust_zscores_rows(matrix)
        # Spatial anomaly: each segment vs. the same step on other ranks.
        z_step = _robust_zscores_rows(matrix.T).T
        score = np.fmin(z_rank, z_step)
        hot_cells = np.argwhere(score > segment_threshold)
        hotspots = []
        for i, j in hot_cells:
            rank = int(ranks[i])
            seg = sos.segmentation[rank]
            hotspots.append(
                Hotspot(
                    rank=rank,
                    segment_index=int(j),
                    t_start=float(seg.t_start[j]),
                    t_stop=float(seg.t_stop[j]),
                    sos=float(matrix[i, j]),
                    zscore_rank=float(z_rank[i, j]),
                    zscore_step=float(z_step[i, j]),
                )
            )
        hotspots.sort(key=lambda h: -h.score)
        report.hot_segments = hotspots[:max_findings]
    return report
