"""Temporal variation analysis of segment times.

Covers the paper's time-axis observations: "throughout the execution,
the fraction of MPI increases" and "we observe gradually increased
durations towards the end of the run" (Section VII-A).  The trend
detector uses the robust Theil–Sen slope plus a Mann–Kendall test so a
single outlier iteration does not masquerade as a trend.

Also provides the time-binned SOS matrix that backs the heat-map
visualization: a dense ``(ranks, bins)`` array where each cell holds
the SOS value of the segment covering that time bin.
"""

from __future__ import annotations

import math

import numpy as np

from .._record import record
from .imbalance import finite_median
from .sos import SOSResult

__all__ = [
    "TrendResult",
    "detect_trend",
    "mann_kendall",
    "theil_sen_slope",
    "binned_matrix",
    "step_series",
]


@record(frozen=True, slots=True)
class TrendResult:
    """Outcome of the temporal trend test on per-step mean values.

    Attributes
    ----------
    slope:
        Theil–Sen slope in value-units per segment index.
    relative_slope:
        Slope normalised by the median value (fraction per step).
    tau, p_value:
        Mann–Kendall's tau statistic and two-sided p-value.
    increasing / decreasing:
        Significant monotonic trend flags.
    """

    slope: float
    relative_slope: float
    tau: float
    p_value: float
    n_steps: int

    #: Minimum |relative slope| for a trend to count as material; this
    #: guards against floating-point tie-breaking producing "significant"
    #: slopes on the order of 1e-18 on perfectly flat data.
    MIN_RELATIVE_SLOPE = 1e-9

    @property
    def increasing(self) -> bool:
        return (
            self.p_value < 0.05
            and self.slope > 0
            and self.relative_slope > self.MIN_RELATIVE_SLOPE
        )

    @property
    def decreasing(self) -> bool:
        return (
            self.p_value < 0.05
            and self.slope < 0
            and self.relative_slope < -self.MIN_RELATIVE_SLOPE
        )

    def describe(self) -> str:
        if self.increasing:
            direction = "increasing"
        elif self.decreasing:
            direction = "decreasing"
        else:
            direction = "no significant trend"
        return (
            f"{direction} (Theil-Sen slope {self.slope:.4g}/step, "
            f"{100 * self.relative_slope:.2f}%/step, "
            f"MK tau={self.tau:.2f}, p={self.p_value:.3g}, n={self.n_steps})"
        )


#: Below this length, count inversions by direct pairwise comparison.
_INV_BRUTE = 64


def _inversions(v: np.ndarray) -> tuple[int, np.ndarray]:
    """Count pairs ``i < j`` with ``v[i] > v[j]``; also return sorted v.

    Classic divide-and-conquer: cross-half inversions fall out of one
    ``searchsorted`` against the sorted left half, so the whole count is
    O(n log² n) with no n×n temporaries.
    """
    n = len(v)
    if n < _INV_BRUTE:
        if n < 2:
            return 0, v.copy()
        d = int(np.count_nonzero(np.triu(v[:, None] > v[None, :], k=1)))
        return d, np.sort(v)
    mid = n // 2
    dl, left = _inversions(v[:mid])
    dr, right = _inversions(v[mid:])
    cross = int(np.sum(np.searchsorted(left, right, side="right"),
                       dtype=np.int64))
    d = dl + dr + (len(left) * len(right) - cross)
    merged = np.empty(n, dtype=v.dtype)
    take_left = np.searchsorted(
        right, left, side="left"
    ) + np.arange(len(left))
    merged[take_left] = left
    mask = np.ones(n, dtype=bool)
    mask[take_left] = False
    merged[mask] = right
    return d, merged


def _kendall_s(v: np.ndarray) -> int:
    """Kendall's S = Σ_{i<j} sign(v_j - v_i), computed exactly.

    With x strictly increasing, S equals the number of comparable pairs
    minus twice the number of (strict) inversions of ``v``.  S is an
    integer, and the legacy full-matrix float sum of ±1 terms is exact
    (|S| ≪ 2^53), so this reproduces it bitwise without the n×n sign
    matrix.
    """
    n = len(v)
    if not np.all(np.isfinite(v)):
        # The merge-count/np.unique machinery below would turn NaNs
        # into an arbitrary finite S where the legacy sign-matrix sum
        # propagated NaN; refuse rather than fabricate a trend.
        # (mann_kendall filters to finite values before calling us.)
        raise ValueError("_kendall_s requires finite values")
    inv, _ = _inversions(v)
    _, counts = np.unique(v, return_counts=True)
    ties = int(np.sum(counts * (counts - 1) // 2, dtype=np.int64))
    comparable = n * (n - 1) // 2 - ties
    return comparable - 2 * inv


def _theil_sen_slope(series: np.ndarray) -> float:
    """Theil–Sen slope of ``series`` against ``x = arange(n)``.

    Bitwise-identical to ``scipy.stats.theilslopes(series, arange(n))[0]``:
    the pairwise slope multiset ``(y_j - y_i) / (j - i)`` for i < j is
    exactly the set scipy builds from its ``deltax > 0`` mask, and the
    median selects the same order statistics either way.  The slopes
    are generated gap-by-gap (``(y[d:] - y[:-d]) / d``) straight into
    one flat buffer which the median then partitions in place, so peak
    memory is one float per pair — not the five-per-pair of index
    arrays plus gather temporaries plus a median copy.
    """
    n = len(series)
    slopes = np.empty(n * (n - 1) // 2, dtype=np.float64)
    pos = 0
    for d in range(1, n):
        m = n - d
        out = slopes[pos : pos + m]
        np.subtract(series[d:], series[:-d], out=out)
        out /= d
        pos += m
    return float(finite_median(slopes, overwrite_input=True))


#: Public alias — the perf regression radar (:mod:`repro.perf`) runs
#: the same O(n)-memory estimator over benchmark history series.
theil_sen_slope = _theil_sen_slope


def mann_kendall(values: np.ndarray) -> tuple[float, float]:
    """Mann–Kendall monotonic-trend test.

    Returns ``(tau, p_value)``.  Implemented with the normal
    approximation including the tie correction; for fewer than 3 finite
    values returns ``(0.0, 1.0)``.
    """
    v = np.asarray(values, dtype=np.float64)
    v = v[np.isfinite(v)]
    n = len(v)
    if n < 3:
        return 0.0, 1.0
    s = float(_kendall_s(v))

    # Variance with tie correction.
    _, counts = np.unique(v, return_counts=True)
    tie_term = float(np.sum(counts * (counts - 1) * (2 * counts + 5)))
    var_s = (n * (n - 1) * (2 * n + 5) - tie_term) / 18.0
    denom = n * (n - 1) / 2.0
    tau = s / denom if denom else 0.0
    if var_s <= 0:
        return tau, 1.0
    if s > 0:
        z = (s - 1) / np.sqrt(var_s)
    elif s < 0:
        z = (s + 1) / np.sqrt(var_s)
    else:
        z = 0.0
    # Two-sided normal tail: 2 * sf(|z|) == erfc(|z| / sqrt(2)).
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return tau, p


def detect_trend(sos: SOSResult, use_plain_duration: bool = False) -> TrendResult:
    """Test whether segment times drift over the run.

    Aggregates the SOS matrix (or plain durations when
    ``use_plain_duration``) to a per-step mean across ranks, then runs
    Theil–Sen + Mann–Kendall on that series.
    """
    matrix = sos.duration_matrix() if use_plain_duration else sos.matrix()
    if matrix.size == 0:
        return TrendResult(0.0, 0.0, 0.0, 1.0, 0)
    with np.errstate(invalid="ignore"):
        series = np.nanmean(matrix, axis=0)
    series = series[np.isfinite(series)]
    n = len(series)
    if n < 3:
        return TrendResult(0.0, 0.0, 0.0, 1.0, n)
    slope = _theil_sen_slope(series)
    tau, p = mann_kendall(series)
    med = float(finite_median(series))
    rel = float(slope) / med if med else 0.0
    return TrendResult(
        slope=float(slope),
        relative_slope=rel,
        tau=float(tau),
        p_value=float(p),
        n_steps=n,
    )


def step_series(sos: SOSResult, reducer=np.nanmean) -> np.ndarray:
    """Per-step reduction of the SOS matrix across ranks."""
    matrix = sos.matrix()
    if matrix.size == 0:
        return np.empty(0)
    with np.errstate(invalid="ignore"):
        return reducer(matrix, axis=0)


def binned_matrix(
    sos: SOSResult,
    bins: int = 512,
    t0: float | None = None,
    t1: float | None = None,
    normalize: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Rasterise SOS-times onto a ``(ranks, bins)`` time grid.

    Each cell holds the SOS value of the segment covering the bin's
    centre (NaN where no segment covers it).  This is the step-function
    metric view the paper overlays on timeline charts; the heat-map
    renderer consumes it directly.

    Returns
    -------
    (matrix, bin_edges)
    """
    seg = sos.segmentation
    lo = seg.t_min if t0 is None else t0
    hi = seg.t_max if t1 is None else t1
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])

    ranks = sos.ranks
    out = np.full((len(ranks), bins), np.nan, dtype=np.float64)
    for i, rank in enumerate(ranks):
        rs = seg[rank]
        if len(rs) == 0:
            continue
        idx = np.searchsorted(rs.t_start, centers, side="right") - 1
        valid = idx >= 0
        covered = np.zeros_like(valid)
        covered[valid] = centers[valid] < rs.t_stop[idx[valid]]
        values = sos[rank].sos
        out[i, covered] = values[idx[covered]]
    if normalize:
        finite = np.isfinite(out)
        if np.any(finite):
            vmin = float(np.nanmin(out))
            vmax = float(np.nanmax(out))
            span = vmax - vmin
            if span > 0:
                out = (out - vmin) / span
            else:
                out = np.where(finite, 0.0, np.nan)
    return out, edges
