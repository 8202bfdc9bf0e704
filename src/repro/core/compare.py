"""Comparison of two application runs (before/after a change).

The paper positions itself against alignment-based *trace comparison*
(Weber et al. [20]), which highlights differences between runs but not
between processes within one run.  This module provides the
complementary workflow on top of our segment model: align two runs of
the same application by (rank, segment index), compare their SOS-times
and report where a change made things slower or faster — the
regression-hunting loop an analyst enters right after fixing a
bottleneck the heat map exposed.
"""

from __future__ import annotations

import numpy as np

from .._record import field, record
from .pipeline import AnalysisConfig, VariationAnalysis

__all__ = ["RunComparison", "SegmentDelta", "compare_analyses", "compare_traces"]


@record(frozen=True, slots=True)
class SegmentDelta:
    """One aligned segment pair with a material SOS difference."""

    rank: int
    segment_index: int
    sos_a: float
    sos_b: float

    @property
    def delta(self) -> float:
        return self.sos_b - self.sos_a

    @property
    def ratio(self) -> float:
        return self.sos_b / self.sos_a if self.sos_a > 0 else np.inf

    def __str__(self) -> str:
        sign = "+" if self.delta >= 0 else ""
        return (
            f"rank {self.rank} segment {self.segment_index}: "
            f"{self.sos_a:.6g}s -> {self.sos_b:.6g}s "
            f"({sign}{100 * (self.ratio - 1):.1f}%)"
        )


@record(slots=True)
class RunComparison:
    """Result of aligning two runs segment by segment.

    ``a`` is the reference run, ``b`` the candidate.  All per-rank
    arrays are ordered by the common rank list ``ranks``.
    """

    ranks: list[int]
    per_rank_total_a: np.ndarray
    per_rank_total_b: np.ndarray
    aligned_segments: int
    regressions: list[SegmentDelta] = field(default_factory=list)
    improvements: list[SegmentDelta] = field(default_factory=list)

    @property
    def total_a(self) -> float:
        return float(self.per_rank_total_a.sum())

    @property
    def total_b(self) -> float:
        return float(self.per_rank_total_b.sum())

    @property
    def speedup(self) -> float:
        """Total-SOS speedup of b over a (>1 means b is faster)."""
        return self.total_a / self.total_b if self.total_b > 0 else np.inf

    def rank_deltas(self) -> np.ndarray:
        return self.per_rank_total_b - self.per_rank_total_a

    def format(self, k: int = 8) -> str:
        lines = [
            f"aligned {self.aligned_segments} segments on "
            f"{len(self.ranks)} common ranks",
            f"total SOS: {self.total_a:.6g}s -> {self.total_b:.6g}s "
            f"(speedup {self.speedup:.3f}x)",
        ]
        if self.regressions:
            lines.append(f"top regressions ({len(self.regressions)} total):")
            lines.extend(f"  {d}" for d in self.regressions[:k])
        if self.improvements:
            lines.append(f"top improvements ({len(self.improvements)} total):")
            lines.extend(f"  {d}" for d in self.improvements[:k])
        if not self.regressions and not self.improvements:
            lines.append("no material per-segment differences")
        return "\n".join(lines)


def compare_analyses(
    a: VariationAnalysis,
    b: VariationAnalysis,
    min_relative_delta: float = 0.25,
    min_absolute_delta: float = 0.0,
    max_findings: int = 100,
) -> RunComparison:
    """Align two analyses by (rank, segment index) and diff SOS-times.

    Both analyses should segment by the same function name; a mismatch
    raises, because comparing segments of different granularity is
    meaningless.

    Parameters
    ----------
    min_relative_delta:
        A segment pair is reported when the SOS changes by at least
        this fraction (and ``min_absolute_delta`` seconds).
    """
    if a.dominant_name != b.dominant_name:
        raise ValueError(
            f"runs segmented by different functions: {a.dominant_name!r} "
            f"vs {b.dominant_name!r}; pin one with at_function()"
        )
    common = sorted(set(a.sos.ranks) & set(b.sos.ranks))
    if not common:
        raise ValueError("runs share no ranks")

    totals_a = []
    totals_b = []
    regressions: list[SegmentDelta] = []
    improvements: list[SegmentDelta] = []
    aligned = 0
    for rank in common:
        sos_a = a.sos[rank].sos
        sos_b = b.sos[rank].sos
        totals_a.append(float(sos_a.sum()))
        totals_b.append(float(sos_b.sum()))
        n = min(len(sos_a), len(sos_b))
        aligned += n
        if n == 0:
            continue
        va, vb = sos_a[:n], sos_b[:n]
        delta = vb - va
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(va > 0, np.abs(delta) / va, np.inf)
        material = (rel >= min_relative_delta) & (
            np.abs(delta) >= min_absolute_delta
        )
        for idx in np.flatnonzero(material):
            record = SegmentDelta(
                rank=rank,
                segment_index=int(idx),
                sos_a=float(va[idx]),
                sos_b=float(vb[idx]),
            )
            (regressions if record.delta > 0 else improvements).append(record)

    regressions.sort(key=lambda d: -d.delta)
    improvements.sort(key=lambda d: d.delta)
    return RunComparison(
        ranks=common,
        per_rank_total_a=np.asarray(totals_a),
        per_rank_total_b=np.asarray(totals_b),
        aligned_segments=aligned,
        regressions=regressions[:max_findings],
        improvements=improvements[:max_findings],
    )


def compare_traces(
    trace_a,
    trace_b,
    config: AnalysisConfig | None = None,
    dominant: str | None = None,
    cache_dir=None,
    session_a=None,
    session_b=None,
    shards: int | None = None,
    max_memory_mb: float | None = None,
    **kwargs,
) -> RunComparison:
    """Analyze two traces and compare them.

    ``dominant`` pins both segmentations to the named function; by
    default each trace's own selection is used (and must agree).  Each
    trace gets its own :class:`~repro.core.session.AnalysisSession`;
    with a shared ``cache_dir`` the reference run's artifacts persist,
    so re-comparing against new candidates replays only the new trace.

    Pre-built sessions may be passed via ``session_a``/``session_b``
    (their trace wins; the CLI uses this to run sharded comparisons
    without materialising either trace in the parent process), and
    ``shards``/``max_memory_mb`` forward to the sharded engine when
    the sessions are constructed here.
    """
    from .session import AnalysisSession

    if session_a is None:
        session_a = AnalysisSession(
            trace_a, config=config, cache_dir=cache_dir,
            shards=shards, max_memory_mb=max_memory_mb,
        )
    if session_b is None:
        session_b = AnalysisSession(
            trace_b, config=config, cache_dir=cache_dir,
            shards=shards, max_memory_mb=max_memory_mb,
        )
    a = session_a.analysis(function=dominant)
    b = session_b.analysis(function=dominant)
    return compare_analyses(a, b, **kwargs)
