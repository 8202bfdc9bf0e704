"""Text and dict rendering of analysis results.

The text report is what the CLI prints; the dict form backs the JSON
export and the benchmark harness' paper-versus-measured tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..trace.definitions import Paradigm
from .imbalance import finite_median

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import VariationAnalysis

__all__ = ["format_report", "report_dict"]


def _fmt_seconds(value: float) -> str:
    if not np.isfinite(value):
        return "n/a"
    if value >= 1.0:
        return f"{value:.3f} s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f} ms"
    return f"{value * 1e6:.3f} us"


def format_report(analysis: "VariationAnalysis", max_rows: int = 10) -> str:
    """Render a human-readable summary of one analysis."""
    trace = analysis.trace
    sel = analysis.selection
    sos = analysis.sos
    imb = analysis.imbalance

    lines: list[str] = []
    push = lines.append
    push(f"Performance-variation analysis of trace {trace.name!r}")
    push(
        f"  processes: {len(sos.ranks)}   events: {analysis.trace.num_events}   "
        f"duration: {_fmt_seconds(analysis.trace.duration)}"
    )
    mpi_share = analysis.profile.paradigm_share(Paradigm.MPI)
    push(f"  MPI time share: {100 * mpi_share:.1f}%")
    push("")
    push("Dominant function selection")
    push(
        f"  selected: {sel.name!r} at level {sel.level} "
        f"(threshold {sel.min_invocations} invocations)"
    )
    for i, cand in enumerate(sel.candidates[: max_rows]):
        marker = "->" if i == sel.level else "  "
        push(
            f"  {marker} [{i}] {cand.name:<28} incl={cand.inclusive_sum:>12.6g}"
            f"  invocations={cand.count}"
        )
    push("")
    push("Segments and SOS-times")
    totals = sos.per_rank_total()
    push(
        f"  segments: {analysis.segmentation.total_segments} total, "
        f"{float(np.mean(analysis.segmentation.counts())):.1f} per rank"
    )
    if totals.size:
        push(
            f"  per-rank total SOS: min={totals.min():.6g} "
            f"median={finite_median(totals):.6g} max={totals.max():.6g}"
        )
    push(f"  load imbalance: {imb.imbalance_pct:.1f}% (max-mean)/max of total SOS")
    push(f"  trend (SOS): {analysis.trend.describe()}")
    push(f"  trend (plain duration): {analysis.duration_trend.describe()}")
    push("")
    push("Findings")
    if not imb.has_findings:
        push("  no significant runtime imbalance detected")
    if imb.hot_ranks:
        push("  hot ranks (aggregate SOS anomaly):")
        for h in imb.hot_ranks[:max_rows]:
            push(f"    {h}")
    if imb.hot_segments:
        push("  hot segments (single-invocation anomaly):")
        for h in imb.hot_segments[:max_rows]:
            push(f"    {h}")
    return "\n".join(lines)


def report_dict(analysis: "VariationAnalysis") -> dict:
    """JSON-serialisable analysis summary."""
    sel = analysis.selection
    imb = analysis.imbalance
    totals = analysis.sos.per_rank_total()
    return {
        "trace": analysis.trace.name,
        "processes": len(analysis.sos.ranks),
        "events": analysis.trace.num_events,
        "duration": analysis.trace.duration,
        "mpi_share": analysis.profile.paradigm_share(Paradigm.MPI),
        "dominant": {
            "name": sel.name,
            "region": sel.region,
            "level": sel.level,
            "candidates": [
                {
                    "name": c.name,
                    "inclusive_sum": c.inclusive_sum,
                    "count": c.count,
                }
                for c in sel.candidates
            ],
        },
        "segments": {
            "total": analysis.segmentation.total_segments,
            "per_rank_sos_total": totals.tolist(),
        },
        "imbalance_pct": imb.imbalance_pct,
        "trend": {
            "slope": analysis.trend.slope,
            "relative_slope": analysis.trend.relative_slope,
            "p_value": analysis.trend.p_value,
            "increasing": analysis.trend.increasing,
        },
        "hot_ranks": [
            {"rank": h.rank, "total_sos": h.total_sos, "zscore": h.zscore}
            for h in imb.hot_ranks
        ],
        "hot_segments": [
            {
                "rank": h.rank,
                "segment_index": h.segment_index,
                "t_start": h.t_start,
                "t_stop": h.t_stop,
                "sos": h.sos,
                "score": h.score,
            }
            for h in imb.hot_segments
        ],
    }
