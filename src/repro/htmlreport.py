"""Self-contained HTML analysis reports.

Bundles the text findings, the interactive SVG heat map (tooltips per
segment) and the raster views (timeline, activity shares, counters)
into a single HTML file with no external assets — the shareable
artifact of an analysis session, standing in for a Vampir screenshot
plus notes.

All views are fed from the analysis' single set of invocation tables
(``analysis.profile.tables``); when the analysis came from an
:class:`~repro.core.session.AnalysisSession` those tables, the SOS
result and the heat grid are session-memoized, so rendering a report
after an ``analyze`` run recomputes nothing and the report carries the
trace's content fingerprint for provenance.
"""

from __future__ import annotations

import base64
import html
import os
from typing import TYPE_CHECKING

import numpy as np

from . import obs

if TYPE_CHECKING:  # pragma: no cover
    from .core.pipeline import VariationAnalysis

__all__ = ["render_html_report"]

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em auto;
       max-width: 1180px; color: #1c1c1c; background: #fcfcfa; }
h1 { font-size: 1.5em; border-bottom: 2px solid #444; padding-bottom: .3em; }
h2 { font-size: 1.15em; margin-top: 1.8em; }
table { border-collapse: collapse; margin: .8em 0; font-size: .92em; }
th, td { border: 1px solid #cfcfc8; padding: .35em .7em; text-align: left; }
th { background: #efefe8; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.finding { background: #fff3f0; border-left: 4px solid #c43; padding: .5em .8em;
           margin: .4em 0; }
.ok { background: #f0f7f0; border-left: 4px solid #5a5; padding: .5em .8em; }
.meta { color: #666; font-size: .88em; }
img, svg { max-width: 100%; height: auto; border: 1px solid #ddd; }
code { background: #f0f0ea; padding: 0 .25em; }
"""


def _png_tag(canvas, alt: str) -> str:
    from .viz.png import encode_png

    data = base64.b64encode(encode_png(canvas.pixels)).decode("ascii")
    return (
        f'<img alt="{html.escape(alt)}" '
        f'src="data:image/png;base64,{data}"/>'
    )


def _candidates_table(analysis: "VariationAnalysis") -> str:
    rows = []
    for i, cand in enumerate(analysis.selection.candidates[:10]):
        marker = " ← selected" if i == analysis.selection.level else ""
        rows.append(
            f"<tr><td>{i}</td><td><code>{html.escape(cand.name)}</code>"
            f"{marker}</td>"
            f'<td class="num">{cand.inclusive_sum:.6g}</td>'
            f'<td class="num">{cand.count}</td></tr>'
        )
    return (
        "<table><tr><th>level</th><th>function</th>"
        "<th>aggregated inclusive [s]</th><th>invocations</th></tr>"
        + "".join(rows)
        + "</table>"
    )


def _findings_section(analysis: "VariationAnalysis") -> str:
    imb = analysis.imbalance
    parts = []
    if not imb.has_findings:
        parts.append(
            '<div class="ok">No significant runtime imbalance detected.</div>'
        )
    for h in imb.hot_ranks[:10]:
        parts.append(
            f'<div class="finding"><b>Hot rank {h.rank}</b>: total SOS '
            f"{h.total_sos:.6g}s (robust z = {h.zscore:.1f})</div>"
        )
    for h in imb.hot_segments[:10]:
        parts.append(
            f'<div class="finding"><b>Hot segment</b>: rank {h.rank}, '
            f"invocation {h.segment_index} "
            f"[{h.t_start:.4g}s – {h.t_stop:.4g}s], SOS {h.sos:.6g}s "
            f"(score {h.score:.1f})</div>"
        )
    return "\n".join(parts)


def _per_rank_table(analysis: "VariationAnalysis", k: int = 10) -> str:
    totals = analysis.sos.per_rank_total()
    ranks = analysis.sos.ranks
    order = np.argsort(-totals)[:k]
    rows = "".join(
        f'<tr><td class="num">{ranks[i]}</td>'
        f'<td class="num">{totals[i]:.6g}</td></tr>'
        for i in order
    )
    return (
        "<table><tr><th>rank</th><th>total SOS [s]</th></tr>"
        + rows
        + "</table>"
    )


def render_html_report(
    analysis: "VariationAnalysis",
    path: str | os.PathLike | None = None,
    bins: int = 512,
    title: str | None = None,
    include_counters: bool = True,
) -> str:
    """Render one analysis to a self-contained HTML document.

    Returns the HTML string; additionally writes ``path`` when given.
    """
    from .core.activity import activity_shares
    from .trace.definitions import Paradigm
    from .viz.areachart import render_area_png
    from .viz.counterchart import render_counter_png
    from .viz.heatmap import render_sos_svg
    from .viz.timeline import render_timeline_png

    trace = analysis.trace
    if title is None:
        title = f"Performance-variation report — {trace.name}"

    mpi_share = analysis.profile.paradigm_share(Paradigm.MPI)
    session = getattr(analysis, "session", None)
    sections: list[str] = []
    sections.append(f"<h1>{html.escape(title)}</h1>")
    meta = (
        f"{trace.num_processes} processes · {trace.num_events} events · "
        f"duration {trace.duration:.6g}s · MPI share "
        f"{100 * mpi_share:.1f}% · dominant function "
        f"<code>{html.escape(analysis.dominant_name)}</code>"
    )
    if session is not None:
        meta += f" · trace fingerprint <code>{session.fingerprint.short()}</code>"
    sections.append(f'<p class="meta">{meta}</p>')

    sections.append("<h2>Findings</h2>")
    sections.append(_findings_section(analysis))
    sections.append(
        f"<p>Trend of SOS-times: {html.escape(analysis.trend.describe())}"
        f"<br/>Trend of plain durations: "
        f"{html.escape(analysis.duration_trend.describe())}</p>"
    )

    sections.append("<h2>SOS heat map (blue = fast, red = slow)</h2>")
    with obs.span("viz.heatmap"):
        svg = render_sos_svg(analysis, width=1100.0)
        sections.append(svg.tostring().split("?>", 1)[1])  # strip XML decl

    sections.append("<h2>Master timeline</h2>")
    with obs.span("viz.timeline"):
        timeline = render_timeline_png(
            trace, analysis.profile.tables, width=1100
        )
        sections.append(_png_tag(timeline, "master timeline"))

    sections.append("<h2>Activity shares over time</h2>")
    with obs.span("core.activity"):
        shares = activity_shares(trace, analysis.profile.tables, bins=min(bins, 256))
    with obs.span("viz.area"):
        area = render_area_png(shares, width=1100)
        sections.append(_png_tag(area, "activity shares"))

    if include_counters and len(trace.metrics):
        sections.append("<h2>Hardware counters</h2>")
        with obs.span("viz.counter"):
            for metric in trace.metrics:
                chart = render_counter_png(trace, metric.id, bins=bins, width=1100)
                sections.append(_png_tag(chart, metric.name))

    sections.append("<h2>Dominant-function candidates</h2>")
    sections.append(_candidates_table(analysis))

    sections.append("<h2>Slowest ranks (total SOS)</h2>")
    sections.append(_per_rank_table(analysis))

    doc = (
        "<!DOCTYPE html><html><head><meta charset='utf-8'/>"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_STYLE}</style></head><body>"
        + "\n".join(sections)
        + "</body></html>"
    )
    if path is not None:
        with obs.span("html.write"), open(path, "w", encoding="utf-8") as fp:
            fp.write(doc)
    return doc
