"""Vampir-like trace visualizer: timelines, heat maps, counter charts.

High-level entry point: :func:`render_analysis` writes the full set of
views for one analysis (master timeline, SOS heat map in PNG and SVG,
counter heat maps, flat profile) into a directory.
"""

from __future__ import annotations

import os
from pathlib import Path

from .._lazy import lazy_exports

# Re-exported lazily (PEP 562), as in :mod:`repro.core`: an HTML report
# or a single chart loads only the renderers it calls.
_EXPORTS = {
    "areachart": ("render_area_png",),
    "ascii_art": ("heat_to_ansi", "matrix_sparklines", "sparkline"),
    "canvas": ("Canvas",),
    "commmatrix": ("render_comm_matrix_png",),
    "colors": (
        "BACKGROUND",
        "COLD_HOT",
        "GRAYS",
        "HEAT",
        "NAN_COLOR",
        "VIRIDIS_LIKE",
        "Colormap",
        "hex_color",
        "region_palette",
    ),
    "counterchart": ("render_counter_png",),
    "figure": ("ChartLayout", "format_seconds", "nice_ticks"),
    "heatmap": ("heat_image", "render_heat_png", "render_sos_svg"),
    "png": ("encode_png", "write_png"),
    "profilebar": ("render_profile_png",),
    "svg": ("SVGCanvas",),
    "timeline": ("match_messages", "region_strip", "render_timeline_png"),
    "timeline_svg": ("render_timeline_svg",),
}
__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = sorted([*__all__, "render_analysis"])


def render_analysis(
    analysis,
    outdir: str | os.PathLike,
    bins: int = 512,
    width: int = 1100,
    counters: bool = True,
    show_messages: bool = False,
) -> dict[str, str]:
    """Write all standard views of a variation analysis to ``outdir``.

    Produces ``timeline.png``, ``sos_heatmap.png``, ``sos_heatmap.svg``,
    ``duration_heatmap.png``, ``profile.png`` and one
    ``counter_<name>.png`` per recorded metric.  Returns a mapping of
    view name → file path.
    """
    from .areachart import render_area_png
    from .counterchart import render_counter_png
    from .heatmap import render_heat_png, render_sos_svg
    from .profilebar import render_profile_png
    from .timeline import render_timeline_png
    from .timeline_svg import render_timeline_svg

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    trace = analysis.trace
    written: dict[str, str] = {}

    path = out / "timeline.png"
    render_timeline_png(
        trace,
        analysis.profile.tables,
        path,
        width=width,
        show_messages=show_messages,
    )
    written["timeline"] = str(path)

    matrix, edges = analysis.heat_matrix(bins=bins)
    path = out / "sos_heatmap.png"
    render_heat_png(
        matrix,
        edges,
        path,
        title=f"SOS-time of {analysis.dominant_name!r} — {trace.name}",
        width=width,
        ranks=trace.ranks,
    )
    written["sos_heatmap"] = str(path)

    path = out / "sos_heatmap.svg"
    render_sos_svg(analysis, path, width=float(width))
    written["sos_heatmap_svg"] = str(path)

    path = out / "timeline.svg"
    render_timeline_svg(
        trace, analysis.profile.tables, path, width=float(width),
        show_messages=show_messages,
    )
    written["timeline_svg"] = str(path)

    from ..core.variation import binned_matrix

    # Plain durations (the view SOS improves upon) for comparison.
    path = out / "duration_heatmap.png"
    seg = analysis.segmentation
    import numpy as np

    # Rebin plain durations with the same helper by temporarily viewing
    # the duration matrix through the segmentation.
    from ..core.sos import RankSOS, SOSResult

    plain = SOSResult(
        seg,
        {
            r: RankSOS(
                rank=r,
                duration=analysis.sos[r].duration,
                sync_time=np.zeros_like(analysis.sos[r].duration),
                sos=analysis.sos[r].duration,
            )
            for r in analysis.sos.ranks
        },
        analysis.sos.classifier,
    )
    pm, pe = binned_matrix(plain, bins=bins)
    render_heat_png(
        pm,
        pe,
        path,
        title=f"Plain segment durations — {trace.name}",
        width=width,
        ranks=trace.ranks,
    )
    written["duration_heatmap"] = str(path)

    path = out / "profile.png"
    render_profile_png(
        analysis.profile.stats, path, title=f"Flat profile — {trace.name}"
    )
    written["profile"] = str(path)

    from ..core.activity import activity_shares

    path = out / "activity.png"
    shares = activity_shares(
        trace, analysis.profile.tables, bins=min(bins, 256)
    )
    render_area_png(
        shares, path, title=f"Activity shares — {trace.name}", width=width
    )
    written["activity"] = str(path)

    if counters:
        for metric in trace.metrics:
            path = out / f"counter_{metric.name}.png"
            render_counter_png(trace, metric.id, path, bins=bins, width=width)
            written[f"counter_{metric.name}"] = str(path)
    return written
