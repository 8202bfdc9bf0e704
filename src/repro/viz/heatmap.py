"""Heat timelines: the paper's color-coded SOS metric view.

This is the visualization of Section VI: a process-by-time matrix where
each cell is color-coded from blue (cold, short) to red (hot, long).
The raster renderer consumes any ``(ranks, bins)`` matrix (SOS values
from :func:`repro.core.variation.binned_matrix`, counter rates from
:func:`repro.core.metrics.binned_metric_matrix`); the SVG renderer
draws one rectangle per *segment* with a tooltip, giving the
interactive feel of the Vampir overlay.
"""

from __future__ import annotations

import os

import numpy as np

from .canvas import Canvas
from .colors import COLD_HOT, Colormap
from .figure import (
    ChartLayout,
    draw_time_axis,
    draw_title,
    format_seconds,
    rank_tick_rows,
)
from .legend import draw_colorbar, svg_colorbar
from .png import write_png
from .svg import SVGCanvas

__all__ = ["render_heat_png", "render_sos_svg", "heat_image"]


def _value_range(
    matrix: np.ndarray, vmin: float | None, vmax: float | None
) -> tuple[float, float]:
    finite = matrix[np.isfinite(matrix)]
    if len(finite) == 0:
        return 0.0, 1.0
    lo = float(finite.min()) if vmin is None else vmin
    hi = float(finite.max()) if vmax is None else vmax
    if hi <= lo:
        hi = lo + 1.0
    return lo, hi


def heat_image(
    matrix: np.ndarray,
    width: int,
    height: int,
    cmap: Colormap = COLD_HOT,
    vmin: float | None = None,
    vmax: float | None = None,
) -> np.ndarray:
    """Nearest-neighbour scaled RGB image of a value matrix."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("matrix must be 2D and non-empty")
    lo, hi = _value_range(m, vmin, vmax)
    rgb = cmap(m, lo, hi)  # (ranks, bins, 3)
    rows = np.minimum(
        (np.arange(height) * m.shape[0]) // height, m.shape[0] - 1
    )
    cols = np.minimum((np.arange(width) * m.shape[1]) // width, m.shape[1] - 1)
    return rgb[np.ix_(rows, cols)]


def render_heat_png(
    matrix: np.ndarray,
    edges: np.ndarray,
    path: str | os.PathLike | None = None,
    title: str = "SOS-time",
    cmap: Colormap = COLD_HOT,
    vmin: float | None = None,
    vmax: float | None = None,
    width: int = 1100,
    height: int | None = None,
    ranks: list[int] | None = None,
    colorbar_label: str = "seconds",
) -> Canvas:
    """Render a (ranks x bins) heat matrix to a PNG chart.

    Returns the canvas; additionally writes ``path`` when given.
    """
    m = np.asarray(matrix, dtype=np.float64)
    n_ranks = m.shape[0]
    if height is None:
        height = max(240, min(900, 70 + 4 * n_ranks))
    layout = ChartLayout(width=width, height=height)
    canvas = Canvas(width, height)
    draw_title(canvas, layout, title)

    lo, hi = _value_range(m, vmin, vmax)
    image = heat_image(m, layout.plot_w, layout.plot_h, cmap, lo, hi)
    canvas.blit(layout.plot_x, layout.plot_y, image)
    canvas.rect(
        layout.plot_x - 1,
        layout.plot_y - 1,
        layout.plot_w + 2,
        layout.plot_h + 2,
        (120, 120, 120),
    )

    t0, t1 = float(edges[0]), float(edges[-1])
    draw_time_axis(canvas, layout, t0, t1)
    rank_ids = ranks if ranks is not None else list(range(n_ranks))
    for row in rank_tick_rows(n_ranks):
        y = layout.plot_y + int((row + 0.5) * layout.plot_h / n_ranks)
        canvas.text(layout.plot_x - 6, y - 3, str(rank_ids[row]), anchor="rt")
    canvas.text_rotated(8, layout.plot_y + layout.plot_h // 2, "process")
    draw_colorbar(canvas, layout, cmap, lo, hi, label=colorbar_label)

    if path is not None:
        write_png(canvas.pixels, path)
    return canvas


def render_sos_svg(
    analysis,
    path: str | os.PathLike | None = None,
    title: str | None = None,
    cmap: Colormap = COLD_HOT,
    width: float = 1100.0,
    row_height: float = 5.0,
    max_rects: int = 60000,
) -> SVGCanvas:
    """Vector SOS heat map: one rect per segment, with value tooltips.

    Parameters
    ----------
    analysis:
        A :class:`repro.core.pipeline.VariationAnalysis`.
    max_rects:
        Safety cap.  Beyond it, consecutive segments of a rank that
        start in one pixel column merge into one rect, coloured and
        titled by the segment with the largest SOS, so a hot segment is
        never hidden.
    """
    sos = analysis.sos
    seg = analysis.segmentation
    ranks = sos.ranks
    n_ranks = len(ranks)
    left, right, top, bottom = 64.0, 96.0, 30.0, 32.0
    plot_w = width - left - right
    plot_h = max(n_ranks * row_height, 60.0)
    height = top + plot_h + bottom

    svg = SVGCanvas(width, height)
    if title is None:
        title = f"SOS-time of {analysis.dominant_name!r} — {analysis.trace.name}"
    svg.text(left, 18, title, size=13, bold=True)

    matrix = sos.matrix()
    finite = matrix[np.isfinite(matrix)]
    lo = float(finite.min()) if len(finite) else 0.0
    hi = float(finite.max()) if len(finite) else 1.0
    if hi <= lo:
        hi = lo + 1.0
    t0, t1 = seg.t_min, seg.t_max
    span = (t1 - t0) or 1.0

    rgb = cmap(matrix, lo, hi).astype(np.int64)
    packed = (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]
    aggregate = seg.total_segments > max_rects
    h = plot_h / n_ranks
    for row, rank in enumerate(ranks):
        rs = seg[rank]
        if len(rs) == 0:
            continue
        values = matrix[row, : len(rs)]
        start = (rs.t_start - t0) / span
        first = hot = np.arange(len(rs))
        if aggregate:
            col = (start * plot_w).astype(np.int64)
            new_run = np.r_[True, col[1:] != col[:-1]]
            first = first[new_run]
            # Per run, the first segment of largest SOS (NaN sorts last).
            hot = np.lexsort((-values, np.cumsum(new_run)))[first]
        last = np.r_[first[1:], len(rs)] - 1
        x = left + start[first] * plot_w
        w = np.maximum((rs.t_stop[last] - rs.t_start[first]) / span * plot_w, 0.3)
        svg.rects(
            x.tolist(), top + row * h, w.tolist(), h,
            [f"#{c:06x}" for c in packed[row, hot].tolist()],
            [
                f"rank {rank}, segment {j}: SOS {format_seconds(v)}"
                for j, v in zip(hot.tolist(), values[hot].tolist())
            ],
        )
    svg.rect(left, top, plot_w, plot_h, "none", stroke="#787878")
    # Time axis labels.
    from .figure import nice_ticks

    for tick in nice_ticks(t0, t1):
        x = left + (tick - t0) / span * plot_w
        svg.line(x, top + plot_h, x, top + plot_h + 4, stroke="#5a5a5a")
        svg.text(x, top + plot_h + 16, format_seconds(float(tick)), size=9,
                 anchor="middle")
    for row in rank_tick_rows(n_ranks):
        y = top + (row + 0.5) * (plot_h / n_ranks)
        svg.text(left - 6, y + 3, str(ranks[row]), size=9, anchor="end")
    svg_colorbar(svg, left + plot_w + 18, top, plot_h, cmap, lo, hi,
                 label="SOS [s]")

    if path is not None:
        svg.write(path)
    return svg
