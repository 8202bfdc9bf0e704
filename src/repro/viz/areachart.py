"""Stacked area chart of activity shares over time.

The quantitative companion of the master timeline: renders
:class:`repro.core.activity.ActivityShares` as stacked filled bands, so
"MPI grows until it dominates" (Figure 4a) becomes a measurable curve.
"""

from __future__ import annotations

import os

import numpy as np

from .canvas import Canvas
from .colors import MPI_RED, _CATEGORY_COLORS
from .figure import ChartLayout, draw_time_axis, draw_title
from .legend import draw_region_legend
from .png import write_png

__all__ = ["render_area_png"]

_IDLE_COLOR = (226, 226, 222)


def _group_color(label: str, index: int) -> tuple[int, int, int]:
    if label == "MPI" or label.startswith("MPI_"):
        return MPI_RED
    if label == "idle":
        return _IDLE_COLOR
    return _CATEGORY_COLORS[index % len(_CATEGORY_COLORS)]


def render_area_png(
    shares,
    path: str | os.PathLike | None = None,
    title: str = "Activity shares over time",
    width: int = 1100,
    height: int = 320,
) -> Canvas:
    """Render stacked activity shares to a PNG chart.

    Parameters
    ----------
    shares:
        An :class:`repro.core.activity.ActivityShares`.
    """
    layout = ChartLayout(width=width, height=height, right=150)
    canvas = Canvas(width, height)
    draw_title(canvas, layout, title)

    matrix = np.asarray(shares.shares, dtype=np.float64)
    n_groups, bins = matrix.shape
    cum = np.cumsum(matrix, axis=0)
    cum = np.vstack([np.zeros(bins), cum])  # (groups + 1, bins)
    cum = np.clip(cum, 0.0, 1.0)

    colors = [
        _group_color(label, i) for i, label in enumerate(shares.labels)
    ]

    plot_x, plot_y = layout.plot_x, layout.plot_y
    plot_w, plot_h = layout.plot_w, layout.plot_h
    cols = np.minimum((np.arange(plot_w) * bins) // plot_w, bins - 1)
    # Stacked from the bottom up: group g covers the pixel rows whose
    # height above the plot's bottom edge lies in (edge[g], edge[g + 1]];
    # where bands overlap, the later group paints over the earlier.
    edge = np.rint(cum[:, cols] * plot_h).astype(np.int64)
    height = plot_h - np.arange(plot_h)[:, None]
    band = np.full((plot_h, plot_w), -1, dtype=np.int64)
    for g in range(n_groups):
        band[(edge[g] < height) & (height <= edge[g + 1])] = g
    block = canvas.pixels[plot_y:plot_y + plot_h, plot_x:plot_x + plot_w]
    band = band[: block.shape[0], : block.shape[1]]
    painted = band >= 0
    block[painted] = np.asarray(colors, dtype=np.uint8).reshape(-1, 3)[band[painted]]

    canvas.rect(plot_x - 1, plot_y - 1, plot_w + 2, plot_h + 2, (120, 120, 120))
    draw_time_axis(canvas, layout, float(shares.edges[0]), float(shares.edges[-1]))
    # y axis: 0..100%
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = plot_y + plot_h - int(round(frac * plot_h))
        canvas.hline(plot_x - 4, plot_x - 1, y, (90, 90, 90))
        canvas.text(plot_x - 6, y - 3, f"{int(100 * frac)}%", anchor="rt")

    entries = list(zip(shares.labels, colors))
    draw_region_legend(canvas, plot_x + plot_w + 18, plot_y, entries)

    if path is not None:
        write_png(canvas.pixels, path)
    return canvas
