"""Vector master timeline with per-invocation tooltips.

The raster timeline (:mod:`repro.viz.timeline`) scales to arbitrary
trace sizes by rasterising; this SVG variant keeps individual
invocations addressable (hover shows region name and duration), using
the same culling rules interactive viewers apply: skip frames narrower
than a pixel threshold and deeper than a depth limit, and cap the
total rectangle count.
"""

from __future__ import annotations

import os

import numpy as np

from ..profiles.replay import InvocationTable
from ..trace.definitions import Paradigm
from ..trace.trace import Trace
from .colors import hex_color, region_palette
from .figure import format_seconds, nice_ticks, rank_tick_rows
from .svg import SVGCanvas
from .timeline import match_messages

__all__ = ["render_timeline_svg"]


def render_timeline_svg(
    trace: Trace,
    tables: dict[int, InvocationTable],
    path: str | os.PathLike | None = None,
    width: float = 1100.0,
    row_height: float = 12.0,
    t0: float | None = None,
    t1: float | None = None,
    min_pixels: float = 0.75,
    max_depth: int = 6,
    max_rects: int = 40000,
    show_messages: bool = False,
    max_messages: int = 800,
    title: str | None = None,
) -> SVGCanvas:
    """Render the master timeline of ``trace`` from its invocation
    ``tables`` as SVG (one rect per visible frame).

    Frames narrower than ``min_pixels`` or deeper than ``max_depth``
    are culled; if the visible frame count still exceeds
    ``max_rects``, the narrowest frames are dropped first.
    """
    ranks = trace.ranks
    n_ranks = len(ranks)
    if n_ranks == 0:
        raise ValueError("empty trace")

    lo = trace.t_min if t0 is None else t0
    hi = trace.t_max if t1 is None else t1
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo

    left, right, top, bottom = 64.0, 150.0, 30.0, 32.0
    plot_w = width - left - right
    plot_h = n_ranks * row_height
    height = top + plot_h + bottom
    svg = SVGCanvas(width, height)
    svg.text(left, 18, title or f"Timeline - {trace.name}", size=13, bold=True)

    mpi_mask = np.asarray(
        [r.paradigm == Paradigm.MPI for r in trace.regions], dtype=bool
    )
    palette = region_palette(len(trace.regions), mpi_mask)
    scale = plot_w / span

    # Collect candidate frames from all ranks with widths.
    frames = []  # (width_px, rank_row, x, region, t_enter, t_leave, depth)
    for row, rank in enumerate(ranks):
        table = tables[rank]
        if len(table) == 0:
            continue
        starts = np.maximum(table.t_enter, lo)
        stops = np.minimum(table.t_leave, hi)
        widths = (stops - starts) * scale
        keep = (widths >= min_pixels) & (table.depth <= max_depth)
        keep &= stops > starts
        for i in np.flatnonzero(keep):
            frames.append(
                (
                    float(widths[i]),
                    row,
                    left + (float(starts[i]) - lo) * scale,
                    int(table.region[i]),
                    float(table.t_enter[i]),
                    float(table.t_leave[i]),
                    int(table.depth[i]),
                )
            )
    if len(frames) > max_rects:
        frames.sort(key=lambda f: -f[0])
        frames = frames[:max_rects]
    # Draw shallow frames first so children overlay parents.
    frames.sort(key=lambda f: f[6])

    visible_regions: set[int] = set()
    for width_px, row, x, region, t_enter, t_leave, _depth in frames:
        visible_regions.add(region)
        svg.rect(
            x,
            top + row * row_height,
            width_px,
            row_height,
            hex_color(tuple(palette[region])),
            title=(
                f"{trace.regions[region].name} "
                f"[{format_seconds(t_enter)}, {format_seconds(t_leave)}] "
                f"({format_seconds(t_leave - t_enter)})"
            ),
        )

    if show_messages:
        for src, t_send, dst, t_recv in match_messages(trace, max_messages):
            if t_recv < lo or t_send > hi:
                continue
            rank_row = {rank: i for i, rank in enumerate(ranks)}
            svg.line(
                left + (max(t_send, lo) - lo) * scale,
                top + (rank_row[src] + 0.5) * row_height,
                left + (min(t_recv, hi) - lo) * scale,
                top + (rank_row[dst] + 0.5) * row_height,
                stroke="#141414",
                stroke_width=0.6,
                opacity=0.8,
            )

    svg.rect(left, top, plot_w, plot_h, "none", stroke="#787878")
    for tick in nice_ticks(lo, hi):
        x = left + (tick - lo) * scale
        svg.line(x, top + plot_h, x, top + plot_h + 4, stroke="#5a5a5a")
        svg.text(x, top + plot_h + 16, format_seconds(float(tick)), size=9,
                 anchor="middle")
    for row in rank_tick_rows(n_ranks):
        y = top + (row + 0.5) * row_height
        svg.text(left - 6, y + 3, str(ranks[row]), size=9, anchor="end")

    # Legend of visible regions (by palette order).
    lx = left + plot_w + 16
    for i, region in enumerate(sorted(visible_regions)[:12]):
        y = top + i * 14
        svg.rect(lx, y, 9, 9, hex_color(tuple(palette[region])),
                 stroke="#6e6e6e", stroke_width=0.5)
        svg.text(lx + 13, y + 8, trace.regions[region].name[:20], size=9)

    if path is not None:
        svg.write(path)
    return svg
