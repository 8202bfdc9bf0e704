"""Master timeline: the classic Vampir process-by-time function view.

One horizontal strip per process; the color at each point is the
*innermost* region active at that time (painter's algorithm over the
invocation table — parents first, children overwrite).  Optional black
message lines connect matched send/receive pairs, reproducing
Figure 5a's "longer black lines" cue.
"""

from __future__ import annotations

import os
from collections import deque

import numpy as np

from ..profiles.replay import InvocationTable
from ..trace.events import EventKind
from ..trace.trace import Trace
from .canvas import Canvas
from .colors import region_palette
from .figure import ChartLayout, draw_time_axis, draw_title, rank_tick_rows
from .legend import draw_region_legend
from .png import write_png

__all__ = ["render_timeline_png", "match_messages", "region_grid", "region_strip"]


def region_strip(
    table: InvocationTable,
    t0: float,
    t1: float,
    bins: int,
) -> np.ndarray:
    """Innermost-region id per time bin for one process (-1 = idle).

    A pixel shows the region of the last table row whose ``[px0, px1)``
    span covers it, as if rows were painted in order: parents first, so
    the deepest region shows, and the later of two rows sharing a pixel
    wins.  Rows at one depth are disjoint and time-sorted, so one
    ``searchsorted`` per depth finds each pixel's last covering row.
    """
    strip = np.full(bins, -1, dtype=np.int32)
    if len(table) == 0 or t1 <= t0:
        return strip
    scale = bins / (t1 - t0)
    px0 = np.clip(((table.t_enter - t0) * scale).astype(np.int64), 0, bins)
    px1 = np.clip(np.ceil((table.t_leave - t0) * scale).astype(np.int64), 0, bins)
    rows = np.flatnonzero(px1 > px0)
    start, stop, depth = px0[rows], px1[rows], table.depth[rows]
    pixels = np.arange(bins)
    top = np.full(bins, -1, dtype=np.int64)
    # Depths are small non-negative ints; bincount lists the levels
    # without np.unique, whose masked-array check imports numpy.ma.
    for level in np.flatnonzero(np.bincount(depth)):
        at = np.flatnonzero(depth == level)
        last = at[np.maximum(np.searchsorted(start[at], pixels, side="right") - 1, 0)]
        hit = (start[last] <= pixels) & (stop[last] > pixels)
        np.maximum(top, np.where(hit, rows[last], -1), out=top)
    painted = top >= 0
    strip[painted] = table.region[top[painted]]
    return strip


def region_grid(
    tables: dict[int, InvocationTable],
    ranks,
    t0: float,
    t1: float,
    bins: int,
) -> np.ndarray:
    """``(len(ranks), bins)`` grid of :func:`region_strip` rows."""
    grid = np.full((len(ranks), bins), -1, dtype=np.int32)
    for row, rank in enumerate(ranks):
        grid[row] = region_strip(tables[rank], t0, t1, bins)
    return grid


def match_messages(
    trace: Trace, limit: int = 4000
) -> list[tuple[int, float, int, float]]:
    """Pair SEND and RECV events into message records.

    Returns up to ``limit`` tuples ``(src, t_send, dest, t_recv)``.
    Matching is FIFO per (src, dest, tag) channel, mirroring the MPI
    ordering guarantees the simulator (and real MPI) obey.
    """
    sends: dict[tuple[int, int, int], deque] = {}
    messages: list[tuple[int, float, int, float]] = []
    for proc in trace.processes():
        ev = proc.events
        mask = ev.kind == EventKind.SEND
        for i in np.flatnonzero(mask):
            key = (proc.rank, int(ev.partner[i]), int(ev.tag[i]))
            sends.setdefault(key, deque()).append(float(ev.time[i]))
    for proc in trace.processes():
        ev = proc.events
        mask = ev.kind == EventKind.RECV
        for i in np.flatnonzero(mask):
            key = (int(ev.partner[i]), proc.rank, int(ev.tag[i]))
            queue = sends.get(key)
            if queue:
                t_send = queue.popleft()
                messages.append((key[0], t_send, proc.rank, float(ev.time[i])))
                if len(messages) >= limit:
                    return messages
    return messages


def render_timeline_png(
    trace: Trace,
    tables: dict[int, InvocationTable],
    path: str | os.PathLike | None = None,
    width: int = 1100,
    height: int | None = None,
    show_messages: bool = False,
    max_messages: int = 1500,
    legend_entries: int = 8,
    t0: float | None = None,
    t1: float | None = None,
) -> Canvas:
    """Render the master timeline of ``trace`` from its invocation
    ``tables`` to a PNG chart.

    Returns the canvas; additionally writes ``path`` when given.
    """
    ranks = trace.ranks
    n_ranks = len(ranks)
    if n_ranks == 0:
        raise ValueError("empty trace")
    if height is None:
        height = max(240, min(900, 70 + 4 * n_ranks))
    layout = ChartLayout(width=width, height=height, right=140)
    canvas = Canvas(width, height)
    draw_title(canvas, layout, f"Timeline — {trace.name}")

    lo = trace.t_min if t0 is None else t0
    hi = trace.t_max if t1 is None else t1
    if hi <= lo:
        hi = lo + 1.0

    from ..trace.definitions import Paradigm

    mpi_mask = np.asarray(
        [r.paradigm == Paradigm.MPI for r in trace.regions], dtype=bool
    )
    palette = region_palette(len(trace.regions), mpi_mask)

    bins = layout.plot_w
    strips = region_grid(tables, ranks, lo, hi, bins)

    # Expand to plot height and map region ids to colors; idle (-1)
    # picks the idle colour appended after the palette.
    rows = np.minimum(
        (np.arange(layout.plot_h) * n_ranks) // layout.plot_h, n_ranks - 1
    )
    colors = np.vstack([palette, np.asarray([(240, 240, 238)], dtype=np.uint8)])
    image = colors[strips[rows]]  # (plot_h, bins, 3)
    canvas.blit(layout.plot_x, layout.plot_y, image)
    canvas.rect(
        layout.plot_x - 1,
        layout.plot_y - 1,
        layout.plot_w + 2,
        layout.plot_h + 2,
        (120, 120, 120),
    )

    if show_messages:
        span = hi - lo
        row_h = layout.plot_h / n_ranks
        rank_row = {rank: i for i, rank in enumerate(ranks)}
        for src, t_send, dst, t_recv in match_messages(trace, max_messages):
            if t_recv < lo or t_send > hi:
                continue
            x0 = layout.x_of(t_send, lo, hi)
            x1 = layout.x_of(t_recv, lo, hi)
            y0 = layout.plot_y + int((rank_row[src] + 0.5) * row_h)
            y1 = layout.plot_y + int((rank_row[dst] + 0.5) * row_h)
            canvas.line(x0, y0, x1, y1, (20, 20, 20))

    draw_time_axis(canvas, layout, lo, hi)
    for row in rank_tick_rows(n_ranks):
        y = layout.plot_y + int((row + 0.5) * layout.plot_h / n_ranks)
        canvas.text(layout.plot_x - 6, y - 3, str(ranks[row]), anchor="rt")
    canvas.text_rotated(8, layout.plot_y + layout.plot_h // 2, "process")

    # Legend: regions ranked by visible pixel share.
    visible = strips[strips >= 0]
    if len(visible):
        counts = np.bincount(visible, minlength=len(trace.regions))
        order = np.argsort(-counts)
        entries = [
            (trace.regions[int(r)].name, tuple(palette[int(r)]))
            for r in order[:legend_entries]
            if counts[r] > 0
        ]
        draw_region_legend(
            canvas, layout.plot_x + layout.plot_w + 18, layout.plot_y, entries
        )

    if path is not None:
        write_png(canvas.pixels, path)
    return canvas
