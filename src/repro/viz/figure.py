"""Shared chart scaffolding: layouts, axes, ticks, time formatting."""

from __future__ import annotations

import math

import numpy as np

from .._record import record
from .canvas import Canvas

__all__ = [
    "ChartLayout",
    "nice_ticks",
    "format_seconds",
    "draw_time_axis",
    "draw_title",
    "rank_tick_rows",
]


@record(frozen=True, slots=True)
class ChartLayout:
    """Pixel geometry of a chart: margins around a plot rectangle."""

    width: int
    height: int
    left: int = 64
    right: int = 96
    top: int = 30
    bottom: int = 32

    @property
    def plot_x(self) -> int:
        return self.left

    @property
    def plot_y(self) -> int:
        return self.top

    @property
    def plot_w(self) -> int:
        return max(self.width - self.left - self.right, 1)

    @property
    def plot_h(self) -> int:
        return max(self.height - self.top - self.bottom, 1)

    def x_of(self, t: float, t0: float, t1: float) -> int:
        """Map a time value to a pixel column inside the plot area."""
        span = t1 - t0
        frac = (t - t0) / span if span > 0 else 0.0
        return self.plot_x + int(round(frac * (self.plot_w - 1)))


def nice_ticks(lo: float, hi: float, target: int = 6) -> np.ndarray:
    """Human-friendly tick positions covering ``[lo, hi]``.

    Uses the classic 1/2/5 ladder.  Returns ticks inside the interval.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return np.asarray([lo])
    span = hi - lo
    raw_step = span / max(target, 2)
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * magnitude
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = np.arange(first, hi + 0.5 * step, step)
    return ticks[(ticks >= lo - 1e-12) & (ticks <= hi + 1e-12)]


def format_seconds(t: float) -> str:
    """Compact time label: 12.5s / 340ms / 25us."""
    a = abs(t)
    if a >= 100:
        return f"{t:.0f}s"
    if a >= 1:
        return f"{t:.3g}s"
    if a >= 1e-3:
        return f"{t * 1e3:.3g}ms"
    if a > 0:
        return f"{t * 1e6:.3g}us"
    return "0"


def draw_title(canvas: Canvas, layout: ChartLayout, title: str) -> None:
    canvas.text(layout.plot_x, max(layout.top - 20, 2), title, scale=2)


def draw_time_axis(
    canvas: Canvas, layout: ChartLayout, t0: float, t1: float
) -> None:
    """Horizontal time axis with ticks below the plot area."""
    y = layout.plot_y + layout.plot_h
    axis_color = (90, 90, 90)
    canvas.hline(layout.plot_x, layout.plot_x + layout.plot_w - 1, y, axis_color)
    for tick in nice_ticks(t0, t1):
        x = layout.x_of(float(tick), t0, t1)
        canvas.vline(x, y, y + 3, axis_color)
        canvas.text(x, y + 6, format_seconds(float(tick)), anchor="ct")


def rank_tick_rows(num_ranks: int, max_labels: int = 16) -> list[int]:
    """Which rank rows get a y-axis label (at most ``max_labels``)."""
    if num_ranks <= 0:
        return []
    if num_ranks <= max_labels:
        return list(range(num_ranks))
    step = max(1, int(math.ceil(num_ranks / max_labels)))
    rows = list(range(0, num_ranks, step))
    if rows[-1] != num_ranks - 1:
        rows.append(num_ranks - 1)
    return rows
