"""RGB raster canvas with primitive drawing operations.

A thin wrapper over a ``(height, width, 3)`` uint8 NumPy array.  All
fills are vectorised slices; lines use a vectorised DDA.  The canvas is
the raster backend behind the PNG renderings of the timeline and heat
charts.
"""

from __future__ import annotations

import numpy as np

from .colors import BACKGROUND
from .font5x7 import GLYPH_HEIGHT, render_text_mask, text_width

__all__ = ["Canvas"]

Color = tuple[int, int, int]


class Canvas:
    """A mutable RGB image with integer pixel coordinates.

    The origin is the top-left corner; x grows right, y grows down
    (image convention).  Out-of-bounds drawing is clipped, never an
    error — chart code can draw labels near edges without bounds
    arithmetic.
    """

    def __init__(self, width: int, height: int, background: Color = BACKGROUND) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("canvas dimensions must be positive")
        self.width = int(width)
        self.height = int(height)
        self.pixels = np.empty((self.height, self.width, 3), dtype=np.uint8)
        self.fill_rect(0, 0, self.width, self.height, background)

    # -- clipping helpers -------------------------------------------------

    def _clip_x(self, x: int) -> int:
        return min(max(int(x), 0), self.width)

    def _clip_y(self, y: int) -> int:
        return min(max(int(y), 0), self.height)

    # -- primitives ----------------------------------------------------------

    def fill_rect(self, x: int, y: int, w: int, h: int, color: Color) -> None:
        """Fill the axis-aligned rectangle ``[x, x+w) x [y, y+h)``."""
        x0, x1 = self._clip_x(x), self._clip_x(x + w)
        y0, y1 = self._clip_y(y), self._clip_y(y + h)
        if x1 > x0 and y1 > y0:
            # Paint one row and copy it down: a 3-byte broadcast over the
            # whole region is ~40x slower.
            region = self.pixels[y0:y1, x0:x1]
            region[0] = np.asarray(color, dtype=np.uint8)
            region[1:] = region[0]

    def rect(self, x: int, y: int, w: int, h: int, color: Color) -> None:
        """1-pixel rectangle outline."""
        self.hline(x, x + w - 1, y, color)
        self.hline(x, x + w - 1, y + h - 1, color)
        self.vline(x, y, y + h - 1, color)
        self.vline(x + w - 1, y, y + h - 1, color)

    def hline(self, x0: int, x1: int, y: int, color: Color) -> None:
        if not 0 <= y < self.height:
            return
        a, b = sorted((int(x0), int(x1)))
        a, b = self._clip_x(a), self._clip_x(b + 1)
        if b > a:
            self.pixels[y, a:b] = np.asarray(color, dtype=np.uint8)

    def vline(self, x: int, y0: int, y1: int, color: Color) -> None:
        if not 0 <= x < self.width:
            return
        a, b = sorted((int(y0), int(y1)))
        a, b = self._clip_y(a), self._clip_y(b + 1)
        if b > a:
            self.pixels[a:b, x] = np.asarray(color, dtype=np.uint8)

    def line(self, x0: int, y0: int, x1: int, y1: int, color: Color) -> None:
        """Straight line segment (vectorised DDA)."""
        x0, y0, x1, y1 = int(x0), int(y0), int(x1), int(y1)
        n = max(abs(x1 - x0), abs(y1 - y0)) + 1
        xs = np.round(np.linspace(x0, x1, n)).astype(np.int64)
        ys = np.round(np.linspace(y0, y1, n)).astype(np.int64)
        keep = (xs >= 0) & (xs < self.width) & (ys >= 0) & (ys < self.height)
        self.pixels[ys[keep], xs[keep]] = np.asarray(color, dtype=np.uint8)

    def blit(self, x: int, y: int, image: np.ndarray) -> None:
        """Copy an ``(h, w, 3)`` uint8 image block (clipped)."""
        h, w = image.shape[:2]
        x0, y0 = int(x), int(y)
        x1, y1 = x0 + w, y0 + h
        cx0, cy0 = self._clip_x(x0), self._clip_y(y0)
        cx1, cy1 = self._clip_x(x1), self._clip_y(y1)
        if cx1 <= cx0 or cy1 <= cy0:
            return
        self.pixels[cy0:cy1, cx0:cx1] = image[
            cy0 - y0 : cy1 - y0, cx0 - x0 : cx1 - x0
        ]

    def blit_mask(self, x: int, y: int, mask: np.ndarray, color: Color) -> None:
        """Paint ``color`` where the boolean ``mask`` is true (clipped)."""
        h, w = mask.shape
        x0, y0 = int(x), int(y)
        cx0, cy0 = self._clip_x(x0), self._clip_y(y0)
        cx1, cy1 = self._clip_x(x0 + w), self._clip_y(y0 + h)
        if cx1 <= cx0 or cy1 <= cy0:
            return
        sub = mask[cy0 - y0 : cy1 - y0, cx0 - x0 : cx1 - x0]
        region = self.pixels[cy0:cy1, cx0:cx1]
        region[sub] = np.asarray(color, dtype=np.uint8)

    # -- text ----------------------------------------------------------

    def text(
        self,
        x: int,
        y: int,
        text: str,
        color: Color = (30, 30, 30),
        scale: int = 1,
        anchor: str = "lt",
    ) -> None:
        """Draw a line of 5x7 text.

        ``anchor`` selects the reference point: first char ``l``/``c``/``r``
        (horizontal), second ``t``/``m``/``b`` (vertical).
        """
        if not text:
            return
        w = text_width(text, scale)
        h = GLYPH_HEIGHT * scale
        ax, ay = (anchor + "t")[:2]
        if ax == "c":
            x -= w // 2
        elif ax == "r":
            x -= w
        if ay == "m":
            y -= h // 2
        elif ay == "b":
            y -= h
        self.blit_mask(x, y, render_text_mask(text, scale), color)

    def text_rotated(
        self, x: int, y: int, text: str, color: Color = (30, 30, 30), scale: int = 1
    ) -> None:
        """Draw text rotated 90° counter-clockwise (for y-axis labels)."""
        mask = render_text_mask(text, scale)
        rotated = mask.T[::-1]
        self.blit_mask(x, y - rotated.shape[0] // 2, rotated, color)
