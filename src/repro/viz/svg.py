"""Minimal SVG document builder (vector backend of the visualizer)."""

from __future__ import annotations

import os
from html import escape

__all__ = ["SVGCanvas"]


def _fmt(value: float) -> str:
    """Compact numeric formatting for attribute values."""
    if value == int(value):
        return str(int(value))
    return f"{value:.2f}"


class SVGCanvas:
    """Accumulates SVG elements and serialises the document.

    Coordinates follow the same image convention as
    :class:`repro.viz.canvas.Canvas` so chart code can target either
    backend with identical geometry.
    """

    def __init__(self, width: float, height: float, background: str = "#fcfcfa") -> None:
        if width <= 0 or height <= 0:
            raise ValueError("canvas dimensions must be positive")
        self.width = width
        self.height = height
        self._parts: list[str] = [
            f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" '
            f'fill="{background}"/>'
        ]

    def rect(
        self,
        x: float,
        y: float,
        w: float,
        h: float,
        fill: str,
        stroke: str | None = None,
        stroke_width: float = 1.0,
        title: str | None = None,
    ) -> None:
        attrs = (
            f'x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{fill}"'
        )
        if stroke:
            attrs += f' stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"'
        if title:
            self._parts.append(
                f"<rect {attrs}><title>{escape(title, quote=False)}</title></rect>"
            )
        else:
            self._parts.append(f"<rect {attrs}/>")

    def rects(self, xs, y: float, ws, h: float, fills, titles) -> None:
        """Titled rects sharing ``y`` and ``h``, written as :meth:`rect`
        writes each but appended as one part (one join per row)."""
        y_w = f'" y="{_fmt(y)}" width="'
        h_fill = f'" height="{_fmt(h)}" fill="'
        self._parts.append("\n".join([
            f'<rect x="{_fmt(x)}{y_w}{_fmt(w)}{h_fill}{fill}"><title>'
            f"{escape(title, quote=False)}</title></rect>"
            for x, w, fill, title in zip(xs, ws, fills, titles)
        ]))

    def line(
        self,
        x0: float,
        y0: float,
        x1: float,
        y1: float,
        stroke: str = "#000000",
        stroke_width: float = 1.0,
        opacity: float = 1.0,
    ) -> None:
        attrs = (
            f'x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"'
        )
        if opacity != 1.0:
            attrs += f' stroke-opacity="{opacity:.2f}"'
        self._parts.append(f"<line {attrs}/>")

    def text(
        self,
        x: float,
        y: float,
        content: str,
        size: float = 11.0,
        fill: str = "#1e1e1e",
        anchor: str = "start",
        rotate: float | None = None,
        bold: bool = False,
    ) -> None:
        attrs = (
            f'x="{_fmt(x)}" y="{_fmt(y)}" font-size="{_fmt(size)}" fill="{fill}" '
            f'text-anchor="{anchor}" font-family="monospace"'
        )
        if bold:
            attrs += ' font-weight="bold"'
        if rotate is not None:
            attrs += f' transform="rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"'
        self._parts.append(f"<text {attrs}>{escape(content, quote=False)}</text>")

    def group_start(self, title: str | None = None) -> None:
        self._parts.append("<g>")
        if title:
            self._parts.append(f"<title>{escape(title, quote=False)}</title>")

    def group_end(self) -> None:
        self._parts.append("</g>")

    def tostring(self) -> str:
        body = "\n".join(self._parts)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">\n'
            f"{body}\n</svg>\n"
        )

    def write(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(self.tostring())
