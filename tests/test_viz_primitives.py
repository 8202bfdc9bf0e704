"""Tests for visualization primitives: colors, font, canvas, PNG, SVG."""

import struct
import zlib

import numpy as np
import pytest

from repro.viz.canvas import Canvas
from repro.viz.colors import (
    COLD_HOT,
    GRAYS,
    HEAT,
    NAN_COLOR,
    Colormap,
    hex_color,
    region_palette,
    MPI_RED,
)
from repro.viz.font5x7 import (
    GLYPH_HEIGHT,
    GLYPH_WIDTH,
    glyph,
    render_text_mask,
    text_width,
)
from repro.viz.png import encode_png, write_png
from repro.viz.svg import SVGCanvas


class TestColormap:
    def test_endpoints(self):
        rgb = COLD_HOT(np.asarray([0.0, 1.0]))
        assert tuple(rgb[0]) == (24, 66, 161)  # cold blue
        assert tuple(rgb[1]) == (176, 15, 15)  # hot red

    def test_interpolation_midpoint(self):
        cmap = Colormap("bw", ((0.0, (0, 0, 0)), (1.0, (100, 100, 100))))
        assert tuple(cmap(np.asarray([0.5]))[0]) == (50, 50, 50)

    def test_nan_maps_to_nan_color(self):
        rgb = COLD_HOT(np.asarray([np.nan]))
        assert tuple(rgb[0]) == NAN_COLOR

    def test_out_of_range_clipped(self):
        rgb = COLD_HOT(np.asarray([-5.0, 5.0]))
        assert tuple(rgb[0]) == tuple(COLD_HOT(np.asarray([0.0]))[0])
        assert tuple(rgb[1]) == tuple(COLD_HOT(np.asarray([1.0]))[0])

    def test_custom_range(self):
        a = COLD_HOT(np.asarray([10.0]), vmin=10, vmax=20)
        b = COLD_HOT(np.asarray([0.0]))
        assert tuple(a[0]) == tuple(b[0])

    def test_degenerate_range(self):
        rgb = COLD_HOT(np.asarray([3.0]), vmin=3.0, vmax=3.0)
        assert rgb.shape == (1, 3)

    def test_2d_input(self):
        rgb = HEAT(np.ones((4, 5)))
        assert rgb.shape == (4, 5, 3)

    def test_sample(self):
        ramp = GRAYS.sample(16)
        assert ramp.shape == (16, 3)
        # Monotone brightness for a sequential map.
        brightness = ramp.astype(int).sum(axis=1)
        assert np.all(np.diff(brightness) <= 0) or np.all(np.diff(brightness) >= 0)

    def test_invalid_stops(self):
        with pytest.raises(ValueError):
            Colormap("bad", ((0.1, (0, 0, 0)), (1.0, (1, 1, 1))))
        with pytest.raises(ValueError):
            Colormap("bad", ((0.0, (0, 0, 0)), (0.0, (1, 1, 1))))

    def test_hex_color(self):
        assert hex_color((255, 0, 16)) == "#ff0010"

    def test_region_palette_pins_mpi_red(self):
        palette = region_palette(4, mpi_mask=[False, True, False, False])
        assert tuple(palette[1]) == MPI_RED
        assert tuple(palette[0]) != MPI_RED

    def test_region_palette_distinct_hues(self):
        palette = region_palette(6)
        assert len({tuple(c) for c in palette}) == 6


class TestFont:
    def test_glyph_dimensions(self):
        assert glyph("A").shape == (GLYPH_HEIGHT, GLYPH_WIDTH)

    def test_space_is_blank(self):
        assert not glyph(" ").any()

    def test_letters_are_nonblank(self):
        for char in "AgZ09#?":
            assert glyph(char).any()

    def test_unknown_renders_replacement(self):
        assert glyph("ÿ").any()

    def test_transliteration(self):
        assert np.array_equal(glyph("—"), glyph("-"))

    def test_text_width(self):
        assert text_width("") == 0
        assert text_width("ab") == 11  # 2*6 - 1
        assert text_width("ab", scale=2) == 22

    def test_render_text_mask(self):
        mask = render_text_mask("Hi")
        assert mask.shape == (7, 11)
        assert mask.any()

    def test_render_scaled(self):
        mask = render_text_mask("X", scale=3)
        assert mask.shape == (21, 15)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            render_text_mask("x", scale=0)


class TestCanvas:
    def test_background_fill(self):
        c = Canvas(4, 3, background=(1, 2, 3))
        assert np.all(c.pixels == np.asarray([1, 2, 3], dtype=np.uint8))

    def test_fill_rect(self):
        c = Canvas(10, 10)
        c.fill_rect(2, 3, 4, 2, (255, 0, 0))
        assert tuple(c.pixels[3, 2]) == (255, 0, 0)
        assert tuple(c.pixels[4, 5]) == (255, 0, 0)
        assert tuple(c.pixels[5, 2]) != (255, 0, 0)

    def test_fill_rect_clipped(self):
        c = Canvas(5, 5)
        c.fill_rect(-3, -3, 100, 100, (9, 9, 9))
        assert np.all(c.pixels == 9)

    def test_lines(self):
        c = Canvas(10, 10)
        c.hline(0, 9, 5, (1, 1, 1))
        assert np.all(c.pixels[5, :, 0] == 1)
        c.vline(3, 0, 9, (2, 2, 2))
        assert np.all(c.pixels[:, 3, 0] == 2)

    def test_line_diagonal(self):
        c = Canvas(10, 10)
        c.line(0, 0, 9, 9, (7, 7, 7))
        for i in range(10):
            assert tuple(c.pixels[i, i]) == (7, 7, 7)

    def test_line_clipped(self):
        c = Canvas(5, 5)
        c.line(-10, -10, 20, 20, (7, 7, 7))  # must not raise
        assert tuple(c.pixels[2, 2]) == (7, 7, 7)

    def test_rect_outline(self):
        c = Canvas(10, 10)
        c.rect(1, 1, 5, 4, (3, 3, 3))
        assert tuple(c.pixels[1, 1]) == (3, 3, 3)
        assert tuple(c.pixels[4, 5]) == (3, 3, 3)
        assert tuple(c.pixels[2, 2]) != (3, 3, 3)

    def test_blit(self):
        c = Canvas(6, 6)
        block = np.full((2, 2, 3), 99, dtype=np.uint8)
        c.blit(2, 2, block)
        assert tuple(c.pixels[3, 3]) == (99, 99, 99)

    def test_blit_clipped(self):
        c = Canvas(4, 4)
        block = np.full((3, 3, 3), 50, dtype=np.uint8)
        c.blit(-1, -1, block)
        assert tuple(c.pixels[0, 0]) == (50, 50, 50)
        c.blit(3, 3, block)
        assert tuple(c.pixels[3, 3]) == (50, 50, 50)

    def test_text_draws_pixels(self):
        c = Canvas(40, 12)
        c.text(1, 1, "Hi", color=(0, 0, 0))
        assert np.any(np.all(c.pixels == 0, axis=2))

    def test_text_anchors(self):
        c = Canvas(40, 20)
        c.text(20, 10, "M", anchor="cm")
        c.text(39, 19, "M", anchor="rb")  # must not raise, draws clipped

    def test_text_rotated(self):
        c = Canvas(12, 40)
        c.text_rotated(2, 20, "up")
        assert np.any(np.all(c.pixels == np.asarray([30, 30, 30]), axis=2))

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            Canvas(0, 5)


class TestPNG:
    def decode(self, data):
        """Minimal PNG decoder for round-trip checks (filter 0 only)."""
        assert data[:8] == b"\x89PNG\r\n\x1a\n"
        pos = 8
        width = height = None
        idat = b""
        while pos < len(data):
            (length,) = struct.unpack(">I", data[pos : pos + 4])
            tag = data[pos + 4 : pos + 8]
            payload = data[pos + 8 : pos + 8 + length]
            if tag == b"IHDR":
                width, height = struct.unpack(">II", payload[:8])
            elif tag == b"IDAT":
                idat += payload
            (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
            assert crc == zlib.crc32(tag + payload) & 0xFFFFFFFF
            pos += 12 + length
        raw = zlib.decompress(idat)
        arr = np.frombuffer(raw, dtype=np.uint8).reshape(height, 1 + width * 3)
        assert np.all(arr[:, 0] == 0)  # filter type 0
        return arr[:, 1:].reshape(height, width, 3)

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(13, 7, 3), dtype=np.uint8)
        assert np.array_equal(self.decode(encode_png(img)), img)

    def test_write_png(self, tmp_path):
        img = np.zeros((4, 4, 3), dtype=np.uint8)
        path = tmp_path / "x.png"
        write_png(img, path)
        assert np.array_equal(self.decode(path.read_bytes()), img)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            encode_png(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            encode_png(np.zeros((4, 4, 3), dtype=np.float64))
        with pytest.raises(ValueError):
            encode_png(np.zeros((0, 4, 3), dtype=np.uint8))


class TestSVG:
    def test_document_structure(self):
        svg = SVGCanvas(100, 50)
        svg.rect(0, 0, 10, 10, "#ff0000")
        svg.line(0, 0, 10, 10)
        svg.text(5, 5, "hello")
        text = svg.tostring()
        assert text.startswith('<?xml version="1.0"')
        assert '<svg xmlns="http://www.w3.org/2000/svg"' in text
        assert "<rect" in text and "<line" in text and ">hello</text>" in text
        assert text.rstrip().endswith("</svg>")

    def test_title_tooltip(self):
        svg = SVGCanvas(10, 10)
        svg.rect(0, 0, 1, 1, "#000", title="rank 3 & more")
        assert "<title>rank 3 &amp; more</title>" in svg.tostring()

    def test_escaping(self):
        svg = SVGCanvas(10, 10)
        svg.text(0, 0, "<b>&</b>")
        assert "&lt;b&gt;&amp;&lt;/b&gt;" in svg.tostring()

    def test_escaping_is_pinned(self):
        # Text content escapes &, < and > only; quotes pass through.
        svg = SVGCanvas(10, 10)
        svg.rect(0, 0, 1, 1, "#000", title="a&<>\"'z")
        svg.text(1, 2, "t&<>\"'")
        svg.group_start(title="&<>\"'")
        svg.group_end()
        assert svg.tostring() == (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10" '
            'viewBox="0 0 10 10">\n'
            '<rect x="0" y="0" width="10" height="10" fill="#fcfcfa"/>\n'
            '<rect x="0" y="0" width="1" height="1" fill="#000">'
            "<title>a&amp;&lt;&gt;\"'z</title></rect>\n"
            '<text x="1" y="2" font-size="11" fill="#1e1e1e" text-anchor="start" '
            "font-family=\"monospace\">t&amp;&lt;&gt;\"'</text>\n"
            "<g>\n"
            "<title>&amp;&lt;&gt;\"'</title>\n"
            "</g>\n"
            "</svg>\n"
        )

    def test_write(self, tmp_path):
        svg = SVGCanvas(10, 10)
        path = tmp_path / "x.svg"
        svg.write(path)
        assert path.read_text().startswith("<?xml")

    def test_rotated_text(self):
        svg = SVGCanvas(10, 10)
        svg.text(5, 5, "v", rotate=-90)
        assert "rotate(-90" in svg.tostring()

    def test_groups(self):
        svg = SVGCanvas(10, 10)
        svg.group_start(title="grp")
        svg.group_end()
        text = svg.tostring()
        assert "<g>" in text and "</g>" in text

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            SVGCanvas(0, 10)
