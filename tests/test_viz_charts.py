"""Tests for chart renderers: timeline, heat maps, counters, profile, ASCII."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import analyze_trace
from repro.profiles import InvocationTable, profile_trace, replay_trace
from repro.sim.workloads.synthetic import SyntheticConfig, generate
from repro.viz import (
    heat_image,
    heat_to_ansi,
    match_messages,
    matrix_sparklines,
    nice_ticks,
    region_strip,
    render_analysis,
    render_counter_png,
    render_heat_png,
    render_profile_png,
    render_sos_svg,
    render_timeline_png,
    sparkline,
)
from repro.viz.figure import format_seconds, rank_tick_rows
from repro.viz.timeline import region_grid


@pytest.fixture(scope="module")
def viz_trace():
    return generate(
        SyntheticConfig(ranks=6, iterations=8, slow_ranks={2: 1.7}, seed=4)
    )


@pytest.fixture(scope="module")
def viz_analysis(viz_trace):
    return analyze_trace(viz_trace)


class TestFigureHelpers:
    def test_nice_ticks_basic(self):
        ticks = nice_ticks(0.0, 10.0)
        assert ticks[0] >= 0.0 and ticks[-1] <= 10.0
        steps = np.diff(ticks)
        assert np.allclose(steps, steps[0])

    def test_nice_ticks_small_range(self):
        ticks = nice_ticks(0.0, 1e-4)
        assert len(ticks) >= 2

    def test_nice_ticks_degenerate(self):
        assert list(nice_ticks(5.0, 5.0)) == [5.0]

    def test_format_seconds(self):
        assert format_seconds(120.0) == "120s"
        assert format_seconds(1.5) == "1.5s"
        assert format_seconds(0.002) == "2ms"
        assert format_seconds(3e-6) == "3us"
        assert format_seconds(0.0) == "0"

    def test_rank_tick_rows(self):
        assert rank_tick_rows(5) == [0, 1, 2, 3, 4]
        rows = rank_tick_rows(200)
        assert len(rows) <= 17
        assert rows[0] == 0 and rows[-1] == 199
        assert rank_tick_rows(0) == []


class TestHeatImage:
    def test_scaling(self):
        m = np.asarray([[0.0, 1.0]])
        img = heat_image(m, width=10, height=4)
        assert img.shape == (4, 10, 3)
        # Left half cold (blue-ish), right half hot (red-ish).
        assert img[0, 0, 2] > img[0, 0, 0]
        assert img[0, -1, 0] > img[0, -1, 2]

    def test_nan_cells(self):
        m = np.asarray([[np.nan, 1.0]])
        img = heat_image(m, width=2, height=1)
        from repro.viz.colors import NAN_COLOR

        assert tuple(img[0, 0]) == NAN_COLOR

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            heat_image(np.empty((0, 0)), 10, 10)


class TestHeatChart:
    def test_render_heat_png(self, viz_analysis, tmp_path):
        matrix, edges = viz_analysis.heat_matrix(bins=64)
        path = tmp_path / "heat.png"
        canvas = render_heat_png(matrix, edges, path, title="SOS")
        assert path.exists() and path.stat().st_size > 500
        assert canvas.width == 1100

    def test_hot_rank_row_is_red(self, viz_analysis):
        matrix, edges = viz_analysis.heat_matrix(bins=64)
        canvas = render_heat_png(matrix, edges, width=400, height=200)
        from repro.viz.figure import ChartLayout

        layout = ChartLayout(width=400, height=200)
        # Sample a pixel in the hot rank's row (rank 2 of 6) vs rank 0.
        y_hot = layout.plot_y + int(2.5 * layout.plot_h / 6)
        y_cold = layout.plot_y + int(0.5 * layout.plot_h / 6)
        x = layout.plot_x + layout.plot_w // 2
        hot = canvas.pixels[y_hot, x]
        cold = canvas.pixels[y_cold, x]
        assert int(hot[0]) - int(hot[2]) > 50  # red dominant
        assert int(cold[2]) - int(cold[0]) > 50  # blue dominant


def painter_strip(table, t0, t1, bins):
    """Reference: paint every row's pixel span in row order."""
    strip = np.full(bins, -1, dtype=np.int32)
    if len(table) == 0 or t1 <= t0:
        return strip
    scale = bins / (t1 - t0)
    for region, enter, leave in zip(table.region, table.t_enter, table.t_leave):
        a = min(max(int((enter - t0) * scale), 0), bins)
        b = min(max(math.ceil((leave - t0) * scale), 0), bins)
        if b > a:
            strip[a:b] = region
    return strip


def _table(rows):
    """InvocationTable from ``(region, t_enter, t_leave, depth)`` rows."""
    def col(i, dtype):
        return np.asarray([row[i] for row in rows], dtype=dtype)

    n = len(rows)
    zeros = np.zeros(n, dtype=np.int64)
    return InvocationTable(
        region=col(0, np.int32), t_enter=col(1, np.float64),
        t_leave=col(2, np.float64), inclusive=np.zeros(n),
        exclusive=np.zeros(n), depth=col(3, np.int32), parent=zeros,
        outermost=np.ones(n, dtype=bool), enter_index=zeros, leave_index=zeros,
    )


def _nested_table(ops):
    """Replay ``(enter?, region, dt)`` ops on a stack; rows in enter order."""
    rows, stack, now = [], [], 0.0
    for enter, region, dt in ops:
        now += dt
        if enter or not stack:
            stack.append(len(rows))
            rows.append([region, now, None, len(stack)])
        else:
            rows[stack.pop()][2] = now
    for row in reversed(stack):
        now += 0.5
        rows[row][2] = now
    return _table(rows)


class TestTimeline:
    def test_region_strip_painter_order(self, fig1):
        tables = replay_trace(fig1)
        strip = region_strip(tables[0], 0.0, 6.0, 6)
        foo = fig1.regions.id_of("foo")
        bar = fig1.regions.id_of("bar")
        assert list(strip) == [foo, foo, bar, bar, foo, foo]

    def test_region_strip_idle(self, fig1):
        tables = replay_trace(fig1)
        strip = region_strip(tables[0], 0.0, 12.0, 12)
        assert strip[-1] == -1  # after the program ends

    def test_later_sibling_beats_deeper_child(self):
        # The child C of A and A's next sibling B share pixel 4: B is the
        # later row, so B shows there even though C is deeper.
        table = _table([(1, 0.0, 10.0, 1), (2, 0.0, 4.5, 2),
                        (3, 3.0, 4.5, 3), (4, 4.5, 8.0, 2)])
        strip = region_strip(table, 0.0, 10.0, 10)
        assert list(strip) == [2, 2, 2, 3, 4, 4, 4, 4, 1, 1]
        assert list(strip) == list(painter_strip(table, 0.0, 10.0, 10))

    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.lists(
                st.tuples(st.booleans(), st.integers(0, 5),
                          st.sampled_from([0.0, 1e-4, 0.3, 0.5, 1.0, 2.25])),
                max_size=40,
            ),
            min_size=1, max_size=4,
        ),
        window=st.tuples(
            st.floats(-2.0, 20.0),
            st.one_of(st.floats(-3.0, 0.0), st.floats(1e-3, 30.0)),
        ),
        bins=st.one_of(st.integers(1, 40), st.integers(1, 5000)),
    )
    def test_grid_matches_painter(self, ops, window, bins):
        tables = {rank: _nested_table(rank_ops) for rank, rank_ops in enumerate(ops)}
        t0, length = window
        t1 = t0 + length
        grid = region_grid(tables, list(tables), t0, t1, bins)
        for rank, table in tables.items():
            np.testing.assert_array_equal(grid[rank], painter_strip(table, t0, t1, bins))

    def test_render_timeline(self, viz_trace, tmp_path):
        path = tmp_path / "tl.png"
        render_timeline_png(viz_trace, replay_trace(viz_trace), path)
        assert path.exists() and path.stat().st_size > 500

    def test_render_timeline_with_messages(self, viz_trace, tmp_path):
        path = tmp_path / "tlm.png"
        render_timeline_png(
            viz_trace, replay_trace(viz_trace), path, show_messages=True
        )
        assert path.exists()

    def test_empty_trace_rejected(self):
        from repro.trace.trace import Trace

        with pytest.raises(ValueError, match="empty"):
            render_timeline_png(Trace(name="none"), {})

    def test_match_messages(self, viz_trace):
        messages = match_messages(viz_trace, limit=100)
        assert messages
        for src, t_send, dst, t_recv in messages:
            assert t_recv >= t_send
            assert src != dst

    def test_match_messages_limit(self, viz_trace):
        assert len(match_messages(viz_trace, limit=5)) == 5


class TestCounterAndProfileCharts:
    def test_counter_chart(self, viz_trace, tmp_path):
        path = tmp_path / "cyc.png"
        render_counter_png(viz_trace, "PAPI_TOT_CYC", path, bins=64)
        assert path.exists()

    def test_profile_chart(self, viz_trace, tmp_path):
        stats = profile_trace(viz_trace, replay_trace(viz_trace)).stats
        path = tmp_path / "prof.png"
        render_profile_png(stats, path, k=5)
        assert path.exists()

    def test_profile_inclusive_variant(self, viz_trace):
        stats = profile_trace(viz_trace, replay_trace(viz_trace)).stats
        canvas = render_profile_png(stats, metric="inclusive")
        assert canvas.width == 760

    def test_profile_bad_metric(self, viz_trace):
        stats = profile_trace(viz_trace, replay_trace(viz_trace)).stats
        with pytest.raises(ValueError):
            render_profile_png(stats, metric="typo")


class TestSOSSvg:
    def test_svg_written(self, viz_analysis, tmp_path):
        path = tmp_path / "sos.svg"
        render_sos_svg(viz_analysis, path)
        content = path.read_text()
        assert "<svg" in content
        assert "SOS" in content
        assert content.count("<rect") > 6 * 8  # one per segment plus chrome

    def test_tooltips_present(self, viz_analysis):
        svg = render_sos_svg(viz_analysis)
        assert "rank 2, segment" in svg.tostring()

    def test_hot_segment_survives_the_cap(self):
        # 20 ranks x 3001 segments exceed the default cap of 60000.  In
        # the 940-px plot, segments 1501-1503 start in one pixel column;
        # the hot one is the last of them, so neither a stride nor a
        # first-segment-per-column rule shows it.
        from repro.trace.builder import TraceBuilder

        tb = TraceBuilder(name="many-segments")
        tb.region("main")
        tb.region("step")
        for rank in range(20):
            p = tb.process(rank)
            p.enter(0.0, "main")
            for j in range(3001):
                p.call(j * 6.0, j * 6.0 + (5.0 if (rank, j) == (7, 1503) else 1.0),
                       "step")
            p.leave(3001 * 6.0, "main")
        analysis = analyze_trace(tb.freeze())
        assert analysis.segmentation.total_segments > 60000
        text = render_sos_svg(analysis).tostring()
        assert "rank 7, segment 1503:" in text
        assert "rank 7, segment 1501:" not in text  # merged into 1503's rect
        assert text.count("<title>rank ") <= 20 * 941


class TestAsciiArt:
    def test_heat_to_ansi(self):
        matrix = np.asarray([[0.0, 1.0], [np.nan, 0.5]])
        text = heat_to_ansi(matrix)
        assert "\x1b[48;5;" in text
        assert "·" in text
        assert "min=0" in text

    def test_heat_to_ansi_empty(self):
        assert heat_to_ansi(np.empty((0, 0))) == "(empty)"

    def test_sparkline(self):
        line = sparkline(np.asarray([0.0, 0.5, 1.0]))
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_nan(self):
        assert " " in sparkline(np.asarray([0.0, np.nan, 1.0]))

    def test_sparkline_downsamples(self):
        assert len(sparkline(np.arange(500.0), width=40)) == 40

    def test_matrix_sparklines(self):
        text = matrix_sparklines(np.random.default_rng(0).random((5, 20)))
        assert len(text.splitlines()) == 5


class TestRenderAnalysis:
    def test_writes_all_views(self, viz_analysis, tmp_path):
        written = render_analysis(viz_analysis, tmp_path / "views", bins=64)
        expected = {
            "timeline",
            "sos_heatmap",
            "sos_heatmap_svg",
            "duration_heatmap",
            "profile",
            "counter_PAPI_TOT_CYC",
        }
        assert expected <= set(written)
        import os

        for path in written.values():
            assert os.path.getsize(path) > 200


class TestTimelineSvg:
    def test_svg_written_with_tooltips(self, viz_trace, tmp_path):
        from repro.viz import render_timeline_svg

        path = tmp_path / "tl.svg"
        svg = render_timeline_svg(
            viz_trace, replay_trace(viz_trace), path, show_messages=True
        )
        content = path.read_text()
        assert "<svg" in content
        assert "<title>" in content  # invocation tooltips
        assert "work" in content

    def test_zoom_window(self, viz_trace):
        from repro.viz import render_timeline_svg

        d = viz_trace.duration
        svg = render_timeline_svg(viz_trace, replay_trace(viz_trace), t0=0.0, t1=d / 4)
        full = render_timeline_svg(viz_trace, replay_trace(viz_trace))
        # Zoomed view shows fewer or equal rects than the full view.
        assert svg.tostring().count("<rect") <= full.tostring().count("<rect")

    def test_max_rects_cap(self, viz_trace):
        from repro.viz import render_timeline_svg

        capped = render_timeline_svg(viz_trace, replay_trace(viz_trace), max_rects=20)
        assert capped.tostring().count("<rect") <= 20 + 40  # + chrome

    def test_empty_trace_rejected(self):
        from repro.trace.trace import Trace
        from repro.viz import render_timeline_svg

        with pytest.raises(ValueError, match="empty"):
            render_timeline_svg(Trace(name="none"), {})

    def test_depth_culling(self, viz_trace):
        from repro.viz import render_timeline_svg

        shallow = render_timeline_svg(viz_trace, replay_trace(viz_trace), max_depth=1)
        deep = render_timeline_svg(viz_trace, replay_trace(viz_trace), max_depth=10)
        assert (
            shallow.tostring().count("<rect")
            <= deep.tostring().count("<rect")
        )
