"""Tests for run comparison and activity shares."""

import numpy as np
import pytest

from repro.core import (
    activity_shares,
    analyze_trace,
    compare_analyses,
    compare_traces,
)
from repro.profiles import replay_trace
from repro.sim.workloads.synthetic import SyntheticConfig, generate


def make_pair(factor_b=2.0):
    """Two runs; run b slows rank 3 down by factor_b from iteration 5."""
    a = generate(SyntheticConfig(ranks=6, iterations=10, seed=1))
    outliers = {(3, it): 0.01 * (factor_b - 1) for it in range(5, 10)}
    b = generate(SyntheticConfig(ranks=6, iterations=10, outliers=outliers, seed=1))
    return a, b


class TestCompare:
    def test_identical_runs(self):
        a = generate(SyntheticConfig(ranks=4, iterations=6, seed=1))
        b = generate(SyntheticConfig(ranks=4, iterations=6, seed=1))
        comparison = compare_traces(a, b)
        assert comparison.speedup == pytest.approx(1.0)
        assert comparison.regressions == []
        assert comparison.improvements == []
        assert comparison.aligned_segments == 24

    def test_detects_regressions(self):
        a, b = make_pair()
        comparison = compare_traces(a, b)
        assert comparison.speedup < 1.0
        regressed = {(d.rank, d.segment_index) for d in comparison.regressions}
        assert regressed == {(3, it) for it in range(5, 10)}

    def test_detects_improvements_in_reverse(self):
        a, b = make_pair()
        comparison = compare_traces(b, a)
        assert comparison.speedup > 1.0
        improved = {(d.rank, d.segment_index) for d in comparison.improvements}
        assert improved == {(3, it) for it in range(5, 10)}

    def test_delta_and_ratio(self):
        a, b = make_pair(factor_b=3.0)
        comparison = compare_traces(a, b)
        top = comparison.regressions[0]
        assert top.delta > 0
        assert top.ratio == pytest.approx(3.0, rel=0.05)
        assert "->" in str(top)

    def test_format(self):
        a, b = make_pair()
        text = compare_traces(a, b).format()
        assert "aligned" in text and "regressions" in text

    def test_dominant_mismatch_rejected(self):
        a, b = make_pair()
        ana = analyze_trace(a)
        anb = analyze_trace(b).at_function("work")
        with pytest.raises(ValueError, match="different functions"):
            compare_analyses(ana, anb)

    def test_pinned_function(self):
        a, b = make_pair()
        comparison = compare_traces(a, b, dominant="work")
        assert comparison.aligned_segments == 60

    def test_rank_deltas(self):
        a, b = make_pair()
        comparison = compare_traces(a, b)
        deltas = comparison.rank_deltas()
        assert np.argmax(deltas) == 3

    def test_threshold_filters_noise(self):
        a, b = make_pair(factor_b=1.1)  # 10% change < 25% threshold
        comparison = compare_traces(a, b, min_relative_delta=0.25)
        assert comparison.regressions == []
        comparison = compare_traces(a, b, min_relative_delta=0.05)
        assert comparison.regressions


class TestActivityShares:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate(
            SyntheticConfig(ranks=4, iterations=8, slow_ranks={1: 1.5}, seed=3)
        )

    def test_columns_sum_to_one(self, trace):
        shares = activity_shares(trace, replay_trace(trace), bins=32)
        np.testing.assert_allclose(shares.shares.sum(axis=0), 1.0)

    def test_paradigm_labels(self, trace):
        shares = activity_shares(trace, replay_trace(trace), bins=32)
        assert "USER" in shares.labels
        assert "MPI" in shares.labels
        assert shares.labels[-1] == "idle"

    def test_user_dominates_compute_bound_run(self, trace):
        shares = activity_shares(trace, replay_trace(trace), bins=32)
        assert shares.mean_share("USER") > 0.5

    def test_region_grouping(self, trace):
        shares = activity_shares(
            trace, replay_trace(trace), bins=32, by="region", top_regions=1
        )
        assert "work" in shares.labels
        assert shares.labels[-1] == "idle"
        assert "other" in shares.labels  # the non-top regions fold here

    def test_bad_grouping(self, trace):
        with pytest.raises(ValueError, match="unknown grouping"):
            activity_shares(trace, replay_trace(trace), by="magic")

    def test_of_and_mean(self, trace):
        shares = activity_shares(trace, replay_trace(trace), bins=16)
        series = shares.of("USER")
        assert series.shape == (16,)
        assert 0 <= shares.mean_share("USER") <= 1

    def test_window(self, trace):
        shares = activity_shares(
            trace, replay_trace(trace), bins=8, t0=0.0, t1=trace.t_max / 2
        )
        assert shares.edges[-1] == pytest.approx(trace.t_max / 2)

    def test_mpi_share_grows_in_cosmo(self, cosmo_trace):
        shares = activity_shares(cosmo_trace, replay_trace(cosmo_trace), bins=60)
        mpi = shares.of("MPI")
        # Average of the last sixth far above the first sixth (Fig 4a).
        assert mpi[-10:].mean() > mpi[:10].mean() + 0.3


class TestAreaChart:
    def test_render(self, tmp_path):
        trace = generate(SyntheticConfig(ranks=4, iterations=8, seed=3))
        shares = activity_shares(trace, replay_trace(trace), bins=64)
        from repro.viz import render_area_png

        path = tmp_path / "area.png"
        canvas = render_area_png(shares, path)
        assert path.exists() and path.stat().st_size > 500
        assert canvas.width == 1100

    @staticmethod
    def _loop_bands(shares, width, height):
        """The stacked bands painted one ``vline`` per pixel column and
        group: the reference for the chart's one array pass."""
        from repro.viz.areachart import _group_color
        from repro.viz.canvas import Canvas
        from repro.viz.figure import ChartLayout

        layout = ChartLayout(width=width, height=height, right=150)
        canvas = Canvas(width, height)
        matrix = np.asarray(shares.shares, dtype=np.float64)
        n_groups, bins = matrix.shape
        cum = np.clip(np.vstack([np.zeros(bins), np.cumsum(matrix, axis=0)]), 0.0, 1.0)
        colors = [_group_color(label, i) for i, label in enumerate(shares.labels)]
        base = layout.plot_y + layout.plot_h
        cols = np.minimum((np.arange(layout.plot_w) * bins) // layout.plot_w, bins - 1)
        for px, col in enumerate(cols):
            for g in range(n_groups):
                y_lo = base - int(round(cum[g + 1, col] * layout.plot_h))
                y_hi = base - int(round(cum[g, col] * layout.plot_h))
                if y_hi > y_lo:
                    canvas.vline(layout.plot_x + px, y_lo, y_hi - 1, colors[g])
        return canvas.pixels[layout.plot_y:base, layout.plot_x:layout.plot_x + layout.plot_w]

    @pytest.mark.parametrize("seed", range(6))
    def test_bands_equal_the_column_loop(self, seed):
        from types import SimpleNamespace

        from repro.viz import render_area_png
        from repro.viz.figure import ChartLayout

        rng = np.random.default_rng(seed)
        groups, bins = int(rng.integers(1, 6)), int(rng.integers(1, 300))
        matrix = rng.random((groups, bins))
        if seed % 2:  # negative shares: bands overlap, later ones win
            matrix *= rng.choice([-1.0, 1.0], size=matrix.shape)
        else:
            matrix /= matrix.sum(axis=0)
        shares = SimpleNamespace(
            shares=matrix, labels=["MPI", "idle", "a", "b", "c"][:groups],
            edges=np.linspace(0.0, 1.0, bins + 1),
        )
        width, height = [(1100, 320), (300, 100), (170, 60)][seed % 3]
        layout = ChartLayout(width=width, height=height, right=150)
        got = render_area_png(shares, width=width, height=height).pixels[
            layout.plot_y:layout.plot_y + layout.plot_h,
            layout.plot_x:layout.plot_x + layout.plot_w,
        ]
        assert np.array_equal(got, self._loop_bands(shares, width, height))
