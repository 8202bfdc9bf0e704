"""Tests for flat statistics, call trees and the profile facade."""

import pytest

from repro.profiles import (
    build_call_tree,
    compute_statistics,
    profile_trace,
    replay_trace,
)
from repro.trace.builder import TraceBuilder
from repro.trace.definitions import Paradigm


class TestFunctionStatistics:
    def test_figure2_numbers(self, fig2):
        stats = compute_statistics(fig2, replay_trace(fig2))
        assert stats.of("main").inclusive_sum == 54.0
        assert stats.of("main").count == 3
        assert stats.of("a").inclusive_sum == 36.0
        assert stats.of("a").count == 9
        assert stats.of("i").count == 3

    def test_exclusive_sums_to_total(self, fig2):
        stats = compute_statistics(fig2, replay_trace(fig2))
        # Total exclusive time across all regions == total main inclusive.
        assert float(stats.exclusive_sum.sum()) == pytest.approx(54.0)

    def test_min_max(self, fig3):
        stats = compute_statistics(fig3, replay_trace(fig3))
        a = stats.of("a")
        assert a.inclusive_min == 3.0
        assert a.inclusive_max == 6.0
        assert a.inclusive_mean == pytest.approx((6 + 3 + 5) / 3)

    def test_recursion_counts_outermost_inclusive_only(self):
        tb = TraceBuilder()
        tb.region("f")
        p = tb.process(0)
        p.enter(0.0, "f")
        p.call(1.0, 2.0, "f")
        p.leave(4.0)
        trace = tb.freeze()
        stats = compute_statistics(trace, replay_trace(trace))
        f = stats.of("f")
        assert f.count == 2  # every invocation counts
        assert f.inclusive_sum == 4.0  # but inclusive only outermost

    def test_rows_sorted_by_inclusive(self, fig2):
        rows = compute_statistics(fig2, replay_trace(fig2)).rows()
        values = [r.inclusive_sum for r in rows]
        assert values == sorted(values, reverse=True)
        assert rows[0].name == "main"

    def test_top_exclusive(self, fig2):
        top = compute_statistics(fig2, replay_trace(fig2)).top_exclusive(2)
        assert len(top) == 2
        assert top[0].name in ("a", "main")

    def test_never_invoked_region(self, fig1):
        fig1.regions.register("ghost")
        stats = compute_statistics(fig1, replay_trace(fig1))
        ghost = stats.of("ghost")
        assert ghost.count == 0
        assert ghost.inclusive_mean == 0.0


class TestCallTree:
    def test_figure1_structure(self, fig1):
        tree = build_call_tree(fig1, replay_trace(fig1))
        paths = tree.paths()
        assert ("foo",) in paths
        assert ("foo", "bar") in paths
        assert paths[("foo",)].inclusive_sum == 6.0
        assert paths[("foo", "bar")].count == 1

    def test_aggregates_across_processes(self, fig2):
        tree = build_call_tree(fig2, replay_trace(fig2))
        paths = tree.paths()
        assert paths[("main",)].count == 3
        assert paths[("main", "a")].count == 9
        assert paths[("main", "a", "b")].count == 6

    def test_exclusive_at_path_level(self, fig1):
        paths = build_call_tree(fig1, replay_trace(fig1)).paths()
        assert paths[("foo",)].exclusive_sum == 4.0

    def test_format_renders_indented(self, fig1):
        text = build_call_tree(fig1, replay_trace(fig1)).format()
        lines = text.splitlines()
        assert lines[0].startswith("foo")
        assert lines[1].startswith("  bar")

    def test_format_max_depth(self, fig2):
        text = build_call_tree(fig2, replay_trace(fig2)).format(max_depth=0)
        assert "main" in text and "  a" not in text

    def test_walk_yields_depths(self, fig1):
        tree = build_call_tree(fig1, replay_trace(fig1))
        depths = [d for d, _ in tree.root.walk()]
        assert depths == [0, 1, 2]


class TestTraceProfile:
    def test_paradigm_shares(self, fig3):
        profile = profile_trace(fig3, replay_trace(fig3))
        shares = {s.paradigm: s.share for s in profile.paradigm_shares()}
        # MPI exclusive: it1 1+3+5, it2 1+1+1, it3 1+3+4 = 20 of 42 total.
        assert shares[Paradigm.MPI] == pytest.approx(20 / 42)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_mpi_fraction_unwindowed(self, fig3):
        profile = profile_trace(fig3, replay_trace(fig3))
        assert profile.mpi_fraction() == pytest.approx(20 / 42)

    def test_mpi_fraction_windowed(self, fig3):
        profile = profile_trace(fig3, replay_trace(fig3))
        # First iteration only: MPI = 1+3+5 = 9; calc = 5+3+1 = 9;
        # main exclusive contributes nothing in [0, 6].
        assert profile.mpi_fraction(0.0, 6.0) == pytest.approx(0.5)

    def test_mpi_fraction_empty_trace_window(self, fig1):
        profile = profile_trace(fig1, replay_trace(fig1))
        assert profile.mpi_fraction() == 0.0

    def test_per_rank_exclusive(self, fig3):
        profile = profile_trace(fig3, replay_trace(fig3))
        calc = profile.per_rank_exclusive("calc")
        assert list(calc) == [pytest.approx(11.0), pytest.approx(7.0),
                              pytest.approx(4.0)]

    def test_format_flat(self, fig2):
        text = profile_trace(fig2, replay_trace(fig2)).format_flat(3)
        assert "main" in text
        assert "count" in text

    def test_call_tree_lazy_cached(self, fig1):
        profile = profile_trace(fig1, replay_trace(fig1))
        assert profile.call_tree is profile.call_tree

    def test_paradigm_share_absent(self, fig1):
        profile = profile_trace(fig1, replay_trace(fig1))
        assert profile.paradigm_share(Paradigm.OPENMP) == 0.0
