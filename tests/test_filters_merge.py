"""Tests for trace transformations: clip, filter, select, merge."""

import numpy as np
import pytest

from repro.profiles import replay_trace
from repro.lint import lint_trace, validate_config
from repro.trace import (
    clip_trace,
    filter_regions,
    merge_traces,
    select_ranks,
)
from repro.trace.builder import TraceBuilder


class TestClipTrace:
    def test_clip_preserves_wellformedness(self, fig3):
        clipped = clip_trace(fig3, 2.0, 8.0)
        assert lint_trace(clipped, config=validate_config()).ok

    def test_clip_synthesises_boundary_events(self, fig3):
        clipped = clip_trace(fig3, 2.0, 4.0)
        ev = clipped.events_of(0)
        # Stream starts with synthetic enters of main and a at t=2.
        assert ev.time[0] == 2.0
        names = [clipped.regions[int(r)].name for r in ev.ref[:2]]
        assert names == ["main", "a"]
        assert ev.time[-1] == 4.0

    def test_clip_keeps_interior_events(self, fig3):
        clipped = clip_trace(fig3, 0.0, 20.0)
        for rank in fig3.ranks:
            assert len(clipped.events_of(rank)) == len(fig3.events_of(rank))

    def test_clip_inclusive_time_matches_window(self, fig3):
        from repro.profiles import profile_trace

        clipped = clip_trace(fig3, 2.0, 8.0)
        prof = profile_trace(clipped, replay_trace(clipped))
        assert prof.stats.of("main").inclusive_sum == pytest.approx(6.0 * 3)

    def test_empty_window_rejected(self, fig3):
        with pytest.raises(ValueError, match="empty window"):
            clip_trace(fig3, 5.0, 4.0)

    def test_clip_name(self, fig3):
        assert "[2,4]" in clip_trace(fig3, 2.0, 4.0).name
        assert clip_trace(fig3, 2.0, 4.0, name="zoom").name == "zoom"

    def test_clip_metric_events_kept(self, tiny_trace):
        clipped = clip_trace(tiny_trace, 0.0, 8.0)
        from repro.trace.events import EventKind

        ev = clipped.events_of(0)
        assert np.count_nonzero(ev.kind == EventKind.METRIC) == 2


class TestFilterRegions:
    def test_drop_one_region(self, fig3):
        filtered = filter_regions(fig3, lambda r: r.name != "calc")
        assert lint_trace(filtered, config=validate_config()).ok
        from repro.profiles import profile_trace

        prof = profile_trace(filtered, replay_trace(filtered))
        assert prof.stats.of("calc").count == 0
        # The parent keeps its timing.
        assert prof.stats.of("a").count == 9

    def test_children_of_removed_region_survive(self, fig3):
        filtered = filter_regions(fig3, lambda r: r.name != "a")
        from repro.profiles import profile_trace

        prof = profile_trace(filtered, replay_trace(filtered))
        assert prof.stats.of("a").count == 0
        assert prof.stats.of("calc").count == 9

    def test_keep_all_is_identity(self, fig3):
        filtered = filter_regions(fig3, lambda r: True)
        for rank in fig3.ranks:
            assert filtered.events_of(rank) == fig3.events_of(rank)


class TestSelectRanks:
    def test_subset(self, fig3):
        sub = select_ranks(fig3, [0, 2])
        assert sub.ranks == [0, 2]
        assert sub.events_of(0) == fig3.events_of(0)

    def test_missing_rank(self, fig3):
        with pytest.raises(KeyError, match="not in trace"):
            select_ranks(fig3, [99])


class TestMergeTraces:
    def _half(self, ranks, names=("main", "x")):
        tb = TraceBuilder(name="part")
        for name in names:
            tb.region(name)
        for rank in ranks:
            p = tb.process(rank)
            p.enter(0.0, names[0])
            p.call(0.1, 0.2, names[1])
            p.leave(1.0, names[0])
        return tb.freeze()

    def test_merge_disjoint_ranks(self):
        merged = merge_traces([self._half([0, 1]), self._half([2, 3])])
        assert merged.ranks == [0, 1, 2, 3]
        assert lint_trace(merged, config=validate_config()).ok

    def test_definitions_unified_by_name(self):
        a = self._half([0], names=("main", "x"))
        b = self._half([1], names=("x", "main"))  # reversed id order
        merged = merge_traces([a, b])
        assert len(merged.regions) == 2
        from repro.profiles import profile_trace

        prof = profile_trace(merged, replay_trace(merged))
        assert prof.stats.of("main").count == 2
        assert prof.stats.of("x").count == 2

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ValueError, match="multiple traces"):
            merge_traces([self._half([0]), self._half([0])])

    def test_merge_nothing(self):
        with pytest.raises(ValueError, match="nothing"):
            merge_traces([])

    def test_merge_remaps_metrics(self, tiny_trace):
        tb = TraceBuilder(name="other")
        tb.metric("OTHER")
        tb.metric("CYC")
        p = tb.process(7)
        p.metric(0.0, "CYC", 5.0)
        other = tb.freeze()
        merged = merge_traces([tiny_trace, other])
        cyc = merged.metrics.id_of("CYC")
        ev = merged.events_of(7)
        assert int(ev.ref[0]) == cyc
