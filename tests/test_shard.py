"""Unit and property tests for the sharded analysis engine.

The differential suite (``tests/test_differential.py``) proves the
end-to-end equality of sharded and unsharded analyses; this module
pins down the merge layer itself — the algebraic properties that make
that equality independent of how ranks are grouped — plus the shard
planner and the engine's plumbing.
"""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.session import AnalysisSession
from repro.core.engine import (
    BYTES_PER_EVENT,
    merge_sos,
    plan_shards,
)
from repro.core.shard import shard_workers
from repro.core.classify import default_classifier
from repro.lint import LintError
from repro.profiles import (
    FunctionStatistics,
    merge_statistics_arrays,
    rank_statistics_arrays,
)
from repro.profiles.replay import replay_trace


# -- plan_shards -----------------------------------------------------------


class TestPlanShards:
    def test_single_shard_default(self):
        plan = plan_shards({0: 10, 1: 20, 2: 30})
        assert plan.groups == ((0, 1, 2),)
        assert plan.events == (60,)

    def test_every_rank_exactly_once_and_ordered(self):
        counts = {r: 100 + r for r in range(17)}
        for n in (1, 2, 3, 5, 16, 17, 40):
            plan = plan_shards(counts, shards=n)
            assert list(plan.ranks) == sorted(counts)
            # boundary collisions may merge groups, never split extras
            assert 1 <= plan.num_shards <= min(n, len(counts))
            for group in plan.groups:
                assert list(group) == sorted(group)
                assert group  # no empty shards

    def test_balanced_by_event_count(self):
        # One huge rank should sit alone in its shard.
        counts = {0: 1000, 1: 10, 2: 10, 3: 10}
        plan = plan_shards(counts, shards=2)
        assert plan.groups == ((0,), (1, 2, 3))

    def test_max_memory_raises_shard_count(self):
        counts = {r: 100_000 for r in range(8)}
        budget_mb = 2 * 100_000 * BYTES_PER_EVENT / 1e6
        plan = plan_shards(counts, max_memory_mb=budget_mb)
        assert plan.num_shards >= 4
        assert plan.max_shard_bytes() <= budget_mb * 1e6

    def test_knobs_combine_larger_wins(self):
        counts = {r: 100_000 for r in range(8)}
        budget_mb = 2 * 100_000 * BYTES_PER_EVENT / 1e6
        plan = plan_shards(counts, shards=2, max_memory_mb=budget_mb)
        assert plan.num_shards >= 4
        plan = plan_shards(counts, shards=8, max_memory_mb=1e6)
        assert plan.num_shards == 8

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="no ranks"):
            plan_shards({})
        with pytest.raises(ValueError, match="shard count"):
            plan_shards({0: 1}, shards=0)
        for bound in (0, -1.0, float("nan"), float("inf"), 1e-300):
            with pytest.raises(ValueError, match="memory bound"):
                plan_shards({0: 1}, max_memory_mb=bound)

    def test_zero_event_ranks(self):
        plan = plan_shards({0: 0, 1: 0, 2: 0}, shards=2)
        assert sorted(plan.ranks) == [0, 1, 2]

    def test_describe(self):
        plan = plan_shards({0: 10, 1: 1}, shards=2)
        text = plan.describe()
        assert "2 shards" in text and "10 events" in text

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                 max_size=40),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_properties(self, counts, n):
        ranks = {r: c for r, c in enumerate(counts)}
        plan = plan_shards(ranks, shards=n)
        # exact cover, order preserved, contiguous groups
        assert list(plan.ranks) == sorted(ranks)
        assert sum(plan.events) == sum(counts)
        assert all(plan.groups)

    @given(
        st.lists(st.integers(min_value=0, max_value=50_000), min_size=1,
                 max_size=30),
        st.integers(min_value=1, max_value=5_000_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_memory_budget_holds_per_group(self, counts, budget_bytes):
        """Every group fits the budget, down to single-rank granularity."""
        ranks = {r: c for r, c in enumerate(counts)}
        plan = plan_shards(ranks, max_memory_mb=budget_bytes / 1e6)
        assert list(plan.ranks) == sorted(ranks)
        for group, events in zip(plan.groups, plan.events):
            assert (
                events * BYTES_PER_EVENT <= max(budget_bytes, BYTES_PER_EVENT)
                or len(group) == 1
            )


# -- statistics merge algebra ---------------------------------------------


def _tables_for(trace):
    return replay_trace(trace)


@st.composite
def _partition(draw, ranks):
    """Random partition of ``ranks`` into non-empty groups."""
    ranks = list(ranks)
    if len(ranks) == 1:
        return [ranks]
    cuts = draw(
        st.sets(st.integers(1, len(ranks) - 1), max_size=len(ranks) - 1)
    )
    bounds = [0, *sorted(cuts), len(ranks)]
    return [ranks[a:b] for a, b in zip(bounds, bounds[1:])]


class TestStatisticsMergeAlgebra:
    """Shard-merge of profile statistics is grouping-independent.

    The canonical definition merges per-rank partials in ascending
    rank order; any shard grouping pre-merges contiguous runs of that
    sequence, so associativity of the per-column operations (+, min,
    max) makes the result identical — these tests verify it *bitwise*
    on real replayed tables.
    """

    @pytest.fixture(scope="class")
    def replayed(self, fd4_result):
        trace = fd4_result.trace
        small_ranks = trace.ranks[:12]
        from repro.trace.filters import select_ranks

        sub = select_ranks(trace, small_ranks)
        return sub, _tables_for(sub)

    def test_rank_partials_merge_to_full_stats(self, replayed):
        trace, tables = replayed
        n = len(trace.regions)
        direct = FunctionStatistics(trace, tables)
        partials = {r: rank_statistics_arrays(tables[r], n) for r in tables}
        merged = FunctionStatistics.from_partials(trace, partials)
        for col in ("count", "inclusive_sum", "exclusive_sum",
                    "inclusive_min", "inclusive_max"):
            assert np.array_equal(getattr(direct, col), getattr(merged, col))

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_grouping_independence(self, replayed, data):
        """The shard grouping never leaks into the merged statistics.

        Workers hand back *per-rank* partials (never pre-merged group
        sums) and the parent merges them rank-ascending; simulate that
        with a random partition delivered in random shard-completion
        order and demand bitwise equality with the direct computation.
        """
        trace, tables = replayed
        n = len(trace.regions)
        ranks = sorted(tables)
        partials = {r: rank_statistics_arrays(tables[r], n) for r in ranks}
        reference = merge_statistics_arrays(
            [partials[r] for r in ranks], n
        )
        groups = data.draw(_partition(ranks))
        completion_order = data.draw(st.permutations(range(len(groups))))
        delivered: dict[int, dict[str, np.ndarray]] = {}
        for shard in completion_order:
            for r in groups[shard]:
                delivered[r] = partials[r]
        regrouped = merge_statistics_arrays(
            [delivered[r] for r in sorted(delivered)], n
        )
        for col in reference:
            assert np.array_equal(reference[col], regrouped[col]), col

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_pre_merged_groups_stay_exact_where_algebra_allows(
        self, replayed, data
    ):
        """Counts and min/max are associative, so even *pre-merged*
        group results regroup exactly; float sums only approximately —
        the reason the engine ships per-rank partials (see above)."""
        trace, tables = replayed
        n = len(trace.regions)
        ranks = sorted(tables)
        partials = {r: rank_statistics_arrays(tables[r], n) for r in ranks}
        reference = merge_statistics_arrays(
            [partials[r] for r in ranks], n
        )
        groups = data.draw(_partition(ranks))
        group_merges = [
            merge_statistics_arrays([partials[r] for r in g], n)
            for g in groups
        ]
        regrouped = merge_statistics_arrays(group_merges, n)
        for col in ("count", "inclusive_min", "inclusive_max"):
            assert np.array_equal(reference[col], regrouped[col]), col
        for col in ("inclusive_sum", "exclusive_sum"):
            np.testing.assert_allclose(
                reference[col], regrouped[col], rtol=1e-12
            )

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_from_partials_ignores_dict_insertion_order(self, replayed, data):
        trace, tables = replayed
        n = len(trace.regions)
        ranks = sorted(tables)
        partials = {r: rank_statistics_arrays(tables[r], n) for r in ranks}
        shuffled_ranks = data.draw(st.permutations(ranks))
        shuffled = {r: partials[r] for r in shuffled_ranks}
        a = FunctionStatistics.from_partials(trace, partials)
        b = FunctionStatistics.from_partials(trace, shuffled)
        assert np.array_equal(a.inclusive_sum, b.inclusive_sum)
        assert np.array_equal(a.count, b.count)

    def test_from_partials_rejects_region_mismatch(self, replayed):
        trace, tables = replayed
        n = len(trace.regions)
        partials = {
            r: rank_statistics_arrays(tables[r], n + 1) for r in tables
        }
        with pytest.raises(ValueError, match="regions"):
            FunctionStatistics.from_partials(trace, partials)


class TestMergeSos:
    def _fake_part(self, rank, n):
        from repro.core.segments import RankSegments, Segmentation
        from repro.core.sos import RankSOS, SOSResult

        rng = np.random.default_rng(rank)
        t_start = np.sort(rng.uniform(0, 100, n))
        seg = RankSegments(
            rank=rank,
            t_start=t_start,
            t_stop=t_start + rng.uniform(0.1, 1.0, n),
            invocation_row=np.arange(n, dtype=np.int64),
        )
        sync = rng.uniform(0, 0.05, n)
        sos = RankSOS(rank, seg.duration, sync, seg.duration - sync)
        return SOSResult(
            Segmentation(7, {rank: seg}), {rank: sos}, default_classifier()
        )

    @given(st.permutations(list(range(5))))
    @settings(max_examples=20, deadline=None)
    def test_union_is_order_independent(self, order):
        cls = default_classifier()
        parts = [self._fake_part(r, 4 + r) for r in range(5)]
        a = merge_sos(7, parts, cls)
        b = merge_sos(7, [parts[r] for r in order], cls)
        assert a.ranks == b.ranks == list(range(5))
        for r in a.ranks:
            assert np.array_equal(a[r].sos, b[r].sos)
            assert np.array_equal(
                a.segmentation[r].t_start, b.segmentation[r].t_start
            )

    def test_shard_parts_equal_whole_trace(self, fig3):
        from repro.core.segments import segment_trace
        from repro.core.sos import compute_sos

        cls = default_classifier()
        tables = replay_trace(fig3)
        region = AnalysisSession(fig3).selection().region

        def sos_of(ranks):
            part = {r: tables[r] for r in ranks}
            return compute_sos(fig3, segment_trace(part, region), part, cls)

        whole = sos_of(fig3.ranks)
        half = len(fig3.ranks) // 2
        merged = merge_sos(
            region, [sos_of(fig3.ranks[:half]), sos_of(fig3.ranks[half:])], cls
        )
        assert merged.ranks == whole.ranks
        assert merged.segmentation.region == region
        for r in whole.ranks:
            assert np.array_equal(merged[r].sos, whole[r].sos)
            assert np.array_equal(
                merged.segmentation[r].t_stop, whole.segmentation[r].t_stop
            )


# -- worker knob and engine plumbing ---------------------------------------


class TestShardWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "3")
        assert shard_workers(8) == 3
        assert shard_workers(2) == 2  # capped at shard count

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "zero")
        with pytest.raises(ValueError, match="integer"):
            shard_workers(4)
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "0")
        with pytest.raises(ValueError, match=">= 1"):
            shard_workers(4)

    def test_default_bounded_by_shards(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_WORKERS", raising=False)
        assert shard_workers(1) == 1


class TestShardEngine:
    def test_load_table_unknown_rank(self, tiny_trace):
        session = AnalysisSession(tiny_trace, shards=2)
        session.profile()
        with pytest.raises(KeyError):
            session.replay()[99]

    def test_session_rejects_missing_source(self):
        with pytest.raises(ValueError, match="trace or a source_path"):
            AnalysisSession(None)

    def test_invalid_trace_raises_in_bootstrap(self):
        from repro.trace.builder import TraceBuilder

        tb = TraceBuilder(name="broken")
        tb.region("main")
        p = tb.process(0)
        p.enter(0.0, "main")
        p.enter(1.0, "main")
        p.leave(2.0, "main")  # one enter never closed
        trace = tb.freeze(check_stacks=False)
        session = AnalysisSession(trace, shards=1)
        with pytest.raises(
            LintError, match=r"invalid trace:\nerror\[TL002\] rank 0 "
        ):
            session.analysis()

    def test_cross_shard_partners_not_flagged(self, fig3):
        # fig3 has point-to-point messages between ranks; slicing ranks
        # into singleton shards must not produce bad-partner issues.
        session = AnalysisSession(fig3, shards=len(fig3.ranks))
        analysis = session.analysis()  # raises if validation failed
        assert analysis.sos.ranks == fig3.ranks

    def test_lazy_tables_mapping(self, tiny_trace):
        session = AnalysisSession(tiny_trace, shards=2)
        profile = session.profile()
        tables = profile.tables
        assert sorted(tables) == tiny_trace.ranks
        assert len(tables) == len(tiny_trace.ranks)
        direct = replay_trace(tiny_trace)
        for rank in tables:
            assert np.array_equal(tables[rank].t_enter, direct[rank].t_enter)
        with pytest.raises(KeyError):
            tables[123]

    def test_spilled_drill_down_holds_few_tables(self, monkeypatch):
        # A spilled session's drill-down loads each table from the
        # spill as it is indexed, and keeps only the last few.
        import gc

        from repro.profiles.replay import InvocationTable
        from repro.sim.workloads.cosmo_specs import generate

        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")
        trace = generate(processes=16, iterations=4)
        # The memory bound spills; a plan of shards alone would not.
        session = AnalysisSession(trace, max_memory_mb=0.05)
        assert session._shard_engine().plan.num_shards > 1
        tables = session.profile().tables

        def held() -> int:
            gc.collect()
            return sum(isinstance(o, InvocationTable) for o in gc.get_objects())

        before = held()
        sizes = [len(tables[rank]) for rank in trace.ranks]
        assert held() - before <= 4
        assert session.stats.disk_hits["replay"] == len(trace.ranks)
        direct = replay_trace(trace)
        assert sizes == [len(direct[rank]) for rank in trace.ranks]
        for rank in trace.ranks[-2:]:
            assert np.array_equal(tables[rank].t_enter, direct[rank].t_enter)

    def test_in_process_shards_keep_tables(self, tmp_path, monkeypatch, capsys):
        # Shards run in one process spill nothing: no temporary
        # directory, and the report is the unsharded run's.
        import tempfile

        from repro.cli import main

        made = []
        real = tempfile.TemporaryDirectory

        def spy(*args, **kwargs):
            made.append(kwargs.get("prefix"))
            return real(*args, **kwargs)

        path = str(tmp_path / "cs.rpt")
        assert main(["simulate", "cosmo_specs", "--processes", "16",
                     "--iterations", "4", "-o", path]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")
        monkeypatch.setattr(tempfile, "TemporaryDirectory", spy)
        assert main(["analyze", path]) == 0
        unsharded = capsys.readouterr().out
        assert main(["analyze", path, "--shards", "8"]) == 0
        assert capsys.readouterr().out == unsharded
        assert made == []

    def test_session_stats_accounting(self, tiny_trace, tmp_path):
        cache = tmp_path / "cache"
        s1 = AnalysisSession(tiny_trace, shards=2, cache_dir=cache)
        s1.analysis()
        assert s1.stats.computed.get("replay") == len(tiny_trace.ranks)
        s2 = AnalysisSession(tiny_trace, shards=2, cache_dir=cache)
        s2.analysis()
        assert s2.stats.computed.get("replay", 0) == 0
        assert s2.stats.disk_hits["stats"] == s2.stats.disk_hits["sos"] == 1
        s2.replay()
        assert s2.stats.computed.get("replay", 0) == 0
        assert s2.stats.disk_hits.get("replay") == len(tiny_trace.ranks)

    def test_spill_is_session_cache(self, tiny_trace, tmp_path):
        cache = tmp_path / "cache"
        session = AnalysisSession(tiny_trace, shards=2, cache_dir=cache)
        session.analysis()
        keys = session.cache.keys()
        digests = [d for _, d in session.fingerprint.per_rank]
        for digest in digests:
            assert f"inv-{digest}" in keys
        # The same artifacts an unsharded session leaves.
        unsharded = AnalysisSession(tiny_trace, cache_dir=tmp_path / "one")
        unsharded.analysis()
        assert keys == unsharded.cache.keys()
