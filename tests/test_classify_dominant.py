"""Tests for synchronization classification and dominant-function selection."""

import pytest

from repro.core.classify import SyncClassifier, default_classifier
from repro.core.dominant import rank_candidates, select_dominant
from repro.profiles import replay_trace
from repro.trace.builder import TraceBuilder
from repro.trace.definitions import Paradigm, Region, RegionRole


class TestSyncClassifier:
    def region(self, name, paradigm=Paradigm.USER, role=RegionRole.COMPUTE):
        return Region(id=0, name=name, paradigm=paradigm, role=role)

    def test_mpi_paradigm_is_sync(self):
        c = default_classifier()
        assert c.is_sync(self.region("MPI_Allreduce", Paradigm.MPI,
                                     RegionRole.COMMUNICATION))
        assert c.is_sync(self.region("MPI_Barrier", Paradigm.MPI,
                                     RegionRole.SYNCHRONIZATION))

    def test_user_compute_is_not_sync(self):
        assert not default_classifier().is_sync(self.region("solve"))

    def test_name_pattern_catches_unclassified_mpi(self):
        # A region recorded without paradigm info but with an MPI_ name.
        assert default_classifier().is_sync(self.region("MPI_Sendrecv"))

    def test_omp_barrier_pattern(self):
        assert default_classifier().is_sync(self.region("omp barrier @file:12"))

    def test_role_based(self):
        c = default_classifier()
        assert c.is_sync(
            self.region("spinlock_wait", Paradigm.USER, RegionRole.SYNCHRONIZATION)
        )

    def test_exclude_pattern_wins(self):
        c = SyncClassifier(exclude_patterns=("MPI_Custom*",))
        assert not c.is_sync(
            self.region("MPI_Custom_thing", Paradigm.MPI, RegionRole.COMMUNICATION)
        )

    def test_io_optional(self):
        io_region = self.region("fwrite", Paradigm.IO, RegionRole.FILE_IO)
        assert not default_classifier().is_sync(io_region)
        assert SyncClassifier(include_io=True).is_sync(io_region)

    def test_with_patterns_extends(self):
        c = default_classifier().with_patterns("my_sync_*")
        assert c.is_sync(self.region("my_sync_phase"))
        assert default_classifier().name_patterns != c.name_patterns

    def test_mask_over_trace(self, fig3):
        mask = default_classifier().mask(fig3)
        assert mask[fig3.regions.id_of("MPI")]
        assert not mask[fig3.regions.id_of("calc")]
        assert len(mask) == len(fig3.regions)


class TestDominantSelection:
    def test_paper_example(self, fig2):
        selection = select_dominant(fig2, tables=replay_trace(fig2))
        assert selection.name == "a"
        assert selection.min_invocations == 6
        assert selection.dominant.inclusive_sum == 36.0
        assert selection.dominant.count == 9

    def test_main_excluded_by_invocation_count(self, fig2):
        names = [c.name for c in rank_candidates(fig2, tables=replay_trace(fig2))]
        assert "main" not in names
        assert "i" not in names  # 3 invocations < 2p = 6

    def test_candidates_ranked_by_inclusive(self, fig2):
        candidates = rank_candidates(fig2, tables=replay_trace(fig2))
        values = [c.inclusive_sum for c in candidates]
        assert values == sorted(values, reverse=True)

    def test_refinement_moves_down_the_list(self, fig2):
        selection = select_dominant(fig2, tables=replay_trace(fig2))
        finer = selection.refined()
        assert finer.dominant.inclusive_sum <= selection.dominant.inclusive_sum
        assert finer.level == 1

    def test_refinement_out_of_range(self, fig2):
        selection = select_dominant(fig2, tables=replay_trace(fig2))
        with pytest.raises(IndexError):
            selection.refined(99)

    def test_at_function(self, fig2):
        selection = select_dominant(fig2, tables=replay_trace(fig2)).at_function("c")
        assert selection.name == "c"
        with pytest.raises(KeyError):
            selection.at_function("nonexistent")

    def test_no_candidate_raises(self, fig1):
        with pytest.raises(ValueError, match="no dominant-function candidate"):
            select_dominant(fig1, tables=replay_trace(fig1))

    def test_min_invocation_factor(self, fig2):
        # Factor 1 admits main (3 invocations = 1*p).
        candidates = rank_candidates(
            fig2, tables=replay_trace(fig2), min_invocation_factor=1.0
        )
        assert candidates[0].name == "main"

    def test_mpi_regions_not_candidates(self, fig3):
        names = [c.name for c in rank_candidates(fig3, tables=replay_trace(fig3))]
        assert "MPI" not in names
        assert "a" in names

    def test_mpi_admissible_when_asked(self, fig3):
        names = [
            c.name
            for c in rank_candidates(
                fig3, tables=replay_trace(fig3),
                candidate_paradigms=(Paradigm.USER, Paradigm.MPI),
            )
        ]
        assert "MPI" in names

    def test_level_selects_directly(self, fig2):
        selection = select_dominant(fig2, tables=replay_trace(fig2), level=1)
        assert selection.level == 1
        with pytest.raises(IndexError):
            select_dominant(fig2, tables=replay_trace(fig2), level=42)

    def test_mean_segment(self, fig2):
        candidate = rank_candidates(fig2, tables=replay_trace(fig2))[0]
        assert candidate.mean_segment == pytest.approx(4.0)

    def test_str(self, fig2):
        assert "a" in str(select_dominant(fig2, tables=replay_trace(fig2)).dominant)

    def test_ties_broken_by_region_id(self):
        tb = TraceBuilder()
        tb.region("x")
        tb.region("y")
        p = tb.process(0)
        for i, name in enumerate(("x", "y", "x", "y")):
            p.call(float(2 * i), 2 * i + 1.0, name)
        trace = tb.freeze()
        selection = select_dominant(trace, tables=replay_trace(trace))
        assert selection.name == "x"
