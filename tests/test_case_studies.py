"""E4-E6: reproduction of the paper's three case studies (Section VII).

These run the full-scale simulations (100/200/64 ranks) once per
session and assert the *shape* results the paper reports: the same
ranks light up, the same trends appear, the same refinement workflow
isolates the same root causes.
"""

import numpy as np
import pytest

from repro.core.metrics import (
    metric_sos_correlation,
    per_rank_metric_total,
    segment_metric_delta,
)
from repro.profiles import replay_trace
from repro.sim.countermodel import FPU_EXCEPTIONS, PAPI_TOT_CYC
from repro.sim.workloads.cosmo_specs import HOT_RANKS, PEAK_RANK
from repro.lint import lint_trace, validate_config


class TestCosmoSpecs:
    """Case A: load imbalance from static decomposition (Fig 4)."""

    def test_trace_is_valid(self, cosmo_trace):
        assert lint_trace(cosmo_trace, config=validate_config()).ok

    def test_100_processes(self, cosmo_trace):
        assert cosmo_trace.num_processes == 100

    def test_dominant_function_represents_iterations(self, cosmo_analysis):
        assert cosmo_analysis.dominant_name == "timeloop_iteration"
        assert cosmo_analysis.segmentation.counts().min() == 60

    def test_mpi_fraction_increases_over_run(self, cosmo_analysis):
        """Fig 4a: "Throughout the execution, the fraction of MPI
        increases, up to a point where MPI activities are dominating
        towards the end of the run"."""
        trace = cosmo_analysis.trace
        d = trace.duration
        profile = cosmo_analysis.profile
        early = profile.mpi_fraction(0, d / 3)
        late = profile.mpi_fraction(2 * d / 3, d)
        assert late > early + 0.2
        assert late > 0.5  # dominating towards the end

    def test_plain_durations_increase_over_run(self, cosmo_analysis):
        """Paper: "we observe gradually increased durations towards the
        end of the application run"."""
        assert cosmo_analysis.duration_trend.increasing

    def test_hot_ranks_match_paper(self, cosmo_analysis):
        """Fig 4b: "only a few processes (Process 44, 45, 54, 55, 64,
        65) exhibit increases in this metric"."""
        assert set(cosmo_analysis.hot_ranks()) == set(HOT_RANKS)

    def test_peak_rank_is_54(self, cosmo_analysis):
        """Fig 4b: "Particularly Process 54 needs more time than any
        other process for its calculations"."""
        assert cosmo_analysis.hottest_rank() == PEAK_RANK
        totals = cosmo_analysis.sos.per_rank_total()
        assert int(np.argmax(totals)) == PEAK_RANK

    def test_sos_separates_what_durations_hide(self, cosmo_analysis):
        durations = cosmo_analysis.sos.duration_matrix()
        sos = cosmo_analysis.sos.matrix()
        # Relative spread across ranks, per iteration (late phase).
        late = slice(40, 60)
        dur_rel = np.nanstd(durations[:, late], axis=0) / np.nanmean(
            durations[:, late], axis=0
        )
        sos_rel = np.nanstd(sos[:, late], axis=0) / np.nanmean(
            sos[:, late], axis=0
        )
        assert np.median(sos_rel) > 3 * np.median(dur_rel)

    def test_heat_matrix_hotspot_location(self, cosmo_analysis):
        matrix, _edges = cosmo_analysis.heat_matrix(bins=128)
        # The hottest cell in the late phase belongs to rank 54.
        late = matrix[:, 96:]
        row = np.unravel_index(np.nanargmax(late), late.shape)[0]
        assert cosmo_analysis.trace.ranks[row] == PEAK_RANK


class TestCosmoSpecsFD4:
    """Case B: single OS interruption under dynamic balancing (Fig 5)."""

    def test_trace_is_valid(self, fd4_result):
        assert lint_trace(fd4_result.trace, config=validate_config()).ok

    def test_200_processes(self, fd4_result):
        assert fd4_result.trace.num_processes == 200

    def test_balancing_keeps_compute_balanced(self, fd4_result):
        imbalance = float(fd4_result.trace.attributes["mean_balanced_imbalance"])
        assert imbalance < 1.15

    def test_coarse_analysis_flags_rank_20(self, fd4_analysis):
        """Fig 5b: "The red line in the figure highlights a high
        SOS-time for Process 20"."""
        assert fd4_analysis.hot_ranks() == [20]

    def test_coarse_analysis_flags_the_iteration(self, fd4_analysis):
        hot = fd4_analysis.imbalance.hottest_segment()
        assert hot.rank == 20
        assert hot.segment_index == 18  # the interrupted iteration

    def test_fine_segmentation_isolates_single_invocation(self, fd4_analysis):
        """Fig 5c: "a single function call—red line—that runs
        significantly longer than all other invocations"."""
        fine = fd4_analysis.at_function("specs_timestep")
        hot_segments = fine.hot_segments()
        assert hot_segments[0] == (20, 18 * 4 + 2)
        # It is a *single* invocation: rank 20 appears exactly once at
        # the very top, far above everything else.
        top = fine.imbalance.hot_segments[0]
        assert top.score > 10

    def test_interrupted_invocation_has_low_cycle_rate(self, fd4_analysis):
        """Paper: "this single function call exhibits a low number of
        total assigned CPU cycles (measured with PAPI_TOT_CYC)"."""
        fine = fd4_analysis.at_function("specs_timestep")
        trace = fd4_analysis.trace
        deltas = segment_metric_delta(trace, PAPI_TOT_CYC, fine.segmentation)
        ranks = fine.sos.ranks
        row = ranks.index(20)
        durations = fine.segmentation[20].duration
        with np.errstate(invalid="ignore"):
            rates = deltas[row] / durations
        hot_idx = 18 * 4 + 2
        other = np.delete(rates, hot_idx)
        assert rates[hot_idx] < 0.5 * np.nanmedian(other)

    def test_no_other_rank_flagged(self, fd4_analysis):
        flagged = {h.rank for h in fd4_analysis.imbalance.hot_segments}
        assert flagged == {20}


class TestWRF:
    """Case C: floating-point exceptions on one rank (Fig 6)."""

    def test_trace_is_valid(self, wrf_trace):
        assert lint_trace(wrf_trace, config=validate_config()).ok

    def test_64_processes(self, wrf_trace):
        assert wrf_trace.num_processes == 64

    def test_init_phase_duration(self, wrf_trace):
        """Fig 6a: "model initialization and I/O activities that take
        about 11 seconds"."""
        from repro.profiles import profile_trace

        stats = profile_trace(wrf_trace, replay_trace(wrf_trace)).stats
        init = stats.of("wrf_init")
        assert init.inclusive_max == pytest.approx(11.0, rel=0.2)

    def test_mpi_fraction_about_25_percent(self, wrf_analysis):
        """Paper: "statistics for the iterations show a 25% fraction of
        MPI activities"."""
        trace = wrf_analysis.trace
        iters_start = wrf_analysis.segmentation.t_min
        fraction = wrf_analysis.profile.mpi_fraction(iters_start, trace.t_max)
        assert 0.15 <= fraction <= 0.35

    def test_rank_39_flagged(self, wrf_analysis):
        """Fig 6b: "Particularly Process 39 exhibits higher durations
        than the other processes"."""
        assert wrf_analysis.hot_ranks() == [39]

    def test_fpu_counter_peaks_on_rank_39(self, wrf_trace):
        """Fig 6c: "Process 39 exhibits an exceptional high number of
        floating-point exceptions"."""
        fpu = per_rank_metric_total(wrf_trace, FPU_EXCEPTIONS)
        assert int(np.argmax(fpu)) == 39
        others = np.delete(fpu, 39)
        assert fpu[39] > 100 * others.max()

    def test_counter_matches_sos_analysis(self, wrf_analysis):
        """Paper: "the results of the counter ... perfectly match our
        runtime variation analysis"."""
        fpu = per_rank_metric_total(wrf_analysis.trace, FPU_EXCEPTIONS)
        sos = wrf_analysis.sos.per_rank_total()
        assert metric_sos_correlation(fpu, sos) > 0.95

    def test_dominant_function(self, wrf_analysis):
        assert wrf_analysis.dominant_name == "wrf_timestep"


class TestRefinementChain:
    """The refinement workflow on the published case studies."""

    def test_cosmo_refinement_order(self, cosmo_analysis):
        """Refining steps down the candidate list toward smaller
        inclusive times (Section VII-B's knob)."""
        finer = cosmo_analysis.refined()
        assert finer.dominant_name == "specs_microphysics"
        assert (
            finer.selection.dominant.inclusive_sum
            < cosmo_analysis.selection.dominant.inclusive_sum
        )

    def test_cosmo_refined_still_finds_hot_ranks(self, cosmo_analysis):
        from repro.sim.workloads.cosmo_specs import HOT_RANKS, PEAK_RANK

        finer = cosmo_analysis.at_function("specs_bin_microphysics")
        assert finer.hottest_rank() == PEAK_RANK
        assert set(finer.hot_ranks()) == set(HOT_RANKS)

    def test_wrf_explain_names_physics(self, wrf_analysis):
        from repro.core import explain_segment

        hot_rank = wrf_analysis.hottest_rank()
        sos = wrf_analysis.sos[hot_rank].sos
        import numpy as np

        exp = explain_segment(wrf_analysis, hot_rank, int(np.argmax(sos)))
        culprit = exp.dominant_excess()
        assert culprit is not None
        assert culprit.name == "microphysics_driver"

    def test_fd4_streaming_would_have_caught_it(self, fd4_result):
        """The in-situ extension catches the published case B anomaly."""
        from repro.core.streaming import StreamingAnalyzer

        trace = fd4_result.trace
        analyzer = StreamingAnalyzer(
            trace.regions, trace.num_processes,
            dominant="timeloop_iteration",
        )
        for rank in trace.ranks:
            analyzer.feed(rank, trace.events_of(rank))
        assert any(
            a.segment.rank == 20 and a.segment.index == 18
            for a in analyzer.alerts
        )
