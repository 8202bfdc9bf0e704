"""E1-E3: exact reproduction of the paper's illustrative figures."""

import numpy as np

from repro.core import analyze_trace
from repro.paper import (
    FIGURE3_CALC,
    FIGURE3_DURATIONS,
    figure1_trace,
    figure2_trace,
    figure3_trace,
)
from repro.profiles import profile_trace, replay_trace
from repro.lint import lint_trace, validate_config


class TestFigure1:
    """Inclusive vs. exclusive time (Section IV, Figure 1)."""

    def test_inclusive_time_of_foo_is_6(self):
        trace = figure1_trace()
        stats = profile_trace(trace, replay_trace(trace)).stats
        assert stats.of("foo").inclusive_sum == 6.0

    def test_exclusive_time_of_foo_is_4(self):
        trace = figure1_trace()
        stats = profile_trace(trace, replay_trace(trace)).stats
        assert stats.of("foo").exclusive_sum == 4.0

    def test_bar_subcall(self):
        trace = figure1_trace()
        stats = profile_trace(trace, replay_trace(trace)).stats
        assert stats.of("bar").inclusive_sum == 2.0
        assert stats.of("bar").exclusive_sum == 2.0

    def test_trace_is_valid(self):
        assert lint_trace(figure1_trace(), config=validate_config()).ok


class TestFigure2:
    """Dominant-function selection (Section IV, Figure 2)."""

    def test_main_has_highest_inclusive_but_loses(self):
        trace = figure2_trace()
        stats = profile_trace(trace, replay_trace(trace)).stats
        assert stats.of("main").inclusive_sum == 54.0  # paper: 54 steps
        analysis = analyze_trace(trace)
        assert analysis.dominant_name == "a"

    def test_a_inclusive_and_count_match_paper(self):
        trace = figure2_trace()
        stats = profile_trace(trace, replay_trace(trace)).stats
        a = stats.of("a")
        assert a.inclusive_sum == 36.0  # paper: 36 time steps
        assert a.count == 9  # paper: nine times on three processes

    def test_main_invocations_equal_process_count(self):
        trace = figure2_trace()
        stats = profile_trace(trace, replay_trace(trace)).stats
        assert stats.of("main").count == 3

    def test_2p_threshold(self):
        analysis = analyze_trace(figure2_trace())
        assert analysis.selection.min_invocations == 6


class TestFigure3:
    """SOS-time computation (Section V, Figure 3)."""

    def test_dominant_is_a(self):
        analysis = analyze_trace(figure3_trace())
        assert analysis.dominant_name == "a"

    def test_plain_segment_durations_uniform_across_processes(self):
        analysis = analyze_trace(figure3_trace())
        durations = analysis.sos.duration_matrix()
        for it, expected in enumerate(FIGURE3_DURATIONS):
            assert np.allclose(durations[:, it], expected)

    def test_first_iteration_twice_as_slow_as_middle(self):
        """Paper: "The iterations in the middle (duration of 3) are
        twice as fast as the first iteration (duration of 6)"."""
        analysis = analyze_trace(figure3_trace())
        durations = analysis.sos.duration_matrix()
        assert durations[0, 0] == 2 * durations[0, 1]

    def test_sos_values_match_calc_times(self):
        analysis = analyze_trace(figure3_trace())
        sos = analysis.sos.matrix()
        expected = np.asarray(FIGURE3_CALC).T  # (ranks, iterations)
        np.testing.assert_allclose(sos, expected)

    def test_paper_quote_process0_vs_process2(self):
        """Paper: "the SOS-time of Process 2 shows 1 compared to a
        SOS-time of 5 for Process 0, i.e., it highlights the
        computational load imbalance in the first iteration"."""
        analysis = analyze_trace(figure3_trace())
        sos = analysis.sos
        assert sos[2].sos[0] == 1.0
        assert sos[0].sos[0] == 5.0
