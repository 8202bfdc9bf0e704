"""End-to-end integration: the golden path through every subsystem.

simulate → write → read → validate → analyze → refine → explain →
baselines → render → export, in one flow per scenario.  These tests
catch interface drift between subsystems that unit tests cannot see.
"""

import os

import numpy as np
import pytest

from repro.baselines import analyze_profile_only, search_patterns
from repro.core import (
    AnalysisConfig,
    analyze_trace,
    communication_matrix,
    compare_traces,
    explain_segment,
)
from repro.core.streaming import StreamingAnalyzer
from repro.htmlreport import render_html_report
from repro.lint import lint_trace, validate_config
from repro.profiles import write_profile_csv, write_rank_summary_csv, write_segments_csv
from repro.sim.workloads.synthetic import SyntheticConfig, generate
from repro.trace import (
    clip_trace,
    read_trace,
    write_binary,
    write_jsonl,
)
from repro.viz import render_analysis


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """One simulated run with two planted problems, saved to disk."""
    config = SyntheticConfig(
        ranks=8,
        iterations=16,
        slow_ranks={6: 1.7},
        outliers={(1, 9): 0.06},
        jitter_sigma=0.004,
        seed=13,
    )
    trace = generate(config)
    root = tmp_path_factory.mktemp("golden")
    binary = root / "run.rpt"
    text = root / "run.jsonl"
    write_binary(trace, binary)
    write_jsonl(trace, text)
    return trace, binary, text, root


class TestGoldenPath:
    def test_roundtrip_both_formats(self, scenario):
        trace, binary, text, _root = scenario
        for path in (binary, text):
            back = read_trace(path)
            assert lint_trace(back, config=validate_config()).ok
            assert back.num_events == trace.num_events
            for rank in trace.ranks:
                assert back.events_of(rank) == trace.events_of(rank)

    def test_full_analysis_finds_both_problems(self, scenario):
        trace, binary, _text, _root = scenario
        analysis = analyze_trace(read_trace(binary))
        assert 6 in analysis.hot_ranks()
        assert (1, 9) in analysis.hot_segments()

    def test_refine_explain_chain(self, scenario):
        trace, _binary, _text, _root = scenario
        analysis = analyze_trace(trace)
        fine = analysis.at_function("work")
        hot = [h for h in fine.imbalance.hot_segments if h.rank == 1]
        assert hot
        exp = explain_segment(fine, hot[0].rank, hot[0].segment_index)
        assert exp.rank == 1
        # The interruption shows as a low cycle rate at this level.
        rate = exp.counter_rates["PAPI_TOT_CYC"]
        typical = exp.typical_counter_rates["PAPI_TOT_CYC"]
        assert rate < typical

    def test_streaming_agrees_with_batch(self, scenario):
        trace, _binary, _text, _root = scenario
        batch = analyze_trace(trace)
        analyzer = StreamingAnalyzer(
            trace.regions, trace.num_processes, dominant=batch.dominant_name
        )
        for rank in trace.ranks:
            analyzer.feed(rank, trace.events_of(rank))
        for rank in trace.ranks:
            np.testing.assert_allclose(
                analyzer.sos_series(rank), batch.sos[rank].sos
            )
        assert any(a.segment.rank == 1 for a in analyzer.alerts)

    def test_baselines_run_on_same_trace(self, scenario):
        trace, _binary, _text, _root = scenario
        po = analyze_profile_only(trace)
        assert 6 in po.flagged_ranks()
        ps = search_patterns(trace)
        assert ps.instances
        cm = communication_matrix(trace, matched_times=False)
        assert cm.num_messages > 0

    def test_render_everything(self, scenario):
        trace, _binary, _text, root = scenario
        analysis = analyze_trace(trace)
        written = render_analysis(analysis, root / "views", bins=64)
        for path in written.values():
            assert os.path.getsize(path) > 200
        html = root / "report.html"
        render_html_report(analysis, html, bins=64)
        assert html.stat().st_size > 10_000

    def test_exports(self, scenario):
        trace, _binary, _text, root = scenario
        analysis = analyze_trace(trace)
        assert write_profile_csv(analysis.profile, root / "p.csv") > 0
        assert write_rank_summary_csv(analysis, root / "r.csv") == 8
        assert write_segments_csv(analysis, root / "s.csv") == 8 * 16

    def test_clip_and_reanalyze(self, scenario):
        trace, _binary, _text, _root = scenario
        analysis = analyze_trace(trace)
        seg = analysis.segmentation[1]
        window = clip_trace(
            trace, float(seg.t_start[8]), float(seg.t_stop[10])
        )
        assert lint_trace(window, config=validate_config()).ok
        # The clipped window still contains the outlier invocation.
        sub = analyze_trace(window, AnalysisConfig(validate=False))
        assert sub.segmentation.total_segments > 0

    def test_compare_against_clean_run(self, scenario):
        trace, _binary, _text, _root = scenario
        clean = generate(
            SyntheticConfig(ranks=8, iterations=16, jitter_sigma=0.004,
                            seed=13)
        )
        comparison = compare_traces(clean, trace, min_relative_delta=0.3)
        assert comparison.speedup < 1.0
        regressed_ranks = {d.rank for d in comparison.regressions}
        assert 6 in regressed_ranks
        assert (1, 9) in {
            (d.rank, d.segment_index) for d in comparison.regressions
        }


class TestMeasurementIntegration:
    def test_instrumented_code_through_full_stack(self, tmp_path):
        from repro.measure import ManualClock, Measurement
        from repro.trace.definitions import Paradigm

        m = Measurement(name="integration")
        clocks = [ManualClock() for _ in range(3)]
        recorders = [m.process(r, clock=clocks[r]) for r in range(3)]
        for rec in recorders:
            rec.enter("main")
        for it in range(8):
            done = []
            for rank, rec in enumerate(recorders):
                rec.enter("iteration")
                with rec.region("kernel"):
                    clocks[rank].advance(0.01 * (3.0 if rank == 2 else 1.0))
                    rec.add_counter("ops", 100.0)
                done.append(clocks[rank].now())
            exit_t = max(done) + 1e-4
            for rank, rec in enumerate(recorders):
                with rec.region("MPI_Barrier", paradigm=Paradigm.MPI):
                    clocks[rank].set(exit_t)
                rec.leave("iteration")
        for rec in recorders:
            rec.leave("main")
        trace = m.finish()

        path = tmp_path / "m.rpt"
        write_binary(trace, path)
        analysis = analyze_trace(read_trace(path))
        assert analysis.hot_ranks() == [2]
        render_html_report(analysis, tmp_path / "m.html", bins=32)
        assert (tmp_path / "m.html").exists()
