"""Tests for the HTML report and the hybrid OpenMP workload."""

import numpy as np
import pytest

from repro.core import analyze_trace
from repro.htmlreport import render_html_report
from repro.sim.workloads import hybrid_openmp
from repro.sim.workloads.synthetic import SyntheticConfig, generate
from repro.lint import lint_trace, validate_config


@pytest.fixture(scope="module")
def hybrid_trace():
    return hybrid_openmp.generate(ranks=16, iterations=12)


@pytest.fixture(scope="module")
def hybrid_analysis(hybrid_trace):
    return analyze_trace(hybrid_trace)


class TestHybridWorkload:
    def test_trace_valid(self, hybrid_trace):
        assert lint_trace(hybrid_trace, config=validate_config()).ok

    def test_openmp_regions_classified(self, hybrid_trace):
        from repro.trace.definitions import Paradigm, RegionRole

        barrier = hybrid_trace.regions.get("omp barrier")
        assert barrier.paradigm == Paradigm.OPENMP
        assert barrier.role == RegionRole.SYNCHRONIZATION

    def test_slow_core_rank_flagged(self, hybrid_analysis):
        assert hybrid_analysis.hot_ranks() == [5]

    def test_omp_barrier_subtracted_from_sos(self, hybrid_analysis):
        """SOS excludes the implicit barrier wait: the slow rank's SOS
        excess stems from the slow thread's longer critical path."""
        sos = hybrid_analysis.sos
        ranks = sos.ranks
        sync = sos.sync_matrix()
        # Every rank has nonzero subtracted sync time (omp barrier + MPI).
        assert np.all(np.nansum(sync, axis=1) > 0)

    def test_slow_rank_validated(self):
        with pytest.raises(ValueError, match="slow_rank"):
            hybrid_openmp.generate(ranks=4, iterations=2, slow_rank=99)

    def test_dominant_is_timestep(self, hybrid_analysis):
        assert hybrid_analysis.dominant_name == "timestep"

    def test_determinism(self):
        a = hybrid_openmp.generate(ranks=4, iterations=4, seed=3)
        b = hybrid_openmp.generate(ranks=4, iterations=4, seed=3)
        for rank in a.ranks:
            assert a.events_of(rank) == b.events_of(rank)


class TestHtmlReport:
    @pytest.fixture(scope="class")
    def analysis(self):
        trace = generate(
            SyntheticConfig(ranks=5, iterations=8, slow_ranks={2: 1.6}, seed=4)
        )
        return analyze_trace(trace)

    def test_report_written(self, analysis, tmp_path):
        path = tmp_path / "report.html"
        html_doc = render_html_report(analysis, path, bins=64)
        assert path.exists()
        assert path.read_text() == html_doc

    def test_report_structure(self, analysis):
        doc = render_html_report(analysis, bins=64)
        assert doc.startswith("<!DOCTYPE html>")
        assert "<svg" in doc  # inline SOS heat map
        assert "data:image/png;base64," in doc  # embedded raster charts
        assert "Hot rank 2" in doc
        assert "Dominant-function candidates" in doc
        assert "iteration" in doc

    def test_report_no_counters(self, analysis):
        doc = render_html_report(analysis, bins=64, include_counters=False)
        assert "Hardware counters" not in doc

    def test_report_escapes_names(self, tmp_path):
        from repro.trace.builder import TraceBuilder

        tb = TraceBuilder(name="run <b>&</b>")
        tb.region("f<x>")
        p0 = tb.process(0)
        p1 = tb.process(1)
        for p in (p0, p1):
            for i in range(4):
                p.call(float(i), i + 0.5, "f<x>")
        trace = tb.freeze()
        analysis = analyze_trace(trace)
        doc = render_html_report(analysis, bins=16)
        assert "<b>&</b>" not in doc
        assert "f&lt;x&gt;" in doc

    def test_clean_report_says_ok(self):
        trace = generate(SyntheticConfig(ranks=4, iterations=6, seed=1))
        doc = render_html_report(analyze_trace(trace), bins=32)
        assert "No significant runtime imbalance" in doc

    def test_report_title_override(self, analysis):
        doc = render_html_report(analysis, title="My custom title", bins=32)
        assert "<title>My custom title</title>" in doc
