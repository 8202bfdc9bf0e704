"""Assorted coverage: wall-clock measurement, zoomed raster timeline,
lazy package exports, counter edge cases."""

import time

import numpy as np
import pytest

import repro
import repro.core
from repro.core import analyze_trace
from repro.profiles import replay_trace
from repro.sim import ops
from repro.sim.engine import simulate
from repro.sim.workloads.synthetic import SyntheticConfig, generate


class TestTopLevelPackage:
    def test_lazy_exports_resolve(self):
        assert callable(repro.analyze_trace)
        assert callable(repro.profile_trace)
        assert repro.Trace is not None
        assert repro.__version__

    def test_every_export_resolves(self):
        for package in (repro, repro.core):
            for name in package.__all__:
                assert getattr(package, name) is not None, name

    def test_unknown_attribute(self):
        for package in (repro, repro.core):
            with pytest.raises(AttributeError):
                package.does_not_exist

    def test_dir_lists_lazy_names(self):
        names = dir(repro)
        assert "analyze_trace" in names
        assert "TraceBuilder" in names


class TestWallClockMeasurement:
    def test_real_time_measurement(self):
        from repro.measure import Measurement

        m = Measurement(name="wall")
        rec = m.process(0)
        with rec.region("main"):
            with rec.region("sleep"):
                time.sleep(0.02)
        trace = m.finish()
        from repro.profiles import profile_trace

        stats = profile_trace(trace, replay_trace(trace)).stats
        measured = stats.of("sleep").inclusive_sum
        assert 0.015 <= measured <= 0.5  # generous upper bound for CI


class TestZoomedTimeline:
    def test_raster_zoom_window(self):
        trace = generate(SyntheticConfig(ranks=3, iterations=6, seed=2))
        from repro.viz import render_timeline_png

        d = trace.duration
        tables = replay_trace(trace)
        full = render_timeline_png(trace, tables, width=400, height=150)
        zoom = render_timeline_png(
            trace, tables, width=400, height=150, t0=d / 3, t1=2 * d / 3
        )
        # Different windows draw different pixels.
        assert not np.array_equal(full.pixels, zoom.pixels)


class TestEngineSampleSemantics:
    def test_sample_default_reads_accumulated(self):
        def program(rank, size):
            yield ops.Compute(1.0, counters={"X": 5.0})
            yield ops.Sample("X")  # engine-accumulated value
            yield ops.Compute(1.0, counters={"X": 7.0})
            yield ops.Sample("X")

        result = simulate(1, program)
        from repro.core.metrics import metric_series

        series = metric_series(result.trace, "X")[0]
        # Two compute-emitted samples + two explicit samples.
        assert list(series.values) == [5.0, 5.0, 12.0, 12.0, 12.0]
        # (final flush adds the last value at program end)

    def test_final_samples_flushed_at_end(self):
        def program(rank, size):
            yield ops.Compute(1.0, counters={"Y": 3.0})
            yield ops.Elapse(2.0)

        result = simulate(1, program)
        from repro.core.metrics import metric_series

        series = metric_series(result.trace, "Y")[0]
        assert series.times[-1] == pytest.approx(3.0)
        assert series.values[-1] == 3.0


class TestAnalysisOnHybridCounters:
    def test_cycles_in_html_report(self):
        from repro.htmlreport import render_html_report
        from repro.sim.workloads import hybrid_openmp

        trace = hybrid_openmp.generate(ranks=4, iterations=4, slow_rank=1)
        analysis = analyze_trace(trace)
        doc = render_html_report(analysis, bins=32)
        assert "PAPI_TOT_CYC" in doc


class TestSegmentationEdge:
    def test_single_iteration_per_rank_not_dominant(self):
        """A function invoked exactly p times fails the 2p criterion,
        matching the paper's exclusion of main-like functions."""
        trace = generate(SyntheticConfig(ranks=4, iterations=1))
        from repro.core import rank_candidates

        names = [c.name for c in rank_candidates(trace, tables=replay_trace(trace))]
        assert "iteration" not in names  # 4 invocations < 8

    def test_two_iterations_exactly_meets_2p(self):
        trace = generate(SyntheticConfig(ranks=4, iterations=2))
        from repro.core import rank_candidates

        names = [c.name for c in rank_candidates(trace, tables=replay_trace(trace))]
        assert "iteration" in names
