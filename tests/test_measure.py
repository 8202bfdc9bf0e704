"""Tests for the measurement layer (instrumenting Python code)."""

import threading

import numpy as np
import pytest

from repro.core import analyze_trace
from repro.measure import ManualClock, Measurement, WallClock
from repro.profiles import replay_trace
from repro.lint import lint_trace, validate_config
from repro.trace.definitions import MetricMode, Paradigm


class TestManualClock:
    def test_advance(self):
        clock = ManualClock()
        assert clock.now() == 0.0
        clock.advance(2.5)
        assert clock.now() == 2.5

    def test_set(self):
        clock = ManualClock(start=1.0)
        clock.set(5.0)
        assert clock.now() == 5.0

    def test_backwards_rejected(self):
        clock = ManualClock(start=3.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.set(1.0)


class TestWallClock:
    def test_monotonic_from_zero(self):
        clock = WallClock()
        a = clock.now()
        b = clock.now()
        assert 0.0 <= a <= b


class TestMeasurement:
    def test_region_context_manager(self):
        clock = ManualClock()
        m = Measurement(name="t", clock=clock)
        rec = m.process(0)
        with rec.region("main"):
            clock.advance(1.0)
            with rec.region("inner"):
                clock.advance(2.0)
            clock.advance(1.0)
        trace = m.finish()
        assert lint_trace(trace, config=validate_config()).ok
        from repro.profiles import profile_trace

        stats = profile_trace(trace, replay_trace(trace)).stats
        assert stats.of("main").inclusive_sum == 4.0
        assert stats.of("inner").inclusive_sum == 2.0
        assert stats.of("main").exclusive_sum == 2.0

    def test_region_closed_on_exception(self):
        clock = ManualClock()
        m = Measurement(clock=clock)
        rec = m.process(0)
        with pytest.raises(RuntimeError):
            with rec.region("main"):
                clock.advance(1.0)
                raise RuntimeError("boom")
        assert rec.depth == 0
        assert lint_trace(m.finish(), config=validate_config()).ok

    def test_instrument_decorator(self):
        clock = ManualClock()
        m = Measurement(clock=clock)
        rec = m.process(0)

        @rec.instrument
        def solve(n):
            clock.advance(0.5 * n)
            return n * 2

        @rec.instrument(name="fancy")
        def other():
            clock.advance(0.1)

        with rec.region("main"):
            assert solve(2) == 4
            other()
        trace = m.finish()
        from repro.profiles import profile_trace

        stats = profile_trace(trace, replay_trace(trace)).stats
        assert stats.of("solve").count == 1
        assert stats.of("solve").inclusive_sum == 1.0
        assert stats.of("fancy").count == 1

    def test_counters(self):
        clock = ManualClock()
        m = Measurement(clock=clock)
        rec = m.process(0)
        with rec.region("main"):
            clock.advance(1.0)
            assert rec.add_counter("flops", 100.0) == 100.0
            clock.advance(1.0)
            assert rec.add_counter("flops", 50.0) == 150.0
            rec.sample("temperature", 62.5, unit="C")
        trace = m.finish()
        from repro.core.metrics import per_rank_metric_total

        assert per_rank_metric_total(trace, "flops")[0] == 150.0
        assert trace.metrics.get("flops").mode == MetricMode.ACCUMULATED
        assert trace.metrics.get("temperature").mode == MetricMode.ABSOLUTE
        assert rec.counter_value("flops") == 150.0

    def test_messages(self):
        clock = ManualClock()
        m = Measurement(clock=clock)
        a = m.process(0)
        b = m.process(1)
        with a.region("main"):
            a.message_send(1, size=64, tag=2)
            clock.advance(0.1)
        with b.region("main"):
            b.message_recv(0, size=64, tag=2)
        trace = m.finish()
        from repro.trace.events import EventKind

        assert np.count_nonzero(trace.events_of(0).kind == EventKind.SEND) == 1
        assert np.count_nonzero(trace.events_of(1).kind == EventKind.RECV) == 1

    def test_explicit_enter_leave_with_paradigm(self):
        clock = ManualClock()
        m = Measurement(clock=clock)
        rec = m.process(0)
        rec.enter("MPI_Allreduce", paradigm=Paradigm.MPI)
        clock.advance(0.2)
        rec.leave("MPI_Allreduce")
        trace = m.finish()
        region = trace.regions.get("MPI_Allreduce")
        assert region.paradigm == Paradigm.MPI

    def test_finish_twice_rejected(self):
        m = Measurement()
        m.finish()
        with pytest.raises(RuntimeError, match="finished"):
            m.finish()
        with pytest.raises(RuntimeError, match="finished"):
            m.process(0)

    def test_thread_process_assigns_ranks(self):
        m = Measurement(clock=ManualClock())
        recorders = {}
        barrier = threading.Barrier(3)

        def worker():
            barrier.wait()
            rec = m.thread_process()
            recorders[threading.get_ident()] = rec

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ranks = sorted(r.rank for r in recorders.values())
        assert ranks == [0, 1, 2]

    def test_thread_process_stable_per_thread(self):
        m = Measurement(clock=ManualClock())
        assert m.thread_process() is m.thread_process()

    def test_end_to_end_with_analysis(self):
        """An instrumented 'application' flows through the full pipeline."""
        clock = ManualClock()
        m = Measurement(name="instrumented", clock=clock)
        for rank in range(4):
            rec = m.process(rank)
            rec.enter("main")
        for it in range(8):
            for rank in range(4):
                rec = m.process(rank)
                with rec.region("iteration"):
                    with rec.region("compute"):
                        clock.advance(0.01 * (2.0 if rank == 3 else 1.0))
                    with rec.region("MPI_Barrier", paradigm=Paradigm.MPI):
                        clock.advance(0.001)
        for rank in range(4):
            m.process(rank).leave("main")
        trace = m.finish()
        analysis = analyze_trace(trace)
        assert analysis.dominant_name == "iteration"
