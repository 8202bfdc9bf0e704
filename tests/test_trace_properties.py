"""Property-based tests of trace transformations and analysis invariants."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.core import compute_sos, segment_trace
from repro.profiles import compute_statistics, replay_trace
from repro.lint import lint_trace, validate_config
from repro.trace import clip_trace, filter_regions, merge_traces
from repro.trace.builder import TraceBuilder
from repro.trace.definitions import Paradigm


@st.composite
def iterative_trace(draw):
    """A small SPMD trace: p ranks, n iterations of compute + MPI."""
    p = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=6))
    # Per-(rank, iteration) compute durations.
    durations = [
        [draw(st.floats(min_value=0.01, max_value=1.0)) for _ in range(n)]
        for _ in range(p)
    ]
    sync = draw(st.floats(min_value=0.0, max_value=0.5))
    tb = TraceBuilder(name="prop")
    tb.region("main")
    tb.region("iter")
    tb.region("calc")
    tb.region("MPI_Allreduce", paradigm=Paradigm.MPI)
    # Iterations synchronise: everyone leaves together.
    starts = [0.0] * p
    for rank in range(p):
        tb.process(rank).enter(0.0, "main")
    t = 0.0
    for it in range(n):
        t_next = t + max(durations[r][it] for r in range(p)) + sync
        for rank in range(p):
            pb = tb.process(rank)
            pb.enter(t, "iter")
            pb.call(t, t + durations[rank][it], "calc")
            pb.call(t + durations[rank][it], t_next, "MPI_Allreduce")
            pb.leave(t_next, "iter")
        t = t_next
    for rank in range(p):
        tb.process(rank).leave(t, "main")
    return tb.freeze(), durations


class TestSOSInvariants:
    @given(iterative_trace())
    @settings(max_examples=50, deadline=None)
    def test_sos_recovers_planted_compute_times(self, data):
        trace, durations = data
        tables = replay_trace(trace)
        segmentation = segment_trace(tables, trace.regions.id_of("iter"))
        sos = compute_sos(trace, segmentation, tables)
        matrix = sos.matrix()
        expected = np.asarray(durations)
        np.testing.assert_allclose(matrix, expected, rtol=1e-9, atol=1e-12)

    @given(iterative_trace())
    @settings(max_examples=30, deadline=None)
    def test_sos_bounded_by_duration(self, data):
        trace, _durations = data
        tables = replay_trace(trace)
        segmentation = segment_trace(tables, trace.regions.id_of("iter"))
        sos = compute_sos(trace, segmentation, tables)
        for rank in sos.ranks:
            r = sos[rank]
            assert np.all(r.sos <= r.duration + 1e-12)
            assert np.all(r.sos >= -1e-12)
            assert np.all(r.sync_time >= -1e-12)

    @given(iterative_trace())
    @settings(max_examples=30, deadline=None)
    def test_durations_identical_across_ranks(self, data):
        """The synchronized construction makes plain durations equal —
        the property that motivates SOS in the first place."""
        trace, _durations = data
        tables = replay_trace(trace)
        segmentation = segment_trace(tables, trace.regions.id_of("iter"))
        matrix = segmentation.durations_matrix()
        for col in range(matrix.shape[1]):
            assert np.allclose(matrix[:, col], matrix[0, col])


class TestClipInvariants:
    @given(
        iterative_trace(),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_clip_always_wellformed(self, data, f0, f1):
        trace, _ = data
        lo, hi = sorted((f0, f1))
        t0 = trace.t_min + lo * trace.duration
        t1 = trace.t_min + hi * trace.duration
        assume(t1 > t0)
        clipped = clip_trace(trace, t0, t1)
        report = lint_trace(
            clipped, config=validate_config(allow_empty_streams=True)
        )
        assert report.ok

    @given(iterative_trace(), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=30, deadline=None)
    def test_clip_total_time_bounded_by_window(self, data, frac):
        trace, _ = data
        t1 = trace.t_min + frac * trace.duration
        clipped = clip_trace(trace, trace.t_min, t1)
        stats = compute_statistics(clipped, replay_trace(clipped))
        window = t1 - trace.t_min
        main_id = clipped.regions.id_of("main")
        assert stats.inclusive_sum[main_id] <= window * trace.num_processes + 1e-9


class TestFilterInvariants:
    @given(iterative_trace(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_filter_any_single_region_stays_valid(self, data, drop_id):
        trace, _ = data
        filtered = filter_regions(trace, lambda r: r.id != drop_id)
        config = validate_config(allow_empty_streams=True)
        assert lint_trace(filtered, config=config).ok
        stats = compute_statistics(filtered, replay_trace(filtered))
        assert stats.count[drop_id] == 0

    @given(iterative_trace())
    @settings(max_examples=20, deadline=None)
    def test_filter_preserves_other_regions_counts(self, data):
        trace, _ = data
        before = compute_statistics(trace, replay_trace(trace))
        filtered = filter_regions(trace, lambda r: r.name != "calc")
        after = compute_statistics(filtered, replay_trace(filtered))
        iter_id = trace.regions.id_of("iter")
        assert after.count[iter_id] == before.count[iter_id]


class TestMergeInvariants:
    @given(iterative_trace(), iterative_trace())
    @settings(max_examples=25, deadline=None)
    def test_merge_shifted_ranks(self, a_data, b_data):
        a, _ = a_data
        b, _ = b_data
        # Shift b's ranks above a's to keep them disjoint.
        shift = max(a.ranks) + 1
        tb = TraceBuilder(name="b-shifted")
        for region in b.regions:
            tb.regions.register(region.name, paradigm=region.paradigm,
                                role=region.role)
        shifted = merge_traces([a]) if False else None
        from repro.trace import Location, Trace

        b2 = Trace(regions=b.regions, metrics=b.metrics, name="b2")
        for proc in b.processes():
            b2.add_process(
                Location(proc.location.id + shift, proc.location.name),
                proc.events,
            )
        merged = merge_traces([a, b2])
        assert lint_trace(merged, config=validate_config()).ok
        assert merged.num_events == a.num_events + b.num_events
        # Aggregated statistics add up.
        sa = compute_statistics(a, replay_trace(a))
        sb = compute_statistics(b, replay_trace(b))
        sm = compute_statistics(merged, replay_trace(merged))
        for name in ("main", "iter", "calc"):
            rid = merged.regions.id_of(name)
            assert sm.count[rid] == (
                sa.count[a.regions.id_of(name)]
                + sb.count[b.regions.id_of(name)]
            )
