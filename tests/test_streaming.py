"""Tests for the streaming (in-situ) analyzer."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import analyze_trace
from repro.core.streaming import StreamingAnalyzer
from repro.sim.workloads.synthetic import SyntheticConfig, generate
from repro.trace.builder import TraceBuilder
from repro.trace.definitions import Paradigm
from stream_reference import ReferenceStream


@pytest.fixture(scope="module")
def stream_trace():
    config = SyntheticConfig(
        ranks=6,
        iterations=20,
        slow_ranks={4: 1.5},
        outliers={(2, 14): 0.08},
        seed=11,
    )
    return generate(config)


def feed_all(analyzer, trace, chunk=64):
    for rank in trace.ranks:
        events = trace.events_of(rank)
        for i in range(0, len(events), chunk):
            analyzer.feed(rank, events[i : i + chunk])


class TestBatchEquivalence:
    def test_sos_values_match_batch(self, stream_trace):
        batch = analyze_trace(stream_trace)
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant=batch.dominant_name,
        )
        feed_all(analyzer, stream_trace)
        for rank in stream_trace.ranks:
            np.testing.assert_allclose(
                analyzer.sos_series(rank), batch.sos[rank].sos
            )

    def test_chunk_size_does_not_matter(self, stream_trace):
        results = []
        for chunk in (1, 7, 1000):
            analyzer = StreamingAnalyzer(
                stream_trace.regions, stream_trace.num_processes,
                dominant="iteration",
            )
            feed_all(analyzer, stream_trace, chunk=chunk)
            results.append(analyzer.sos_series(0))
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_segment_metadata(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        feed_all(analyzer, stream_trace)
        segments = analyzer.segments(3)
        assert len(segments) == 20
        assert all(s.rank == 3 for s in segments)
        assert [s.index for s in segments] == list(range(20))
        assert all(s.duration >= s.sos >= 0 for s in segments)


class TestOnlineAlerts:
    def test_outlier_alerts_immediately(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        feed_all(analyzer, stream_trace)
        assert len(analyzer.alerts) >= 1
        alert = analyzer.alerts[0]
        assert alert.segment.rank == 2
        assert alert.segment.index == 14
        assert alert.zscore > analyzer.alert_threshold

    def test_clean_run_produces_no_alerts(self):
        trace = generate(SyntheticConfig(ranks=4, iterations=15, seed=1))
        analyzer = StreamingAnalyzer(
            trace.regions, trace.num_processes, dominant="iteration"
        )
        feed_all(analyzer, trace)
        assert analyzer.alerts == []

    def test_alert_str(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        feed_all(analyzer, stream_trace)
        assert "rank 2" in str(analyzer.alerts[0])

    def test_snapshot_hot_ranks(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        feed_all(analyzer, stream_trace)
        assert 4 in analyzer.snapshot_hot_ranks()


class TestWarmupSelection:
    def test_auto_selects_dominant(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            warmup_invocations=60,
        )
        feed_all(analyzer, stream_trace)
        assert analyzer.dominant_name == "iteration"
        # Segments only from the selection point onward.
        total = sum(len(analyzer.segments(r)) for r in stream_trace.ranks)
        assert 0 < total <= 6 * 20

    def test_select_now_without_data(self):
        from repro.trace.definitions import RegionRegistry

        regions = RegionRegistry()
        regions.register("f")
        analyzer = StreamingAnalyzer(regions, 4)
        with pytest.raises(ValueError, match="no dominant-function candidate"):
            analyzer.select_now()

    def test_select_now_idempotent(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        assert analyzer.select_now() == stream_trace.regions.id_of("iteration")

    def test_sync_regions_never_selected(self):
        tb = TraceBuilder()
        tb.region("MPI_Allreduce", paradigm=Paradigm.MPI)
        tb.region("step")
        p = tb.process(0)
        for i in range(30):
            p.call(2.0 * i, 2.0 * i + 1.6, "MPI_Allreduce")
            p.call(2.0 * i + 1.6, 2.0 * i + 2.0, "step")
        trace = tb.freeze()
        analyzer = StreamingAnalyzer(trace.regions, 1, warmup_invocations=40)
        analyzer.feed(0, trace.events_of(0))
        analyzer.select_now()
        assert analyzer.dominant_name == "step"


class TestStreamValidation:
    def test_out_of_order_chunk_rejected(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        events = stream_trace.events_of(0)
        analyzer.feed(0, events[10:20])
        with pytest.raises(ValueError, match="not time-ordered"):
            analyzer.feed(0, events[0:5])

    def test_mismatched_leave_rejected(self):
        tb = TraceBuilder()
        tb.region("a")
        tb.region("b")
        p = tb.process(0)
        p.enter(0.0, "a")
        p.enter(1.0, "b")
        p.leave(2.0)
        p.leave(3.0)
        trace = tb.freeze()
        analyzer = StreamingAnalyzer(trace.regions, 1, dominant="a")
        events = trace.events_of(0)
        # Corrupt: drop the inner leave so the outer one mismatches.
        import numpy as np

        keep = np.asarray([True, True, False, True])
        with pytest.raises(ValueError, match="does not match"):
            analyzer.feed(0, events.select(keep))

    def test_bad_process_count(self, stream_trace):
        with pytest.raises(ValueError):
            StreamingAnalyzer(stream_trace.regions, 0)


class TestStreamDiagnostics:
    """Malformed streams raise the codes ``repro lint`` reports."""

    def test_out_of_order_after_empty_chunk(self, stream_trace):
        """Regression: an empty ``feed()`` must not reset the rank's
        time horizon — a later out-of-order chunk still fails."""
        from repro.core.streaming import StreamOrderError

        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        events = stream_trace.events_of(0)
        analyzer.feed(0, events[10:20])
        analyzer.feed(0, events[0:0])  # empty chunk: a no-op
        with pytest.raises(
            StreamOrderError, match=r"^\[TL004\] rank 0: chunk not time-ordered"
        ) as err:
            analyzer.feed(0, events[0:5])
        assert err.value.code == "TL004"

    def test_mismatched_leave_code(self):
        from repro.core.streaming import StreamStructureError

        tb = TraceBuilder()
        tb.region("a")
        tb.region("b")
        p = tb.process(0)
        p.enter(0.0, "a")
        p.enter(1.0, "b")
        p.leave(2.0)
        p.leave(3.0)
        events = tb.freeze().events_of(0)
        keep = np.asarray([True, True, False, True])
        for dominant in ("a", None):  # pinned and warm-up
            analyzer = StreamingAnalyzer(tb.freeze().regions, 1,
                                         dominant=dominant)
            with pytest.raises(
                StreamStructureError, match=r"^\[TL003\] rank 0: .*does not match"
            ) as err:
                analyzer.feed(0, events.select(keep))
            assert err.value.code == "TL003"

    def test_unmatched_leave_code(self):
        from repro.core.streaming import StreamStructureError

        tb = TraceBuilder()
        tb.region("a")
        p = tb.process(0)
        p.enter(0.0, "a")
        p.leave(1.0)
        events = tb.freeze().events_of(0)
        for dominant in ("a", None):
            analyzer = StreamingAnalyzer(tb.freeze().regions, 1,
                                         dominant=dominant)
            with pytest.raises(StreamStructureError) as err:
                analyzer.feed(0, events[1:])  # bare leave, empty stack
            assert err.value.code == "TL001"

    def test_mismatch_across_chunk_boundary(self):
        """A leave closing a frame carried over from an earlier chunk
        is checked against that carried frame."""
        from repro.core.streaming import StreamStructureError

        tb = TraceBuilder()
        tb.region("a")
        tb.region("b")
        p = tb.process(0)
        p.enter(0.0, "a")
        p.enter(1.0, "b")
        p.leave(2.0)
        p.leave(3.0)
        events = tb.freeze().events_of(0)
        keep = np.asarray([True, True, False, True])
        bad = events.select(keep)
        analyzer = StreamingAnalyzer(tb.freeze().regions, 1, dominant="a")
        analyzer.feed(0, bad[:2])  # open a, b in one chunk
        with pytest.raises(StreamStructureError) as err:
            analyzer.feed(0, bad[2:])  # leave of a against open b
        assert err.value.code == "TL003"


class TestBoundedHistory:
    def test_eviction_keeps_totals_and_indices(self, stream_trace):
        bounded = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration", history_limit=5,
        )
        unbounded = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        feed_all(bounded, stream_trace)
        feed_all(unbounded, stream_trace)
        for rank in stream_trace.ranks:
            segments = bounded.segments(rank)
            assert len(segments) == 5
            # Indices keep counting globally across evictions.
            assert [s.index for s in segments] == list(range(15, 20))
        # 20 segments per rank, 5 retained -> 15 evictions per rank.
        assert bounded.window_evictions == 15 * len(stream_trace.ranks)
        # Running totals (and hence hot-rank snapshots) are unaffected.
        assert bounded.per_rank_total() == unbounded.per_rank_total()
        assert bounded.snapshot_hot_ranks() == unbounded.snapshot_hot_ranks()

    def test_alerts_survive_eviction(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration", history_limit=2,
        )
        feed_all(analyzer, stream_trace)
        assert analyzer.alerts
        assert analyzer.alerts[0].segment.rank == 2
        assert analyzer.alerts[0].segment.index == 14

    def test_invalid_limit(self, stream_trace):
        with pytest.raises(ValueError, match="history_limit"):
            StreamingAnalyzer(
                stream_trace.regions, stream_trace.num_processes,
                history_limit=0,
            )


class TestCandidates:
    def test_rolling_candidates_from_warmup(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            warmup_invocations=10**9,  # never auto-select
        )
        feed_all(analyzer, stream_trace)
        ranked = analyzer.candidates(3)
        assert ranked
        names = [stream_trace.regions[r].name for r, _, _ in ranked]
        assert names[0] == "iteration"
        # Inclusive-descending, non-sync only, counts positive.
        inclusive = [t for _, _, t in ranked]
        assert inclusive == sorted(inclusive, reverse=True)
        assert all(count > 0 for _, count, _ in ranked)
        mask = analyzer._sync_mask
        assert not any(mask[r] for r, _, _ in ranked)


class TestConsumeCursor:
    def test_feed_cursor_equivalent(self, stream_trace):
        from repro.trace.cursor import FeedCursor

        reference = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        feed_all(reference, stream_trace)

        from repro.trace import Trace
        from repro.trace.events import EventList

        skeleton = Trace(regions=stream_trace.regions,
                         metrics=stream_trace.metrics)
        for rank in stream_trace.ranks:
            skeleton.add_process(
                stream_trace.process(rank).location, EventList.empty()
            )
        cursor = FeedCursor(skeleton)
        for rank in stream_trace.ranks:
            events = stream_trace.events_of(rank)
            for i in range(0, len(events), 64):
                cursor.push(rank, events[i : i + 64])
        cursor.close()
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        fed = analyzer.consume(cursor)
        assert fed == stream_trace.num_events
        for rank in stream_trace.ranks:
            np.testing.assert_array_equal(
                analyzer.sos_series(rank), reference.sos_series(rank)
            )

    def test_index_cursor_equivalent(self, stream_trace, tmp_path):
        from repro.core.streaming import STREAM_COLUMNS
        from repro.trace import write_binary
        from repro.trace.reader import TraceIndex

        reference = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        feed_all(reference, stream_trace)

        path = tmp_path / "run.rpt"
        write_binary(stream_trace, path, version=2, codec="raw")
        cursor = TraceIndex(path).cursor(
            columns=STREAM_COLUMNS, chunk_events=128
        )
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        analyzer.consume(cursor)
        for rank in stream_trace.ranks:
            np.testing.assert_array_equal(
                analyzer.sos_series(rank), reference.sos_series(rank)
            )


# -- short and long chunks ---------------------------------------------------


@pytest.fixture(scope="module")
def long_trace():
    """Ranks longer than 4096 events, with a planted slow rank and outliers."""
    trace = generate(
        SyntheticConfig(
            ranks=4,
            iterations=240,
            slow_ranks={3: 1.4},
            outliers={(1, 150): 0.08, (2, 40): 0.1},
            jitter_sigma=0.005,
            seed=3,
        )
    )
    assert min(len(trace.events_of(r)) for r in trace.ranks) > 4096
    return trace


def feed_sizes(analyzer, rank, events, sizes):
    """Feed ``events`` in consecutive chunks, cycling through ``sizes``."""
    i = 0
    k = 0
    while i < len(events):
        step = sizes[k % len(sizes)]
        analyzer.feed(rank, events[i : i + step])
        i += step
        k += 1


def outcome(analyzer, ranks):
    """Everything a run produces, in a form compared bitwise."""
    return (
        analyzer.dominant,
        {r: analyzer.segments(r) for r in ranks},
        list(analyzer.alerts),
        {
            r: (s.total_sos.hex(), s.total_count)
            for r, s in sorted(analyzer._streams.items())
        },
        {r: v.hex() for r, v in analyzer.per_rank_total().items()},
    )


class TestProcessorSelection:
    @pytest.mark.parametrize("dominant,warmup", [("iteration", 500), (None, 300)])
    def test_chunk_size_matrix_bitwise(self, long_trace, dominant, warmup):
        ranks = long_trace.ranks
        results = []
        for chunk in (1, 7, 1023, 1024, 4096, None):
            analyzer = StreamingAnalyzer(
                long_trace.regions, long_trace.num_processes,
                dominant=dominant, warmup_invocations=warmup,
            )
            for rank in ranks:
                events = long_trace.events_of(rank)
                feed_sizes(analyzer, rank, events, [chunk or len(events)])
            results.append(outcome(analyzer, ranks))
        assert results[0][0] == long_trace.regions.id_of("iteration")
        assert results[0][2], "the planted outliers must alert"
        for other in results[1:]:
            assert other == results[0]

    def test_mixed_chunks_on_one_rank(self, long_trace):
        ranks = long_trace.ranks
        reference = StreamingAnalyzer(
            long_trace.regions, long_trace.num_processes, dominant="iteration"
        )
        mixed = StreamingAnalyzer(
            long_trace.regions, long_trace.num_processes, dominant="iteration"
        )
        for rank in ranks:
            events = long_trace.events_of(rank)
            reference.feed(rank, events)
            feed_sizes(mixed, rank, events, [1029, 3, 2048, 1, 1023, 40])
        assert outcome(mixed, ranks) == outcome(reference, ranks)


def _padded(defect, before=1024, after=0):
    """``defect`` (kind, region) pairs between runs of balanced ``b`` calls
    (``before`` and ``after`` events long)."""
    from repro.trace.definitions import RegionRegistry
    from repro.trace.events import EventKind, EventListBuilder

    regions = RegionRegistry()
    regions.register("a")
    regions.register("b")
    builder = EventListBuilder()
    t = 0.0

    def pad(n_events):
        nonlocal t
        for _ in range(n_events // 2):
            builder.append(t, EventKind.ENTER, ref=1)
            builder.append(t + 0.5, EventKind.LEAVE, ref=1)
            t += 1.0

    pad(before)
    for kind, region in defect:
        builder.append(t, kind, ref=region)
        t += 1.0
    pad(after)
    return regions, builder.freeze()


class TestStructureErrorsBothProcessors:
    """TL001/TL003 come out the same from short and long chunks."""

    @pytest.mark.parametrize("sizes", [[7], [10240]], ids=["events", "vector"])
    @pytest.mark.parametrize(
        "defect,code",
        [
            ([(0, 0), (0, 1), (1, 0)], "TL003"),  # leave a while b is open
            ([(1, 0)], "TL001"),  # leave with an empty stack
        ],
        ids=["TL003", "TL001"],
    )
    def test_error_inside_chunk(self, sizes, defect, code):
        from repro.core.streaming import StreamStructureError

        regions, events = _padded(defect)
        analyzer = StreamingAnalyzer(regions, 1, dominant="a")
        with pytest.raises(StreamStructureError) as err:
            feed_sizes(analyzer, 0, events, sizes)
        assert err.value.code == code

    @pytest.mark.parametrize("before", [0, 1024], ids=["short", "long"])
    @pytest.mark.parametrize("after", [0, 1024], ids=["short", "long"])
    def test_error_across_chunk_boundary(self, before, after):
        """A leave closing a frame carried over from an earlier chunk is
        checked against that frame, whatever the size of each side."""
        from repro.core.streaming import StreamStructureError

        regions, events = _padded(
            [(0, 0), (0, 1), (1, 0)], before=before, after=after
        )
        analyzer = StreamingAnalyzer(regions, 1, dominant="a")
        analyzer.feed(0, events[: before + 2])  # ends with enter a, b
        with pytest.raises(StreamStructureError) as err:
            analyzer.feed(0, events[before + 2 :])  # leave a against b
        assert err.value.code == "TL003"

    @pytest.mark.parametrize("sizes", [[7], [10240]], ids=["events", "vector"])
    def test_open_frame_at_finish_rank(self, sizes):
        """Frames short or long chunks leave open are TL002 at the end."""
        from repro.core.streaming import StreamStructureError

        regions, events = _padded([(0, 0)], after=1024)  # a never closes
        analyzer = StreamingAnalyzer(regions, 1, dominant="a")
        feed_sizes(analyzer, 0, events, sizes)
        with pytest.raises(
            StreamStructureError, match=r"^\[TL002\] rank 0: region 0 "
        ) as err:
            analyzer.finish_rank(0)
        assert err.value.code == "TL002"

    def test_finish_rank_on_closed_stream(self):
        regions, events = _padded([(0, 0), (1, 0)], after=1024)
        analyzer = StreamingAnalyzer(regions, 2, dominant="a")
        analyzer.feed(0, events)
        analyzer.finish_rank(0)
        analyzer.finish_rank(1)  # never fed: nothing is open


class TestSelectionInsideOpenFrame:
    """Warm-up selection can fire while ranks are inside dominant frames.

    Two ranks run ``step { work }`` iterations and are fed interleaved.
    Selection fires on rank 1's leave of ``work``, with rank 1 inside
    ``step`` and rank 0 paused inside ``step``/``work``.  The frames
    open at selection close without a segment; every ``step`` that
    opens afterwards is one segment, on both ranks.
    """

    @staticmethod
    def _iterations(t0, n):
        from repro.trace.events import EventKind

        enter, leave = EventKind.ENTER, EventKind.LEAVE
        rows = []
        for t in (t0 + i for i in range(n)):
            rows += [(t, enter, 0), (t + 0.1, enter, 1),
                     (t + 0.6, leave, 1), (t + 0.9, leave, 0)]
        return rows

    @staticmethod
    def _events(rows):
        from repro.trace.events import EventListBuilder

        builder = EventListBuilder()
        for t, kind, ref in rows:
            builder.append(t, kind, ref=ref)
        return builder.freeze()

    @pytest.mark.parametrize("after", [5, 4096], ids=["events", "vector"])
    def test_ranks_keep_segmenting(self, after):
        from repro.trace.definitions import RegionRegistry
        from repro.trace.events import EventKind

        enter, leave = EventKind.ENTER, EventKind.LEAVE
        regions = RegionRegistry()
        regions.register("step")
        regions.register("work")
        later = 300
        # 2p = 4 invocations make "step" eligible; the 9th completed
        # invocation (rank 1's second "work") triggers selection.
        analyzer = StreamingAnalyzer(regions, 2, warmup_invocations=9)
        analyzer.feed(0, self._events(
            self._iterations(0.0, 3) + [(3.0, enter, 0), (3.1, enter, 1)]
        ))
        analyzer.feed(1, self._events(
            self._iterations(0.0, 1)
            + [(1.0, enter, 0), (1.1, enter, 1), (1.6, leave, 1)]
        ))
        assert analyzer.dominant_name == "step"

        resumed = {
            1: [(1.9, leave, 0)] + self._iterations(2.0, later),
            0: [(3.6, leave, 1), (3.9, leave, 0)]
            + self._iterations(4.0, later),
        }
        for rank, rows in resumed.items():
            feed_sizes(analyzer, rank, self._events(rows), [after])

        for rank, t0 in ((0, 4.0), (1, 2.0)):
            segments = analyzer.segments(rank)
            assert len(segments) == later
            assert segments[0].t_start == t0
            assert segments[-1].t_stop == t0 + later - 1 + 0.9


# -- array processor against the per-event machine, random streams --------


def _random_stream(rng, n_steps, spike, max_depth):
    """Rows ``(t, kind, region)`` of ``n_steps`` top-level frames.

    Regions: 0 ``step`` (the dominant candidate, may recurse), 1
    ``work``, 2 ``MPI_Allreduce`` (sync, wraps other calls) and 3
    ``MPI_Wait`` (sync).  A sync frame may wrap a ``step``, so episodes
    straddle segment boundaries; timestamps repeat (zero gaps) so ties
    between boundaries occur.  A spiked ``step`` runs one long
    ``work``, which the window test flags.
    """
    from repro.trace.events import EventKind

    rows = []
    t = 0.0

    def advance():
        nonlocal t
        t += rng.choice((0.0, 0.25, 0.5, rng.random()))

    def frame(region, depth):
        nonlocal t
        rows.append((t, EventKind.ENTER, region))
        advance()
        if region == 0 and rng.random() < spike:
            rows.append((t, EventKind.ENTER, 1))
            t += 50.0
            rows.append((t, EventKind.LEAVE, 1))
        for _ in range(rng.randrange(4) if depth < max_depth else 0):
            frame(rng.choice((0, 1, 1, 2, 3, 3)), depth + 1)
            advance()
        rows.append((t, EventKind.LEAVE, region))

    for _ in range(n_steps):
        frame(rng.choice((0, 0, 0, 2)), 0)
        advance()
    return rows


class TestArrayProcessorMatchesPerEvent:
    """The array processor reproduces the per-event reference
    (``tests/stream_reference.py``) bit for bit on random well-formed
    streams split at random points."""

    @staticmethod
    def _run(cls, streams, cuts, **kw):
        from repro.trace.definitions import RegionRegistry

        regions = RegionRegistry()
        for name, paradigm in (
            ("step", Paradigm.USER), ("work", Paradigm.USER),
            ("MPI_Allreduce", Paradigm.MPI), ("MPI_Wait", Paradigm.MPI),
        ):
            regions.register(name, paradigm=paradigm)
        analyzer = cls(regions, len(streams), **kw)
        # Ranks take turns chunk by chunk, so warm-up may select while
        # another rank is inside a dominant frame.
        pieces = {
            r: np.split(np.arange(len(rows)), sorted(cuts[r]))
            for r, rows in streams.items()
        }
        for k in range(max(len(p) for p in pieces.values())):
            for rank, rows in streams.items():
                if k < len(pieces[rank]):
                    analyzer.feed(rank, _rows_events(rows, pieces[rank][k]))
        return analyzer

    @staticmethod
    def _bitwise(analyzer, ranks):
        def seg(s):
            return (s.rank, s.index, s.t_start.hex(), s.t_stop.hex(),
                    s.sync_time.hex())

        return (
            analyzer.dominant,
            analyzer.warmup_invocations,
            {r: [seg(s) for s in analyzer.segments(r)] for r in ranks},
            [(seg(a.segment), a.zscore.hex(), a.window)
             for a in analyzer.alerts],
            {r: (s.total_sos.hex(), s.total_count, s.next_index)
             for r, s in sorted(analyzer._streams.items())},
            analyzer.window_evictions,
        )

    def _check(self, streams, cuts, **kw):
        array = self._run(StreamingAnalyzer, streams, cuts, **kw)
        reference = self._run(ReferenceStream, streams, cuts, **kw)
        assert self._bitwise(array, streams) == self._bitwise(
            reference, streams
        )
        return array

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(0, 60),
        spike=st.sampled_from([0.0, 0.05, 0.2]),
        max_depth=st.integers(1, 4),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=12),
        # A pinned sync region orders sync before dominant bookkeeping
        # at one event.
        dominant=st.sampled_from(["step", "MPI_Allreduce", None]),
        warmup=st.integers(1, 40),
        limit=st.sampled_from([None, 3, 40]),
    )
    # Whole ranks with a warm-up of 1: selection fails at the first
    # leaves (2p = 4 invocations are needed), so the bar doubles inside
    # rank 0's one chunk until it selects there.
    @example(seed=7, n_steps=20, spike=0.0, max_depth=2, fractions=[],
             dominant=None, warmup=1, limit=None)
    @settings(max_examples=60, deadline=None)
    def test_random_streams(self, seed, n_steps, spike, max_depth,
                            fractions, dominant, warmup, limit):
        import random

        rng = random.Random(seed)
        streams = {
            r: _random_stream(rng, n_steps, spike, max_depth) for r in (0, 1)
        }
        cuts = {
            r: {int(f * len(rows)) for f in fractions[r::2]}
            for r, rows in streams.items()
        }
        self._check(streams, cuts, dominant=dominant,
                    warmup_invocations=warmup, history_limit=limit)

    def test_growing_window_alerts(self):
        """Alerts inside the growing window (segments 8-31) carry the
        window they were tested against."""
        import random

        streams = {0: _random_stream(random.Random(5), 40, 0.2, 2)}
        array = self._check(streams, {0: {7, 90}}, dominant="step")
        assert any(8 <= a.window < 32 for a in array.alerts)


def _rows_events(rows, index):
    from repro.trace.events import EventListBuilder

    builder = EventListBuilder()
    for i in index.tolist():
        t, kind, region = rows[i]
        builder.append(t, kind, ref=region)
    return builder.freeze()
