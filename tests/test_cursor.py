"""Event cursors: chunked pull-based access to every trace source.

The cursor contract (``repro.trace.cursor``) is what lets one
incremental kernel serve the batch pipeline, the sharded workers and
the live monitor.  These tests pin the contract per implementation:
batches reassemble to the exact stream, every rank is announced final
exactly once, column projection holds, and the live protocol survives
fragmentation (partial lines, multiple events records per rank).
"""

import io

import numpy as np
import pytest

from repro.trace import write_binary, write_jsonl
from repro.trace.cursor import (
    FeedCursor,
    IndexCursor,
    JsonlStreamCursor,
    TailCursor,
)
from repro.trace.reader import TraceFormatError, TraceIndex


@pytest.fixture(scope="module")
def trace():
    from repro.sim.workloads.synthetic import SyntheticConfig, generate

    return generate(
        SyntheticConfig(ranks=4, iterations=5, base_compute=0.005, seed=11)
    )


@pytest.fixture(scope="module", params=["v1", "v2", "jsonl"])
def trace_file(request, trace, tmp_path_factory):
    root = tmp_path_factory.mktemp("cursors")
    if request.param == "v1":
        path = root / "run-v1.rpt"
        write_binary(trace, path, version=1)
    elif request.param == "v2":
        path = root / "run-v2.rpt"
        write_binary(trace, path, version=2, codec="raw")
    else:
        path = root / "run.jsonl"
        write_jsonl(trace, path)
    return request.param, path


def _reassemble(batches):
    """rank -> dict of concatenated column arrays, plus final counters."""
    chunks: dict[int, list] = {}
    finals: dict[int, int] = {}
    for batch in batches:
        assert finals.get(batch.rank, 0) == 0, "batch after final"
        chunks.setdefault(batch.rank, []).append(batch.events)
        if batch.final:
            finals[batch.rank] = finals.get(batch.rank, 0) + 1
    joined = {}
    for rank, parts in chunks.items():
        cols = parts[0].loaded_columns
        joined[rank] = {
            col: np.concatenate([getattr(p, col) for p in parts])
            for col in cols
        }
    return joined, finals


class TestIndexCursor:
    @pytest.mark.parametrize("chunk", [1, 7, 4096, None])
    def test_reassembles_to_whole_stream(self, trace, trace_file, chunk):
        fmt, path = trace_file
        index = TraceIndex(path)
        joined, finals = _reassemble(index.cursor(chunk_events=chunk))
        assert sorted(joined) == trace.ranks
        assert finals == {rank: 1 for rank in trace.ranks}
        for rank in trace.ranks:
            want = trace.events_of(rank)
            for col in ("time", "kind", "ref", "value"):
                np.testing.assert_array_equal(
                    joined[rank][col], getattr(want, col)
                )

    def test_column_projection(self, trace, trace_file):
        fmt, path = trace_file
        cursor = TraceIndex(path).cursor(
            columns=("time", "kind", "ref"), chunk_events=16
        )
        for batch in cursor:
            assert set(batch.events.loaded_columns) == {"time", "kind", "ref"}

    def test_rank_subset(self, trace, trace_file):
        fmt, path = trace_file
        ranks = trace.ranks[1:3]
        cursor = TraceIndex(path).cursor(ranks=ranks, chunk_events=32)
        assert cursor.ranks == ranks
        joined, finals = _reassemble(cursor)
        assert sorted(joined) == ranks

    def test_definitions_skeleton(self, trace, trace_file):
        fmt, path = trace_file
        defs = TraceIndex(path).cursor().definitions
        assert defs.ranks == trace.ranks
        assert [r.name for r in defs.regions] == [
            r.name for r in trace.regions
        ]
        assert all(len(defs.events_of(r)) == 0 for r in defs.ranks)

    def test_invalid_parameters(self, trace_file):
        fmt, path = trace_file
        index = TraceIndex(path)
        with pytest.raises(ValueError, match="chunk_events"):
            index.cursor(chunk_events=0)
        with pytest.raises(ValueError, match="duplicate"):
            IndexCursor(index, ranks=[0, 0])

    def test_zero_event_rank_announced_once(self):
        from repro.trace import Location, Trace
        from repro.trace.events import EventList, EventListBuilder

        t = Trace(name="hollow")
        t.regions.register("f")
        b = EventListBuilder()
        b.append(0.0, 0, ref=0)
        b.append(1.0, 1, ref=0)
        t.add_process(Location(0, "P0"), b.freeze())
        t.add_process(Location(1, "P1"), EventList.empty())
        import tempfile, os

        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "hollow.rpt")
            write_binary(t, path)
            batches = list(TraceIndex(path).cursor(chunk_events=1))
        empty = [b for b in batches if b.rank == 1]
        assert len(empty) == 1
        assert empty[0].final and len(empty[0].events) == 0


class TestSlicedReads:
    """v2 raw columns support exact byte-range loads."""

    def test_supports_slices_only_for_raw_v2(self, trace, tmp_path):
        v1 = tmp_path / "a.rpt"
        v2 = tmp_path / "b.rpt"
        zl = tmp_path / "c.rpt"
        write_binary(trace, v1, version=1)
        write_binary(trace, v2, version=2, codec="raw")
        write_binary(trace, zl, version=2, codec="zlib")
        rank = trace.ranks[0]
        assert TraceIndex(v2).supports_slices(rank, None)
        assert not TraceIndex(v1).supports_slices(rank, None)
        assert not TraceIndex(zl).supports_slices(rank, None)

    def test_load_events_range_matches_views(self, trace, tmp_path):
        path = tmp_path / "run.rpt"
        write_binary(trace, path, version=2, codec="raw")
        index = TraceIndex(path)
        for rank in trace.ranks:
            whole = trace.events_of(rank)
            n = len(whole)
            for start, stop in [(0, 5), (3, n - 2), (n - 1, n), (0, n)]:
                part = index.load_events(rank, start=start, stop=stop)
                for col in ("time", "kind", "ref", "value"):
                    np.testing.assert_array_equal(
                        getattr(part, col), getattr(whole, col)[start:stop]
                    )

    @pytest.mark.parametrize("codec", ["raw", "zlib"])
    def test_passed_ranks_pages_dropped_views_valid(
        self, trace, tmp_path, monkeypatch, codec
    ):
        """Once the cursor has passed a rank it releases the rank's
        mapped pages; views handed out earlier read the same bytes."""
        path = tmp_path / "run.rpt"
        write_binary(trace, path, version=2, codec=codec)
        index = TraceIndex(path)
        dropped = []
        drop = index.drop_pages
        monkeypatch.setattr(
            index, "drop_pages",
            lambda lo, hi: (dropped.append((lo, hi)), drop(lo, hi)),
        )
        held = [(b.rank, b.events) for b in IndexCursor(index, chunk_events=7)]
        assert len(dropped) == len(trace.ranks)
        extents = [index.byte_extent(r) for r in sorted(trace.ranks)]
        assert dropped[-1] == (
            min(lo for lo, _ in extents), max(hi for _, hi in extents)
        )
        index.drop_pages(0, path.stat().st_size)  # everything, again
        for rank in trace.ranks:
            np.testing.assert_array_equal(
                np.concatenate([e.time for r, e in held if r == rank]),
                trace.events_of(rank).time,
            )

    def test_strict_subrange_of_zlib_rejected(self, trace, tmp_path):
        path = tmp_path / "run.rpt"
        write_binary(trace, path, version=2, codec="zlib")
        index = TraceIndex(path)
        rank = trace.ranks[0]
        with pytest.raises(ValueError, match="slice"):
            index.load_events(rank, start=1, stop=3)


class TestJsonlStreamCursor:
    def test_pipe_equivalent_to_file(self, trace, tmp_path):
        path = tmp_path / "run.jsonl"
        write_jsonl(trace, path)
        cursor = JsonlStreamCursor(io.StringIO(path.read_text()))
        joined, finals = _reassemble(cursor)
        assert finals == {rank: 1 for rank in trace.ranks}
        for rank in trace.ranks:
            np.testing.assert_array_equal(
                joined[rank]["time"], trace.events_of(rank).time
            )
        assert cursor.definitions.ranks == trace.ranks

    def test_definitions_before_iteration_raises(self, trace, tmp_path):
        path = tmp_path / "run.jsonl"
        write_jsonl(trace, path)
        cursor = JsonlStreamCursor(io.StringIO(path.read_text()))
        with pytest.raises(RuntimeError, match="definitions"):
            cursor.definitions


class TestTailCursor:
    def _lines(self, trace, tmp_path):
        src = tmp_path / "full.jsonl"
        write_jsonl(trace, src)
        return src.read_text().splitlines(keepends=True)

    def test_growing_file_with_end_sentinel(self, trace, tmp_path):
        lines = self._lines(trace, tmp_path)
        live = tmp_path / "live.jsonl"
        live.write_text("")
        cursor = TailCursor(live, poll_interval=0.001)
        batches = []
        it = iter(cursor)
        with open(live, "a") as fp:
            for line in lines:
                # Fragmented append: flush mid-line to exercise the
                # partial-line buffer.
                half = len(line) // 2
                fp.write(line[:half])
                fp.flush()
                fp.write(line[half:])
                fp.flush()
            defs = cursor.wait_definitions(timeout=5.0)
            assert defs.ranks == trace.ranks
            fp.write('{"record": "end"}\n')
            fp.flush()
        batches.extend(it)
        joined, finals = _reassemble(batches)
        assert finals == {rank: 1 for rank in trace.ranks}
        for rank in trace.ranks:
            np.testing.assert_array_equal(
                joined[rank]["time"], trace.events_of(rank).time
            )

    def test_idle_timeout_ends_stream(self, trace, tmp_path):
        lines = self._lines(trace, tmp_path)
        live = tmp_path / "live.jsonl"
        live.write_text("".join(lines))  # complete file, no sentinel
        cursor = TailCursor(live, poll_interval=0.001, idle_timeout=0.05)
        joined, finals = _reassemble(cursor)
        assert finals == {rank: 1 for rank in trace.ranks}

    def test_rejects_non_jsonl(self, tmp_path):
        with pytest.raises(TraceFormatError, match="jsonl"):
            TailCursor(tmp_path / "run.rpt")

    def test_wait_definitions_timeout(self, tmp_path):
        live = tmp_path / "empty.jsonl"
        live.write_text("")
        cursor = TailCursor(live, poll_interval=0.001)
        with pytest.raises(TimeoutError):
            cursor.wait_definitions(timeout=0.05)


class TestFeedCursor:
    def test_push_and_drain(self, trace):
        defs = _skeleton(trace)
        cursor = FeedCursor(defs)
        rank = trace.ranks[0]
        events = trace.events_of(rank)
        cursor.push(rank, events[:10])
        cursor.push(rank, events[10:], final=True)
        cursor.close()
        joined, finals = _reassemble(cursor)
        np.testing.assert_array_equal(joined[rank]["time"], events.time)
        assert finals == {r: 1 for r in trace.ranks}

    def test_drain_before_close_raises(self, trace):
        cursor = FeedCursor(_skeleton(trace))
        cursor.push(trace.ranks[0], trace.events_of(trace.ranks[0])[:4])
        it = iter(cursor)
        next(it)
        with pytest.raises(RuntimeError, match="close"):
            next(it)

    def test_misuse_rejected(self, trace):
        cursor = FeedCursor(_skeleton(trace))
        rank = trace.ranks[0]
        events = trace.events_of(rank)[:2]
        with pytest.raises(ValueError, match="not defined"):
            cursor.push(999, events)
        cursor.push(rank, events, final=True)
        with pytest.raises(ValueError, match="finished"):
            cursor.push(rank, events)
        cursor.close()
        with pytest.raises(RuntimeError, match="closed"):
            cursor.push(trace.ranks[1], events)


def _skeleton(trace):
    """Definitions-only copy of ``trace`` (what a live header carries)."""
    from repro.trace import Trace
    from repro.trace.events import EventList

    skeleton = Trace(
        regions=trace.regions, metrics=trace.metrics, name=trace.name
    )
    for rank in trace.ranks:
        skeleton.add_process(trace.process(rank).location, EventList.empty())
    return skeleton


def _skeleton_donor():
    """Any tiny trace; only its header line is used."""
    from repro.sim.workloads.synthetic import SyntheticConfig, generate

    return generate(SyntheticConfig(ranks=2, iterations=2, seed=1))


class TestLiveStreamEdgeCases:
    """The monitor's failure modes: idle writers and torn records.

    ``repro monitor --follow`` rides on these cursors; a writer that
    dies mid-record (pipe) or simply stops (idle tail) must end the
    stream deterministically, never hang and never parse torn data.
    """

    def test_tail_idle_expiry_ignores_trailing_partial_line(
        self, trace, tmp_path
    ):
        # A writer killed mid-record leaves an unterminated last line;
        # the idle timeout must end the stream with only the complete
        # records parsed (the torn bytes stay in the buffer forever).
        full = tmp_path / "full.jsonl"
        write_jsonl(trace, full)
        lines = full.read_text().splitlines(keepends=True)
        live = tmp_path / "live.jsonl"
        extra = lines[-1]
        live.write_text("".join(lines) + extra[: len(extra) // 2])
        cursor = TailCursor(live, poll_interval=0.001, idle_timeout=0.05)
        joined, finals = _reassemble(cursor)
        assert finals == {rank: 1 for rank in trace.ranks}
        for rank in trace.ranks:
            np.testing.assert_array_equal(
                joined[rank]["time"], trace.events_of(rank).time
            )

    def test_tail_wait_definitions_idle_expiry_freezes_skeleton(
        self, tmp_path
    ):
        # Only a header, then silence: with an idle timeout the wait
        # must end with a frozen (empty) skeleton instead of raising.
        full = tmp_path / "full.jsonl"
        write_jsonl(_skeleton_donor(), full)
        header = full.read_text().splitlines(keepends=True)[0]
        live = tmp_path / "header-only.jsonl"
        live.write_text(header)
        cursor = TailCursor(live, poll_interval=0.001, idle_timeout=0.05)
        defs = cursor.wait_definitions(timeout=5.0)
        assert defs.ranks == []

    def test_tail_idle_expiry_mid_stream_closes_all_ranks(
        self, trace, tmp_path
    ):
        # Writer stops after the first rank's events: the idle expiry
        # must still announce every *defined* rank as final so the
        # consumer can finalize.
        full = tmp_path / "full.jsonl"
        write_jsonl(trace, full)
        lines = full.read_text().splitlines(keepends=True)
        first_events = next(
            i for i, ln in enumerate(lines) if '"events"' in ln
        )
        live = tmp_path / "live.jsonl"
        live.write_text("".join(lines[: first_events + 1]))
        cursor = TailCursor(live, poll_interval=0.001, idle_timeout=0.05)
        finals = {}
        seen_events = {}
        for batch in cursor:
            seen_events[batch.rank] = (
                seen_events.get(batch.rank, 0) + len(batch.events)
            )
            if batch.final:
                finals[batch.rank] = finals.get(batch.rank, 0) + 1
        assert finals == {rank: 1 for rank in trace.ranks}
        assert sum(1 for n in seen_events.values() if n > 0) == 1

    def test_stream_mid_record_eof_on_pipe_raises(self, trace, tmp_path):
        # A pipe writer dying mid-record delivers a truncated final
        # line (no terminator): readline returns it, and the parser
        # must fail loudly instead of yielding a half-batch.
        import os

        full = tmp_path / "full.jsonl"
        write_jsonl(trace, full)
        text = full.read_text()
        truncated = text[: text.rindex('"record"')]

        read_fd, write_fd = os.pipe()
        with open(write_fd, "w") as wf:
            wf.write(truncated)
        with open(read_fd, "r") as rf:
            cursor = JsonlStreamCursor(rf)
            with pytest.raises(TraceFormatError, match="corrupt record"):
                for _ in cursor:
                    pass

    def test_stream_eof_without_sentinel_closes_all_ranks(
        self, trace, tmp_path
    ):
        # Clean EOF (writer exited after its last full record, no end
        # sentinel): every rank still gets its final batch.
        full = tmp_path / "full.jsonl"
        write_jsonl(trace, full)
        cursor = JsonlStreamCursor(io.StringIO(full.read_text()))
        joined, finals = _reassemble(cursor)
        assert finals == {rank: 1 for rank in trace.ranks}
        for rank in trace.ranks:
            np.testing.assert_array_equal(
                joined[rank]["time"], trace.events_of(rank).time
            )
