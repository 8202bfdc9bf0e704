"""Lazy column projection: correctness and declared-column honesty.

Three contracts:

* a projected ``TraceIndex.load(..., columns=...)`` returns exactly the
  full load's arrays for the requested columns (plus ``time``), with
  loud ``ColumnNotLoadedError`` placeholders everywhere else;
* unknown column names raise up front, on both the reader and the
  ``EventList.projected`` constructor;
* every pass that advertises a minimal column set (replay's
  ``REPLAY_COLUMNS``, streaming's ``STREAM_COLUMNS``) actually runs —
  and produces identical output — on events projected down to that
  set.  The placeholder columns turn any undeclared access into an
  exception, so an under-declared pass fails these tests instead of
  silently reading more than it claims.
"""

import numpy as np
import pytest

from repro.core.streaming import STREAM_COLUMNS, StreamingAnalyzer
from repro.lint import lint_trace
from repro.lint.model import LintConfig
from repro.profiles.replay import REPLAY_COLUMNS, match_invocations
from repro.trace import write_binary, write_jsonl
from repro.trace.events import ColumnNotLoadedError, EventList
from repro.trace.reader import TraceIndex


@pytest.fixture(scope="module")
def rich_trace():
    """Synthetic trace exercising messages, sync and metrics columns."""
    from repro.sim.workloads.synthetic import SyntheticConfig, generate

    return generate(SyntheticConfig(ranks=4, iterations=40, seed=9))


@pytest.fixture(
    scope="module", params=["jsonl", "v1", "v2-auto", "v2-raw"]
)
def trace_file(rich_trace, request, tmp_path_factory):
    root = tmp_path_factory.mktemp("projection")
    if request.param == "jsonl":
        path = root / "t.jsonl"
        write_jsonl(rich_trace, path)
    else:
        path = root / "t.rpt"
        if request.param == "v1":
            write_binary(rich_trace, path, version=1)
        elif request.param == "v2-auto":
            write_binary(rich_trace, path, version=2)
        else:
            write_binary(rich_trace, path, version=2, codec="raw")
    return path


class TestProjectionEqualsSlicing:
    def test_subset_equals_full_load(self, trace_file):
        full = TraceIndex(trace_file).load()
        subset = ("time", "kind", "ref")
        proj = TraceIndex(trace_file).load(None, columns=subset)
        assert proj.ranks == full.ranks
        for rank in full.ranks:
            a, b = full.events_of(rank), proj.events_of(rank)
            assert b.loaded_columns == subset
            for name in subset:
                got, want = getattr(b, name), getattr(a, name)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_time_always_included(self, trace_file):
        proj = TraceIndex(trace_file).load(None, columns=("kind",))
        events = proj.events_of(proj.ranks[0])
        assert "time" in events.loaded_columns

    def test_unloaded_column_raises(self, trace_file):
        proj = TraceIndex(trace_file).load(None, columns=("time", "kind"))
        events = proj.events_of(proj.ranks[0])
        with pytest.raises(ColumnNotLoadedError, match="'value'"):
            events.value[0]
        with pytest.raises(ColumnNotLoadedError):
            np.asarray(events.size)

    def test_slicing_preserves_projection(self, trace_file):
        proj = TraceIndex(trace_file).load(None, columns=STREAM_COLUMNS)
        events = proj.events_of(proj.ranks[0])
        chunk = events[1:5]
        assert chunk.loaded_columns == events.loaded_columns
        np.testing.assert_array_equal(chunk.time, events.time[1:5])
        with pytest.raises(ColumnNotLoadedError):
            chunk.partner[0]

    def test_slice_stays_read_only(self, trace_file):
        """Slices are views, not revalidated copies: they must keep the
        parent's freeze and its missing-column placeholders."""
        proj = TraceIndex(trace_file).load(None, columns=STREAM_COLUMNS)
        full = TraceIndex(trace_file).load()
        rank = proj.ranks[0]
        for events in (proj.events_of(rank), full.events_of(rank)):
            chunk = events[2:9][1:4]
            assert len(chunk) == 3
            assert chunk.loaded_columns == events.loaded_columns
            for name in chunk.loaded_columns:
                column = getattr(chunk, name)
                np.testing.assert_array_equal(
                    column, getattr(events, name)[3:6]
                )
                assert not column.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = column[0]
        with pytest.raises(ColumnNotLoadedError, match="'value'"):
            proj.events_of(rank)[2:9].value[0]


class TestUnknownColumns:
    def test_reader_rejects_unknown(self, trace_file):
        with pytest.raises(ValueError, match="unknown event column"):
            TraceIndex(trace_file).load(None, columns=("time", "bogus"))

    def test_projected_constructor_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown event column"):
            EventList.projected({"time": np.zeros(1), "bogus": np.zeros(1)})

    def test_projected_constructor_requires_time(self):
        with pytest.raises(ValueError, match="time"):
            EventList.projected({"kind": np.zeros(1, dtype=np.uint8)})


class TestDeclaredColumnSets:
    """Each pass runs, bit-identically, on exactly its declared columns."""

    def test_replay_columns_sufficient(self, rich_trace, trace_file):
        proj = TraceIndex(trace_file).load(None, columns=REPLAY_COLUMNS)
        for rank in rich_trace.ranks:
            table = match_invocations(proj.events_of(rank))
            want = match_invocations(rich_trace.events_of(rank))
            np.testing.assert_array_equal(table.t_enter, want.t_enter)
            np.testing.assert_array_equal(table.region, want.region)
            np.testing.assert_array_equal(table.depth, want.depth)

    def test_underdeclared_pass_fails_loudly(self, trace_file):
        # Negative control for the mechanism: the full rule set
        # includes TL005 (reads all seven columns), so running it on
        # the lint view's four columns must raise, not silently skip.
        proj = TraceIndex(trace_file).load(
            None, columns=("time", "kind", "ref", "partner")
        )
        with pytest.raises(ColumnNotLoadedError):
            lint_trace(proj, config=LintConfig())

    def test_stream_columns_sufficient(self, rich_trace, trace_file):
        proj = TraceIndex(trace_file).load(None, columns=STREAM_COLUMNS)

        def run(trace):
            analyzer = StreamingAnalyzer(
                trace.regions, trace.num_processes, dominant="iteration"
            )
            for rank in trace.ranks:
                events = trace.events_of(rank)
                for i in range(0, len(events), 128):
                    analyzer.feed(rank, events[i : i + 128])
            return {r: analyzer.sos_series(r) for r in trace.ranks}

        got, want = run(proj), run(rich_trace)
        for rank in want:
            np.testing.assert_array_equal(got[rank], want[rank])


class TestPlaceholderProtocols:
    """Unloaded-column placeholders fail data access loudly but stay
    out of the way of generic object protocols (regression: __getattr__
    answered every probe with ColumnNotLoadedError and defining __eq__
    made placeholders unhashable, breaking deepcopy/hasattr/pickling
    with misleading errors)."""

    @pytest.fixture()
    def projected_events(self):
        return EventList.projected({"time": np.array([0.0, 1.0])})

    def test_data_access_still_fails(self, projected_events):
        ref = projected_events.ref
        with pytest.raises(ColumnNotLoadedError):
            len(ref)
        with pytest.raises(ColumnNotLoadedError):
            ref == 3
        with pytest.raises(ColumnNotLoadedError):
            ref.sum()

    def test_dunder_probes_raise_attribute_error(self, projected_events):
        ref = projected_events.ref
        assert not hasattr(ref, "__deepcopy__")
        assert not hasattr(ref, "__array_interface__")
        with pytest.raises(AttributeError):
            ref.__deepcopy__

    def test_deepcopy_and_hash(self, projected_events):
        import copy

        clone = copy.deepcopy(projected_events)
        np.testing.assert_array_equal(clone.time, projected_events.time)
        with pytest.raises(ColumnNotLoadedError):
            len(clone.ref)
        assert isinstance(hash(projected_events.ref), int)
        assert {projected_events.ref: "ok"}
