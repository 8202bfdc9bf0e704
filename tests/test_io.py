"""Round-trip and error tests for trace serialisation."""

import io

import pytest

from repro.trace import read_trace, write_binary, write_jsonl
from repro.trace.reader import TraceFormatError
from repro.trace.writer import dump_jsonl


def traces_equal(a, b) -> bool:
    if a.name != b.name or a.attributes != b.attributes:
        return False
    if a.ranks != b.ranks:
        return False
    if [r.name for r in a.regions] != [r.name for r in b.regions]:
        return False
    if [(m.name, m.unit, m.mode) for m in a.metrics] != [
        (m.name, m.unit, m.mode) for m in b.metrics
    ]:
        return False
    return all(a.events_of(r) == b.events_of(r) for r in a.ranks)


class TestJsonlRoundtrip:
    def test_figure_trace(self, fig3, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(fig3, path)
        assert traces_equal(fig3, read_trace(path))

    def test_trace_with_metrics_and_messages(self, tiny_trace, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(tiny_trace, path)
        back = read_trace(path)
        assert traces_equal(tiny_trace, back)
        assert back.metrics.id_of("CYC") == 0

    def test_stream_roundtrip(self, fig1, tmp_path):
        buf = io.StringIO()
        dump_jsonl(fig1, buf)
        path = tmp_path / "t.jsonl"
        path.write_text(buf.getvalue())
        assert traces_equal(fig1, read_trace(path))

    @staticmethod
    def _read_text(tmp_path, content):
        path = tmp_path / "t.jsonl"
        path.write_text(content)
        return read_trace(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="empty"):
            self._read_text(tmp_path, "")

    def test_missing_header_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="header"):
            self._read_text(tmp_path, '{"record": "region"}\n')

    def test_bad_version_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="version"):
            self._read_text(
                tmp_path, '{"record": "header", "version": 99}\n'
            )

    def test_unknown_record_rejected(self, fig1, tmp_path):
        buf = io.StringIO()
        dump_jsonl(fig1, buf)
        content = buf.getvalue() + '{"record": "mystery"}\n'
        with pytest.raises(TraceFormatError, match="unknown record"):
            self._read_text(tmp_path, content)

    def test_events_for_undefined_location(self, tmp_path):
        content = (
            '{"record": "header", "version": 1, "name": "x", "attributes": {}}\n'
            '{"record": "events", "location": 7, "n": 0, "time": [], "kind": [],'
            ' "ref": [], "partner": [], "size": [], "tag": [], "value": []}\n'
        )
        with pytest.raises(TraceFormatError, match="undefined location"):
            self._read_text(tmp_path, content)

    def test_location_without_events_gets_empty_stream(self, tmp_path):
        content = (
            '{"record": "header", "version": 1, "name": "x", "attributes": {}}\n'
            '{"record": "location", "id": 0, "name": "P0", "group": "MPI"}\n'
        )
        path = tmp_path / "t.jsonl"
        path.write_text(content)
        trace = read_trace(path)
        assert trace.ranks == [0]
        assert len(trace.events_of(0)) == 0


class TestBinaryRoundtrip:
    def test_figure_trace(self, fig3, tmp_path):
        path = tmp_path / "t.rpt"
        write_binary(fig3, path)
        assert traces_equal(fig3, read_trace(path))

    def test_metrics_and_attributes(self, tiny_trace, tmp_path):
        path = tmp_path / "t.rpt"
        write_binary(tiny_trace, path, compresslevel=1)
        assert traces_equal(tiny_trace, read_trace(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(TraceFormatError, match="magic"):
            read_trace(path)

    def test_truncation_detected(self, fig2, tmp_path):
        path = tmp_path / "t.rpt"
        write_binary(fig2, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 40])
        with pytest.raises(TraceFormatError, match="truncated"):
            read_trace(path)

    def test_binary_smaller_than_jsonl_for_large_traces(self, tmp_path):
        from repro.sim.workloads.synthetic import SyntheticConfig, generate

        trace = generate(SyntheticConfig(ranks=8, iterations=30))
        jpath = tmp_path / "t.jsonl"
        bpath = tmp_path / "t.rpt"
        write_jsonl(trace, jpath)
        write_binary(trace, bpath)
        assert bpath.stat().st_size < jpath.stat().st_size


class TestReadTraceDispatch:
    def test_jsonl_extension(self, fig1, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(fig1, path)
        assert traces_equal(fig1, read_trace(path))

    def test_rpt_extension(self, fig1, tmp_path):
        path = tmp_path / "t.rpt"
        write_binary(fig1, path)
        assert traces_equal(fig1, read_trace(path))

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(TraceFormatError, match="extension"):
            read_trace(tmp_path / "t.xyz")


class TestWritabilityPolicy:
    """Every load path returns frozen column arrays.

    The v2 mmap fast path serves ``np.frombuffer`` views of the file
    mapping, which are inherently read-only; rather than letting
    mutability depend on which reader happened to produce the arrays,
    ``EventList`` freezes every column on construction.  In-place
    mutation must raise the same ``ValueError`` on all paths, and an
    explicit ``np.array(col)`` copy must stay writable.
    """

    def _write_all(self, trace, tmp_path):
        jsonl = tmp_path / "t.jsonl"
        v1 = tmp_path / "v1.rpt"
        v2 = tmp_path / "v2.rpt"
        write_jsonl(trace, jsonl)
        write_binary(trace, v1, version=1)
        write_binary(trace, v2, version=2, codec="raw")
        return [jsonl, v1, v2]

    def test_all_paths_read_only(self, fig1, tmp_path):
        import numpy as np

        for path in self._write_all(fig1, tmp_path):
            trace = read_trace(path)
            for rank in trace.ranks:
                events = trace.events_of(rank)
                for name in events.loaded_columns:
                    col = getattr(events, name)
                    assert not col.flags.writeable, (path.name, name)
                    with pytest.raises(ValueError, match="read-only"):
                        col[...] = col
                    copy = np.array(col)
                    assert copy.flags.writeable

    def test_mmap_disabled_path_read_only(self, fig1, tmp_path, monkeypatch):
        from repro.trace.reader import TraceIndex

        monkeypatch.setenv("REPRO_NO_MMAP", "1")
        path = tmp_path / "v2.rpt"
        write_binary(fig1, path, version=2, codec="raw")
        trace = TraceIndex(path).load()
        for rank in trace.ranks:
            events = trace.events_of(rank)
            for name in events.loaded_columns:
                assert not getattr(events, name).flags.writeable

    def test_projected_load_read_only(self, fig1, tmp_path):
        from repro.trace.reader import TraceIndex

        path = tmp_path / "v2.rpt"
        write_binary(fig1, path, version=2)
        trace = TraceIndex(path).load(None, columns=("time", "kind", "ref"))
        for rank in trace.ranks:
            events = trace.events_of(rank)
            for name in events.loaded_columns:
                assert not getattr(events, name).flags.writeable


class TestIndexLifetime:
    """TraceIndex.close() releases the shared mmap deterministically.

    The map otherwise lives until the last zero-copy view dies, which
    on Windows locks the trace file against deletion/replacement; the
    explicit close (and context-manager form) gives tools that rewrite
    traces in place a way out. Closing under outstanding views must
    fail loudly, not invalidate them.
    """

    def _v2_raw(self, trace, tmp_path):
        path = tmp_path / "v2.rpt"
        write_binary(trace, path, version=2, codec="raw")
        return path

    def test_close_without_views(self, fig1, tmp_path):
        from repro.trace.reader import TraceIndex

        index = TraceIndex(self._v2_raw(fig1, tmp_path))
        index.close()  # no map created yet: no-op
        loaded = index.load()
        del loaded
        index.close()
        # the index stays usable: the next load re-maps
        reloaded = index.load()
        assert traces_equal(reloaded, fig1)
        del reloaded
        index.close()

    def test_close_with_outstanding_views_raises(self, fig1, tmp_path):
        import numpy as np

        from repro.trace.reader import TraceIndex

        index = TraceIndex(self._v2_raw(fig1, tmp_path))
        trace = index.load()
        if index._buffer() is None:
            pytest.skip("mmap unavailable on this platform")
        with pytest.raises(BufferError):
            index.close()
        # the failed close must not have invalidated the views
        times = np.concatenate([trace.events_of(r).time for r in trace.ranks])
        assert len(times) == trace.num_events
        del trace, times
        index.close()

    def test_context_manager(self, fig1, tmp_path):
        from repro.trace.reader import TraceIndex

        with TraceIndex(self._v2_raw(fig1, tmp_path)) as index:
            trace = index.load()
            n = trace.num_events
            del trace
        assert n == fig1.num_events
