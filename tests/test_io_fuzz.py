"""Fuzz/robustness tests for the trace reader.

A reader fed corrupted bytes must raise a controlled exception, never
crash the interpreter, hang, or silently return garbage that later
explodes in analysis.  Every corruption of either format must raise
``TraceFormatError`` and nothing else.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.paper import figure3_trace
from repro.trace import read_trace, write_binary, write_jsonl
from repro.trace.reader import TraceFormatError


@pytest.fixture(scope="module")
def binary_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "t.rpt"
    write_binary(figure3_trace(), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def jsonl_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "t.jsonl"
    write_jsonl(figure3_trace(), path)
    return path.read_text()


class TestBinaryFuzz:
    @given(st.integers(min_value=0, max_value=4095), st.integers(0, 255))
    @settings(max_examples=120, deadline=None)
    def test_single_byte_flip(self, binary_bytes, tmp_path_factory, pos, value):
        data = bytearray(binary_bytes)
        pos = pos % len(data)
        if data[pos] == value:
            value = (value + 1) % 256
        data[pos] = value
        path = tmp_path_factory.mktemp("flip") / "c.rpt"
        path.write_bytes(bytes(data))
        try:
            trace = read_trace(path)
        except TraceFormatError:
            return
        # If it still parses, the result must be structurally sound or
        # the validator must catch it; no crash either way.
        from repro.lint import lint_trace, validate_config

        lint_trace(trace, config=validate_config())

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_truncation(self, binary_bytes, tmp_path_factory, cut):
        path = tmp_path_factory.mktemp("trunc") / "c.rpt"
        path.write_bytes(binary_bytes[: max(len(binary_bytes) - cut, 0)])
        with pytest.raises(TraceFormatError):
            read_trace(path)

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_random_garbage(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("junk") / "c.rpt"
        path.write_bytes(blob)
        with pytest.raises(TraceFormatError):
            read_trace(path)


class TestJsonlFuzz:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.characters(blacklist_categories=("Cs",)),
    )
    @settings(max_examples=80, deadline=None)
    def test_single_char_substitution(self, jsonl_text, tmp_path_factory,
                                      pos, char):
        text = list(jsonl_text)
        pos = pos % len(text)
        text[pos] = char
        path = tmp_path_factory.mktemp("sub") / "c.jsonl"
        path.write_text("".join(text))
        try:
            trace = read_trace(path)
        except TraceFormatError:
            return
        from repro.lint import lint_trace, validate_config

        lint_trace(trace, config=validate_config())

    @given(st.lists(st.text(max_size=40), max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_random_lines(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("lines") / "c.jsonl"
        path.write_text("\n".join(lines))
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_dropped_lines_detected_or_benign(self, jsonl_text, tmp_path):
        lines = jsonl_text.splitlines()
        for drop in range(1, min(len(lines), 6)):
            subset = lines[:drop] + lines[drop + 1 :]
            path = tmp_path / f"drop{drop}.jsonl"
            path.write_text("\n".join(subset))
            try:
                trace = read_trace(path)
            except TraceFormatError:
                continue
            from repro.lint import lint_trace, validate_config

            lint_trace(trace, config=validate_config())


def _rewrite_rpt_header(data: bytes, mutate) -> bytes:
    """Decode an .rpt header JSON, apply ``mutate``, re-encode.

    Re-derives the (version-dependent) payload start so the rewritten
    header's payload-relative offsets still point at the same bytes.
    """
    import struct

    from repro.trace.binio import payload_start

    assert data[:4] == b"RPTR"
    version, hlen = struct.unpack_from("<HI", data, 4)
    header = json.loads(data[10 : 10 + hlen])
    mutate(header)
    hb = json.dumps(header).encode("utf-8")
    pad = b"\0" * (payload_start(len(hb), version) - 10 - len(hb))
    return (
        data[:4]
        + struct.pack("<HI", version, len(hb))
        + hb
        + pad
        + data[payload_start(hlen, version) :]
    )


class TestTraceIndexStrictness:
    """The chunked reader must reject malformed per-rank chunk tables.

    These are the failure modes a sharded worker would otherwise hit
    deep inside replay: a manifest entry pointing past the end of a
    truncated file, two entries claiming the same payload bytes, or a
    rank appearing twice.  All must surface as ``TraceFormatError`` at
    index or load time, never as silent garbage.
    """

    from repro.trace.reader import TraceIndex  # class attr for brevity

    def _write(self, tmp_path, data: bytes):
        path = tmp_path / "c.rpt"
        path.write_bytes(data)
        return path

    def test_truncated_chunk_rejected(self, binary_bytes, tmp_path):
        def mutate(header):
            col = header["locations"][0]["columns"]["time"]
            col["length"] = col["length"] + 10_000_000

        path = self._write(tmp_path, _rewrite_rpt_header(binary_bytes, mutate))
        with pytest.raises(TraceFormatError, match="truncated"):
            self.TraceIndex(path)

    def test_truncated_payload_rejected(self, binary_bytes, tmp_path):
        # Manifest intact, payload bytes cut off at the end.
        path = self._write(tmp_path, binary_bytes[:-17])
        with pytest.raises(TraceFormatError, match="truncated"):
            self.TraceIndex(path)

    def test_overlapping_chunks_rejected(self, binary_bytes, tmp_path):
        def mutate(header):
            locs = header["locations"]
            a = locs[0]["columns"]["time"]
            b = locs[1]["columns"]["time"]
            b["offset"] = a["offset"]  # second rank claims first's bytes

        path = self._write(tmp_path, _rewrite_rpt_header(binary_bytes, mutate))
        with pytest.raises(TraceFormatError, match="overlap"):
            self.TraceIndex(path)

    def test_duplicate_location_rejected(self, binary_bytes, tmp_path):
        def mutate(header):
            header["locations"].append(header["locations"][0])

        path = self._write(tmp_path, _rewrite_rpt_header(binary_bytes, mutate))
        with pytest.raises(TraceFormatError, match="duplicate"):
            self.TraceIndex(path)

    def test_negative_offset_rejected(self, binary_bytes, tmp_path):
        def mutate(header):
            header["locations"][0]["columns"]["time"]["offset"] = -4

        path = self._write(tmp_path, _rewrite_rpt_header(binary_bytes, mutate))
        with pytest.raises(TraceFormatError, match="invalid chunk extent"):
            self.TraceIndex(path)

    def test_missing_column_rejected(self, binary_bytes, tmp_path):
        def mutate(header):
            del header["locations"][0]["columns"]["kind"]

        path = self._write(tmp_path, _rewrite_rpt_header(binary_bytes, mutate))
        with pytest.raises(TraceFormatError, match="missing column"):
            self.TraceIndex(path)

    def test_wrong_event_count_rejected(self, binary_bytes, tmp_path):
        def mutate(header):
            header["locations"][0]["n"] += 1

        path = self._write(tmp_path, _rewrite_rpt_header(binary_bytes, mutate))
        # v2 raw columns are caught at index time (blob length must be
        # n * itemsize); zlib columns only at load/decompress time.
        with pytest.raises(TraceFormatError, match="expected|inconsistent"):
            index = self.TraceIndex(path)
            index.load([index.ranks[0]])

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda h: h["regions"][0].pop("name"),
             "region 0: missing field 'name'"),
            (lambda h: h["regions"][0].update(paradigm=99),
             "region 0: 99 is not a valid Paradigm"),
            (lambda h: h["locations"][0].pop("n"),
             "location 0: missing field 'n'"),
            (lambda h: h["locations"][0].update(n="x"),
             "location 0: field 'n' must be an integer"),
            (lambda h: h["locations"][0]["columns"]["time"].pop("offset"),
             "location 0 column time: missing field 'offset'"),
            (lambda h: h.update(locations=5),
             "'locations' must be a list of objects"),
        ],
    )
    def test_malformed_manifest_rejected(
        self, binary_bytes, tmp_path, mutate, match
    ):
        path = self._write(tmp_path, _rewrite_rpt_header(binary_bytes, mutate))
        with pytest.raises(TraceFormatError, match=match):
            read_trace(path)

    def test_duplicate_jsonl_events_record_rejected(self, jsonl_text, tmp_path):
        lines = jsonl_text.splitlines()
        events_lines = [
            ln for ln in lines if '"record": "events"' in ln
            or '"record":"events"' in ln
        ]
        assert events_lines, "fixture trace has no events records"
        path = tmp_path / "dup.jsonl"
        path.write_text("\n".join([*lines, events_lines[0]]))
        from repro.trace.reader import TraceIndex

        with pytest.raises(TraceFormatError, match="duplicate"):
            TraceIndex(path)

    def test_requesting_unknown_rank_rejected(self, binary_bytes, tmp_path):
        path = self._write(tmp_path, binary_bytes)
        index = self.TraceIndex(path)
        with pytest.raises(TraceFormatError, match="unknown"):
            index.load([max(index.ranks) + 1])
