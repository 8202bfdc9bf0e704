"""Trace deserialisation: one decoder for both on-disk formats.

:class:`TraceIndex` is the only reader.  It parses the definition
records and the per-rank chunk table up front (validating every
manifest field), then decodes event columns per rank on demand.
:func:`read_trace` is simply ``TraceIndex(path).load()`` — the whole
trace at once — while the shard engine (:mod:`repro.core.engine`)
and the cursors load only the ranks, columns or event ranges they
need from the same index.

Every malformed input — bad frame, missing or mistyped manifest field,
truncated chunk, corrupt zlib blob, out-of-order timestamps — surfaces
as :class:`TraceFormatError` with the location and column it concerns.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import mmap
import os
import re
import zlib
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .. import obs
from .binio import (
    CODECS,
    mmap_disabled,
    parse_dtype,
    payload_start,
    read_frame,
)
from .definitions import (
    Location,
    Metric,
    MetricMode,
    MetricRegistry,
    Paradigm,
    Region,
    RegionRegistry,
    RegionRole,
)
from .fingerprint import _DIGEST_SIZE, fingerprint_events
from .trace import Trace

if TYPE_CHECKING:
    from .events import EventList

__all__ = ["read_trace", "TraceIndex"]

#: Telemetry: bytes served zero-copy from the mmap vs. inflated through
#: zlib, and events materialised by the chunked loader.
_C_MMAPPED = obs.counter("io.bytes_mmapped")
_C_DECOMPRESSED = obs.counter("io.bytes_decompressed")
_C_EVENTS_LOADED = obs.counter("io.events_loaded")

#: Event columns in on-disk (and ``EventList`` constructor) order.
_BIN_COLUMNS = ("time", "kind", "ref", "partner", "size", "tag", "value")


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or has the wrong version.

    ``path`` names the file when the error surfaces away from the call
    that opened it, as a deferred decode's does.
    """

    def __init__(self, *args, path: str | None = None) -> None:
        super().__init__(*args)
        self.path = path


def _check_header(header) -> None:
    from .writer import FORMAT_VERSION

    if not isinstance(header, dict) or header.get("record") != "header":
        raise TraceFormatError("first record must be the header")
    if header.get("version") != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace format version {header.get('version')!r}"
        )


def _int_field(record: dict, key: str, where: str) -> int:
    """``record[key]``, which must be present and an integer."""
    if key not in record:
        raise TraceFormatError(f"{where}: missing field {key!r}")
    value = record[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise TraceFormatError(
            f"{where}: field {key!r} must be an integer, got {value!r}"
        )
    return value


def _add_definition_record(
    record: dict,
    regions: RegionRegistry,
    metrics: MetricRegistry,
    locations: dict[int, Location],
) -> bool:
    """Apply one region/metric/location record; False if not one.

    A missing or mistyped field raises :class:`TraceFormatError`
    naming the record.
    """
    kind = record.get("record")
    if kind not in ("region", "metric", "location"):
        return False
    where = f"{kind} {record.get('id')!r}"
    rec_id = _int_field(record, "id", where)
    try:
        if kind == "region":
            regions.add(
                Region(
                    id=rec_id,
                    name=record["name"],
                    paradigm=Paradigm(record["paradigm"]),
                    role=RegionRole(record["role"]),
                    source_file=record.get("source_file", ""),
                    line=record.get("line", 0),
                )
            )
        elif kind == "metric":
            metrics.add(
                Metric(
                    id=rec_id,
                    name=record["name"],
                    unit=record.get("unit", "#"),
                    mode=MetricMode(record.get("mode", 0)),
                    description=record.get("description", ""),
                )
            )
        else:
            locations[rec_id] = Location(
                id=rec_id,
                name=record["name"],
                group=record.get("group", "MPI"),
            )
    except KeyError as err:
        raise TraceFormatError(
            f"{where}: missing field {err.args[0]!r}"
        ) from err
    except (TypeError, ValueError) as err:
        raise TraceFormatError(f"{where}: {err}") from err
    return True


def _assemble(rank, arrays: dict[str, np.ndarray]) -> EventList:
    """EventList over decoded columns (projected unless all are present).

    Content errors (ragged columns, decreasing timestamps, values that
    do not fit the canonical dtypes) raise :class:`TraceFormatError`.
    """
    from .events import EventList

    try:
        if len(arrays) == len(_BIN_COLUMNS):
            return EventList(*(arrays[col] for col in _BIN_COLUMNS))
        return EventList.projected(arrays)
    except (TypeError, ValueError, OverflowError) as err:
        raise TraceFormatError(f"location {rank}: {err}") from err


def _events_from_record(
    record: dict, columns: Sequence[str] | None = None
) -> EventList:
    """Events of one JSONL ``events`` record, optionally projected."""
    from .events import _DTYPES

    rank = record.get("location")
    try:
        arrays = {
            col: np.asarray(record[col], dtype=_DTYPES[col])
            for col in (_BIN_COLUMNS if columns is None else columns)
        }
    except KeyError as err:
        raise TraceFormatError(
            f"location {rank}: events record is missing column "
            f"{err.args[0]!r}"
        ) from err
    except (TypeError, ValueError, OverflowError) as err:
        raise TraceFormatError(f"location {rank}: {err}") from err
    events = _assemble(rank, arrays)
    if len(events) != record.get("n", len(events)):
        raise TraceFormatError(f"location {rank}: event count mismatch")
    return events


def _manifest_list(header: dict, key: str) -> list[dict]:
    """Header list ``key`` of an ``.rpt`` manifest (objects only)."""
    value = header.get(key, [])
    if not isinstance(value, list) or not all(
        isinstance(rec, dict) for rec in value
    ):
        raise TraceFormatError(
            f"header field {key!r} must be a list of objects"
        )
    return value


# ---------------------------------------------------------------------------
# Chunked / column-lazy access
# ---------------------------------------------------------------------------

#: Fast path for extracting the location id and event count from an
#: events line without parsing its (potentially huge) column arrays.
#: Matches the key order :mod:`repro.trace.writer` emits; any other
#: layout falls back to a full ``json.loads``.
_EVENTS_PREFIX_RE = re.compile(
    r'^\s*\{"record":\s*"events",\s*"location":\s*(-?\d+),\s*"n":\s*(\d+)'
)


class _RankChunk:
    """Byte extent of one rank's events in the underlying file."""

    __slots__ = ("rank", "n_events", "offset", "length", "columns")

    def __init__(self, rank, n_events, offset, length, columns=None):
        self.rank = rank
        self.n_events = n_events
        self.offset = offset  # absolute file offset of the chunk
        self.length = length
        self.columns = columns  # binary only: per-column manifest


class TraceIndex:
    """Lazy, rank-addressable view of a trace file.

    Parsing the index reads (and strictly validates) only the
    definition records and the per-rank chunk table; event columns are
    read by :meth:`load` for exactly the requested ranks.  Malformed
    chunk tables — chunks that run past the end of the file, overlap
    each other, or duplicate a rank — raise :class:`TraceFormatError`
    at index-construction time rather than corrupting a later read.

    Examples
    --------
    ::

        index = TraceIndex("run.rpt")
        index.ranks            # all location ids, sorted
        part = index.load([0, 1, 2])   # Trace with only these ranks
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = str(path)
        self.regions = RegionRegistry()
        self.metrics = MetricRegistry()
        self.locations: dict[int, Location] = {}
        self.name = "trace"
        self.attributes: dict[str, str] = {}
        self._chunks: dict[int, _RankChunk] = {}
        self.version: int | None = None
        self._buf: "mmap.mmap | None | bool" = None
        if self.path.endswith(".rpt"):
            self.format = "rpt"
            self._index_binary()
        elif self.path.endswith(".jsonl"):
            self.format = "jsonl"
            self._index_jsonl()
        else:
            raise TraceFormatError(
                f"cannot infer trace format from extension: {self.path!r}"
            )

    # -- indexing ------------------------------------------------------

    def _set_header(self, header: dict) -> None:
        self.name = header.get("name", "trace")
        self.attributes = header.get("attributes", {})
        if not isinstance(self.attributes, dict):
            raise TraceFormatError("header field 'attributes' must be an object")

    def _index_binary(self) -> None:
        from .binio import BinaryFormatError

        file_size = os.path.getsize(self.path)
        with open(self.path, "rb") as fp:
            try:
                version, header_len, header = read_frame(fp)
            except BinaryFormatError as err:
                raise TraceFormatError(str(err)) from err
        self.version = version
        base = payload_start(header_len, version)
        payload_size = max(0, file_size - base)

        self._set_header(header)
        for kind in ("region", "metric"):
            for rec in _manifest_list(header, kind + "s"):
                _add_definition_record({**rec, "record": kind},
                                       self.regions, self.metrics, self.locations)

        intervals: list[tuple[int, int, int, str]] = []
        for loc_rec in _manifest_list(header, "locations"):
            loc_id = _int_field(loc_rec, "id", "location")
            if loc_id in self.locations:
                raise TraceFormatError(
                    f"duplicate chunk for location {loc_id}"
                )
            _add_definition_record({**loc_rec, "record": "location"},
                                   self.regions, self.metrics, self.locations)
            n = _int_field(loc_rec, "n", f"location {loc_id}")
            if n < 0:
                raise TraceFormatError(f"location {loc_id}: negative n={n}")
            columns = loc_rec.get("columns")
            if not isinstance(columns, dict):
                raise TraceFormatError(
                    f"location {loc_id}: missing column manifest"
                )
            chunk_columns = {}
            for col in _BIN_COLUMNS:
                where = f"location {loc_id} column {col}"
                spec = columns.get(col)
                if not isinstance(spec, dict):
                    raise TraceFormatError(
                        f"location {loc_id}: missing column {col!r}"
                    )
                if "dtype" not in spec:
                    raise TraceFormatError(f"{where}: missing field 'dtype'")
                dtype = parse_dtype(spec["dtype"], where, TraceFormatError)
                codec = spec.get("codec", "zlib")
                if codec not in CODECS:
                    raise TraceFormatError(f"{where}: unknown codec {codec!r}")
                off = _int_field(spec, "offset", where)
                length = _int_field(spec, "length", where)
                if off < 0 or length < 0:
                    raise TraceFormatError(
                        f"{where}: invalid chunk extent "
                        f"(offset={off!r}, length={length!r})"
                    )
                if off + length > payload_size:
                    raise TraceFormatError(
                        f"{where}: chunk [{off}, {off + length}) runs past "
                        f"the end of the payload ({payload_size} bytes); "
                        f"file is truncated"
                    )
                if codec == "raw" and length != n * dtype.itemsize:
                    raise TraceFormatError(
                        f"{where}: raw blob is {length} bytes, "
                        f"inconsistent with n={n!r}"
                    )
                if length:
                    intervals.append((off, off + length, loc_id, col))
                chunk_columns[col] = (base + off, length, spec["dtype"], codec)
            lo = min(off for off, _, _, _ in chunk_columns.values())
            hi = max(off + length for off, length, _, _ in chunk_columns.values())
            self._chunks[loc_id] = _RankChunk(
                rank=loc_id,
                n_events=n,
                offset=lo,
                length=hi - lo,
                columns=chunk_columns,
            )
        intervals.sort()
        for prev, cur in zip(intervals, intervals[1:]):
            if cur[0] < prev[1]:
                raise TraceFormatError(
                    f"overlapping chunks: location {prev[2]} column "
                    f"{prev[3]} [{prev[0]}, {prev[1]}) overlaps location "
                    f"{cur[2]} column {cur[3]} [{cur[0]}, {cur[1]})"
                )

    def _index_jsonl(self) -> None:
        with open(self.path, "rb") as fp:
            header_line = fp.readline()
            if not header_line:
                raise TraceFormatError("empty trace file")
            try:
                header = json.loads(header_line)
            except (UnicodeDecodeError, json.JSONDecodeError) as err:
                raise TraceFormatError(f"corrupt header line: {err}") from err
            _check_header(header)
            self._set_header(header)

            while True:
                offset = fp.tell()
                raw = fp.readline()
                if not raw:
                    break
                line = raw.strip()
                if not line:
                    continue
                match = _EVENTS_PREFIX_RE.match(line.decode("utf-8", "replace"))
                if match:
                    loc_id, n = int(match.group(1)), int(match.group(2))
                else:
                    try:
                        record = json.loads(line)
                    except (UnicodeDecodeError, json.JSONDecodeError) as err:
                        raise TraceFormatError(
                            f"corrupt record at byte {offset}: {err}"
                        ) from err
                    if not isinstance(record, dict):
                        raise TraceFormatError(
                            f"non-object record: {line[:40]!r}"
                        )
                    if _add_definition_record(
                        record, self.regions, self.metrics, self.locations
                    ):
                        continue
                    if record.get("record") != "events":
                        raise TraceFormatError(
                            f"unknown record type {record.get('record')!r}"
                        )
                    loc_id = _int_field(record, "location", "events record")
                    n = (
                        _int_field(record, "n", f"location {loc_id}")
                        if "n" in record
                        else len(_events_from_record(record))
                    )
                if loc_id in self._chunks:
                    raise TraceFormatError(
                        f"overlapping chunks: duplicate events record for "
                        f"location {loc_id}"
                    )
                self._chunks[loc_id] = _RankChunk(
                    rank=loc_id, n_events=n, offset=offset, length=len(raw)
                )
        for loc_id in self._chunks:
            if loc_id not in self.locations:
                raise TraceFormatError(
                    f"events for undefined location {loc_id}"
                )

    # -- queries -------------------------------------------------------

    @property
    def ranks(self) -> list[int]:
        """Sorted list of location ids defined in the file."""
        return sorted(self.locations)

    @property
    def num_events(self) -> int:
        return sum(c.n_events for c in self._chunks.values())

    def num_events_of(self, rank: int) -> int:
        chunk = self._chunks.get(rank)
        return chunk.n_events if chunk is not None else 0

    def event_counts(self) -> dict[int, int]:
        """``rank -> event count`` for every defined location."""
        return {rank: self.num_events_of(rank) for rank in self.ranks}

    def _new_trace(self) -> Trace:
        return Trace(
            regions=self.regions,
            metrics=self.metrics,
            name=self.name,
            attributes=self.attributes,
        )

    def definitions_trace(self) -> Trace:
        """Trace with all locations but empty event streams.

        Enough for region/metric lookups, classifier masks and the
        ``num_processes`` used by the dominant-function criterion.
        """
        from .events import EventList

        trace = self._new_trace()
        for rank in self.ranks:
            trace.add_process(self.locations[rank], EventList.empty())
        return trace

    # -- lifetime ------------------------------------------------------

    def close(self) -> None:
        """Release the shared mmap backing zero-copy column views.

        The map normally lives until the last view into it is
        garbage-collected, which on Windows locks the trace file
        against deletion or in-place replacement for the whole time.
        ``close()`` drops the map eagerly; it raises :class:`BufferError`
        if zero-copy views served by :meth:`load` are still alive (the
        index itself stays usable — a later load simply re-maps).
        """
        buf, self._buf = self._buf, None
        if buf:
            try:
                buf.close()
            except BufferError:
                self._buf = buf
                raise

    def __enter__(self) -> "TraceIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- loading -------------------------------------------------------

    def _buffer(self) -> "mmap.mmap | None":
        """Shared read-only mmap of the file (binary format only).

        Created lazily on the first load; ``None`` when mmap is
        unavailable or disabled via ``REPRO_NO_MMAP=1``.  Zero-copy
        column views keep the map alive through their ``.base``
        reference; use :meth:`close` (or the context-manager form) to
        drop it eagerly once no views are outstanding, otherwise the
        OS reclaims it when the last view is garbage-collected.
        """
        if self._buf is None:
            self._buf = False
            if self.format == "rpt" and not mmap_disabled():
                try:
                    with open(self.path, "rb") as fp:
                        self._buf = mmap.mmap(
                            fp.fileno(), 0, access=mmap.ACCESS_READ
                        )
                except (ValueError, OSError):
                    self._buf = False
        return self._buf or None

    def byte_extent(self, rank: int) -> tuple[int, int] | None:
        """``[start, end)`` file offsets of ``rank``'s event data."""
        chunk = self._chunks.get(rank)
        return None if chunk is None else (chunk.offset, chunk.offset + chunk.length)

    def drop_pages(self, lo: int, hi: int) -> None:
        """Let the OS reclaim the resident mapped pages of file bytes
        ``[lo, hi)`` (page-aligned down at ``lo``).

        Views into them stay valid: a read-only shared file mapping
        re-reads the file's bytes on the next access, which are the
        bytes the view showed unless the file was rewritten in place
        (a rewrite shows through the shared mapping either way; the
        session's stat-key guard rejects it).  A no-op without a map
        or on platforms without ``madvise(MADV_DONTNEED)``.
        """
        buf = self._buf
        if not buf or not hasattr(mmap, "MADV_DONTNEED"):
            return
        start = lo - lo % mmap.PAGESIZE
        if start < hi:
            with contextlib.suppress(OSError, ValueError):
                buf.madvise(mmap.MADV_DONTNEED, start, hi - start)

    def _reader(self):
        """The file for seek/read, or no handle when the shared mmap
        serves every column blob (binary format, mmap available)."""
        if self.format == "rpt" and self._buffer() is not None:
            return contextlib.nullcontext()
        return open(self.path, "rb")

    def _read_column_blob(self, fp, offset: int, length: int, where: str):
        """Raw on-disk bytes of one column blob (mmap view or read)."""
        buf = self._buffer()
        if buf is not None:
            blob = memoryview(buf)[offset:offset + length]
        else:
            fp.seek(offset)
            blob = fp.read(length)
        if len(blob) != length:
            raise TraceFormatError(f"{where}: chunk is truncated")
        return blob

    def _load_events_binary(
        self, fp, chunk: _RankChunk, columns: Sequence[str] | None = None
    ) -> EventList:
        buf = self._buffer()
        arrays: dict[str, np.ndarray] = {}
        for col in (_BIN_COLUMNS if columns is None else columns):
            offset, length, dtype_str, codec = chunk.columns[col]
            where = _blob_where(chunk.rank, col, offset)
            dtype = parse_dtype(dtype_str, where, TraceFormatError)
            if codec == "raw" and buf is not None:
                # Blob length == n * itemsize was validated at index
                # time, so a view over the mmap is safe and zero-copy.
                data, count, start = buf, chunk.n_events, offset
                _C_MMAPPED.add(length)
            else:
                data = self._read_column_blob(fp, offset, length, where)
                count, start = -1, 0
                if codec == "zlib":
                    try:
                        data = zlib.decompress(data)
                    except zlib.error as err:
                        raise TraceFormatError(f"{where}: {err}") from err
                    _C_DECOMPRESSED.add(len(data))
            try:
                arr = np.frombuffer(data, dtype=dtype, count=count, offset=start)
            except ValueError as err:
                raise TraceFormatError(f"{where}: {err}") from err
            if len(arr) != chunk.n_events:
                raise TraceFormatError(
                    f"{where}: expected "
                    f"{chunk.n_events} entries, found {len(arr)}"
                )
            arrays[col] = arr
        return _assemble(chunk.rank, arrays)

    def _load_events_jsonl(
        self, fp, chunk: _RankChunk, columns: Sequence[str] | None = None
    ) -> EventList:
        fp.seek(chunk.offset)
        raw = fp.read(chunk.length)
        try:
            record = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise TraceFormatError(
                f"location {chunk.rank}: corrupt events record: {err}"
            ) from err
        if record.get("location") != chunk.rank:
            raise TraceFormatError(
                f"location {chunk.rank}: chunk table out of sync"
            )
        return _events_from_record(record, columns)

    def _project_columns(
        self, columns: Sequence[str] | None
    ) -> tuple[str, ...] | None:
        if columns is None:
            return None
        unknown = sorted(set(columns) - set(_BIN_COLUMNS))
        if unknown:
            raise ValueError(
                f"unknown event columns: {', '.join(unknown)}"
            )
        keep = set(columns) | {"time"}
        return tuple(col for col in _BIN_COLUMNS if col in keep)

    def supports_slices(
        self, rank: int, columns: Sequence[str] | None = None
    ) -> bool:
        """True when ``load_events`` can read sub-ranges of ``rank``
        as exact byte ranges (binary format, ``raw`` column codec)."""
        chunk = self._chunks.get(rank)
        if chunk is None or self.format != "rpt":
            return False
        project = self._project_columns(columns) or _BIN_COLUMNS
        return all(chunk.columns[col][3] == "raw" for col in project)

    def load_events(
        self,
        rank: int,
        columns: Sequence[str] | None = None,
        start: int = 0,
        stop: int | None = None,
    ) -> EventList:
        """Events ``[start, stop)`` of one rank.

        For ``raw`` binary columns the slice is served from its exact
        byte range (mmap view or a bounded read), so memory is bounded
        by the slice, not the rank.  Other layouts
        (zlib columns, ``.jsonl`` records) cannot be partially
        decoded; asking for a strict sub-range of one raises
        :class:`ValueError` — check :meth:`supports_slices` first, or
        load the whole rank and slice the returned views.
        """
        chunk = self._chunks.get(rank)
        n = chunk.n_events if chunk is not None else 0
        stop = n if stop is None else min(stop, n)
        start = max(int(start), 0)
        if start == 0 and stop >= n:
            return self.load([rank], columns=columns).events_of(rank)
        if not self.supports_slices(rank, columns):
            raise ValueError(
                f"rank {rank} of {self.path!r} does not support sliced "
                "reads (zlib/jsonl storage); load the whole rank instead"
            )
        project = self._project_columns(columns) or _BIN_COLUMNS
        count = max(stop - start, 0)
        buf = self._buffer()
        arrays: dict[str, np.ndarray] = {}
        with obs.span("io.load"), self._reader() as fp:
            for col in project:
                offset, _length, dtype_str, _codec = chunk.columns[col]
                dtype = parse_dtype(
                    dtype_str, f"location {rank} column {col}", TraceFormatError
                )
                byte_off = offset + start * dtype.itemsize
                where = _blob_where(rank, col, byte_off)
                if buf is not None:
                    try:
                        arr = np.frombuffer(
                            buf, dtype=dtype, count=count, offset=byte_off
                        )
                    except ValueError as err:
                        raise TraceFormatError(f"{where}: {err}") from err
                    _C_MMAPPED.add(count * dtype.itemsize)
                else:
                    blob = self._read_column_blob(
                        fp, byte_off, count * dtype.itemsize, where
                    )
                    arr = np.frombuffer(blob, dtype=dtype)
                arrays[col] = arr
        _C_EVENTS_LOADED.add(count)
        return _assemble(rank, arrays)

    def cursor(
        self,
        ranks: Sequence[int] | None = None,
        columns: Sequence[str] | None = None,
        chunk_events: int | None = None,
    ):
        """Pull-based :class:`~repro.trace.cursor.IndexCursor` over
        this file: ranks ascending, at most ``chunk_events`` events per
        batch (``None`` = one whole-rank batch per rank)."""
        from .cursor import IndexCursor

        return IndexCursor(
            self, ranks=ranks, columns=columns, chunk_events=chunk_events
        )

    def load(
        self,
        ranks: Sequence[int] | None = None,
        columns: Sequence[str] | None = None,
    ) -> Trace:
        """Materialise a trace containing only ``ranks``.

        ``None`` loads every rank.  Requested ranks must be defined in
        the file; locations without an events record yield empty streams.

        ``columns`` projects the load onto a subset of event columns
        (``time`` is always included).  Unprojected columns become
        placeholders that raise
        :class:`~repro.trace.events.ColumnNotLoadedError` on use, so a
        pass that touches an undeclared column fails loudly.  For
        zlib-coded columns the projection skips their decompression
        entirely; for v2 raw columns the full load is already a
        zero-copy view, but projecting still skips validation work.
        """
        from .events import EventList

        project = self._project_columns(columns)
        wanted: Iterable[int] = self.ranks if ranks is None else ranks
        wanted = list(wanted)
        for rank in wanted:
            if rank not in self.locations:
                raise TraceFormatError(
                    f"rank {rank} is not defined in {self.path!r}"
                )
        if len(set(wanted)) != len(wanted):
            raise ValueError(f"duplicate ranks requested: {wanted!r}")
        trace = self._new_trace()
        with obs.span("io.load"), self._reader() as fp:
            for rank in sorted(wanted):
                chunk = self._chunks.get(rank)
                if chunk is None:
                    events = EventList.empty()
                elif self.format == "rpt":
                    events = self._load_events_binary(fp, chunk, project)
                else:
                    events = self._load_events_jsonl(fp, chunk, project)
                _C_EVENTS_LOADED.add(len(events))
                trace.add_process(self.locations[rank], events)
        return trace

    # -- content digests ----------------------------------------------

    def rank_digest(self, rank: int, extents: dict | None = None) -> str:
        """Per-rank event digest, equal to
        :func:`~repro.trace.fingerprint.fingerprint_events` over the
        rank's loaded :class:`EventList`.

        For binary files whose manifest dtypes are canonical (always
        true for files we write), the digest is computed straight from
        the column bytes — for v2 raw columns that means hashing mmap
        slices with no array materialisation at all.  Anything else
        falls back to loading the rank.  With ``extents``, a rank with
        events also records its ``(n_events, t_first, t_last)`` there.
        """
        from .events import _DTYPES, EventList

        chunk = self._chunks.get(rank)
        if chunk is None:
            return fingerprint_events(EventList.empty())
        if self.format != "rpt" or any(
            chunk.columns[col][2] != np.dtype(_DTYPES[col]).str
            for col in _BIN_COLUMNS
        ):
            events = self.load([rank]).events_of(rank)
            if extents is not None and len(events):
                extents[rank] = (len(events), float(events.time[0]), float(events.time[-1]))
            return fingerprint_events(events)
        h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
        with self._reader() as fp:
            for col in _BIN_COLUMNS:
                offset, length, _dtype_str, codec = chunk.columns[col]
                where = _blob_where(chunk.rank, col, offset)
                data = self._read_column_blob(fp, offset, length, where)
                if codec != "raw":
                    try:
                        data = zlib.decompress(data)
                    except zlib.error as err:
                        raise TraceFormatError(f"{where}: {err}") from err
                h.update(col.encode("ascii"))
                h.update(data)
                if col == "time" and extents is not None and chunk.n_events:
                    first, last = np.frombuffer(data, dtype=_DTYPES["time"])[[0, -1]]
                    extents[rank] = (chunk.n_events, float(first), float(last))
        return h.hexdigest()


def _blob_where(rank: int, col: str, offset: int) -> str:
    """Error context of a column blob: location, column, file offset."""
    return f"location {rank} column {col} at byte {offset}"


def read_trace(
    path: str | os.PathLike, columns: Sequence[str] | None = None
) -> Trace:
    """Read a whole trace (``.rpt`` or ``.jsonl``, by extension).

    ``columns`` projects the load onto a subset of event columns; see
    :meth:`TraceIndex.load`.
    """
    with obs.span("io.read"):
        return TraceIndex(path).load(columns=columns)
