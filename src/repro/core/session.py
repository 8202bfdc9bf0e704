"""Lazy, memoizing analysis sessions (the stage-graph substrate).

The paper's workflow is iterative: the analyst refines the dominant
function (Section VII-B), re-renders views, drills into segments and
compares runs — and every one of those steps reuses the same expensive
intermediates.  :class:`AnalysisSession` makes that reuse explicit.
Each product of the pipeline is a *stage*:

.. code-block:: text

    trace ──▶ replay ──▶ profile ──▶ selection(level)
                 │                        │
                 └──▶ segmentation(region)┘
                           │
                           ▼
                  sos(region, classifier) ──▶ detections / trends / heat

Stages are memoized in memory (bounded LRU for the per-region
products, strong references for replay/profile which everything needs)
and, when a ``cache_dir`` is given, persisted as ``.npz`` artifacts
keyed by the trace's content fingerprint
(:mod:`repro.trace.fingerprint`).  A second session over the same
trace — even in a new process — loads statistics and SOS-times from
disk and performs **zero** replay or profile recomputation; replayed
invocation tables load only when a drill-down path indexes them, and
are keyed per rank by the rank's event digest, so traces sharing event
streams share artifacts.  A session that reads its own file parses
only its header up front.  Its kernel pass and counter series each
decode the file rank by rank and drop each rank as they go, its
fingerprint hashes the column bytes without decoding, and the first
such pass gives the time extent; the whole file is decoded only when a
drill-down indexes events.  A ``stat-`` artifact
gives a warm session the fingerprint and time extent, so a warm report
that needs nothing else decodes no event at all.

:func:`repro.core.pipeline.analyze_trace` is a thin facade over this
class; use a session directly when analysing the same trace more than
once or when serving repeated queries.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import re
import time
import zipfile
from collections import OrderedDict
from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .. import obs
from .._record import field, record, replace
from ..profiles.profile import TraceProfile
from ..profiles.stats import FunctionStatistics
from ..trace.fingerprint import (
    TraceFingerprint,
    combine_fingerprint,
    fingerprint_definitions,
    fingerprint_trace,
)
from ..trace.trace import Trace, time_extent
from .dominant import DominantSelection, select_dominant
from .imbalance import ImbalanceReport, detect_imbalances
from .segments import RankSegments, Segmentation
from .sos import RankSOS, SOSResult
from .variation import TrendResult, binned_matrix, detect_trend

if TYPE_CHECKING:
    from ..profiles.replay import InvocationTable
    from .classify import SyncClassifier

__all__ = ["AnalysisSession", "ArtifactCache", "CacheInfo", "SessionStats"]

_MISS = object()

# Artifact-cache telemetry (module-level handles: the disabled fast
# path is one attribute load plus one flag test per call site).
_C_CACHE_HIT = obs.counter("cache.hit")
_C_CACHE_MISS = obs.counter("cache.miss")
_C_CACHE_BYTES_READ = obs.counter("cache.bytes_read")
_C_CACHE_BYTES_WRITTEN = obs.counter("cache.bytes_written")

#: InvocationTable columns in serialisation order.
_TABLE_COLUMNS = (
    "region",
    "t_enter",
    "t_leave",
    "inclusive",
    "exclusive",
    "depth",
    "parent",
    "outermost",
    "enter_index",
    "leave_index",
)

#: Integral/bool columns to restore after the float64 round-trip.
_TABLE_DTYPES = {
    "region": np.int32,
    "depth": np.int32,
    "parent": np.int64,
    "outermost": np.bool_,
    "enter_index": np.int64,
    "leave_index": np.int64,
}


def _table_to_arrays(table: InvocationTable) -> dict[str, np.ndarray]:
    """Pack a table into one float64 matrix.

    ``.npz`` loading pays a fixed zip-member + header cost per array;
    one (columns × rows) matrix per rank keeps warm loads fast.  Every
    column (ids, indices, bools, times) is exactly representable in
    float64.
    """
    data = np.empty((len(_TABLE_COLUMNS), len(table)), dtype=np.float64)
    for i, name in enumerate(_TABLE_COLUMNS):
        data[i] = getattr(table, name)
    return {"table": data}


def _table_from_arrays(arrays: dict[str, np.ndarray]) -> InvocationTable:
    from ..profiles.replay import InvocationTable

    data = arrays["table"]
    cols = {}
    for i, name in enumerate(_TABLE_COLUMNS):
        dtype = _TABLE_DTYPES.get(name)
        cols[name] = data[i].astype(dtype) if dtype else data[i].copy()
    return InvocationTable(**cols)


class _LRU:
    """Tiny bounded mapping with least-recently-used eviction."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("LRU size must be >= 1")
        self.maxsize = maxsize
        self._data: OrderedDict[Any, Any] = OrderedDict()

    def get(self, key: Any) -> Any:
        if key not in self._data:
            return _MISS
        self._data.move_to_end(key)
        return self._data[key]

    def put(self, key: Any, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


@record
class SessionStats:
    """Counters of stage activity, for tests, benchmarks and ``cache info``.

    ``computed`` counts actual stage executions (for ``replay``, one per
    replayed rank); ``memory_hits``/``disk_hits`` count avoided ones.
    """

    computed: dict[str, int] = field(default_factory=dict)
    memory_hits: dict[str, int] = field(default_factory=dict)
    disk_hits: dict[str, int] = field(default_factory=dict)
    disk_writes: dict[str, int] = field(default_factory=dict)

    def _bump(self, bucket: dict[str, int], stage: str, n: int = 1) -> None:
        bucket[stage] = bucket.get(stage, 0) + n

    def total_computed(self, stage: str) -> int:
        return self.computed.get(stage, 0)

    def describe(self) -> str:
        stages = sorted(
            set(self.computed) | set(self.memory_hits) | set(self.disk_hits)
        )
        lines = [f"{'stage':<14}{'computed':>10}{'mem hits':>10}{'disk hits':>10}"]
        for stage in stages:
            lines.append(
                f"{stage:<14}{self.computed.get(stage, 0):>10}"
                f"{self.memory_hits.get(stage, 0):>10}"
                f"{self.disk_hits.get(stage, 0):>10}"
            )
        return "\n".join(lines)


@record(frozen=True, slots=True)
class CacheInfo:
    """Summary of one on-disk artifact cache."""

    root: str
    entries: int
    total_bytes: int

    def format(self) -> str:
        mb = self.total_bytes / 1e6
        return f"{self.root}: {self.entries} artifacts, {mb:.2f} MB"


_KEY_RE = re.compile(r"^[A-Za-z0-9._-]+$")


class ArtifactCache:
    """Flat on-disk store of ``.npz`` artifacts, keyed by digest strings.

    Writes are atomic (temp file + rename) so concurrent sessions over
    the same cache directory never observe half-written artifacts;
    unreadable or corrupt files are treated as misses.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        if not _KEY_RE.match(key):
            raise ValueError(f"invalid artifact key {key!r}")
        return self.root / f"{key}.npz"

    def contains(self, key: str) -> bool:
        """Whether an artifact exists under ``key`` (no content check)."""
        return self._path(key).exists()

    def load(self, key: str) -> dict[str, np.ndarray] | None:
        """Arrays stored under ``key``, or None on miss/corruption."""
        path = self._path(key)
        if not path.exists():
            _C_CACHE_MISS.add()
            return None
        try:
            with np.load(path, allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            _C_CACHE_MISS.add()
            return None
        _C_CACHE_HIT.add()
        if obs.enabled():
            try:
                _C_CACHE_BYTES_READ.add(path.stat().st_size)
            except OSError:  # pragma: no cover - raced unlink
                pass
        return arrays

    def store(self, key: str, arrays: dict[str, np.ndarray]) -> None:
        """Persist ``arrays`` under ``key`` (atomic overwrite)."""
        path = self._path(key)
        tmp = self.root / f"{key}.{os.getpid()}.tmp.npz"
        try:
            with open(tmp, "wb") as fp:
                np.savez(fp, **arrays)
            if obs.enabled():
                _C_CACHE_BYTES_WRITTEN.add(tmp.stat().st_size)
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - only on failed replace
                tmp.unlink()

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.npz"))

    def info(self) -> CacheInfo:
        paths = list(self.root.glob("*.npz"))
        return CacheInfo(
            root=str(self.root),
            entries=len(paths),
            total_bytes=sum(p.stat().st_size for p in paths),
        )

    def clear(self) -> int:
        """Delete all artifacts; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.npz"):
            path.unlink()
            removed += 1
        return removed


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


#: A file whose mtime or ctime is this recent may still change within
#: the same timestamp tick, so its stat key is not recorded.
_RACY_NS = 2_000_000_000


def _stat_key(path: str) -> tuple | None:
    """``(realpath, size, mtime_ns, ctime_ns, inode, device)`` of
    ``path``, or None when it cannot be stat-ed."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (
        os.path.realpath(path),
        st.st_size,
        st.st_mtime_ns,
        st.st_ctime_ns,
        st.st_ino,
        st.st_dev,
    )


def _fingerprint_to_arrays(
    key: tuple, fp: TraceFingerprint, extent: tuple[float, float]
) -> dict[str, np.ndarray]:
    return {
        "key": np.array(repr(key)),
        "definitions": np.array(fp.definitions),
        "ranks": np.array([rank for rank, _ in fp.per_rank], dtype=np.int64),
        "digests": np.array([digest for _, digest in fp.per_rank], dtype=str),
        "hexdigest": np.array(fp.hexdigest),
        "extent": np.array(extent, dtype=np.float64),
    }


def _fingerprint_from_arrays(
    key: tuple, arrays: dict[str, np.ndarray]
) -> tuple[TraceFingerprint, tuple[float, float]] | None:
    """The recorded fingerprint and ``(t_min, t_max)``, or None unless
    the entry is intact, carries the extent and was recorded for
    exactly ``key``."""
    try:
        if str(arrays["key"]) != repr(key):
            return None
        per_rank = tuple(
            zip(arrays["ranks"].tolist(), arrays["digests"].tolist())
        )
        fp = combine_fingerprint(str(arrays["definitions"]), per_rank)
        intact = fp.hexdigest == str(arrays["hexdigest"])
        t_min, t_max = arrays["extent"].astype(np.float64).tolist()
    except (KeyError, ValueError, TypeError):
        return None
    return (fp, (t_min, t_max)) if intact else None


@contextlib.contextmanager
def _unchanged(path: str, key: tuple | None):
    """Guard a read of ``path``, which must still have stat key ``key``
    before and after the read.

    A file replaced or rewritten since ``key`` was taken raises
    :class:`TraceFormatError` rather than decoding other content than
    the header parsed then described; a decode error names ``path``.
    """
    from ..trace.reader import TraceFormatError

    def check() -> None:
        if _stat_key(path) != key:
            raise TraceFormatError(
                f"{path} changed after it was opened", path=path
            )

    check()
    try:
        yield
    except TraceFormatError as err:
        err.path = path
        raise
    check()


class _PathTrace(Trace):
    """A session's own trace file, read rank by rank.

    Definitions, locations, ranks and event counts come from the file's
    :class:`~repro.trace.reader.TraceIndex`.  :meth:`event_streams`
    decodes one rank at a time from the index's cursor and keeps none;
    the kernel pass and the counter series read the file this way (the
    fingerprint hashes its column bytes), and a pass over all ranks
    sets ``extent``.  Only a consumer that indexes events directly
    (the drill-downs: :meth:`events_of`, :meth:`processes`) decodes the
    whole file.  Every read requires the file to still have the stat
    key ``key`` taken before its header was parsed.  A shard worker
    receives it pickled as its path and key, and reopens the file.
    """

    def __init__(self, index, key: tuple | None) -> None:
        super().__init__(index.regions, index.metrics, index.name, index.attributes)
        # No streams yet: __getattr__ decodes them on first access.
        del self._processes
        self._index = index
        self._key = key
        self._ranks = index.ranks
        self._num_events = index.num_events
        #: ``(t_min, t_max)`` restored from a ``stat-`` artifact or
        #: taken from the per-rank extents of a pass over the file
        self.extent: tuple[float, float] | None = None

    @classmethod
    def open(cls, path: str, key: tuple | None) -> "_PathTrace":
        from ..trace.reader import TraceIndex

        with _unchanged(path, key):
            return cls(TraceIndex(path), key)

    def __reduce__(self):
        return _PathTrace.open, (self._index.path, self._key)

    def __getattr__(self, name: str):
        if name != "_processes":
            raise AttributeError(name)
        from ..trace.reader import read_trace

        with _unchanged(self._index.path, self._key):
            self._processes = read_trace(self._index.path)._processes
        return self._processes

    @property
    def decoded(self) -> bool:
        """Whether the event streams are in memory."""
        return "_processes" in self.__dict__

    def locations(self) -> list:
        return [self._index.locations[rank] for rank in self._ranks]

    def event_counts(self) -> dict[int, int]:
        return self._index.event_counts()

    def fingerprint(self) -> TraceFingerprint:
        """:func:`~repro.trace.fingerprint.fingerprint_trace` of the
        file, hashed from its column bytes under the stat-key guard
        (:meth:`~repro.trace.reader.TraceIndex.rank_digest`): no event
        is decoded, and the pass sets ``extent``."""
        extents = {}
        with _unchanged(self._index.path, self._key):
            per_rank = tuple(
                (rank, self._index.rank_digest(rank, extents)) for rank in self._ranks
            )
        self.extent = time_extent(extents)
        self.release()
        return combine_fingerprint(fingerprint_definitions(self), per_rank)

    def event_streams(self, ranks=None, columns=None):
        """The events of ``ranks`` (default: all), in rank order.

        Unless the streams are in memory, each rank is one whole-rank
        batch of the index's cursor, read under the stat-key guard with
        only ``columns`` (and ``time``) decoded when given, and dropped
        with the caller's reference: a pass never holds the decoded
        trace.  A pass over every rank records their time extent as the
        fused kernel does (:func:`~repro.trace.trace.time_extent`), and
        the file is unmapped afterwards unless the caller still holds a
        view into it."""
        if self.decoded:
            yield from super().event_streams(ranks)
            return
        extents = {}
        with _unchanged(self._index.path, self._key):
            for batch in self._index.cursor(ranks, columns):
                events = batch.events
                if len(events):
                    extents[batch.rank] = (
                        len(events), float(events.time[0]), float(events.time[-1])
                    )
                yield batch.rank, events
        if ranks is None:
            self.extent = time_extent(extents)
        self.release()

    def release(self) -> None:
        """Unmap the file, unless a column view into it is still alive:
        its pages need not stay resident between passes."""
        with contextlib.suppress(BufferError):
            self._index.close()

    @property
    def ranks(self) -> list[int]:
        return list(self._ranks)

    @property
    def num_processes(self) -> int:
        return len(self._ranks)

    def __len__(self) -> int:
        return len(self._ranks)

    @property
    def num_events(self) -> int:
        return self._num_events

    @property
    def t_min(self) -> float:
        return self.extent[0] if self.extent is not None else super().t_min

    @property
    def t_max(self) -> float:
        return self.extent[1] if self.extent is not None else super().t_max


class _LazyTables(Mapping):
    """``rank -> InvocationTable`` view that loads tables on first use.

    Handed to :class:`~repro.profiles.profile.TraceProfile` so that an
    analysis whose statistics and SOS-times come from the disk cache
    never loads invocation tables, while drill-down paths (call tree,
    windowed MPI fraction, timelines, baselines) can still reach them:
    each lookup reads the shard engine's store, once it holds every
    rank (:meth:`AnalysisSession._replayed`), through a small LRU.  A
    store that keeps its tables hands back the one in memory; a spilled
    one loads each rank from disk, so the view never holds them all.
    """

    def __init__(self, session: "AnalysisSession", max_cached: int = 4) -> None:
        self._session = session
        self._ranks = frozenset(session.trace.ranks)
        self._cache = _LRU(max_cached)
        self._replayed = False

    def __getitem__(self, rank: int) -> InvocationTable:
        table = self._cache.get(rank)
        if table is _MISS:
            if rank not in self._ranks:
                raise KeyError(rank)
            if not self._replayed:
                self._session._replayed()
                self._replayed = True
            table = self._session._counted(lambda store: store.get(rank))
            self._cache.put(rank, table)
        return table

    def __iter__(self):
        return iter(self._session.trace.ranks)

    def __len__(self) -> int:
        return self._session.trace.num_processes


class AnalysisSession:
    """Shared, lazily-evaluated analysis state for one trace.

    Parameters
    ----------
    trace:
        The trace under analysis, or ``None`` to read ``source_path``.
    config:
        Pipeline knobs (:class:`~repro.core.pipeline.AnalysisConfig`);
        defaults match :func:`~repro.core.pipeline.analyze_trace`.
    cache_dir:
        Directory for persistent ``.npz`` artifacts.  ``None`` keeps
        everything in memory only.
    memory_entries:
        Bound of the in-memory LRU holding per-region products
        (segmentations, SOS results, detections, trends, heat grids).
    lint:
        ``True`` or a :class:`repro.lint.LintConfig` to make the
        pre-flight gate run the *full* tracelint rule set (structural +
        MPI-semantic + paper-precondition rules) instead of the
        structural error rules; error-severity findings raise
        :class:`repro.lint.LintError`.  See also :meth:`preflight`.
    shards, max_memory_mb:
        The plan of the shard engine every pass runs through
        (:mod:`repro.core.engine`): one in-process shard of every rank
        without them, else ``shards`` rank groups, more until each fits
        ``max_memory_mb``, in worker processes.  The kernel reads every
        rank whole, so a rank above the budget runs as a shard of its
        own.
    source_path:
        The trace's file, read rank by rank; the session parses only
        its header up front.

    Examples
    --------
    ::

        session = AnalysisSession(trace, cache_dir="~/.cache/repro")
        analysis = session.analysis()          # cold: replays + profiles
        finer = analysis.refined()             # warm: pure cache hits
        pinned = session.analysis(function="specs_microphysics")
    """

    def __init__(
        self,
        trace: Trace | None,
        config=None,
        cache_dir: str | os.PathLike | None = None,
        memory_entries: int = 128,
        shards: int | None = None,
        max_memory_mb: float | None = None,
        source_path: str | os.PathLike | None = None,
        lint=None,
    ) -> None:
        from .pipeline import AnalysisConfig  # deferred: pipeline imports us

        self.config = config if config is not None else AnalysisConfig()
        if lint is True:
            from ..lint import LintConfig  # deferred: lint imports core

            lint = LintConfig()
        #: optional LintConfig; when set, the pre-flight gate runs the
        #: full tracelint rule set instead of the structural error rules
        self.lint_config = lint or None
        self.shards = shards
        self.max_memory_mb = max_memory_mb
        self.source_path = os.fspath(source_path) if source_path else None
        self._engine = None  # ShardEngine (lazy)
        #: stat key of the file this session reads itself, taken before
        #: its header is parsed; keys the ``stat-`` shortcut to the
        #: fingerprint and guards every read of the file
        self._stat: tuple | None = None
        if trace is None:
            if self.source_path is None:
                raise ValueError(
                    "AnalysisSession needs a trace or a source_path"
                )
            from ..trace.reader import TraceIndex

            self._stat = _stat_key(self.source_path)
            trace = _PathTrace(TraceIndex(self.source_path), self._stat)
        self.trace = trace
        self.cache = (
            ArtifactCache(os.path.expanduser(str(cache_dir)))
            if cache_dir is not None
            else None
        )
        self.stats = SessionStats()
        self._memo = _LRU(memory_entries)
        self._fingerprint: TraceFingerprint | None = None
        self._tables: dict[int, InvocationTable] | None = None
        self._partials: dict[int, dict[str, np.ndarray]] | None = None
        self._profile: TraceProfile | None = None
        self._validated = False

    # -- identity ------------------------------------------------------

    @property
    def fingerprint(self) -> TraceFingerprint:
        """Content fingerprint of the trace (computed once).

        A session that read its own file looks the per-rank digests up
        by the file's stat key first (see :meth:`_stat_fingerprint`).
        """
        if self._fingerprint is None:
            self._fingerprint = self._stat_fingerprint()
        return self._fingerprint

    def _hashed(self) -> TraceFingerprint:
        """The fingerprint, hashed: a trace read from its file hashes
        the file's column bytes (:meth:`_PathTrace.fingerprint`)."""
        if isinstance(self.trace, _PathTrace):
            return self.trace.fingerprint()
        return fingerprint_trace(self.trace)

    def _stat_fingerprint(self) -> TraceFingerprint:
        """:func:`fingerprint_trace`, short-cut by a ``stat-`` artifact.

        As in git's index, a file whose path, size, mtime, ctime, inode
        and device all equal a recorded entry's is taken to hold the
        recorded content, so a warm session need not hash its events.
        The entry also holds the trace's time extent, which a hit hands
        to the :class:`_PathTrace`: neither needs an event decoded.
        Any miss, mismatch, corrupt entry or entry without the extent
        falls back to hashing the file's column bytes one rank at a
        time (:meth:`_PathTrace.fingerprint`); that pass also sets the
        extent the new entry records, so a miss decodes no event either
        and needs no kernel pass to have run.  An entry is
        recorded only when the file's stat did not change across the
        read and the hash, and when neither its mtime nor its ctime
        lies within :data:`_RACY_NS` of now: a later write then always
        lands in a later timestamp tick and changes the ctime, which no
        program can set back.
        """
        key = self._stat
        if (
            self.cache is None
            or key is None
            or _stat_key(self.source_path) != key
        ):
            return self._hashed()
        name = f"stat-{_digest(repr(key))}"
        arrays = self.cache.load(name)
        if arrays is not None:
            hit = _fingerprint_from_arrays(key, arrays)
            if hit is not None:
                fp, self.trace.extent = hit
                return fp
        fp = self._hashed()
        settled = time.time_ns() - max(key[2], key[3]) >= _RACY_NS
        if settled and _stat_key(self.source_path) == key:
            # Set by the hashing pass (or read off decoded streams).
            extent = (self.trace.t_min, self.trace.t_max)
            self.cache.store(name, _fingerprint_to_arrays(key, fp, extent))
        return fp

    # -- the shard engine ----------------------------------------------

    def _shard_engine(self):
        """The (lazily created) :class:`~repro.core.engine.ShardEngine`
        every kernel pass and SOS computation runs through.

        Without ``shards`` or ``max_memory_mb`` its plan is one shard of
        every rank, run in process, whose tables stay in memory (and,
        with a cache, are also written there as ``inv-`` artifacts).
        A memory bound, or a plan the engine runs in several workers,
        spills the tables to the cache, or to a private temporary
        directory, instead.
        """
        if self._engine is None:
            from .engine import ShardEngine, ShardPlan, plan_shards

            counts = self.trace.event_counts()
            plan = (
                plan_shards(
                    counts, shards=self.shards, max_memory_mb=self.max_memory_mb
                )
                if counts
                else ShardPlan((), ())
            )
            self._engine = ShardEngine(
                plan,
                self.trace,
                cache=self.cache,
                key=lambda rank: f"inv-{self.fingerprint.rank_digest(rank)}",
                spill=self.max_memory_mb is not None,
            )
        return self._engine

    def _bootstrap(self, lint, table_ranks=None, graph: bool = False):
        """One kernel pass of the shard engine over every rank.

        The lint scan (``lint`` as in
        :func:`~repro.core.fused.fused_bootstrap`), stack replay and the
        per-rank statistics partials share one enter/leave pairing per
        rank, in process or in the engine's workers, and the scan is
        finalised once over every rank.  The pass gives a trace read
        from its file its time extent.  A report without errors from a
        config that gates replay (:func:`repro.lint.engine.gates_replay`)
        validates the session; a validated or unscanned pass puts its
        tables in the engine's store.  ``table_ranks`` limits the replay
        to ranks whose tables are missing (``()`` builds none); a pass
        that replays every rank hands the session its statistics
        partials.  ``graph`` builds the scan's match graph.
        """
        if self.cache is not None and table_ranks != ():
            # The tables' cache keys are rank digests: hash the file
            # before the pass, not from inside it.
            self.fingerprint
        with obs.span("fused.bootstrap"):
            engine = self._shard_engine()
            boot = engine.bootstrap(lint, table_ranks=table_ranks, graph=graph)
        if isinstance(self.trace, _PathTrace):
            self.trace.extent = boot.extent
            # The kernel held the last ranks' views as the pass ended.
            self.trace.release()
        if lint is not False:
            from ..lint.engine import gates_replay, validate_config

            if boot.report.counts()["error"] or not gates_replay(
                lint or validate_config()
            ):
                return boot
            self._mark_valid()
        if boot.partials:
            self.stats._bump(self.stats.computed, "replay", len(boot.partials))
            if self.cache is not None:
                self.stats._bump(
                    self.stats.disk_writes, "replay", len(boot.partials)
                )
        if table_ranks is None:
            self._partials = boot.partials
            if engine.store.tables is not None:
                self._tables = {
                    rank: engine.store.tables[rank] for rank in self.trace.ranks
                }
        return boot

    def _mark_valid(self) -> None:
        """Record a passed structural gate, on disk too when cached."""
        self.stats._bump(self.stats.computed, "validate")
        self._validated = True
        if self.cache is not None:
            key = f"valid-{self.fingerprint.hexdigest}"
            if not self.cache.contains(key):
                self.cache.store(key, {"ok": np.ones(1, dtype=np.int8)})
                self.stats._bump(self.stats.disk_writes, "validate")

    def _classifier_key(self, classifier: SyncClassifier) -> str:
        return _digest(repr(classifier))

    # -- generic stage runner ------------------------------------------

    def _stage(
        self,
        stage: str,
        key: tuple,
        compute: Callable[[], Any],
        disk_key: str | None = None,
        to_arrays: Callable[[Any], dict[str, np.ndarray]] | None = None,
        from_arrays: Callable[[dict[str, np.ndarray]], Any] | None = None,
    ) -> Any:
        memo_key = (stage, *key)
        value = self._memo.get(memo_key)
        if value is not _MISS:
            self.stats._bump(self.stats.memory_hits, stage)
            return value
        if disk_key is not None and self.cache is not None:
            arrays = self.cache.load(disk_key)
            if arrays is not None:
                value = from_arrays(arrays)
                self.stats._bump(self.stats.disk_hits, stage)
                self._memo.put(memo_key, value)
                return value
        with obs.span(f"stage.{stage}"):
            value = compute()
        self.stats._bump(self.stats.computed, stage)
        if disk_key is not None and self.cache is not None:
            self.cache.store(disk_key, to_arrays(value))
            self.stats._bump(self.stats.disk_writes, stage)
        self._memo.put(memo_key, value)
        return value

    # -- replay / profile ----------------------------------------------

    def replay(self) -> dict[int, InvocationTable]:
        """Invocation tables for every rank (stage ``replay``).

        Tables are cached per rank under the rank's event digest, so a
        warm cache performs no matching at all and traces that share
        event streams (merges, filtered copies) share artifacts.
        """
        if self._tables is not None:
            self.stats._bump(self.stats.memory_hits, "replay")
            return self._tables
        self._replayed()
        tables = self._counted(
            lambda store: {rank: store.get(rank) for rank in self.trace.ranks}
        )
        if self._tables is None:
            self._tables = tables
        return self._tables

    def _counted(self, read):
        """``read(store)`` of the shard engine's table store; the tables
        it loads from disk count as ``replay`` disk hits."""
        store = self._shard_engine().store
        loads = store.loads
        value = read(store)
        if store.loads > loads:
            self.stats._bump(self.stats.disk_hits, "replay", store.loads - loads)
        return value

    def _replayed(self):
        """The shard engine, once its store holds every rank's table.

        Validity is settled (or waived) first, so ranks the store lacks
        (no artifact, or a corrupt one) replay without the lint scan,
        and only those.  A store that keeps its tables loads them here.
        """
        # Gate replay (and thus profile and SOS) like analysis() does,
        # so broken traces surface as diagnostics, not replay errors.
        self._ensure_valid()
        ranks = self.trace.ranks
        missing = self._counted(
            lambda store: [rank for rank in ranks if not store.has(rank)]
        )
        if missing:
            self._bootstrap(
                False, table_ranks=None if len(missing) == len(ranks) else missing
            )
        return self._shard_engine()

    def profile(self) -> TraceProfile:
        """Aggregated profile (stage ``profile``); statistics are
        disk-cached so a warm profile never re-aggregates."""
        if self._profile is not None:
            self.stats._bump(self.stats.memory_hits, "profile")
            return self._profile
        self._ensure_valid()

        def compute() -> FunctionStatistics:
            # Only a stats- miss gets here, so a disk hit never
            # touches tables.
            if self._partials is None:
                self._bootstrap(False)
            return FunctionStatistics.from_partials(self.trace, self._partials)

        stats = self._stage(
            "stats",
            (),
            compute=compute,
            # The fingerprint costs a full hash over the event bytes;
            # only pay for it when there is a disk cache to key.
            disk_key=(
                f"stats-{self.fingerprint.hexdigest}"
                if self.cache is not None
                else None
            ),
            to_arrays=lambda s: s.to_arrays(),
            from_arrays=lambda arrays: FunctionStatistics.from_arrays(
                self.trace, arrays
            ),
        )
        # A cold run's kernel pass already holds every table; otherwise
        # tables load only when a drill-down path first indexes them.
        tables: Mapping[int, InvocationTable] = (
            self._tables if self._tables is not None else _LazyTables(self)
        )
        self._profile = TraceProfile(self.trace, tables, stats)
        return self._profile

    # -- selection ------------------------------------------------------

    def selection(self, level: int | None = None) -> DominantSelection:
        """Dominant-function selection at ``level`` (stage ``selection``)."""
        cfg = self.config
        lvl = cfg.level if level is None else level
        key = (cfg.min_invocation_factor, cfg.candidate_paradigms, lvl)
        return self._stage(
            "selection",
            key,
            compute=lambda: select_dominant(
                self.trace,
                stats=self.profile().stats,
                min_invocation_factor=cfg.min_invocation_factor,
                candidate_paradigms=cfg.candidate_paradigms,
                level=lvl,
            ),
        )

    # -- per-region products -------------------------------------------

    def segmentation(self, region: int) -> Segmentation:
        """Segments of the ``region`` invocations (stage ``segmentation``),
        which the SOS computation produces with its sync-times."""
        return self._stage(
            "segmentation", (region,), compute=lambda: self.sos(region).segmentation
        )

    def _sos_to_arrays(self, sos: SOSResult) -> dict[str, np.ndarray]:
        # One concatenated (4, total-segments) matrix plus per-rank
        # segment counts: three zip members regardless of rank count.
        blocks = []
        counts = []
        for rank in sos.ranks:
            seg = sos.segmentation[rank]
            per = sos[rank]
            blocks.append(
                np.stack(
                    [
                        seg.t_start,
                        seg.t_stop,
                        seg.invocation_row.astype(np.float64),
                        per.sync_time,
                    ]
                )
            )
            counts.append(len(seg.t_start))
        data = (
            np.concatenate(blocks, axis=1)
            if blocks
            else np.empty((4, 0), dtype=np.float64)
        )
        return {
            "ranks": np.asarray(sos.ranks, dtype=np.int64),
            "counts": np.asarray(counts, dtype=np.int64),
            "data": data,
        }

    def _sos_from_arrays(
        self, region: int, classifier: SyncClassifier, arrays: dict[str, np.ndarray]
    ) -> SOSResult:
        per_seg: dict[int, RankSegments] = {}
        per_rank: dict[int, RankSOS] = {}
        data = arrays["data"]
        offsets = np.concatenate(([0], np.cumsum(arrays["counts"])))
        for i, rank in enumerate(arrays["ranks"].tolist()):
            block = data[:, offsets[i] : offsets[i + 1]]
            seg = RankSegments(
                rank=rank,
                t_start=block[0].copy(),
                t_stop=block[1].copy(),
                invocation_row=block[2].astype(np.int64),
            )
            sync_time = block[3].copy()
            duration = seg.duration
            per_seg[rank] = seg
            per_rank[rank] = RankSOS(
                rank=rank,
                duration=duration,
                sync_time=sync_time,
                sos=duration - sync_time,
            )
        segmentation = Segmentation(region, per_seg)
        # Keep the segmentation stage coherent with the restored object.
        self._memo.put(("segmentation", region), segmentation)
        return SOSResult(segmentation, per_rank, classifier)

    def sos(self, region: int, classifier: SyncClassifier | None = None) -> SOSResult:
        """SOS-times for segments of ``region`` (stage ``sos``): segments
        and sync-times of each shard's ranks, from their tables."""
        cls = self.config.classifier if classifier is None else classifier
        disk_key = (
            f"sos-{self.fingerprint.hexdigest}"
            f"-{region}-{self._classifier_key(cls)}"
            if self.cache is not None
            else None
        )
        return self._stage(
            "sos",
            (region, cls),
            compute=lambda: self._replayed().sos(region, cls),
            disk_key=disk_key,
            to_arrays=self._sos_to_arrays,
            from_arrays=lambda arrays: self._sos_from_arrays(region, cls, arrays),
        )

    def detections(
        self, region: int, classifier: SyncClassifier | None = None
    ) -> ImbalanceReport:
        """Hot-rank / hot-segment detections (stage ``detections``)."""
        cfg = self.config
        cls = cfg.classifier if classifier is None else classifier
        key = (
            region,
            cls,
            cfg.rank_threshold,
            cfg.segment_threshold,
            cfg.min_relative_excess,
            cfg.max_findings,
        )
        return self._stage(
            "detections",
            key,
            compute=lambda: detect_imbalances(
                self.sos(region, cls),
                rank_threshold=cfg.rank_threshold,
                segment_threshold=cfg.segment_threshold,
                min_relative_excess=cfg.min_relative_excess,
                max_findings=cfg.max_findings,
            ),
        )

    def trend(
        self,
        region: int,
        classifier: SyncClassifier | None = None,
        use_plain_duration: bool = False,
    ) -> TrendResult:
        """Temporal trend of SOS (or plain) durations (stage ``trend``)."""
        cls = self.config.classifier if classifier is None else classifier
        return self._stage(
            "trend",
            (region, cls, use_plain_duration),
            compute=lambda: detect_trend(
                self.sos(region, cls), use_plain_duration=use_plain_duration
            ),
        )

    def heat_matrix(
        self,
        region: int,
        bins: int = 512,
        normalize: bool = False,
        classifier: SyncClassifier | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Time-binned SOS matrix for heat-map rendering (stage ``heat``)."""
        cls = self.config.classifier if classifier is None else classifier
        return self._stage(
            "heat",
            (region, cls, bins, normalize),
            compute=lambda: binned_matrix(
                self.sos(region, cls), bins=bins, normalize=normalize
            ),
        )

    # -- assembled analyses --------------------------------------------

    def preflight(self, config=None):
        """Run the tracelint static-analysis pass over this session's trace.

        Returns a :class:`repro.lint.LintReport`.  Pass a
        :class:`repro.lint.LintConfig` to override the session's
        ``lint`` configuration for this call.  The scan is the kernel
        pass's (:meth:`_bootstrap`), so a clean preflight leaves
        :meth:`analysis` nothing to pair; with a disk cache it builds no
        tables, as a warm analysis reads none.
        """
        from ..lint import LintConfig

        cfg = config or self.lint_config or LintConfig()
        with obs.span("session.preflight"):
            boot = self._bootstrap(
                cfg, table_ranks=() if self.cache is not None else None
            )
        return replace(boot.report, source=self.source_path)

    def scan(self, config=None, graph: bool = False):
        """Run the kernel's lint scan alone: no table is built.

        What ``repro lint`` and ``repro deps`` run.  Returns the
        :class:`repro.lint.LintReport` of ``config`` (default: the
        session's ``lint`` configuration, else every rule) and the
        scan's :class:`repro.lint.MatchGraph`, which is ``None`` unless
        ``graph`` or an hb-scope rule asked for it.  A trace without
        locations has nothing to scan: it raises the structural
        verdict, as :meth:`analysis` does.
        """
        from ..lint import LintConfig

        cfg = config or self.lint_config or LintConfig()
        if not self.trace.ranks:
            self.validate()
        with obs.span("session.scan"):
            boot = self._bootstrap(cfg, table_ranks=(), graph=graph)
        return replace(boot.report, source=self.source_path), boot.graph

    def validate(self) -> None:
        """Run only the structural gate :meth:`analysis` starts with.

        A trace :meth:`analysis` would refuse raises the same
        :class:`repro.lint.LintError`; no table is built.  A session
        reading its own file learns its time extent from the pass
        (``repro info``).
        """
        self._bootstrap(None, table_ranks=()).report.raise_for_errors()

    def _ensure_valid(self) -> None:
        if not self.config.validate or self._validated:
            return
        if self.lint_config is not None:
            self.preflight().raise_for_errors()
            if self._validated:
                return
            # The config does not cover the structural gate: run it too.
        # Validity is a pure function of content, so a marker artifact
        # keyed by the fingerprint lets warm sessions skip the scan.
        if (
            self.cache is not None
            and self.cache.load(f"valid-{self.fingerprint.hexdigest}") is not None
        ):
            self.stats._bump(self.stats.disk_hits, "validate")
            self._validated = True
            return
        self._bootstrap(None).report.raise_for_errors()

    def analysis_for(self, selection: DominantSelection):
        """Assemble a :class:`VariationAnalysis` for an explicit selection.

        Every constituent is a stage lookup, so repeated calls (the
        ``refined()``/``at_function()`` loop) only compute what changed.
        """
        from .pipeline import VariationAnalysis

        region = selection.region
        sos = self.sos(region)
        return VariationAnalysis(
            trace=self.trace,
            config=self.config,
            profile=self.profile(),
            selection=selection,
            segmentation=sos.segmentation,
            sos=sos,
            imbalance=self.detections(region),
            trend=self.trend(region),
            duration_trend=self.trend(region, use_plain_duration=True),
            session=self,
        )

    def analysis(self, level: int | None = None, function: str | None = None):
        """Full analysis at ``level``, optionally pinned to ``function``.

        Equivalent to :func:`repro.core.pipeline.analyze_trace` followed
        by :meth:`~repro.core.pipeline.VariationAnalysis.at_function`,
        but every product is memoized in this session.
        """
        with obs.span("session.analysis"):
            self._ensure_valid()
            selection = self.selection(level=level)
            if function is not None:
                selection = selection.at_function(function)
            return self.analysis_for(selection)

    def cache_info(self) -> CacheInfo | None:
        """Disk-cache summary, or None when running memory-only."""
        return self.cache.info() if self.cache is not None else None
