"""Sharded, process-parallel, memory-bounded analysis engine.

Million-event traces stress the single-process pipeline in two ways:
the event columns plus replayed invocation tables of *every* rank must
fit in memory at once, and replay/SOS run on one core.  This module
partitions a trace into contiguous rank groups ("shards") and runs the
expensive per-rank stages — event loading, stack replay, profile
statistics, segmentation, SOS accumulation — in worker processes that
each materialise **only their own ranks** (via the chunked reader,
:class:`repro.trace.reader.TraceIndex`).  Partial results are merged
into full-trace products that are *bitwise identical* to the
single-process pipeline.

Why sharded == unsharded, exactly:

* Replay, segmentation and SOS are per-rank-independent; workers run
  the very same kernels (:func:`repro.core.fused.fused_bootstrap`,
  :func:`repro.core.segments.segment_rank`,
  :func:`repro.core.sos.segment_sync_time`) on bit-identical event
  columns — the chunked reader decompresses/parses the same bytes as
  the eager one, projected down to the columns those kernels read.
* Profile statistics are *defined* as a rank-ascending merge of
  per-rank partials (:func:`repro.profiles.stats.merge_statistics_arrays`),
  so the grouping of ranks into shards cannot influence a single bit
  of the merged floats.
* Everything downstream — dominant selection, imbalance detections,
  trends, heat binning — runs in the parent on those merged products
  through the unchanged single-process code.

Workers exchange invocation tables with the parent through a *spill*
:class:`~repro.core.session.ArtifactCache` keyed by the per-rank event
digests of :mod:`repro.trace.fingerprint` — the same ``inv-{digest}``
keys the lazy session uses, so when the session has a persistent
``cache_dir`` the shard spill *is* the session cache and warm runs
replay nothing.

The worker count defaults to ``min(num_shards, cpu_count)`` and can be
pinned with the ``REPRO_SHARD_WORKERS`` environment variable (``1``
runs the shard tasks in-process, which is also how results stay
reproducible on machines without usable multiprocessing).
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..profiles.replay import REPLAY_COLUMNS, InvocationTable
from ..trace.fingerprint import fingerprint_events
from ..trace.filters import select_ranks
from ..trace.trace import Trace
from .classify import SyncClassifier
from .incremental import time_extent
from .segments import RankSegments, Segmentation, segment_rank
from .sos import RankSOS, SOSResult, segment_sync_time

__all__ = [
    "BYTES_PER_EVENT",
    "ShardBootstrap",
    "ShardEngine",
    "ShardPlan",
    "assemble_sos",
    "plan_shards",
    "shard_workers",
]

_LOG = obs.get_logger("core.shard")
#: Pending shard tasks of the in-flight pool run (telemetry only).
_G_QUEUE = obs.gauge("shard.queue_depth")

#: Estimated peak working set per event inside one worker: the seven
#: canonical event columns (~33 B/event) plus the replayed invocation
#: table (ten float64 columns over ~n/2 invocations, ~40 B/event) plus
#: decompression/parse slack.  Deliberately generous — ``--max-memory-mb``
#: is a bound, not a target.
BYTES_PER_EVENT = 160


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """Contiguous partition of a trace's ranks into shard groups."""

    groups: tuple[tuple[int, ...], ...]
    #: events per shard, aligned with ``groups``
    events: tuple[int, ...]

    @property
    def num_shards(self) -> int:
        return len(self.groups)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(r for group in self.groups for r in group)

    def max_shard_bytes(self) -> int:
        """Estimated peak working set of the largest shard."""
        return max(self.events, default=0) * BYTES_PER_EVENT

    def describe(self) -> str:
        parts = [
            f"{len(g)} ranks/{n} events" for g, n in zip(self.groups, self.events)
        ]
        return f"{self.num_shards} shards: " + ", ".join(parts)


def plan_shards(
    event_counts: dict[int, int],
    shards: int | None = None,
    max_memory_mb: float | None = None,
) -> ShardPlan:
    """Partition ranks into contiguous groups balanced by event count.

    Parameters
    ----------
    event_counts:
        ``rank -> number of events`` for every rank of the trace.
    shards:
        Requested shard count (default 1).
    max_memory_mb:
        Per-worker memory bound; raises the shard count until the
        estimated working set (``BYTES_PER_EVENT`` per event) of the
        largest shard fits, and additionally splits any group whose
        estimate still exceeds the budget (the bound then holds down
        to single-rank granularity — one rank bigger than the budget
        cannot be split further).  Both knobs may be combined — the
        larger resulting shard count wins.

    The partition is deterministic: ranks stay in ascending order and
    group boundaries fall where the cumulative event count crosses
    ``total * i / n``.
    """
    ranks = sorted(event_counts)
    if not ranks:
        raise ValueError("cannot shard a trace with no ranks")
    n = 1 if shards is None else int(shards)
    if n < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    total = sum(event_counts.values())
    if max_memory_mb is not None:
        if max_memory_mb <= 0:
            raise ValueError(f"memory bound must be > 0 MB, got {max_memory_mb}")
        budget = int(max_memory_mb * 1e6)
        needed = -(-total * BYTES_PER_EVENT // budget) if total else 1
        n = max(n, int(needed))
    n = min(n, len(ranks))

    groups: list[list[int]] = [[] for _ in range(n)]
    cum = 0
    g = 0
    for idx, rank in enumerate(ranks):
        while (
            g < n - 1
            and groups[g]
            and cum >= total * (g + 1) / n
            and len(ranks) - idx >= n - 1 - g
        ):
            g += 1
        groups[g].append(rank)
        cum += event_counts[rank]
    # Ranks may run out before groups do when counts are very skewed;
    # drop the empty tail groups rather than shipping no-op workers.
    filled = [tuple(group) for group in groups if group]
    if max_memory_mb is not None:
        # The balanced split targets equal shares, not the budget: a
        # boundary can overshoot and leave one group above the bound.
        # Greedily re-cut any such group at the budget.
        budget_events = max(int(max_memory_mb * 1e6) // BYTES_PER_EVENT, 1)
        recut: list[tuple[int, ...]] = []
        for group in filled:
            current: list[int] = []
            load = 0
            for rank in group:
                c = event_counts[rank]
                if current and load + c > budget_events:
                    recut.append(tuple(current))
                    current, load = [], 0
                current.append(rank)
                load += c
            recut.append(tuple(current))
        filled = recut
    return ShardPlan(
        groups=tuple(filled),
        events=tuple(sum(event_counts[r] for r in g) for g in filled),
    )


def shard_workers(num_shards: int) -> int:
    """Worker-process count: ``REPRO_SHARD_WORKERS`` or cpu count."""
    env = os.environ.get("REPRO_SHARD_WORKERS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_SHARD_WORKERS must be an integer, got {env!r}"
            ) from None
        if n < 1:
            raise ValueError(f"REPRO_SHARD_WORKERS must be >= 1, got {n}")
    else:
        try:
            n = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            n = os.cpu_count() or 1
    return max(1, min(n, num_shards))


# ---------------------------------------------------------------------------
# Worker functions (top-level: must be picklable by reference)
# ---------------------------------------------------------------------------


def _worker_obs_setup(payload: dict) -> bool:
    """Enable telemetry inside a worker process when the parent asks.

    Returns whether this call *owns* the collector (it enabled one) —
    in-process execution (``workers <= 1``) records straight into the
    parent's already-active collector and owns nothing.  Forked pool
    workers inherit the parent's enabled state and collector; the pid
    check spots that stale copy and replaces it with a fresh worker
    collector whose snapshot ships back with the result.

    The payload's ``obs`` value is the parent's trace context
    (:func:`repro.obs.current_context`): the worker collector inherits
    the parent's trace id, epoch and launching span, so its journals
    land on the parent's time axis in the same causal trace.  A bare
    ``True`` (pre-context payloads) still enables a detached collector.
    """
    ctx = payload.get("obs")
    if not ctx:
        return False
    col = obs.collector()
    if obs.enabled() and col is not None and col.pid == os.getpid():
        return False
    kwargs = {}
    if isinstance(ctx, dict):
        kwargs = {
            "trace_id": ctx.get("trace_id"),
            "epoch": ctx.get("epoch"),
            "parent_span": ctx.get("parent_span"),
        }
    obs.enable(
        obs.Collector(origin=f"shard-{payload.get('shard', 0)}", **kwargs)
    )
    return True


def _phase1_shard(payload: dict) -> dict:
    """Scan and, with ``replay``, replay and profile one shard's ranks.

    Runs the kernel (:class:`~repro.core.incremental.IncrementalKernel`)
    over the shard: one pass per rank batch covers the lint scan
    (``lint``: ``None`` the structural gate, ``False`` none, or a
    :class:`~repro.lint.LintConfig`), replay and the statistics
    partial.  The scan comes back unfinalised: rank-scope diagnostics,
    each rank's :class:`~repro.lint.engine.RankSummary` and, when
    hb-scope rules or ``graph`` need them, the match batches.  The
    parent finalises it once over every shard, since trace- and
    hb-scope rules need the whole trace.  When the shard reads from a
    file, the load projects to the columns the pass reads, and per-rank
    digests come from :meth:`~repro.trace.reader.TraceIndex.rank_digest`
    (byte-based for canonical binary files: no event materialisation).

    Returns per-rank event digests and statistics partials; the (much
    larger) invocation tables are spilled to the shard cache under
    their ``inv-{digest}`` keys instead of being pickled back.  When
    the payload carries ``obs``, the worker runs its own telemetry
    collector and ships its snapshot back under the ``"obs"`` key —
    the parent merges snapshots in shard order, exactly like the
    statistics partials.  A decode error names the file, as it does on
    the in-process routes.
    """
    from ..trace.reader import TraceFormatError

    owns_obs = _worker_obs_setup(payload)
    try:
        with obs.span("shard.phase1"):
            res = _phase1_shard_impl(payload)
    except TraceFormatError as err:
        err.path = err.path or payload.get("path")
        raise
    finally:
        col = obs.disable() if owns_obs else None
    if col is not None:
        res["obs"] = col.snapshot()
    return res


def _phase1_shard_impl(payload: dict) -> dict:
    from ..lint.engine import lint_columns, validate_config
    from .incremental import IncrementalKernel
    from .session import ArtifactCache, _table_to_arrays

    lint, replay, graph = payload["lint"], payload["replay"], payload["graph"]
    ranks = sorted(payload["ranks"])
    trace = payload.get("trace")
    if trace is not None:
        source = trace
        digest = lambda r: fingerprint_events(trace.events_of(r))  # noqa: E731
        batches = ((rank, ev, True) for rank, ev in trace.event_streams())
    else:
        from ..trace.reader import TraceIndex

        # Chunked, column-projected reads (one batch resident at a time
        # for v2 raw columns) and per-rank table spill the moment a
        # table exists: peak memory tracks the chunk budget, not the
        # rank group.
        source = index = TraceIndex(payload["path"])
        digest = index.rank_digest
        columns = REPLAY_COLUMNS if lint is False else lint_columns(
            validate_config() if lint is None else lint, graph=graph
        )
        batches = (
            (b.rank, b.events, b.final)
            for b in index.cursor(ranks=ranks, columns=columns,
                                  chunk_events=payload.get("chunk_events"))
        )
    digests = {r: digest(r) for r in ranks} if replay else {}

    # Spill hits skip replay entirely; the scan still covers those
    # ranks (its products are not cached), it just builds no table.
    spill = ArtifactCache(payload["spill_dir"]) if replay else None
    partials: dict[int, dict[str, np.ndarray]] = {}
    need: list[int] = []
    for rank in digests:
        cached = spill.load(f"rankstats-{digests[rank]}")
        if (
            cached is not None
            and len(cached.get("count", ())) == payload["n_regions"]
            and spill.contains(f"inv-{digests[rank]}")
        ):
            partials[rank] = cached
        else:
            need.append(rank)

    def _sink(rank: int, table) -> None:
        spill.store(f"inv-{digests[rank]}", _table_to_arrays(table))

    matches: list = []
    kernel = IncrementalKernel(
        source.regions, source.metrics, payload["num_processes"], ranks,
        lint=lint, known_ranks=frozenset(payload["known_ranks"]),
        table_ranks=need, trace_name=source.name, table_sink=_sink,
        graph=graph, match_sink=matches.append,
    )
    for rank, events, final in batches:
        kernel.feed(rank, events)
        if final:
            kernel.finish_rank(rank)
    kernel.finish()
    for rank in need:
        # A rank with an error gets no table: the parent raises, or
        # reports the scan without adopting this run.
        if rank in kernel.partials:
            partials[rank] = kernel.partials[rank]
            spill.store(f"rankstats-{digests[rank]}", partials[rank])
    return {"digests": digests, "partials": partials,
            "extents": kernel.extents, "diagnostics": kernel.diagnostics,
            "summaries": kernel.summaries, "matches": matches,
            "replayed": len(need), "reused": len(digests) - len(need)}


def _phase2_shard(payload: dict) -> dict:
    """Segment + SOS-accumulate one shard's ranks for one region.

    Reads invocation tables back from the spill (small, rank-local
    reads) and returns only the per-segment arrays — a few KB per rank
    even for million-event traces.  Telemetry travels like phase 1:
    worker snapshot under ``"obs"``, merged in shard order.
    """
    owns_obs = _worker_obs_setup(payload)
    try:
        with obs.span("shard.phase2"):
            res = _phase2_shard_impl(payload)
    finally:
        col = obs.disable() if owns_obs else None
    if col is not None:
        res["obs"] = col.snapshot()
    return res


def _phase2_shard_impl(payload: dict) -> dict:
    from .session import ArtifactCache, _table_from_arrays

    spill = ArtifactCache(payload["spill_dir"])
    region = payload["region"]
    sync_regions = payload["sync_regions"]
    out: dict[int, dict[str, np.ndarray]] = {}
    for rank in sorted(payload["ranks"]):
        arrays = spill.load(f"inv-{payload['digests'][rank]}")
        if arrays is None:
            raise RuntimeError(
                f"shard spill lost the invocation table of rank {rank}"
            )
        table = _table_from_arrays(arrays)
        seg = segment_rank(table, rank, region)
        out[rank] = {
            "t_start": seg.t_start,
            "t_stop": seg.t_stop,
            "invocation_row": seg.invocation_row,
            "sync_time": segment_sync_time(seg, table, sync_regions),
        }
    return out


def _heartbeat(phase: str, payload: dict, done: int, total: int,
               dt: float) -> None:
    """One INFO progress line per completed rank group.

    Silent at the default WARNING level; ``-v`` surfaces the shard
    engine's progress without touching stdout.
    """
    ranks = payload.get("ranks", ())
    _LOG.info(
        "%s: shard %d/%d done (ranks %s..%s, %.3fs)",
        phase, done, total,
        min(ranks, default="?"), max(ranks, default="?"), dt,
    )


def _run_shard_tasks(fn, payloads: list[dict], workers: int) -> list:
    """Run shard tasks, in-process when one worker suffices.

    Results keep payload order regardless of completion order, so the
    parent-side merges stay deterministic.  Each completion emits an
    INFO heartbeat and updates the ``shard.queue_depth`` gauge.
    """
    phase = getattr(fn, "__name__", "shard").strip("_")
    total = len(payloads)
    if workers <= 1 or total <= 1:
        results = []
        for i, p in enumerate(payloads):
            t0 = time.perf_counter()
            results.append(fn(p))
            _heartbeat(phase, p, i + 1, total, time.perf_counter() - t0)
        return results
    results = [None] * total
    with ProcessPoolExecutor(max_workers=min(workers, total)) as pool:
        t0 = time.perf_counter()
        futures = {pool.submit(fn, p): i for i, p in enumerate(payloads)}
        pending = len(futures)
        _G_QUEUE.set(pending)
        done = 0
        for fut in as_completed(futures):
            i = futures[fut]
            results[i] = fut.result()
            done += 1
            pending -= 1
            _G_QUEUE.set(pending)
            _heartbeat(
                phase, payloads[i], done, total, time.perf_counter() - t0
            )
    return results


# ---------------------------------------------------------------------------
# Parent-side merge layer
# ---------------------------------------------------------------------------


def _merge_worker_obs(res: dict) -> None:
    """Fold a worker's telemetry snapshot into the active collector.

    Called on results in shard order, so worker journals appear as
    ranks in ascending shard order in the exported self-trace — the
    same determinism rule as the statistics-partial merge.
    """
    snap = res.pop("obs", None)
    if snap is not None:
        col = obs.collector()
        if col is not None:
            col.merge(snap)


def assemble_sos(
    region: int,
    per_rank: dict[int, dict[str, np.ndarray]],
    classifier: SyncClassifier,
) -> SOSResult:
    """Union per-rank segment/SOS arrays into a full :class:`SOSResult`.

    The merge is a rank-keyed dictionary union — no arithmetic — so it
    is trivially associative, commutative and order-independent (the
    property tests in ``tests/test_shard.py`` pin this down).
    """
    segs: dict[int, RankSegments] = {}
    soss: dict[int, RankSOS] = {}
    for rank in sorted(per_rank):
        d = per_rank[rank]
        seg = RankSegments(
            rank=rank,
            t_start=d["t_start"],
            t_stop=d["t_stop"],
            invocation_row=d["invocation_row"],
        )
        duration = seg.duration
        segs[rank] = seg
        soss[rank] = RankSOS(
            rank=rank,
            duration=duration,
            sync_time=d["sync_time"],
            sos=duration - d["sync_time"],
        )
    return SOSResult(Segmentation(region, segs), soss, classifier)


@dataclass(slots=True)
class ShardBootstrap:
    """Merged phase-1 output: digests, stats partials and the scan."""

    digests: dict[int, str]
    partials: dict[int, dict[str, np.ndarray]]
    #: rank -> (n_events, first timestamp, last timestamp); lets the
    #: parent report trace totals without materialising any events
    extents: dict[int, tuple[int, float, float]]
    #: the unfinalised scan, merged in shard order: rank-scope findings
    #: (:class:`repro.lint.Diagnostic`), each rank's
    #: :class:`~repro.lint.engine.RankSummary`, and the match batches
    #: (:class:`~repro.lint.hb.MatchBatch`) when the scan extracted them
    diagnostics: list
    summaries: dict
    matches: list
    replayed: int
    reused: int

    @property
    def num_events(self) -> int:
        return sum(n for n, _, _ in self.extents.values())

    @property
    def t_min(self) -> float:
        return time_extent(self.extents)[0]

    @property
    def t_max(self) -> float:
        return time_extent(self.extents)[1]


class ShardEngine:
    """Coordinates the worker pool for one sharded analysis.

    Parameters
    ----------
    plan:
        Rank partition from :func:`plan_shards`.
    source_path:
        Trace file; workers read their ranks through the chunked
        reader.  Exactly one of ``source_path``/``trace`` is required.
    trace:
        In-memory trace; workers receive pickled per-shard sub-traces
        (this bounds cores, not memory — the parent already holds the
        full trace).
    n_regions:
        Region count of the trace's definitions (statistics width).
    spill_dir:
        Directory for the table spill.  ``None`` creates a private
        temporary directory that lives as long as the engine.
    workers:
        Worker-process count; default from :func:`shard_workers`.
    chunk_events:
        Batch size (events) of the phase-1 workers' cursor reads
        (path mode).  ``None`` reads one whole-rank batch per rank;
        a bound makes the per-worker memory budget a hard guarantee
        instead of a planning estimate.
    """

    def __init__(
        self,
        plan: ShardPlan,
        *,
        source_path: str | os.PathLike | None = None,
        trace: Trace | None = None,
        n_regions: int,
        spill_dir: str | os.PathLike | None = None,
        workers: int | None = None,
        chunk_events: int | None = None,
    ) -> None:
        if (source_path is None) == (trace is None):
            raise ValueError("pass exactly one of source_path or trace")
        if chunk_events is not None and chunk_events <= 0:
            raise ValueError(f"chunk_events must be > 0, got {chunk_events}")
        self.plan = plan
        self.source_path = os.fspath(source_path) if source_path else None
        self.trace = trace
        self.n_regions = n_regions
        self.chunk_events = chunk_events
        self.workers = (
            shard_workers(plan.num_shards) if workers is None else workers
        )
        self._tmp: tempfile.TemporaryDirectory | None = None
        if spill_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-shard-")
            spill_dir = self._tmp.name
        self.spill_dir = os.fspath(spill_dir)
        self._bootstrap: ShardBootstrap | None = None

    # -- phase 1 -------------------------------------------------------

    def _phase1_payloads(self, lint, replay: bool, graph: bool) -> list[dict]:
        known = self.plan.ranks
        payloads = []
        for shard, group in enumerate(self.plan.groups):
            payload = {
                "ranks": tuple(group),
                "known_ranks": known,
                "num_processes": len(known),
                "n_regions": self.n_regions,
                "spill_dir": self.spill_dir,
                "lint": lint,
                "replay": replay,
                "graph": graph,
                "shard": shard,
                "obs": obs.current_context(),
            }
            if self.source_path is not None:
                payload["path"] = self.source_path
                payload["chunk_events"] = self.chunk_events
            else:
                payload["trace"] = select_ranks(self.trace, group)
            payloads.append(payload)
        return payloads

    def bootstrap(
        self, lint=None, *, replay: bool = True, graph: bool = False
    ) -> ShardBootstrap:
        """Run phase 1 over every shard (:func:`_phase1_shard`).

        The workers scan their ranks with ``lint`` (``None`` the
        structural gate, ``False`` none, or a
        :class:`~repro.lint.LintConfig`) and, with ``replay``, spill
        tables and statistics partials; ``graph`` has them extract
        match records for every rank.  Their unfinalised scans merge
        in shard order.  Phase 2 and :meth:`load_table` read the spill
        of the last replaying run.
        """
        results = _run_shard_tasks(
            _phase1_shard, self._phase1_payloads(lint, replay, graph),
            self.workers,
        )
        boot = ShardBootstrap({}, {}, {}, [], {}, [], 0, 0)
        for res in results:
            _merge_worker_obs(res)
            boot.digests.update(res["digests"])
            boot.partials.update(res["partials"])
            boot.extents.update(res["extents"])
            boot.diagnostics.extend(res["diagnostics"])
            boot.summaries.update(res["summaries"])
            boot.matches.extend(res["matches"])
            boot.replayed += res["replayed"]
            boot.reused += res["reused"]
        if replay:
            self._bootstrap = boot
        return boot

    def _replayed(self) -> ShardBootstrap:
        """The last replaying phase-1 run; the structural gate's when
        none has run yet."""
        return self._bootstrap or self.bootstrap()

    # -- phase 2 -------------------------------------------------------

    def sos_arrays(
        self, region: int, sync_regions: np.ndarray
    ) -> dict[int, dict[str, np.ndarray]]:
        """Per-rank segment/sync arrays for ``region`` across all shards."""
        boot = self._replayed()
        payloads = [
            {
                "ranks": tuple(group),
                "digests": {r: boot.digests[r] for r in group},
                "region": int(region),
                "sync_regions": np.asarray(sync_regions),
                "spill_dir": self.spill_dir,
                "shard": shard,
                "obs": obs.current_context(),
            }
            for shard, group in enumerate(self.plan.groups)
        ]
        merged: dict[int, dict[str, np.ndarray]] = {}
        for res in _run_shard_tasks(_phase2_shard, payloads, self.workers):
            _merge_worker_obs(res)
            merged.update(res)
        return merged

    # -- spill access ---------------------------------------------------

    def load_table(self, rank: int) -> InvocationTable:
        """One rank's replayed invocation table, read from the spill."""
        from .session import ArtifactCache, _table_from_arrays

        boot = self._replayed()
        if rank not in boot.digests:
            raise KeyError(f"rank {rank} is not part of this shard plan")
        arrays = ArtifactCache(self.spill_dir).load(f"inv-{boot.digests[rank]}")
        if arrays is None:
            raise RuntimeError(
                f"shard spill lost the invocation table of rank {rank}"
            )
        return _table_from_arrays(arrays)
