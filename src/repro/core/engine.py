"""The shard engine: every session's kernel passes and SOS-times.

Every :class:`~repro.core.session.AnalysisSession` runs its per-rank
stages — event loading, stack replay, profile statistics,
segmentation, SOS accumulation — through :class:`ShardEngine`, which
partitions the trace's ranks into contiguous groups ("shards") and
runs each phase per shard.  A session without ``shards`` or
``max_memory_mb`` is one shard of every rank, run in process, whose
invocation tables stay in memory.  With more shards (and more than one
worker) each phase runs in worker processes (:mod:`repro.core.shard`)
that each decode **only their own ranks** from the file, through the
chunked reader (:class:`repro.trace.reader.TraceIndex`); with several
workers or a memory bound, tables spill to disk and load back one shard
at a time.  Partial results merge into full-trace products that are
*bitwise identical* whatever the plan.

Why sharded == unsharded, exactly:

* Replay, segmentation and SOS are per-rank-independent; every shard
  runs the very same kernels (:func:`repro.core.fused.fused_bootstrap`,
  :func:`repro.core.segments.segment_trace`,
  :func:`repro.core.sos.compute_sos`) on bit-identical event columns.
* Profile statistics are *defined* as a rank-ascending merge of
  per-rank partials (:func:`repro.profiles.stats.merge_statistics_arrays`),
  so the grouping of ranks into shards cannot influence a single bit
  of the merged floats.
* The scan's rank-scope findings and summaries merge in shard order,
  and its trace- and hb-scope rules run once, in the parent.
* Everything downstream — dominant selection, imbalance detections,
  trends, heat binning — runs in the parent on those merged products.

Spilled tables go to the session's :class:`~repro.core.session.ArtifactCache`
under the per-rank ``inv-{digest}`` keys of :mod:`repro.trace.fingerprint`
(the keys an in-memory session's cache holds too, so warm runs replay
nothing), or to a private temporary directory without a cache.
"""

from __future__ import annotations

import time

from .. import obs
from .._record import record
from ..profiles.replay import InvocationTable
from ..trace.trace import Trace
from .classify import SyncClassifier
from .incremental import FusedBootstrap
from .segments import Segmentation
from .session import ArtifactCache, _PathTrace, _table_from_arrays, _table_to_arrays
from .sos import SOSResult

__all__ = [
    "BYTES_PER_EVENT",
    "ShardEngine",
    "ShardPlan",
    "TableStore",
    "merge_sos",
    "plan_shards",
]

#: Estimated peak working set per event of one shard: the seven
#: canonical event columns (~33 B/event) plus the replayed invocation
#: table (ten float64 columns over ~n/2 invocations, ~40 B/event) plus
#: decompression/parse slack.  Deliberately generous — ``--max-memory-mb``
#: is a bound, not a target.
BYTES_PER_EVENT = 160


@record(frozen=True, slots=True)
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
        if not (max_memory_mb < float("inf") and int(max_memory_mb * 1e6) > 0):
            raise ValueError(
                f"memory bound must be finite and >= 1 byte, got {max_memory_mb} MB"
            )
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


def _phase1(payload: dict) -> FusedBootstrap:
    """Scan and replay one shard's ranks: phase 1.

    A kernel over the shard's rank group runs
    :func:`~repro.core.fused.fused_bootstrap` over the group's
    :meth:`~repro.trace.trace.Trace.event_streams` (a session's own
    file, reopened by path in a worker, each rank whole with every
    column decoded): the lint scan, replay and the statistics partials
    in one pass.  Its tables go to the payload's store, its
    match batches to the parent's graph (in process) or back with the
    result, and the result is its
    :meth:`~repro.core.incremental.IncrementalKernel.finish`: the scan
    unfinalised, since trace- and hb-scope rules need the whole trace.
    """
    from .fused import fused_bootstrap

    trace, group, known = payload["trace"], payload["ranks"], payload["known"]
    matches: list = []
    part = fused_bootstrap(
        trace, ranks=group,
        lint=payload["lint"], table_ranks=payload["table_ranks"],
        graph=payload["graph"], finalize=False,
        num_processes=len(known), known_ranks=known,
        table_sink=payload["store"].put,
        match_sink=payload.get("match_sink", matches.append),
    )
    part.matches = matches
    return part


def _phase2(payload: dict) -> SOSResult:
    """Segment + SOS-accumulate one shard's ranks for one region.

    :func:`~repro.core.segments.segment_trace` and
    :func:`~repro.core.sos.compute_sos` over the shard's tables, read
    from the store (small, rank-local reads when they spilled); the
    result holds only per-segment arrays — a few KB per rank even for
    million-event traces.
    """
    from .segments import segment_trace
    from .sos import compute_sos

    store = payload["store"]
    tables = {rank: store.get(rank) for rank in payload["ranks"]}
    lost = sorted(rank for rank, table in tables.items() if table is None)
    if lost:
        raise RuntimeError(f"shard spill lost the invocation tables of ranks {lost}")
    segmentation = segment_trace(tables, payload["region"])
    return compute_sos(payload["trace"], segmentation, tables, payload["classifier"])


def _heartbeat(phase: str, payload: dict, done: int, total: int,
               dt: float) -> None:
    """One INFO progress line per completed rank group.

    Silent at the default WARNING level; ``-v`` surfaces the shard
    engine's progress without touching stdout.
    """
    ranks = payload.get("ranks", ())
    obs.get_logger("core.shard").info(
        "%s: shard %d/%d done (ranks %s..%s, %.3fs)",
        phase, done, total,
        min(ranks, default="?"), max(ranks, default="?"), dt,
    )


def _run_shard_tasks(fn, payloads: list[dict], workers: int) -> list:
    """``fn`` over every payload, results in payload order: in process
    with one worker, else in a pool of ``workers`` processes
    (:func:`repro.core.shard.run_pool`).  With more than one shard,
    each completion emits an INFO heartbeat."""
    total = len(payloads)
    if workers > 1:
        from .shard import run_pool

        return run_pool(fn, payloads, workers)
    phase = fn.__name__.strip("_")
    results = []
    t0 = time.perf_counter()
    for i, payload in enumerate(payloads):
        with obs.span(f"shard.{phase}"):
            results.append(fn(payload))
        if total > 1:
            _heartbeat(phase, payload, i + 1, total, time.perf_counter() - t0)
    return results


def merge_sos(
    region: int, parts: list[SOSResult], classifier: SyncClassifier
) -> SOSResult:
    """Union the shards' SOS results into the whole trace's.

    The merge is a rank-keyed dictionary union — no arithmetic — so it
    is trivially associative, commutative and order-independent (the
    property tests in ``tests/test_shard.py`` pin this down).
    """
    if len(parts) == 1:
        return parts[0]
    segments, per_rank = {}, {}
    for part in parts:
        segments.update(part.segmentation.per_rank)
        per_rank.update(part.per_rank)
    return SOSResult(Segmentation(region, segments), per_rank, classifier)


class TableStore:
    """Where a pass puts its invocation tables, and reads them back.

    ``keep`` holds them in memory (``tables``); a ``cache`` persists
    them under the artifact names ``key(rank)``, which is how a worker's
    tables reach the parent and a later session's replay becomes a load.
    A store with both keeps what it loads.
    """

    def __init__(self, cache: ArtifactCache | None, key, keep: bool) -> None:
        self.cache = cache
        self.key = key
        self.tables: dict[int, InvocationTable] | None = {} if keep else None
        #: tables read back from ``cache`` so far
        self.loads = 0
        #: ranks whose table :meth:`has` found readable, or :meth:`put`
        self._readable: set[int] = set()

    def part(self, ranks) -> "TableStore":
        """A picklable store over the same cache for a worker's ``ranks``."""
        return TableStore(self.cache, {r: self.key(r) for r in ranks}.__getitem__, False)

    def put(self, rank: int, table: InvocationTable) -> None:
        if self.tables is not None:
            self.tables[rank] = table
        if self.cache is not None:
            self.cache.store(self.key(rank), _table_to_arrays(table))
        self._readable.add(rank)

    def _arrays(self, rank: int) -> dict | None:
        arrays = None if self.cache is None else self.cache.load(self.key(rank))
        return arrays if arrays is not None and "table" in arrays else None

    def has(self, rank: int) -> bool:
        """Whether :meth:`get` can return ``rank``'s table.

        A corrupt or truncated artifact is a miss, so each artifact is
        read once to check it: a store that keeps tables keeps the one
        it read, one that spills drops it again.
        """
        if rank not in self._readable:
            if self.tables is not None:
                found = self.get(rank) is not None
            else:
                found = self._arrays(rank) is not None
            if not found:
                return False
            self._readable.add(rank)
        return True

    def get(self, rank: int) -> InvocationTable | None:
        """The table of ``rank``, or None when the store has none."""
        if self.tables is not None and rank in self.tables:
            return self.tables[rank]
        arrays = self._arrays(rank)
        if arrays is None:
            return None
        self.loads += 1
        table = _table_from_arrays(arrays)
        if self.tables is not None:
            self.tables[rank] = table
        return table


class ShardEngine:
    """Runs a session's kernel passes and SOS computations over a plan.

    Parameters
    ----------
    plan:
        Rank partition from :func:`plan_shards`.
    trace:
        The session's trace: its own file (a worker reopens it by path
        and reads only its ranks) or a trace in memory (a worker
        receives its ranks pickled; this bounds cores, not memory).
    cache, key:
        The session's artifact cache and the name of a rank's table in
        it (``key(rank)``).
    spill:
        Keep no table in memory (a memory bound asks for it): they go
        to ``cache`` or, without one, to a private temporary directory
        that lives as long as the engine.  A plan run in more than one
        worker spills too, since its tables reach the parent through
        those files.  Otherwise tables stay in memory, and are also
        written to ``cache`` when there is one.
    """

    def __init__(
        self,
        plan: ShardPlan,
        trace: Trace,
        *,
        cache: ArtifactCache | None = None,
        key=None,
        spill: bool = False,
    ) -> None:
        self.plan = plan
        self.trace = trace
        #: worker processes (:func:`~repro.core.shard.shard_workers`);
        #: with one (always for a plan of one shard) tasks run in process
        self.workers = 1
        if plan.num_shards > 1:
            from .shard import shard_workers

            self.workers = shard_workers(plan.num_shards)
        spill = spill or self.workers > 1
        self._tmp = None
        if spill and cache is None:
            import tempfile

            self._tmp = tempfile.TemporaryDirectory(prefix="repro-shard-")
            cache, key = ArtifactCache(self._tmp.name), "table-{}".format
        self.store = TableStore(cache, key, keep=not spill)

    def _payloads(self, events: bool, **common) -> list[dict]:
        """One payload per shard: the shard's trace and table store as
        its task sees them (picklable ones for the pool).  A worker
        over a trace in memory receives its ranks' events pickled when
        the task reads ``events``, else only the trace's definitions."""
        payloads = []
        definitions = None
        for shard, group in enumerate(self.plan.groups):
            trace, store = self.trace, self.store
            if self.workers > 1:
                if not isinstance(trace, _PathTrace):
                    from ..trace.filters import select_ranks

                    if definitions is None:
                        definitions = select_ranks(trace, ())
                    trace = select_ranks(trace, group) if events else definitions
                store = store.part(group)
            payloads.append({
                "trace": trace, "store": store, "ranks": group,
                "shard": shard, "obs": obs.current_context(), **common,
            })
        return payloads

    def bootstrap(self, lint=None, *, table_ranks=None, graph: bool = False) -> FusedBootstrap:
        """One kernel pass over every shard (:func:`_phase1`).

        The shards scan their ranks with ``lint`` (``None`` the
        structural gate, ``False`` none, or a
        :class:`~repro.lint.LintConfig`) and replay ``table_ranks``
        (``None`` all, ``()`` none) into the store; ``graph`` has them
        extract match records for every rank.  A parent kernel over the
        whole trace absorbs their unfinalised parts in shard order and
        finalises the scan: the match graph's columns are sized once
        from the trace's event count, and shards in process write their
        match records straight into them.
        """
        from .fused import kernel_for

        kernel = kernel_for(self.trace, lint=lint, table_ranks=table_ranks, graph=graph)
        common = dict(
            known=self.plan.ranks, lint=lint, table_ranks=table_ranks,
            graph=graph,
        )
        if self.workers == 1 and kernel.match_sink is not None:
            common["match_sink"] = kernel.match_sink
        parts = _run_shard_tasks(_phase1, self._payloads(True, **common), self.workers)
        for group, part in zip(self.plan.groups, parts):
            kernel.absorb(group, part)
        return kernel.finalize()

    def sos(self, region: int, classifier: SyncClassifier) -> SOSResult:
        """SOS-times of ``region``'s segments: :func:`_phase2` per shard
        over the tables in the store, merged (:func:`merge_sos`)."""
        payloads = self._payloads(False, region=int(region), classifier=classifier)
        return merge_sos(
            region, _run_shard_tasks(_phase2, payloads, self.workers), classifier
        )
