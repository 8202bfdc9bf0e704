"""The rank-batched analysis kernel.

One kernel fuses validation, replay and statistics aggregation into
one pass: :class:`IncrementalKernel` takes each rank's whole event
stream in one call (:meth:`~IncrementalKernel.add_rank`) and runs the
ranks in batches.  Its one driver is
:func:`~repro.core.fused.fused_bootstrap`, over a trace's
:meth:`~repro.trace.trace.Trace.event_streams`: for a session's own
file each rank is decoded from the file's cursor as it is reached,
for the whole trace or for a shard's rank group.  A shard's kernel
hands back its part of the pass unfinalised; the parent's kernel
absorbs the parts in shard order (:meth:`~IncrementalKernel.absorb`)
and finalises the scan once.

Rank batches
------------

Added ranks join a pending batch, which runs once it holds
:data:`_BATCH_EVENTS` events (and at :meth:`IncrementalKernel.finalize`).
One batch is one pass over its ranks' joined columns: the lint view
(:class:`~repro.lint.engine.BatchView`, whose
:func:`~repro.profiles.replay.pair_events` pairing replay reuses), the
tables (:func:`~repro.profiles.replay.table_from_pairing`), the
statistics partials
(:func:`~repro.profiles.stats.batch_statistics_arrays`) and the match
records — NumPy calls per batch, not per rank.

Identity guarantee
------------------

Every product is split back per rank and is **bitwise identical** to
processing the rank alone: depth resets at rank boundaries, and every
sum accumulates per (rank, region) key in the same row order.  So the
batch size changes nothing but speed; ``tests/test_differential.py``
locks the identity across batch sizes, shard counts and file formats.

Memory
------

When the driver decodes ranks on demand (a session's file), peak
event memory is bounded by max(largest rank, :data:`_BATCH_EVENTS`
events) plus the batch's transients, **not** the trace: a rank larger
than the constant runs as a batch of its own, a batch of one rank
reads its columns as they are (no copy), and a batch's columns are
dropped as soon as it has run.  ``table_sink`` lets callers spill each
rank's invocation table the moment it exists (the shard workers do),
which keeps resident state to the per-region statistics partials — a
few KiB per rank.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Literal

import numpy as np

from .. import obs
from .._record import field, record
from ..profiles.replay import InvocationTable, pair_events, table_from_pairing
from ..profiles.stats import batch_statistics_arrays
from ..trace.cursor import BATCH_EVENTS
from ..trace.definitions import MetricRegistry, RegionRegistry
from ..trace.events import _DTYPES, _FIELDS, EventList
from ..trace.trace import time_extent

if TYPE_CHECKING:
    from ..lint.hb import MatchBatch, MatchGraph
    from ..lint.model import LintConfig, LintReport

__all__ = ["FusedBootstrap", "IncrementalKernel"]

#: Events a pending batch gathers before it runs (module-level so tests
#: can shrink it to one-rank batches).
_BATCH_EVENTS = BATCH_EVENTS

#: Events pushed through the fused pass (telemetry).
_C_EVENTS = obs.counter("analysis.events")


@record
class FusedBootstrap:
    """Products of one fused pass over a trace, or over a shard of it.

    ``tables`` is keyed by rank and only contains ranks whose streams
    were clean enough to replay (on an invalid trace the caller raises
    from ``report`` before touching the tables); ``partials`` holds the
    matching :func:`~repro.profiles.stats.rank_statistics_arrays`
    outputs, ready for rank-ascending merging.  Ranks handed to a
    ``table_sink`` do not appear in ``tables``.  ``report`` holds the
    findings of the ``lint`` config the ranks were scanned with
    (``None`` with ``lint=False``, and in a shard's unfinalised part).
    ``extents`` maps each added, non-empty rank to ``(n_events,
    t_first, t_last)``, in the order the ranks were added.
    """

    tables: dict[int, InvocationTable]
    partials: dict[int, dict[str, np.ndarray]]
    report: LintReport | None
    extents: dict[int, tuple[int, float, float]]
    #: the scan's match graph, when hb-scope rules or ``graph`` asked
    #: for one
    graph: MatchGraph | None = None
    #: the scan before finalisation: rank-scope findings, each rank's
    #: :class:`~repro.lint.engine.RankSummary`, and the match batches
    #: a worker extracted for the parent's graph
    diagnostics: list = field(default_factory=list)
    summaries: dict = field(default_factory=dict)
    matches: list = field(default_factory=list)

    @property
    def extent(self) -> tuple[float, float]:
        """``(t_min, t_max)`` of the added events (:func:`time_extent`)."""
        return time_extent(self.extents)


class _JoinedEvents:
    """Event columns of a batch's ranks, joined on first access; a
    batch of one rank uses its columns as they are.

    A batch reads only the columns its scan needs; a column a
    projected load left out stays a placeholder and fails on use.
    """

    def __init__(self, streams: list[EventList]) -> None:
        self._streams = streams

    def __getattr__(self, name: str):
        if name not in _FIELDS:
            raise AttributeError(name)
        cols = [getattr(s, name) for s in self._streams]
        if len(cols) == 1:
            col = cols[0]
        else:
            col = np.concatenate(cols) if cols else np.empty(0, _DTYPES[name])
        setattr(self, name, col)
        return col


class IncrementalKernel:
    """Lint scan + replay + stats over ranks added one at a time.

    Parameters mirror :func:`~repro.core.fused.fused_bootstrap`:
    ``ranks`` is the universe of ranks the pass covers (every one is
    finalised, fed or not), ``lint`` the config every rank is scanned
    with, ``known_ranks`` overrides the rank set the lint rules
    consider defined (shard workers scan a subgroup of a larger
    trace), ``table_ranks`` restricts table/partial construction, and
    ``table_sink(rank, table)`` — when given — receives each
    invocation table instead of it being retained in the result.
    ``num_events`` bounds the events the pass will be fed, when known
    up front.

    Tables come from the scan's pairing only when ``lint`` gates
    replay (:func:`~repro.lint.engine.gates_replay`), and only for
    ranks without an error.  With hb-scope rules enabled, or with
    ``graph``, each batch's message rows go straight into one
    :class:`~repro.lint.hb.MatchGraphWriter`, sized once from
    ``num_events`` (no pass has more SEND or RECV rows than events;
    rows never written stay unbacked pages), or else grown as the
    batches' rows arrive; ``match_sink`` receives each batch's
    :class:`~repro.lint.hb.MatchBatch` instead.

    Protocol: one :meth:`add_rank` call per rank with its whole
    stream, or :meth:`absorb` of ranks another kernel ran;
    :meth:`finish` adds every rank not seen as empty, runs the last
    batch and returns the pass's products with the scan unfinalised
    (a shard's part of a trace);
    :meth:`finalize` does that, runs the trace- and hb-scope rules and
    returns the :class:`FusedBootstrap` with its report.
    """

    def __init__(
        self,
        regions: RegionRegistry,
        metrics: MetricRegistry,
        num_processes: int,
        ranks: Iterable[int],
        *,
        lint: LintConfig | None | Literal[False] = None,
        known_ranks=None,
        table_ranks=None,
        trace_name: str = "trace",
        table_sink: Callable[[int, InvocationTable], None] | None = None,
        num_events: int | None = None,
        graph: bool = False,
        match_sink: Callable[[MatchBatch], None] | None = None,
    ) -> None:
        self._n_regions = len(regions)
        self._ranks = list(ranks)
        self._trace_name = trace_name
        self._table_sink = table_sink
        self._wanted = (
            set(self._ranks) if table_ranks is None else set(table_ranks)
        )
        self.tables: dict[int, InvocationTable] = {}
        self.partials: dict[int, dict[str, np.ndarray]] = {}
        #: ``rank -> (n_events, t_first, t_last)`` for added,
        #: non-empty ranks (the shard workers' extent bookkeeping).
        self.extents: dict[int, tuple[int, float, float]] = {}
        self._finished: set[int] = set()
        #: added ranks waiting for their batch: rank, events, count
        self._pending: list[tuple[int, EventList, int]] = []
        self._pending_events = 0
        #: the scan's rank-scope findings and per-rank summaries
        self.diagnostics: list = []
        self.summaries: dict[int, object] = {}
        self._shared = None
        self._writer = None  # MatchGraphWriter the scan builds itself
        self.match_sink = None
        if lint is False:
            return
        from ..lint.engine import LintShared, gates_replay, hb_rules_enabled, validate_config

        config = validate_config() if lint is None else lint
        self._shared = LintShared.from_definitions(
            regions,
            metrics,
            num_processes,
            self._ranks if known_ranks is None else known_ranks,
            config,
        )
        if not gates_replay(config):
            self._wanted = set()
        if not (graph or hb_rules_enabled(config)):
            return
        if match_sink is None:
            from ..lint.hb import MatchGraphWriter

            self._writer = MatchGraphWriter(num_processes)
            if num_events is not None:
                self._writer.reserve(num_events, num_events)
            match_sink = self._writer.add
        self.match_sink = match_sink

    # -- feeding -------------------------------------------------------

    def add_rank(self, rank: int, events: EventList) -> None:
        """Take ``rank``'s whole stream: it joins the pending batch,
        which runs once it holds :data:`_BATCH_EVENTS` events."""
        if rank in self._finished:
            raise ValueError(f"rank {rank} is already finalized")
        self._finished.add(rank)
        n = len(events)
        if n:
            self.extents[rank] = (n, float(events.time[0]), float(events.time[-1]))
        if self._shared is None and rank not in self._wanted:
            return
        if n > _BATCH_EVENTS:
            self._run_batch()  # a rank this large is a batch of its own
        self._pending.append((rank, events, n))
        self._pending_events += n
        if self._pending_events >= _BATCH_EVENTS:
            self._run_batch()

    def _run_batch(self) -> None:
        """Scan, replay and aggregate the pending ranks in one pass."""
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self._pending_events = 0
        ranks = [rank for rank, _, _ in batch]
        starts = np.zeros(len(batch) + 1, dtype=np.int64)
        np.cumsum([n for _, _, n in batch], out=starts[1:])
        events = _JoinedEvents([ev for _, ev, n in batch if n])
        with obs.span("fused.batch"):
            _C_EVENTS.add(int(starts[-1]))
            if self._shared is None:
                pairing = pair_events(events.time, events.kind, starts)
                self._emit(ranks, pairing, events, range(len(ranks)))
                return
            self._scan(ranks, events, starts)

    def _scan(self, ranks: list[int], events, starts: np.ndarray) -> None:
        from ..lint.engine import BatchView, scan_batch
        from ..lint.model import Severity

        view = BatchView(self._shared, ranks, events, starts)
        diags, summaries = scan_batch(view)
        self.diagnostics.extend(diags)
        self.summaries.update(summaries)
        if self.match_sink is not None:
            from ..lint.hb import extract_match_records

            self.match_sink(extract_match_records(view))
        # Broken streams make the caller raise from the report, so they
        # get no table (building one could legitimately fail on the
        # very defect just diagnosed).  A stream with no ENTER/LEAVE
        # events at all (p2p or metric only, or empty under
        # allow_empty_streams) is *not* broken — replay of it is
        # well-defined and yields an empty table.
        broken = {d.rank for d in diags if d.severity >= Severity.ERROR}
        p = view.pairing
        del view  # its frame arrays can go before the tables are built
        unpaired = ~p.balanced & (np.diff(p.el_starts) > 0)
        slots = [
            slot
            for slot, rank in enumerate(ranks)
            if rank in self._wanted and rank not in broken and not unpaired[slot]
        ]
        if slots:
            self._emit(ranks, p, events, slots)

    def _emit(self, ranks, pairing, events, slots) -> None:
        """Tables and statistics partials of the batch's ``slots``."""
        built = table_from_pairing(pairing, events.time, events.ref)
        tables = built.split(slots)
        if len(tables) == len(ranks):
            partials = batch_statistics_arrays(
                built.table, built.frame_starts, self._n_regions
            )
        else:
            # Other ranks' rows may carry the very references that
            # broke them; aggregate the wanted rows only.
            rows = np.concatenate(
                [np.arange(*built.frame_starts[s:s + 2]) for s in slots]
            ).astype(np.int64)
            bounds = np.zeros(len(slots) + 1, dtype=np.int64)
            np.cumsum([len(t) for t in tables], out=bounds[1:])
            partials = batch_statistics_arrays(
                built.table.rows(rows), bounds, self._n_regions
            )
        for slot, table, partial in zip(slots, tables, partials):
            rank = ranks[slot]
            self.partials[rank] = partial
            if self._table_sink is not None:
                self._table_sink(rank, table)
            else:
                self.tables[rank] = table

    # -- completion ----------------------------------------------------

    def absorb(self, ranks, part: FusedBootstrap) -> None:
        """Take ``ranks`` as finished by another kernel, whose
        :meth:`finish` returned ``part`` (a shard's pass over them):
        its products and unfinalised scan join this pass."""
        self._finished.update(ranks)
        self.tables.update(part.tables)
        self.partials.update(part.partials)
        self.extents.update(part.extents)
        self.diagnostics.extend(part.diagnostics)
        self.summaries.update(part.summaries)
        for batch in part.matches:
            self.match_sink(batch)

    def finish(self) -> FusedBootstrap:
        """Add every rank not seen as empty and run the last batch;
        the products, with the scan unfinalised."""
        for rank in self._ranks:
            if rank not in self._finished:
                self.add_rank(rank, EventList.empty())
        self._run_batch()
        return FusedBootstrap(
            self.tables, self.partials, None, self.extents,
            diagnostics=self.diagnostics, summaries=self.summaries,
        )

    def finalize(self) -> FusedBootstrap:
        """:meth:`finish`, then run the trace- and hb-scope rules and
        assemble the report."""
        boot = self.finish()
        if self._shared is None:
            return boot
        from ..lint.engine import finalize_report

        boot.graph = None if self._writer is None else self._writer.finish()
        boot.report = finalize_report(
            self._shared, self.diagnostics, self.summaries,
            trace_name=self._trace_name, match_records=boot.graph,
        )
        return boot
