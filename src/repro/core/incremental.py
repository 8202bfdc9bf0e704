"""Incremental (cursor-driven) analysis kernel.

:func:`~repro.core.fused.fused_bootstrap` fuses validation, replay and
statistics aggregation into one pass per rank, but it consumes a fully
materialised :class:`~repro.trace.trace.Trace`.  This module is the
same kernel turned inside out: :class:`IncrementalKernel` *accepts*
event chunks per rank (from any :class:`~repro.trace.cursor.EventCursor`)
and finalises each rank when its stream ends, so the batch path becomes
"streaming over a finished file" and a live feed is just another
producer.

Identity guarantee
------------------

On a completed trace the kernel's products are **bitwise identical**
to ``fused_bootstrap``: when a rank finishes, its buffered chunks are
assembled into the exact column arrays the batch path would have
loaded and run through the very same code
(:class:`~repro.lint.engine.RankView` → ``scan_view`` →
:func:`~repro.profiles.replay.table_from_pairing` →
:func:`~repro.profiles.stats.rank_statistics_arrays`).  There is no
re-implementation to drift; ``tests/test_differential.py`` locks the
identity across chunk sizes, shard counts and file formats.

Memory
------

Peak memory is bounded by the largest single rank (plus one transient
copy while chunks are joined), **not** the trace: a rank's buffers are
dropped as soon as it is finalised.  ``table_sink`` lets callers spill
each rank's invocation table the moment it exists (the shard workers
do), which keeps resident state to the per-region statistics partials —
a few KiB per rank.  Chunk-granular replay would not improve on this
asymptotically: the invocation table itself is Θ(events).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Literal

import numpy as np

from .. import obs
from ..profiles.replay import InvocationTable, match_invocations, table_from_pairing
from ..profiles.stats import rank_statistics_arrays
from ..trace.cursor import EventCursor
from ..trace.definitions import MetricRegistry, RegionRegistry
from ..trace.events import EventKind, EventList

if TYPE_CHECKING:
    from ..lint.model import LintConfig, LintReport

__all__ = ["FusedBootstrap", "IncrementalKernel", "incremental_bootstrap"]

#: Events pushed through the fused per-rank pass (telemetry).
_C_EVENTS = obs.counter("analysis.events")
_SEND = np.uint8(EventKind.SEND)
_RECV = np.uint8(EventKind.RECV)


@dataclass
class FusedBootstrap:
    """Products of one fused pass over a trace.

    ``tables`` is keyed by rank and only contains ranks whose streams
    were clean enough to replay (on an invalid trace the caller raises
    from ``report`` before touching the tables); ``partials`` holds the
    matching :func:`~repro.profiles.stats.rank_statistics_arrays`
    outputs, ready for rank-ascending merging.  Ranks handed to a
    ``table_sink`` do not appear in ``tables``.  ``report`` holds the
    findings of the ``lint`` config the ranks were scanned with
    (``None`` with ``lint=False``).
    """

    tables: dict[int, InvocationTable]
    partials: dict[int, dict[str, np.ndarray]]
    report: LintReport | None


def _concat_chunks(chunks: list[EventList]) -> EventList:
    """Join buffered chunks into the rank's full event list.

    Single-chunk ranks pass through without copying.  The joined
    columns are value-identical to a whole-rank load, so everything
    computed from them is bitwise equal to the batch path.
    """
    if not chunks:
        return EventList.empty()
    if len(chunks) == 1:
        return chunks[0]
    from ..trace.events import _FIELDS

    loaded = chunks[0].loaded_columns
    arrays = {
        col: np.concatenate([getattr(c, col) for c in chunks])
        for col in loaded
    }
    if len(loaded) == len(_FIELDS):
        return EventList(*(arrays[col] for col in _FIELDS))
    return EventList.projected(arrays)


class IncrementalKernel:
    """Per-rank lint scan + replay + stats over incrementally fed chunks.

    Parameters mirror :func:`~repro.core.fused.fused_bootstrap`:
    ``ranks`` is the universe of ranks the pass covers (every one is
    finalised, fed or not), ``lint`` the config every rank's view is
    scanned with, ``known_ranks`` overrides the rank set the lint
    rules consider defined (shard workers scan a subgroup of a larger
    trace), ``table_ranks`` restricts table/partial construction, and
    ``table_sink(rank, table)`` — when given — receives each
    invocation table instead of it being retained in the result.

    Tables come from the scan's pairing only when ``lint`` gates
    replay (:func:`~repro.lint.engine.gates_replay`), and only for
    ranks without an error.  With hb-scope rules enabled, each rank's
    message rows go straight into one
    :class:`~repro.lint.hb.MatchGraphWriter`, sized from the SEND/RECV
    counts fed so far.

    Protocol: any number of :meth:`feed` calls per rank (chunks in
    time order), then :meth:`finish_rank` once; :meth:`finalize`
    finishes whatever is still open and returns the
    :class:`FusedBootstrap`.
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
        #: ``rank -> (n_events, t_first, t_last)`` for finished,
        #: non-empty ranks (the shard workers' extent bookkeeping).
        self.extents: dict[int, tuple[int, float, float]] = {}
        self._buffers: dict[int, list[EventList]] = {}
        self._last_time: dict[int, float] = {}
        self._finished: set[int] = set()
        self._diags: list = []
        self._summaries: dict[int, object] = {}
        self._shared = None
        self._graph = None  # MatchGraphWriter when hb-scope rules run
        #: SEND and RECV events fed so far (sizes ``_graph``)
        self._messages = [0, 0]
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
        if hb_rules_enabled(config):
            from ..lint.hb import MatchGraphWriter

            self._graph = MatchGraphWriter(num_processes)

    # -- feeding -------------------------------------------------------

    def feed(self, rank: int, events: EventList) -> None:
        """Buffer one time-ordered chunk of ``rank``'s stream."""
        if rank in self._finished:
            raise ValueError(f"rank {rank} is already finalized")
        n = len(events)
        if n == 0:
            return
        t0 = float(events.time[0])
        last = self._last_time.get(rank)
        if last is not None and t0 < last:
            from .streaming import StreamOrderError

            raise StreamOrderError(rank, t0, last)
        self._last_time[rank] = float(events.time[-1])
        self._buffers.setdefault(rank, []).append(events)
        if self._graph is not None:
            self._messages[0] += int(np.count_nonzero(events.kind == _SEND))
            self._messages[1] += int(np.count_nonzero(events.kind == _RECV))

    def finish_rank(self, rank: int) -> None:
        """Finalise ``rank``: validate, replay, aggregate, drop buffers."""
        if rank in self._finished:
            return
        self._finished.add(rank)
        events = _concat_chunks(self._buffers.pop(rank, []))
        self._last_time.pop(rank, None)
        if len(events):
            self.extents[rank] = (
                len(events),
                float(events.time[0]),
                float(events.time[-1]),
            )
        if self._shared is None:
            if rank not in self._wanted:
                return
            with obs.span("fused.rank"):
                _C_EVENTS.add(len(events))
                self._emit(rank, match_invocations(events))
            return
        from ..lint.engine import RankView, scan_view
        from ..lint.model import Severity

        with obs.span("fused.rank"):
            _C_EVENTS.add(len(events))
            view = RankView(self._shared, rank, events)
            rank_diags, summary = scan_view(view)
            self._diags.extend(rank_diags)
            self._summaries[rank] = summary
            if self._graph is not None:
                from ..lint.hb import extract_match_records

                self._graph.reserve(*self._messages)
                self._graph.add(extract_match_records(view))
            if (
                any(d.severity >= Severity.ERROR for d in rank_diags)
                or (len(view.el_idx) and not view.balanced)
                or rank not in self._wanted
            ):
                # Broken stream: the report makes the caller raise, so
                # there is no table to build (and building one could
                # legitimately fail on the very defect just diagnosed).
                # A stream with no ENTER/LEAVE events at all (p2p or
                # metric only, or empty under allow_empty_streams) is
                # *not* broken — replay of it is well-defined and
                # yields an empty table, as in ``match_invocations``.
                return
            table = table_from_pairing(
                events, view.el_idx, view.enter_pos, view.leave_pos,
                view.depth_after
            )
            self._emit(rank, table)

    def _emit(self, rank: int, table: InvocationTable) -> None:
        self.partials[rank] = rank_statistics_arrays(table, self._n_regions)
        if self._table_sink is not None:
            self._table_sink(rank, table)
        else:
            self.tables[rank] = table

    # -- completion ----------------------------------------------------

    def finalize(self) -> FusedBootstrap:
        """Finish all remaining ranks and assemble the result."""
        for rank in self._ranks:
            if rank not in self._finished:
                self.finish_rank(rank)
        if self._shared is None:
            return FusedBootstrap(self.tables, self.partials, None)
        from ..lint.engine import finalize_report

        report = finalize_report(
            self._shared, self._diags, self._summaries,
            trace_name=self._trace_name,
            match_records=None if self._graph is None else self._graph.finish(),
        )
        return FusedBootstrap(self.tables, self.partials, report)


def incremental_bootstrap(
    cursor: EventCursor,
    *,
    lint: LintConfig | None | Literal[False] = None,
    known_ranks=None,
    table_ranks=None,
    table_sink: Callable[[int, InvocationTable], None] | None = None,
) -> FusedBootstrap:
    """Drive a cursor through an :class:`IncrementalKernel`.

    The cursor's :attr:`~repro.trace.cursor.EventCursor.definitions`
    supply regions, metrics and the rank universe; batches are fed as
    they arrive and each rank finalises on its ``final`` batch.  On a
    completed trace the result is bitwise identical to
    :func:`~repro.core.fused.fused_bootstrap` over the same events.

    Pure stream cursors (pipes) expose definitions only once the
    header has been parsed, so the kernel is created lazily at the
    first batch rather than up front.
    """

    def _kernel() -> IncrementalKernel:
        defs = cursor.definitions
        return IncrementalKernel(
            defs.regions,
            defs.metrics,
            defs.num_processes,
            cursor.ranks,
            lint=lint,
            known_ranks=known_ranks,
            table_ranks=table_ranks,
            trace_name=defs.name,
            table_sink=table_sink,
        )

    kernel = None
    for batch in cursor:
        if kernel is None:
            kernel = _kernel()
        kernel.feed(batch.rank, batch.events)
        if batch.final:
            kernel.finish_rank(batch.rank)
    if kernel is None:
        kernel = _kernel()
    return kernel.finalize()
