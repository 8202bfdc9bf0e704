"""The tracelint execution engine.

Linting is a single streaming pass over batches of ranks' event
columns — no stack replay, no segmentation.  Per batch the engine
computes one :class:`BatchView` (vectorised enter/leave pairing,
reference masks) and per rank one :class:`RankSummary` (cheap
cross-rank partials: per-region invocation counts and times, message
counts per partner, stream extent).  Rank-scoped rules consume the
view and name the rank of each finding; trace-scoped rules consume
the merged summaries.  This split is exactly what makes
linting shardable: the shard workers scan their own ranks on chunked
reads and ship back only diagnostics plus summaries (and match
records), never event data; the parent runs :func:`finalize_report`
once.

Entry points:

* :func:`lint_trace` — lint an in-memory :class:`~repro.trace.trace.Trace`
  (the reference, on one-rank batches: :func:`rank_view`);
* :func:`scan_batch` — the batch kernel; the fused analysis kernel
  (:mod:`repro.core.incremental`) runs it on batches of many ranks.
  A trace file is linted through an analysis session
  (:meth:`repro.core.session.AnalysisSession.scan`), so ``repro lint``,
  ``repro deps`` and ``analyze --preflight`` all run that kernel, in
  process or in the shard workers.

Diagnostics are sorted by ``(code, rank, position, message)`` before
the report is assembled, so output is byte-identical regardless of
shard count or worker scheduling.
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from .. import obs
from .._record import field, record
from ..profiles.replay import pair_events
from ..trace.definitions import MetricRegistry, RegionRegistry
from ..trace.events import EventKind, EventList
from ..trace.trace import Trace
from .model import Diagnostic, LintConfig, LintReport
from .registry import Finding, Rule, enabled_rules

__all__ = [
    "LintShared",
    "RankSummary",
    "BatchView",
    "TraceView",
    "lint_trace",
    "scan_batch",
    "finalize_report",
    "validate_config",
    "gates_replay",
    "hb_rules_enabled",
]

_SEND = np.uint8(EventKind.SEND)
_RECV = np.uint8(EventKind.RECV)


def hb_rules_enabled(config: LintConfig) -> bool:
    """True when the config enables at least one hb-scoped rule."""
    return any(True for _ in enabled_rules(config, scope="hb"))


@record(frozen=True)
class LintShared:
    """Definition-level context shared by every rule invocation."""

    num_regions: int
    num_metrics: int
    num_processes: int
    region_names: tuple[str, ...]
    region_paradigm: np.ndarray  # int8 per region
    region_role: np.ndarray  # int8 per region
    sync_mask: np.ndarray  # bool per region (classifier-selected)
    known_ranks: np.ndarray  # sorted int64, for np.searchsorted lookups
    config: LintConfig
    #: the config's enabled rules by scope, resolved once: every rank's
    #: scan would otherwise match each rule code against the patterns
    scoped_rules: dict[str, tuple[Rule, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        scoped: dict[str, list[Rule]] = {}
        for rule in enabled_rules(self.config):
            scoped.setdefault(rule.scope, []).append(rule)
        object.__setattr__(
            self,
            "scoped_rules",
            {scope: tuple(rules) for scope, rules in scoped.items()},
        )

    def rules(self, scope: str) -> tuple[Rule, ...]:
        """Enabled rules of ``scope``, in code order."""
        return self.scoped_rules.get(scope, ())

    @classmethod
    def from_definitions(
        cls,
        regions: RegionRegistry,
        metrics: MetricRegistry,
        num_processes: int,
        known_ranks: Iterable[int],
        config: LintConfig,
    ) -> "LintShared":
        paradigm = np.asarray([int(r.paradigm) for r in regions], dtype=np.int8)
        role = np.asarray([int(r.role) for r in regions], dtype=np.int8)
        return cls(
            num_regions=len(regions),
            num_metrics=len(metrics),
            num_processes=num_processes,
            region_names=tuple(r.name for r in regions),
            region_paradigm=paradigm,
            region_role=role,
            sync_mask=config.classifier.mask_registry(regions),
            known_ranks=np.array(sorted({int(r) for r in known_ranks}), dtype=np.int64),
            config=config,
        )


@record(frozen=True)
class RankSummary:
    """Cross-rank partial of one rank's stream (picklable, mergeable).

    Everything a trace-scoped rule needs, at a few hundred bytes per
    rank — this is what shard workers return instead of event data.
    """

    rank: int
    n_events: int
    t_first: float
    t_last: float
    #: ENTER events per region id
    enter_counts: np.ndarray
    #: summed enter→leave durations per region id (zeros when the
    #: stream is unsorted/unbalanced and pairing is impossible)
    region_time: np.ndarray
    balanced: bool
    #: SEND count per partner rank / RECV count per partner rank
    sends: dict[int, int] = field(default_factory=dict)
    recvs: dict[int, int] = field(default_factory=dict)


class BatchView:
    """Vectorised products over a batch of ranks' event streams.

    ``events`` holds the columns of ``ranks`` joined end to end and
    ``starts`` their R + 1 offsets.  The view is computed once per
    batch and handed to every rank-scoped rule, so no rule re-derives
    the enter/leave pairing (:func:`~repro.profiles.replay.pair_events`
    in its diagnostic mode).  Per-rank flags are length-R arrays in
    batch order ("slots").  Frame arrays (``inv_*``) cover the sorted,
    balanced ranks, ordered by (depth, rank, enter position).  All
    computations guard against unsorted, unbalanced or
    reference-broken streams — linting must never crash on the inputs
    it exists to reject.
    """

    def __init__(self, shared: LintShared, ranks, events, starts) -> None:
        self.shared = shared
        self.ranks = [int(r) for r in ranks]
        self.events = events
        self.starts = np.asarray(starts, dtype=np.int64)
        self.counts = np.diff(self.starts)
        self.n = int(self.starts[-1])
        kind = events.kind
        self.pairing = p = pair_events(events.time, kind, self.starts, lint=True)
        self.sorted = p.sorted
        self.balanced = p.balanced
        self.el_idx = p.el_idx
        self.p2p_idx = np.flatnonzero((kind == _SEND) | (kind == _RECV))
        self.metric_idx = np.flatnonzero(kind == np.uint8(EventKind.METRIC))
        rows = p.by_depth
        refs = events.ref[p.el_idx]
        self.inv_region = refs[p.enter_pos[rows]]
        self.inv_leave_region = refs[p.leave_pos[rows]]
        self.inv_enter_index = p.el_idx[p.enter_pos[rows]]  # batch positions
        self.inv_leave_index = p.el_idx[p.leave_pos[rows]]
        self.inv_rank = p.frame_slot()[rows]  # slot of each frame
        t = events.time
        self.inv_duration = t[self.inv_leave_index] - t[self.inv_enter_index]
        nr = shared.num_regions
        self.inv_valid = (self.inv_region >= 0) & (self.inv_region < nr)

    def slot_of(self, index: np.ndarray) -> np.ndarray:
        """Slot of the rank owning each of the ascending batch event
        positions ``index``."""
        counts = np.diff(np.searchsorted(index, self.starts))
        return np.repeat(np.arange(len(self.ranks)), counts)

    def by_rank(self, index: np.ndarray):
        """``(slot, first, count)`` per rank among ascending batch
        positions ``index``; ``first`` is rank-local."""
        if not len(index):
            return []
        slot = self.slot_of(index)
        head = np.flatnonzero(np.diff(slot, prepend=-1))
        counts = np.diff(np.append(head, len(index)))
        first = index[head] - self.starts[slot[head]]
        return list(zip(slot[head].tolist(), first.tolist(), counts.tolist()))

    def first_frame(self, mask: np.ndarray) -> dict[int, int]:
        """Slot → first frame (in ``inv_*`` order) where ``mask`` holds."""
        idx = np.flatnonzero(mask)
        first = np.full(len(self.ranks), len(mask), dtype=np.int64)
        np.minimum.at(first, self.inv_rank[idx], idx)
        return {s: int(first[s]) for s in np.flatnonzero(first < len(mask)).tolist()}

    def finding(self, slot: int, message: str, position: int = -1) -> Finding:
        """A finding on the ``slot``-th rank at rank-local ``position``."""
        time: float | None = None
        if 0 <= position < self.counts[slot]:
            time = float(self.events.time[self.starts[slot] + position])
        return Finding(
            message, rank=self.ranks[slot], position=position, time=time
        )

    def summaries(self) -> dict[int, RankSummary]:
        """Each rank's :class:`RankSummary`, from per-(rank, region) keys."""
        ev = self.events
        p = self.pairing
        nr = self.shared.num_regions
        n_ranks = len(self.ranks)
        slots = np.arange(n_ranks)
        enter_el = np.flatnonzero(p.is_enter)
        enter_slot = np.repeat(slots, np.diff(np.searchsorted(enter_el, p.el_starts)))
        refs = ev.ref[p.el_idx[enter_el]]
        ok = (refs >= 0) & (refs < nr)
        enter_counts = np.bincount(
            enter_slot[ok] * nr + refs[ok], minlength=n_ranks * nr
        ).reshape(n_ranks, nr)
        sel = self.inv_valid
        region_time = np.bincount(
            self.inv_rank[sel] * nr + self.inv_region[sel],
            weights=self.inv_duration[sel],
            minlength=n_ranks * nr,
        ).reshape(n_ranks, nr)
        # Messages per (rank, SEND/RECV, partner), partners ascending.
        talk: list[dict[int, int]] = [{} for _ in range(2 * n_ranks)]
        if len(self.p2p_idx):
            idx = self.p2p_idx
            partner = ev.partner[idx].astype(np.int64)
            lo = int(partner.min())
            span = int(partner.max()) - lo + 1
            lane = self.slot_of(idx) * 2 + (ev.kind[idx] == _RECV)
            keys, counts = np.unique(lane * span + (partner - lo), return_counts=True)
            lane, peer = np.divmod(keys, span)
            for i, q, c in zip(lane.tolist(), (peer + lo).tolist(), counts.tolist()):
                talk[i][q] = c
        n = self.counts.tolist()
        t_first = t_last = [0.0] * n_ranks
        if self.n:
            t_first = ev.time[np.minimum(self.starts[:-1], self.n - 1)].tolist()
            t_last = ev.time[np.maximum(self.starts[1:] - 1, 0)].tolist()
        balanced = self.balanced.tolist()
        return {
            rank: RankSummary(
                rank, n[i], t_first[i] if n[i] else 0.0, t_last[i] if n[i] else 0.0,
                enter_counts[i], region_time[i], balanced[i],
                talk[2 * i], talk[2 * i + 1],
            )
            for i, rank in enumerate(self.ranks)
        }


@record(frozen=True)
class TraceView:
    """Merged cross-rank picture handed to trace-scoped rules."""

    shared: LintShared
    summaries: dict[int, RankSummary]

    @property
    def ranks(self) -> list[int]:
        return sorted(self.summaries)

    def total_enter_counts(self) -> np.ndarray:
        total = np.zeros(self.shared.num_regions, dtype=np.int64)
        for s in self.summaries.values():
            total += s.enter_counts
        return total

    def total_region_time(self) -> np.ndarray:
        total = np.zeros(self.shared.num_regions, dtype=np.float64)
        for s in self.summaries.values():
            total += s.region_time
        return total

    @property
    def t_min(self) -> float:
        lows = [s.t_first for s in self.summaries.values() if s.n_events]
        return float(min(lows)) if lows else 0.0

    @property
    def t_max(self) -> float:
        highs = [s.t_last for s in self.summaries.values() if s.n_events]
        return float(max(highs)) if highs else 0.0


def _stamp(rule: Rule, config: LintConfig, finding: Finding) -> Diagnostic:
    severity = finding.severity
    if severity is None:
        severity = config.severity_of(rule.code, rule.default_severity)
    return Diagnostic(
        code=rule.code,
        severity=severity,
        message=finding.message,
        rank=finding.rank,
        position=finding.position,
        time=finding.time,
        category=rule.category,
    )


def scan_batch(view: BatchView) -> tuple[list[Diagnostic], dict[int, RankSummary]]:
    """Run every enabled rank-scoped rule over one batch's view.

    Returns the diagnostics and each rank's summary.  The fused
    analysis kernel builds the view once and reuses its pairing for
    stack replay.
    """
    shared = view.shared
    diags: list[Diagnostic] = []
    timed = obs.enabled()
    for rule in shared.rules("rank"):
        t0 = time.perf_counter() if timed else 0.0
        for finding in rule.check(view):
            diags.append(_stamp(rule, shared.config, finding))
        if timed:
            obs.counter(f"lint.rule.{rule.code}.s").add(
                time.perf_counter() - t0
            )
    return diags, view.summaries()


def rank_view(shared: LintShared, rank: int, events: EventList) -> BatchView:
    """The one-rank batch: how the in-memory reference scans see each
    rank."""
    return BatchView(shared, (rank,), events, (0, len(events)))


def _trace_scope_diagnostics(
    shared: LintShared, summaries: dict[int, RankSummary]
) -> list[Diagnostic]:
    tview = TraceView(shared, summaries)
    diags: list[Diagnostic] = []
    for rule in shared.rules("trace"):
        for finding in rule.check(tview):
            diags.append(_stamp(rule, shared.config, finding))
    return diags


def _hb_scope_diagnostics(shared: LintShared, graph) -> list[Diagnostic]:
    """Run the hb-scoped rules over the global match graph."""
    from .hb import HBView

    hbview = HBView(shared, graph)
    diags: list[Diagnostic] = []
    timed = obs.enabled()
    for rule in shared.rules("hb"):
        t0 = time.perf_counter() if timed else 0.0
        for finding in rule.check(hbview):
            diags.append(_stamp(rule, shared.config, finding))
        if timed:
            obs.counter(f"lint.rule.{rule.code}.s").add(
                time.perf_counter() - t0
            )
    return diags


def finalize_report(
    shared: LintShared,
    rank_diags: Iterable[Diagnostic],
    summaries: dict[int, RankSummary],
    trace_name: str = "",
    source: str | None = None,
    match_records=None,
) -> LintReport:
    """Run trace- and hb-scoped rules and assemble the sorted report.

    ``match_records`` maps every rank to its
    :class:`~repro.lint.hb.MatchRecords`, or is the
    :class:`~repro.lint.hb.MatchGraph` already assembled from them (the
    fused kernel writes its scan's rows straight into one).  When
    hb-scoped rules are enabled it is *required*: raising here (instead
    of quietly running the remaining rules) is what guarantees a
    cross-rank rule can never under-report off a partial, per-shard
    view of the trace.
    """
    diags = list(rank_diags)
    diags.extend(_trace_scope_diagnostics(shared, summaries))
    if shared.rules("hb"):
        from .hb import MatchGraph

        graph = match_records if isinstance(match_records, MatchGraph) else None
        missing = sorted(
            set(summaries)
            - set(graph.ranks if graph is not None else match_records or ())
        )
        if missing or match_records is None:
            raise ValueError(
                f"hb-scope rules are enabled but match records are missing "
                f"for ranks {missing}; cross-rank rules cannot run on a "
                f"partial trace"
            )
        if graph is None:
            graph = MatchGraph.from_records(match_records, shared.num_processes)
        diags.extend(_hb_scope_diagnostics(shared, graph))
    diags.sort(key=lambda d: d.sort_key)
    return LintReport(
        diagnostics=tuple(diags),
        rules_run=tuple(
            r.code for r in enabled_rules(shared.config)
        ),
        num_events=sum(s.n_events for s in summaries.values()),
        num_ranks=len(summaries),
        trace_name=trace_name,
        source=source,
    )


def lint_trace(
    trace: Trace,
    config: LintConfig | None = None,
    known_ranks: Iterable[int] | None = None,
    source: str | None = None,
) -> LintReport:
    """Statically lint an in-memory trace (no replay, single pass).

    Parameters
    ----------
    config:
        Rule selection, severity overrides and thresholds; defaults to
        all rules at their default severities.
    known_ranks:
        Rank set message partners resolve against; defaults to the
        ranks present.  A scan of part of a trace passes the whole
        trace's rank set, so partners outside the part are not
        misflagged.
    """
    config = config if config is not None else LintConfig()
    ranks = trace.ranks
    shared = LintShared.from_definitions(
        trace.regions,
        trace.metrics,
        trace.num_processes,
        ranks if known_ranks is None else known_ranks,
        config,
    )
    want_hb = hb_rules_enabled(config)
    if want_hb:
        from .hb import extract_match_records

    diags: list[Diagnostic] = []
    summaries: dict[int, RankSummary] = {}
    records: dict[int, object] | None = {} if want_hb else None
    for rank in ranks:
        view = rank_view(shared, rank, trace.events_of(rank))
        rank_diags, summary = scan_batch(view)
        diags.extend(rank_diags)
        summaries.update(summary)
        if records is not None:
            records.update(
                (rec.rank, rec) for rec in extract_match_records(view).records()
            )
    return finalize_report(
        shared,
        diags,
        summaries,
        trace_name=trace.name,
        source=source,
        match_records=records,
    )


def validate_config(allow_empty_streams: bool = False) -> LintConfig:
    """Config of the structural error rules only: the gate every
    analysis runs before replay."""
    from .registry import validate_subset_codes

    return LintConfig(
        select=validate_subset_codes(),
        allow_empty_streams=allow_empty_streams,
    )


def gates_replay(config: LintConfig) -> bool:
    """True when ``config`` runs every structural gate rule
    (:func:`validate_config`) at error severity, so its report without
    errors admits replay."""
    from .model import Severity
    from .registry import get_rule, validate_subset_codes

    return all(
        config.rule_enabled(code)
        and config.severity_of(code, get_rule(code).default_severity)
        >= Severity.ERROR
        for code in validate_subset_codes()
    )
