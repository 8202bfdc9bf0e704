"""The tracelint execution engine.

Linting is a single streaming pass over each rank's event columns —
no stack replay, no segmentation.  Per rank the engine computes one
:class:`RankView` (vectorised enter/leave pairing, reference masks)
and one :class:`RankSummary` (cheap cross-rank partials: per-region
invocation counts and times, message counts per partner, stream
extent).  Rank-scoped rules consume the view; trace-scoped rules
consume the merged summaries.  This split is exactly what makes
linting shardable: workers scan their own ranks on chunked reads and
ship back only diagnostics plus summaries, never event data.

Entry points:

* :func:`lint_trace` — lint an in-memory :class:`~repro.trace.trace.Trace`;
* :func:`lint_path` — lint a trace file through the chunked reader,
  optionally fanning the per-rank scans out to worker processes
  (``shards``/``max_memory_mb`` mirror the analysis engine's knobs);
* :func:`scan_view` — the per-rank kernel; the fused analysis kernel
  (:mod:`repro.core.incremental`) runs it on its own views, so
  ``analyze --preflight`` lints and replays in one pass.

Diagnostics are sorted by ``(code, rank, position, message)`` before
the report is assembled, so output is byte-identical regardless of
shard count or worker scheduling.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .. import obs
from ..trace.definitions import MetricRegistry, RegionRegistry
from ..trace.events import EventKind, EventList
from ..trace.trace import Trace
from .model import Diagnostic, LintConfig, LintReport
from .registry import Finding, Rule, enabled_rules

__all__ = [
    "LintShared",
    "RankSummary",
    "RankView",
    "TraceView",
    "lint_trace",
    "lint_path",
    "scan_view",
    "finalize_report",
    "validate_config",
    "gates_replay",
    "LINT_COLUMNS",
    "lint_columns",
    "hb_rules_enabled",
    "hb_graph_path",
]

#: Event columns the view construction and summaries read regardless of
#: which rules are enabled.  Individual rules declare anything extra via
#: ``register_rule(..., columns=...)``; the projection tests keep both
#: declarations truthful.
LINT_COLUMNS = ("time", "kind", "ref", "partner")


def lint_columns(config: LintConfig) -> tuple[str, ...]:
    """Minimal event-column set needed to run ``config``'s rules.

    Union of the view baseline (:data:`LINT_COLUMNS`) and *every*
    enabled rule's declared extras — not just the rank-scoped ones:
    hb-scoped rules extract their match records inside the same worker
    read, so restricting the union to one scope would silently hand
    them placeholder columns.  Canonical column order keeps the
    projection deterministic.
    """
    from ..trace.events import _FIELDS

    need = set(LINT_COLUMNS)
    for rule in enabled_rules(config):
        need.update(rule.columns)
    return tuple(f for f in _FIELDS if f in need)


def hb_rules_enabled(config: LintConfig) -> bool:
    """True when the config enables at least one hb-scoped rule."""
    return any(True for _ in enabled_rules(config, scope="hb"))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


class RankView:
    """Vectorised single-pass products over one rank's event stream.

    Computed once per rank and handed to every rank-scoped rule, so no
    rule re-derives the enter/leave pairing.  All computations guard
    against unsorted, unbalanced or reference-broken streams — linting
    must never crash on the inputs it exists to reject.
    """

    def __init__(self, shared: LintShared, rank: int, events: EventList) -> None:
        self.shared = shared
        self.rank = rank
        self.events = events
        n = len(events)
        self.n = n
        ev = events
        self.sorted = bool(n < 2 or not np.any(np.diff(ev.time) < 0))
        self.first_unsorted = (
            -1
            if self.sorted
            else int(np.argmax(np.diff(ev.time) < 0)) + 1
        )

        kind = ev.kind
        self.enter_mask = kind == np.uint8(EventKind.ENTER)
        self.leave_mask = kind == np.uint8(EventKind.LEAVE)
        self.enter_leave = self.enter_mask | self.leave_mask
        self.metric_mask = kind == np.uint8(EventKind.METRIC)
        self.p2p_mask = (kind == np.uint8(EventKind.SEND)) | (
            kind == np.uint8(EventKind.RECV)
        )
        nr = shared.num_regions
        self.bad_region = self.enter_leave & ((ev.ref < 0) | (ev.ref >= nr))
        nm = shared.num_metrics
        self.bad_metric = self.metric_mask & ((ev.ref < 0) | (ev.ref >= nm))

        # -- enter/leave pairing (depth trick, as validate used to do) --
        self.el_idx = np.flatnonzero(self.enter_leave)
        self.underflow_index = -1  # absolute index of first orphan leave
        self.open_count = 0  # regions still open at end of stream
        self.first_unclosed = -1  # absolute index of first unmatched enter
        self.balanced = False
        self.enter_pos = np.empty(0, dtype=np.int64)  # into el_idx
        self.leave_pos = np.empty(0, dtype=np.int64)
        #: running enter/leave depth over el_idx; kept on balanced
        #: streams so the fused kernel can reuse the pairing for replay
        self.depth_after = np.empty(0, dtype=np.int64)
        if self.sorted and len(self.el_idx):
            kind_pm = np.where(
                self.enter_mask[self.el_idx], 1, -1
            ).astype(np.int64)
            depth_after = np.cumsum(kind_pm)
            underflow = np.flatnonzero(depth_after < 0)
            if len(underflow):
                self.underflow_index = int(self.el_idx[underflow[0]])
            elif depth_after[-1] != 0:
                self.open_count = int(depth_after[-1])
                # An enter is unmatched iff the depth never drops below
                # its own frame depth afterwards (reverse running min).
                suffix_min = np.minimum.accumulate(depth_after[::-1])[::-1]
                shifted = np.empty_like(suffix_min)
                shifted[:-1] = suffix_min[1:]
                shifted[-1] = np.iinfo(np.int64).max
                unmatched = (kind_pm > 0) & (shifted >= depth_after)
                first = np.flatnonzero(unmatched)
                if len(first):
                    self.first_unclosed = int(self.el_idx[first[0]])
            else:
                self.balanced = True
                self.depth_after = depth_after
                frame_depth = np.where(kind_pm > 0, depth_after, depth_after + 1)
                order = np.argsort(frame_depth, kind="stable")
                self.enter_pos = order[0::2]
                self.leave_pos = order[1::2]

        # -- per-invocation arrays (balanced streams only) --------------
        if self.balanced:
            refs = ev.ref[self.el_idx]
            self.inv_region = refs[self.enter_pos]
            self.inv_leave_region = refs[self.leave_pos]
            t = ev.time[self.el_idx]
            self.inv_enter_index = self.el_idx[self.enter_pos]
            self.inv_leave_index = self.el_idx[self.leave_pos]
            self.inv_duration = t[self.leave_pos] - t[self.enter_pos]
            self.inv_valid = (self.inv_region >= 0) & (self.inv_region < nr)
        else:
            self.inv_region = np.empty(0, dtype=np.int32)
            self.inv_leave_region = np.empty(0, dtype=np.int32)
            self.inv_enter_index = np.empty(0, dtype=np.int64)
            self.inv_leave_index = np.empty(0, dtype=np.int64)
            self.inv_duration = np.empty(0, dtype=np.float64)
            self.inv_valid = np.empty(0, dtype=bool)

    def time_at(self, index: int) -> float | None:
        if 0 <= index < self.n:
            return float(self.events.time[index])
        return None

    def summary(self) -> RankSummary:
        ev = self.events
        nr = self.shared.num_regions
        enter_refs = ev.ref[self.enter_mask]
        valid_enters = enter_refs[(enter_refs >= 0) & (enter_refs < nr)]
        enter_counts = np.bincount(valid_enters, minlength=nr).astype(np.int64)
        region_time = np.zeros(nr, dtype=np.float64)
        if self.balanced and len(self.inv_region):
            sel = self.inv_valid
            region_time = np.bincount(
                self.inv_region[sel],
                weights=self.inv_duration[sel],
                minlength=nr,
            ).astype(np.float64)
        sends: dict[int, int] = {}
        recvs: dict[int, int] = {}
        send_mask = ev.kind == np.uint8(EventKind.SEND)
        recv_mask = ev.kind == np.uint8(EventKind.RECV)
        for mask, out in ((send_mask, sends), (recv_mask, recvs)):
            if np.any(mask):
                partners, counts = np.unique(ev.partner[mask], return_counts=True)
                for p, c in zip(partners.tolist(), counts.tolist()):
                    out[int(p)] = int(c)
        return RankSummary(
            rank=self.rank,
            n_events=self.n,
            t_first=float(ev.time[0]) if self.n else 0.0,
            t_last=float(ev.time[-1]) if self.n else 0.0,
            enter_counts=enter_counts,
            region_time=region_time,
            balanced=self.balanced,
            sends=sends,
            recvs=recvs,
        )


@dataclass(frozen=True)
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


def _stamp(
    rule: Rule, config: LintConfig, finding: Finding, default_rank: int = -1
) -> Diagnostic:
    severity = finding.severity
    if severity is None:
        severity = config.severity_of(rule.code, rule.default_severity)
    rank = finding.rank if finding.rank >= 0 else default_rank
    return Diagnostic(
        code=rule.code,
        severity=severity,
        message=finding.message,
        rank=rank,
        position=finding.position,
        time=finding.time,
        category=rule.category,
    )


def scan_view(view: RankView) -> tuple[list[Diagnostic], RankSummary]:
    """Run every enabled rank-scoped rule over one rank's view.

    The fused analysis kernel builds the view once and reuses its
    pairing for stack replay.
    """
    shared = view.shared
    diags: list[Diagnostic] = []
    timed = obs.enabled()
    for rule in shared.rules("rank"):
        t0 = time.perf_counter() if timed else 0.0
        for finding in rule.check(view):
            diags.append(
                _stamp(rule, shared.config, finding, default_rank=view.rank)
            )
        if timed:
            obs.counter(f"lint.rule.{rule.code}.s").add(
                time.perf_counter() - t0
            )
    return diags, view.summary()


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
        ranks present.  The sharded engine passes the *global* rank
        set so cross-shard partners are not misflagged.
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
        view = RankView(shared, rank, trace.events_of(rank))
        rank_diags, summary = scan_view(view)
        diags.extend(rank_diags)
        summaries[rank] = summary
        if records is not None:
            records[rank] = extract_match_records(view)
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


# ---------------------------------------------------------------------------
# Sharded path-mode linting
# ---------------------------------------------------------------------------


def _lint_shard_worker(payload: dict) -> dict:
    """Scan one rank group read through the chunked reader.

    Top-level so :class:`~concurrent.futures.ProcessPoolExecutor` can
    pickle it by reference; returns diagnostics and summaries only —
    plus, when the payload carries ``obs``, the worker's telemetry
    snapshot (merged by the parent in shard order).
    """
    from ..core.shard import _worker_obs_setup

    owns_obs = _worker_obs_setup(payload)
    try:
        with obs.span("lint.shard"):
            res = _lint_shard_worker_impl(payload)
    finally:
        col = obs.disable() if owns_obs else None
    if col is not None:
        res["obs"] = col.snapshot()
    return res


def _lint_shard_worker_impl(payload: dict) -> dict:
    from ..trace.reader import TraceIndex

    records_only = payload.get("records_only", False)
    want_hb = records_only or hb_rules_enabled(payload["config"])
    if want_hb:
        from .hb import HB_COLUMNS, extract_match_records

    index = TraceIndex(payload["path"])
    columns = lint_columns(payload["config"])
    if want_hb:
        from ..trace.events import _FIELDS

        need = set(columns) | set(HB_COLUMNS)
        columns = tuple(f for f in _FIELDS if f in need)
    sub = index.load(payload["ranks"], columns=columns)
    shared = LintShared.from_definitions(
        sub.regions,
        sub.metrics,
        payload["num_processes"],
        payload["known_ranks"],
        payload["config"],
    )
    diags: list[Diagnostic] = []
    summaries: dict[int, RankSummary] = {}
    records: dict[int, object] = {}
    for rank in sorted(payload["ranks"]):
        view = RankView(shared, rank, sub.events_of(rank))
        if not records_only:
            rank_diags, summary = scan_view(view)
            diags.extend(rank_diags)
            summaries[rank] = summary
        if want_hb:
            records[rank] = extract_match_records(view)
    res = {"diags": diags, "summaries": summaries, "name": sub.name}
    if want_hb:
        res["records"] = records
    return res


def _scan_shards(
    path: str,
    config: LintConfig,
    shards: int | None,
    max_memory_mb: float | None,
    workers: int | None,
    **extra,
):
    """Fan a trace file's per-rank scans out to :func:`_lint_shard_worker`.

    The partitioning is the analysis engine's
    (:func:`repro.core.shard.plan_shards`); ``extra`` goes into every
    payload.  Returns the file's index, the global rank set and the
    worker results in shard order (their telemetry already merged).
    """
    from ..core.shard import (
        _merge_worker_obs,
        _run_shard_tasks,
        plan_shards,
        shard_workers,
    )
    from ..trace.reader import TraceIndex

    index = TraceIndex(path)
    counts = index.event_counts()
    plan = plan_shards(counts, shards=shards, max_memory_mb=max_memory_mb)
    payloads = [
        {
            "path": path,
            "ranks": tuple(group),
            "known_ranks": plan.ranks,
            "num_processes": len(counts),
            "config": config,
            "shard": shard,
            "obs": obs.current_context(),
            **extra,
        }
        for shard, group in enumerate(plan.groups)
    ]
    nworkers = shard_workers(plan.num_shards) if workers is None else workers
    results = _run_shard_tasks(_lint_shard_worker, payloads, nworkers)
    for res in results:
        _merge_worker_obs(res)
    return index, plan.ranks, results


def lint_path(
    path: str | os.PathLike,
    config: LintConfig | None = None,
    shards: int | None = None,
    max_memory_mb: float | None = None,
    workers: int | None = None,
) -> LintReport:
    """Lint a trace file through the chunked reader.

    With ``shards``/``max_memory_mb`` the per-rank scans run in worker
    processes that each read only their rank group's bytes — the same
    partitioning the analysis engine uses (:func:`repro.core.shard.plan_shards`).
    Diagnostics are byte-identical for any shard count.
    """
    config = config if config is not None else LintConfig()
    path = os.fspath(path)
    with obs.span("lint.path"):
        index, known, results = _scan_shards(
            path, config, shards, max_memory_mb, workers
        )
        diags: list[Diagnostic] = []
        summaries: dict[int, RankSummary] = {}
        records: dict[int, object] | None = (
            {} if hb_rules_enabled(config) else None
        )
        for res in results:
            diags.extend(res["diags"])
            summaries.update(res["summaries"])
            if records is not None:
                records.update(res.get("records", {}))
        defs = index.definitions_trace()
        shared = LintShared.from_definitions(
            defs.regions, defs.metrics, len(index.ranks), known, config
        )
        return finalize_report(
            shared,
            diags,
            summaries,
            trace_name=defs.name,
            source=path,
            match_records=records,
        )


def hb_graph_path(
    path: str | os.PathLike,
    config: LintConfig | None = None,
    shards: int | None = None,
    max_memory_mb: float | None = None,
    workers: int | None = None,
):
    """Build the global message-match graph from a trace file.

    Backs ``repro deps``: runs the same sharded per-rank extraction as
    :func:`lint_path` but skips rule scanning entirely — workers return
    only :class:`~repro.lint.hb.MatchRecords` and the parent assembles
    one :class:`~repro.lint.hb.MatchGraph`.
    """
    from .hb import MatchGraph

    config = config if config is not None else LintConfig()
    with obs.span("lint.hb_graph"):
        index, _known, results = _scan_shards(
            os.fspath(path), config, shards, max_memory_mb, workers,
            records_only=True,
        )
        records: dict[int, object] = {}
        for res in results:
            records.update(res["records"])
        return MatchGraph.from_records(records, len(index.ranks))
