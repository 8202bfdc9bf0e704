"""Automatic inefficiency-pattern search (the Scalasca baseline).

Scalasca [21] scans traces for a fixed catalogue of wait-state
patterns and ranks them by severity.  We implement the three classic
patterns relevant to the case studies:

* **Wait at collective** — time ranks spend inside a collective before
  the last participant arrives.  The per-occurrence *delayer* (the
  last-arriving rank) is also attributed, approximating Scalasca's
  delay analysis.
* **Blocked receiver** — time spent inside blocking receive/wait
  operations (late-sender superset).
* **Computation imbalance** — per-function difference between the
  maximum and mean per-rank exclusive time (profile-style pattern).

The comparison point of the paper stands: patterns localise *where
time is lost* and rank it by severity, but (unlike the SOS heat map)
they do not show how imbalances evolve over time, and patterns outside
the catalogue go unnoticed.
"""

from __future__ import annotations

import numpy as np

from .._record import field, record
from ..profiles.profile import TraceProfile
from ..trace.definitions import Paradigm
from ..trace.trace import Trace
from ._common import resolve_inputs

__all__ = ["PatternInstance", "PatternSearchResult", "search_patterns"]

_COLLECTIVES = (
    "MPI_Barrier",
    "MPI_Bcast",
    "MPI_Reduce",
    "MPI_Allreduce",
    "MPI_Allgather",
    "MPI_Alltoall",
)
_BLOCKING_RECV = ("MPI_Recv", "MPI_Wait", "MPI_Waitall")


@record(frozen=True, slots=True)
class PatternInstance:
    """One detected inefficiency pattern."""

    pattern: str
    severity: float  # lost seconds, summed over ranks
    region: str
    #: Ranks suffering the waiting time (top contributors).
    waiting_ranks: tuple[int, ...]
    #: Ranks causing the delay, when attributable.
    delaying_ranks: tuple[int, ...]
    detail: str = ""


@record(slots=True)
class PatternSearchResult:
    """Severity-ranked pattern instances for one trace."""

    instances: list[PatternInstance] = field(default_factory=list)
    total_wait_time: float = 0.0

    def top(self, k: int = 5) -> list[PatternInstance]:
        return self.instances[:k]

    def delayers(self) -> list[int]:
        """All ranks attributed as delay root causes, most severe first."""
        seen: list[int] = []
        for inst in self.instances:
            for rank in inst.delaying_ranks:
                if rank not in seen:
                    seen.append(rank)
        return seen


def _collective_pattern(
    trace: Trace, profile: TraceProfile, region_name: str
) -> PatternInstance | None:
    """Wait-at-collective severity for one collective region."""
    if region_name not in trace.regions:
        return None
    region_id = trace.regions.id_of(region_name)
    ranks = trace.ranks
    enters: list[np.ndarray] = []
    for rank in ranks:
        table = profile.tables[rank]
        mask = table.region == region_id
        enters.append(table.t_enter[mask])
    counts = {len(e) for e in enters}
    if counts == {0}:
        return None
    if len(counts) != 1:
        # Occurrence counts differ (sub-communicators): fall back to
        # the common prefix so occurrences still line up.
        n = min(counts)
        if n == 0:
            return None
        enters = [e[:n] for e in enters]
    matrix = np.vstack(enters)  # (ranks, occurrences)
    last = matrix.max(axis=0)
    wait = last[None, :] - matrix  # waiting time per rank per occurrence
    severity = float(wait.sum())
    per_rank_wait = wait.sum(axis=1)
    # Delayer: the rank arriving last, counted per occurrence.
    delayer_counts = np.bincount(
        np.argmax(matrix, axis=0), minlength=len(ranks)
    )
    waiting_order = np.argsort(-per_rank_wait)[:5]
    delaying_order = np.argsort(-delayer_counts)
    delaying = tuple(
        int(ranks[i]) for i in delaying_order[:3] if delayer_counts[i] > 0
    )
    return PatternInstance(
        pattern="wait-at-collective",
        severity=severity,
        region=region_name,
        waiting_ranks=tuple(int(ranks[i]) for i in waiting_order),
        delaying_ranks=delaying,
        detail=(
            f"{matrix.shape[1]} occurrences; mean wait "
            f"{wait.mean():.3g}s per rank per occurrence"
        ),
    )


def _blocked_receiver_pattern(
    trace: Trace, profile: TraceProfile
) -> PatternInstance | None:
    """Total time inside blocking receive/wait operations."""
    region_ids = [
        trace.regions.id_of(name)
        for name in _BLOCKING_RECV
        if name in trace.regions
    ]
    if not region_ids:
        return None
    ranks = trace.ranks
    per_rank = np.zeros(len(ranks))
    for i, rank in enumerate(ranks):
        table = profile.tables[rank]
        mask = np.isin(table.region, region_ids)
        per_rank[i] = float(table.inclusive[mask].sum())
    severity = float(per_rank.sum())
    if severity <= 0:
        return None
    order = np.argsort(-per_rank)[:5]
    return PatternInstance(
        pattern="blocked-receiver",
        severity=severity,
        region="|".join(n for n in _BLOCKING_RECV if n in trace.regions),
        waiting_ranks=tuple(int(ranks[i]) for i in order),
        delaying_ranks=(),
        detail=f"max per-rank blocked time {per_rank.max():.3g}s",
    )


def _imbalance_patterns(
    trace: Trace, profile: TraceProfile, top_k: int
) -> list[PatternInstance]:
    """Per-function computation-imbalance severities."""
    instances = []
    for region in trace.regions:
        if region.paradigm != Paradigm.USER:
            continue
        per_rank = profile.per_rank_exclusive(region.id)
        total = float(per_rank.sum())
        if total <= 0:
            continue
        mean = float(per_rank.mean())
        severity = float((per_rank.max() - mean) * len(per_rank))
        if severity <= 0:
            continue
        ranks = np.asarray(trace.ranks)
        order = np.argsort(-per_rank)[:3]
        instances.append(
            PatternInstance(
                pattern="computation-imbalance",
                severity=severity,
                region=region.name,
                waiting_ranks=(),
                delaying_ranks=tuple(int(ranks[i]) for i in order),
                detail=(
                    f"max {per_rank.max():.3g}s vs mean {mean:.3g}s "
                    f"exclusive time"
                ),
            )
        )
    instances.sort(key=lambda p: -p.severity)
    return instances[:top_k]


def search_patterns(
    trace: Trace | None = None,
    profile: TraceProfile | None = None,
    top_k: int = 10,
    *,
    session=None,
) -> PatternSearchResult:
    """Run the full pattern catalogue over ``trace``.

    Pass ``session`` to reuse a memoized session profile.
    """
    trace, profile = resolve_inputs(trace, profile, session)
    result = PatternSearchResult()
    for name in _COLLECTIVES:
        inst = _collective_pattern(trace, profile, name)
        if inst is not None:
            result.instances.append(inst)
    blocked = _blocked_receiver_pattern(trace, profile)
    if blocked is not None:
        result.instances.append(blocked)
    result.instances.extend(_imbalance_patterns(trace, profile, top_k))
    result.instances.sort(key=lambda p: -p.severity)
    result.total_wait_time = sum(
        p.severity
        for p in result.instances
        if p.pattern in ("wait-at-collective", "blocked-receiver")
    )
    del result.instances[top_k:]
    return result
