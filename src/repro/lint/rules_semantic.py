"""Built-in semantic rules: MPI message semantics (TL1xx) and
paper-precondition checks (TL2xx).

The MPI rules encode cheap cross-checks over the message events —
matching send/receive counts per rank pair, uniform collective
participation, self-messages, zero-duration synchronization storms —
in the spirit of rule-based SPMD debugging (Liu et al.).  The
precondition rules check the assumptions the paper's pipeline makes
before any expensive analysis runs: a dominant-function candidate
must exist (the ``2p`` invocation floor, Section IV), the
synchronization classifier must actually cover the communication time
it is supposed to subtract (Section V), and the per-rank segment
counts and clocks must line up for segments to be comparable.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..trace.definitions import Paradigm, RegionRole
from .model import Severity
from .registry import Finding, register_rule

__all__: list[str] = []


# ---------------------------------------------------------------------------
# MPI semantics (TL1xx)
# ---------------------------------------------------------------------------


@register_rule(
    "TL101",
    category="mpi",
    scope="trace",
    severity=Severity.WARNING,
)
def p2p_count_mismatch(tview) -> Iterator[Finding]:
    """Send/receive counts disagree for a rank pair.

    For every ordered pair (a, b), the number of SEND events a→b must
    equal the number of RECV events recorded at b from a.  A mismatch
    means dropped message events (or a truncated stream) and skews
    every communication statistic.
    """
    summaries = tview.summaries
    for a in tview.ranks:
        for b, sent in sorted(summaries[a].sends.items()):
            if b not in summaries:
                continue  # unknown partner: TL009's business
            got = summaries[b].recvs.get(a, 0)
            if sent != got:
                yield Finding(
                    f"rank {a} sent {sent} messages to rank {b} but "
                    f"rank {b} recorded {got} receives",
                    rank=a,
                )


@register_rule(
    "TL102",
    category="mpi",
    scope="trace",
    severity=Severity.WARNING,
)
def collective_mismatch(tview) -> Iterator[Finding]:
    """Collective operation entered unevenly across ranks.

    Collectives (barrier, allreduce, alltoall, ...) must be called the
    same number of times by every rank; uneven counts indicate a
    deadlock-in-waiting or a torn trace.
    """
    from .hb import COLLECTIVE_NAMES

    shared = tview.shared
    if len(tview.ranks) < 2:
        return
    counts = np.stack(
        [tview.summaries[r].enter_counts for r in tview.ranks]
    )
    for region in range(shared.num_regions):
        if shared.region_paradigm[region] != int(Paradigm.MPI):
            continue
        if shared.region_names[region] not in COLLECTIVE_NAMES:
            continue
        col = counts[:, region]
        lo, hi = int(col.min()), int(col.max())
        if lo != hi:
            lo_rank = tview.ranks[int(np.argmin(col))]
            hi_rank = tview.ranks[int(np.argmax(col))]
            yield Finding(
                f"collective {shared.region_names[region]!r} entered "
                f"{hi} times by rank {hi_rank} but only {lo} times by "
                f"rank {lo_rank}",
            )


@register_rule(
    "TL103",
    category="mpi",
    scope="rank",
    severity=Severity.WARNING,
)
def self_message(view) -> Iterator[Finding]:
    """Rank sends messages to itself.

    Self-sends are legal MPI but almost always a rank-translation bug
    in the measurement layer, and they inflate the communication
    matrix diagonal.
    """
    idx = view.p2p_idx
    own = np.asarray(view.ranks, dtype=np.int64)[view.slot_of(idx)]
    selfish = idx[view.events.partner[idx] == own]
    for slot, first, count in view.by_rank(selfish):
        yield view.finding(
            slot,
            f"{count} message events have the rank itself "
            f"as partner (first at event {first})",
            first,
        )


@register_rule(
    "TL104",
    category="mpi",
    scope="rank",
    severity=Severity.WARNING,
)
def zero_duration_sync_storm(view) -> Iterator[Finding]:
    """Large share of synchronization calls take exactly zero time.

    Many zero-duration sync invocations usually mean the timer
    resolution was too coarse for the measurement — SOS-time then
    subtracts nothing and variations are blamed on compute.
    """
    if not len(view.inv_region):
        return
    cfg = view.shared.config
    sel = view.inv_valid & view.shared.sync_mask[
        np.clip(view.inv_region, 0, view.shared.num_regions - 1)
    ]
    zero = sel & (view.inv_duration == 0.0)
    n_ranks = len(view.ranks)
    total = np.bincount(view.inv_rank[sel], minlength=n_ranks)
    nzero = np.bincount(view.inv_rank[zero], minlength=n_ranks)
    storm = (nzero >= max(cfg.zero_sync_min, 1)) & (
        nzero >= cfg.zero_sync_fraction * total
    )
    if not storm.any():
        return
    for slot, k in view.first_frame(zero).items():
        if storm[slot]:
            first = int(view.inv_enter_index[k] - view.starts[slot])
            yield view.finding(
                slot,
                f"{int(nzero[slot])} of {int(total[slot])} synchronization "
                f"invocations have zero duration (first at event {first})",
                first,
            )


# ---------------------------------------------------------------------------
# Paper preconditions (TL2xx)
# ---------------------------------------------------------------------------


def _candidate_floor(tview) -> int:
    cfg = tview.shared.config
    return int(np.ceil(cfg.min_invocation_factor * tview.shared.num_processes))


def _user_mask(shared) -> np.ndarray:
    return shared.region_paradigm == int(Paradigm.USER)


@register_rule(
    "TL201",
    category="precondition",
    scope="trace",
    severity=Severity.ERROR,
)
def no_dominant_candidate(tview) -> Iterator[Finding]:
    """No function reaches the 2p invocation floor (paper Section IV).

    Dominant-function selection requires a USER-paradigm function
    invoked at least ``2p`` times; without one the trace cannot be
    segmented and the analysis pipeline will refuse it.
    """
    shared = tview.shared
    if not tview.summaries:
        return  # TL011 covers the empty trace
    floor = _candidate_floor(tview)
    counts = tview.total_enter_counts()
    user = _user_mask(shared)
    if not np.any(user & (counts >= floor)):
        best = int(counts[user].max()) if np.any(user) else 0
        yield Finding(
            f"no USER function is invoked at least {floor} times "
            f"(2p floor; best candidate reaches {best}) — "
            f"dominant-function selection will fail",
        )


@register_rule(
    "TL202",
    category="precondition",
    scope="trace",
    severity=Severity.WARNING,
)
def sync_classifier_coverage(tview) -> Iterator[Finding]:
    """Sync classifier covers too little of the communication time.

    SOS-time subtracts classified synchronization from each segment
    (paper Section V); when the classifier covers less than the
    configured share of the trace's communication/synchronization
    time, the subtraction is unsound and variations surface in the
    wrong places.
    """
    shared = tview.shared
    comm = (shared.region_paradigm == int(Paradigm.MPI)) | np.isin(
        shared.region_role,
        (int(RegionRole.SYNCHRONIZATION), int(RegionRole.COMMUNICATION)),
    )
    times = tview.total_region_time()
    comm_time = float(times[comm].sum())
    if comm_time <= 0.0:
        return
    covered = float(times[comm & shared.sync_mask].sum())
    coverage = covered / comm_time
    if coverage < shared.config.sync_coverage_min:
        yield Finding(
            f"sync classifier covers {100 * coverage:.1f}% of the "
            f"{comm_time:.6g}s communication time "
            f"(minimum {100 * shared.config.sync_coverage_min:.0f}%)",
        )


@register_rule(
    "TL203",
    category="precondition",
    scope="trace",
    severity=Severity.WARNING,
)
def segment_count_divergence(tview) -> Iterator[Finding]:
    """Ranks would produce different numbers of segments.

    Segments are comparable across ranks only when every rank invokes
    the dominant function equally often; diverging counts misalign the
    process × time heat map columns.
    """
    shared = tview.shared
    if len(tview.ranks) < 2:
        return
    floor = _candidate_floor(tview)
    counts = tview.total_enter_counts()
    user = _user_mask(shared)
    eligible = np.flatnonzero(user & (counts >= floor))
    if not len(eligible):
        return  # TL201 already covers the missing candidate
    times = tview.total_region_time()
    dominant = int(eligible[np.argmax(times[eligible])])
    per_rank = np.asarray(
        [tview.summaries[r].enter_counts[dominant] for r in tview.ranks]
    )
    lo, hi = int(per_rank.min()), int(per_rank.max())
    if lo != hi:
        lo_rank = tview.ranks[int(np.argmin(per_rank))]
        hi_rank = tview.ranks[int(np.argmax(per_rank))]
        yield Finding(
            f"dominant candidate {shared.region_names[dominant]!r} is "
            f"invoked {hi} times on rank {hi_rank} but {lo} times on "
            f"rank {lo_rank}; segments will not align across ranks",
        )


@register_rule(
    "TL204",
    category="precondition",
    scope="trace",
    severity=Severity.WARNING,
)
def clock_skew(tview) -> Iterator[Finding]:
    """Rank stream starts suspiciously far from the other ranks'.

    All ranks of an SPMD run start within moments of each other; a
    stream whose first timestamp deviates from the median start by
    more than the tolerance (default 5% of the trace duration)
    suggests unsynchronized clocks, which shifts that rank's segments
    against every visualization column.
    """
    shared = tview.shared
    active = [r for r in tview.ranks if tview.summaries[r].n_events]
    if len(active) < 2:
        return
    duration = tview.t_max - tview.t_min
    if duration <= 0.0:
        return
    starts = np.asarray([tview.summaries[r].t_first for r in active])
    # np.median's NaN check would import numpy.ma: the mean of the
    # middle one or two sorted starts is the same number.
    ordered = np.sort(starts)
    mid = (len(ordered) - 1) // 2
    median = float(np.mean(ordered[mid:len(ordered) // 2 + 1]))
    if np.isnan(ordered[-1]):
        median = float("nan")
    tolerance = shared.config.clock_skew_tolerance * duration
    for rank, start in zip(active, starts.tolist()):
        if abs(start - median) > tolerance:
            yield Finding(
                f"stream starts at t={start:.6g}, "
                f"{abs(start - median):.6g}s away from the median start "
                f"t={median:.6g} (tolerance {tolerance:.6g}s)",
                rank=rank,
                position=0,
                time=start,
            )
