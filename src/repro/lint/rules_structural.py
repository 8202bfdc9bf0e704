"""Built-in structural rules (TL0xx): well-formedness of event streams.

The error-severity rules gate every analysis before replay
(:func:`~repro.lint.engine.validate_config`); the warning-severity
ones (duplicate events, negative timestamps) only report.

Every rank-scoped check receives a :class:`~repro.lint.engine.BatchView`
over several ranks, computes its masks once for the whole batch and
yields one :class:`~repro.lint.registry.Finding` per offending rank.
The view guards against broken inputs, so rules stay crash-free on
exactly the traces they are meant to reject.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..trace.events import EventKind
from .model import Severity
from .registry import Finding, register_rule

__all__: list[str] = []


@register_rule(
    "TL001",
    category="structural",
    scope="rank",
    severity=Severity.ERROR,
)
def unmatched_leave(view) -> Iterator[Finding]:
    """Leave event with no region open on the stack.

    A LEAVE that arrives while the region stack is empty means the
    measurement dropped the matching ENTER (typically a lost buffer at
    the start of the stream); stack replay over such a stream is
    undefined.
    """
    under = view.pairing.underflow
    for slot in np.flatnonzero(under >= 0).tolist():
        i = int(under[slot])
        yield view.finding(slot, f"leave at event {i} with empty stack", i)


@register_rule(
    "TL002",
    category="structural",
    scope="rank",
    severity=Severity.ERROR,
)
def unclosed_regions(view) -> Iterator[Finding]:
    """Regions still open at the end of the stream.

    Enter/leave events must balance over the whole stream; leftover
    open regions usually mean the trace was truncated mid-run.
    """
    p = view.pairing
    for slot in np.flatnonzero(p.open_count).tolist():
        yield view.finding(
            slot,
            f"{int(p.open_count[slot])} regions still open at end of stream",
            int(p.first_unclosed[slot]),
        )


@register_rule(
    "TL003",
    category="structural",
    scope="rank",
    severity=Severity.ERROR,
)
def mismatched_leave(view) -> Iterator[Finding]:
    """Leave references a different region than the one open.

    Properly nested streams alternate enter/leave per stack frame; a
    leave for region B while region A is open indicates interleaved or
    corrupted enter/leave pairs.
    """
    firsts = view.first_frame(view.inv_region != view.inv_leave_region)
    for slot, k in firsts.items():
        i = int(view.inv_leave_index[k] - view.starts[slot])
        yield view.finding(
            slot,
            f"event {i} leaves region {int(view.inv_leave_region[k])} "
            f"but region {int(view.inv_region[k])} is open",
            i,
        )


@register_rule(
    "TL004",
    category="structural",
    scope="rank",
    severity=Severity.ERROR,
)
def time_order(view) -> Iterator[Finding]:
    """Timestamps are not sorted in non-decreasing order.

    Every analysis pass (binary-search windows, segment accumulation,
    replay) assumes time-sorted streams; an unsorted stream makes all
    downstream positions meaningless.
    """
    first = view.pairing.first_unsorted
    for slot in np.flatnonzero(~view.sorted).tolist():
        yield view.finding(slot, "timestamps not sorted", int(first[slot]))


@register_rule(
    "TL005",
    category="structural",
    scope="rank",
    severity=Severity.WARNING,
)
def duplicate_events(view) -> Iterator[Finding]:
    """Consecutive events are exact duplicates.

    Two adjacent events identical in every column (time, kind, ref,
    partner, size, tag, value) almost always come from a measurement
    buffer flushed twice; they double-count durations and message
    volumes.
    """
    ev = view.events
    if view.n < 2:
        return
    # Events i that repeat event i - 1: equal times first, then each
    # other column on those candidates only.
    same = np.flatnonzero(ev.time[1:] == ev.time[:-1]) + 1
    for name in ("kind", "ref", "partner", "size", "tag", "value"):
        col = getattr(ev, name)
        same = same[col[same] == col[same - 1]]
    # A rank's first event repeats nothing.
    at = np.minimum(np.searchsorted(view.starts, same), len(view.starts) - 1)
    same = same[view.starts[at] != same]
    for slot, first, count in view.by_rank(same):
        if view.sorted[slot]:
            yield view.finding(
                slot,
                f"{count} events are exact duplicates of their "
                f"predecessor (first at event {first})",
                first,
            )


@register_rule(
    "TL006",
    category="structural",
    scope="rank",
    severity=Severity.WARNING,
)
def negative_time(view) -> Iterator[Finding]:
    """Events timestamped before the trace origin (t < 0).

    Trace time starts at zero; negative timestamps indicate clock
    correction gone wrong or an integer-underflow in the writer, and
    they land events outside the trace extent every view assumes.
    """
    neg = np.flatnonzero(view.events.time < 0)
    for slot, first, count in view.by_rank(neg):
        yield view.finding(
            slot, f"{count} events before t=0 (first at event {first})", first
        )


def _bad_refs(view, index: np.ndarray, limit: int, what: str):
    """One finding per rank whose events at ``index`` reference an id
    outside ``[0, limit)``."""
    ref = view.events.ref
    refs = ref[index]
    bad = index[(refs < 0) | (refs >= limit)]
    for slot, first, _count in view.by_rank(bad):
        yield view.finding(
            slot,
            f"event {first} references undefined {what} "
            f"{int(ref[view.starts[slot] + first])}",
            first,
        )


@register_rule(
    "TL007",
    category="structural",
    scope="rank",
    severity=Severity.ERROR,
)
def bad_region_ref(view) -> Iterator[Finding]:
    """Enter/leave references a region id missing from the definitions.

    Orphan region references make profile accumulation impossible —
    there is no name, paradigm or role to attribute the time to.
    """
    yield from _bad_refs(view, view.el_idx, view.shared.num_regions, "region")


@register_rule(
    "TL008",
    category="structural",
    scope="rank",
    severity=Severity.ERROR,
)
def bad_metric_ref(view) -> Iterator[Finding]:
    """Metric sample references an undefined metric id.

    Counter analysis indexes metric samples by definition id; a
    dangling id would silently drop or misattribute samples.
    """
    yield from _bad_refs(view, view.metric_idx, view.shared.num_metrics, "metric")


@register_rule(
    "TL009",
    category="structural",
    scope="rank",
    severity=Severity.ERROR,
)
def bad_partner(view) -> Iterator[Finding]:
    """Message event references an unknown partner location.

    Send/receive partners must resolve against the trace's rank set
    (the *global* set under sharding, so cross-shard messages are not
    misflagged).  A partner of -1 on a RECV is the wildcard-receive
    (``MPI_ANY_SOURCE``) convention and is legal — the TL302 race rule
    analyzes those — but -1 on a SEND has no meaning and stays an
    error.
    """
    ev = view.events
    idx = view.p2p_idx
    if not len(idx):
        return
    partners = ev.partner[idx]
    wildcard = (ev.kind[idx] == np.uint8(EventKind.RECV)) & (partners == -1)
    idx, partners = idx[~wildcard], partners[~wildcard]
    ranks = view.shared.known_ranks
    at = np.searchsorted(ranks, partners)
    known = at < len(ranks)
    known[known] = ranks[at[known]] == partners[known]
    unknown = idx[~known]
    for slot, first, count in view.by_rank(unknown):
        lo = np.searchsorted(unknown, view.starts[slot])
        peers = sorted(set(ev.partner[unknown[lo:lo + count]].tolist()))
        yield view.finding(
            slot, f"messages reference unknown locations {peers}", first
        )


@register_rule(
    "TL010",
    category="structural",
    scope="rank",
    severity=Severity.ERROR,
)
def empty_stream(view) -> Iterator[Finding]:
    """Location defined but carries no events.

    Usually a measurement failure on that rank; suppressed via
    ``allow_empty_streams`` for legitimately filtered traces.
    """
    if view.shared.config.allow_empty_streams:
        return
    for slot in np.flatnonzero(view.counts == 0).tolist():
        yield view.finding(slot, "location has no events")


@register_rule(
    "TL011",
    category="structural",
    scope="trace",
    severity=Severity.ERROR,
)
def no_processes(tview) -> Iterator[Finding]:
    """Trace defines no locations at all.

    Without processes there is nothing to analyse; this is the
    emptiest possible trace pathology.
    """
    if tview.shared.num_processes == 0 and not tview.summaries:
        yield Finding("trace has no locations")
