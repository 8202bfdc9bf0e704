"""Built-in structural rules (TL0xx): well-formedness of event streams.

The error-severity rules gate every analysis before replay
(:func:`~repro.lint.engine.validate_config`); the warning-severity
ones (duplicate events, negative timestamps) only report.

Every check function receives a :class:`~repro.lint.engine.RankView`
and yields :class:`~repro.lint.registry.Finding` objects.  The view
guards against broken inputs, so rules stay crash-free on exactly the
traces they are meant to reject.
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
    if view.underflow_index >= 0:
        i = view.underflow_index
        yield Finding(
            f"leave at event {i} with empty stack",
            position=i,
            time=view.time_at(i),
        )


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
    if view.open_count:
        yield Finding(
            f"{view.open_count} regions still open at end of stream",
            position=view.first_unclosed,
            time=view.time_at(view.first_unclosed),
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
    if not view.balanced or not len(view.inv_region):
        return
    mismatched = view.inv_region != view.inv_leave_region
    if np.any(mismatched):
        first = int(np.argmax(mismatched))
        i = int(view.inv_leave_index[first])
        yield Finding(
            f"event {i} leaves region {int(view.inv_leave_region[first])} "
            f"but region {int(view.inv_region[first])} is open",
            position=i,
            time=view.time_at(i),
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
    if not view.sorted:
        i = view.first_unsorted
        yield Finding(
            "timestamps not sorted",
            position=i,
            time=view.time_at(i),
        )


@register_rule(
    "TL005",
    category="structural",
    scope="rank",
    severity=Severity.WARNING,
    columns=("size", "tag", "value"),
)
def duplicate_events(view) -> Iterator[Finding]:
    """Consecutive events are exact duplicates.

    Two adjacent events identical in every column (time, kind, ref,
    partner, size, tag, value) almost always come from a measurement
    buffer flushed twice; they double-count durations and message
    volumes.
    """
    ev = view.events
    if view.n < 2 or not view.sorted:
        return
    same = np.ones(view.n - 1, dtype=bool)
    for name in ("time", "kind", "ref", "partner", "size", "tag", "value"):
        col = getattr(ev, name)
        same &= col[1:] == col[:-1]
    if np.any(same):
        first = int(np.argmax(same)) + 1
        yield Finding(
            f"{int(np.sum(same))} events are exact duplicates of their "
            f"predecessor (first at event {first})",
            position=first,
            time=view.time_at(first),
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
    neg = view.events.time < 0
    if np.any(neg):
        first = int(np.argmax(neg))
        yield Finding(
            f"{int(np.sum(neg))} events before t=0 (first at event {first})",
            position=first,
            time=view.time_at(first),
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
    if np.any(view.bad_region):
        first = int(np.argmax(view.bad_region))
        yield Finding(
            f"event {first} references undefined region "
            f"{int(view.events.ref[first])}",
            position=first,
            time=view.time_at(first),
        )


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
    if np.any(view.bad_metric):
        first = int(np.argmax(view.bad_metric))
        yield Finding(
            f"event {first} references undefined metric "
            f"{int(view.events.ref[first])}",
            position=first,
            time=view.time_at(first),
        )


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
    if not np.any(view.p2p_mask):
        return
    recv_mask = ev.kind == np.uint8(EventKind.RECV)
    checked = view.p2p_mask & ~(recv_mask & (ev.partner == -1))
    if not np.any(checked):
        return
    partners = ev.partner[checked]
    ranks = view.shared.known_ranks
    at = np.searchsorted(ranks, partners)
    known = at < len(ranks)
    known[known] = ranks[at[known]] == partners[known]
    if not known.all():
        unknown = np.unique(partners[~known]).tolist()
        first = int(np.flatnonzero(checked)[np.argmax(~known)])
        yield Finding(
            f"messages reference unknown locations {unknown}",
            position=first,
            time=view.time_at(first),
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
    if view.n == 0 and not view.shared.config.allow_empty_streams:
        yield Finding("location has no events")


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
