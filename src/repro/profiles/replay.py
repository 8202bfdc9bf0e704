"""Vectorised stack replay: event streams → invocation tables.

The central data structure of the analysis layer is the
:class:`InvocationTable`: one row per complete ``ENTER``/``LEAVE`` pair
of one process, with inclusive/exclusive durations, stack depth and
parent links.  Everything downstream (profiles, dominant-function
selection, segmentation, SOS-times) consumes invocation tables rather
than raw events.

The matching is vectorised: rather than simulating a call stack event
by event, we exploit the fact that within one *frame depth* the enters
and leaves of a well-formed stream strictly alternate.  A single stable
argsort by depth therefore yields all matching pairs at once (the
"group by depth, pair adjacent" trick) — in practice ~30x faster than
a Python-level loop for million-event streams.  The pairing runs on a
*batch* of streams joined end to end (:func:`pair_events`), so many
ranks cost one set of NumPy calls; :func:`match_invocations` is the
one-stream batch.
"""

from __future__ import annotations

import numpy as np

from .._record import fields, record
from ..trace.events import EventKind, EventList
from ..trace.trace import Trace

__all__ = [
    "BatchTables",
    "InvocationTable",
    "Pairing",
    "match_invocations",
    "pair_events",
    "replay_trace",
    "table_from_pairing",
    "REPLAY_COLUMNS",
]

#: Event columns stack replay actually reads.  Projected loads
#: (``TraceIndex.load(..., columns=REPLAY_COLUMNS)``) may restrict the
#: materialised columns to this set; the projection tests assert the
#: declaration stays truthful.
REPLAY_COLUMNS = ("time", "kind", "ref")


@record(frozen=True, slots=True)
class InvocationTable:
    """Structure-of-arrays table of completed region invocations.

    Attributes
    ----------
    region:
        Region id of each invocation.
    t_enter, t_leave:
        Timestamps of the enter/leave events.
    inclusive:
        ``t_leave - t_enter``.
    exclusive:
        Inclusive time minus the inclusive times of direct children.
    depth:
        1-based stack depth of the frame.
    parent:
        Row index of the directly enclosing invocation, -1 at top level.
    outermost:
        True where no ancestor invocation has the same region
        (used to aggregate inclusive time without double-counting
        recursion).
    enter_index, leave_index:
        Row positions of the corresponding events in the originating
        :class:`~repro.trace.events.EventList`.

    Rows are ordered by ``t_enter`` (stable; i.e. parents precede
    children).
    """

    region: np.ndarray
    t_enter: np.ndarray
    t_leave: np.ndarray
    inclusive: np.ndarray
    exclusive: np.ndarray
    depth: np.ndarray
    parent: np.ndarray
    outermost: np.ndarray
    enter_index: np.ndarray
    leave_index: np.ndarray

    def __len__(self) -> int:
        return len(self.region)

    def for_region(self, region_id: int) -> "InvocationTable":
        """Rows whose region equals ``region_id``."""
        return self.select(self.region == region_id)

    def rows(self, index) -> "InvocationTable":
        """Rows at ``index`` (a slice or positions), columns as stored."""
        return InvocationTable(
            *[getattr(self, name)[index] for name in _TABLE_COLUMNS]
        )

    def select(self, mask: np.ndarray) -> "InvocationTable":
        """Subset rows; ``parent`` links are remapped (or -1 if dropped)."""
        idx = np.flatnonzero(mask)
        remap = np.full(len(self.region), -1, dtype=np.int64)
        remap[idx] = np.arange(len(idx))
        parent = self.parent[idx]
        new_parent = np.where(parent >= 0, remap[parent], -1)
        return InvocationTable(
            region=self.region[idx],
            t_enter=self.t_enter[idx],
            t_leave=self.t_leave[idx],
            inclusive=self.inclusive[idx],
            exclusive=self.exclusive[idx],
            depth=self.depth[idx],
            parent=new_parent,
            outermost=self.outermost[idx],
            enter_index=self.enter_index[idx],
            leave_index=self.leave_index[idx],
        )

    @classmethod
    def empty(cls) -> "InvocationTable":
        z_f = np.empty(0, dtype=np.float64)
        z_i = np.empty(0, dtype=np.int64)
        z_b = np.empty(0, dtype=bool)
        return cls(
            region=np.empty(0, dtype=np.int32),
            t_enter=z_f,
            t_leave=z_f,
            inclusive=z_f,
            exclusive=z_f,
            depth=np.empty(0, dtype=np.int32),
            parent=z_i,
            outermost=z_b,
            enter_index=z_i,
            leave_index=z_i,
        )


_ENTER = np.uint8(EventKind.ENTER)
_LEAVE = np.uint8(EventKind.LEAVE)
_TABLE_COLUMNS = tuple(f.name for f in fields(InvocationTable))


def _heads(slot: np.ndarray) -> np.ndarray:
    """Positions where a sorted slot array starts a new run."""
    new = np.empty(len(slot), dtype=bool)
    new[:1] = True
    np.not_equal(slot[1:], slot[:-1], out=new[1:])
    return np.flatnonzero(new)


def _stable_order(key: np.ndarray, span: int) -> np.ndarray:
    """Stable argsort of non-negative integer keys below ``span``.

    Keys that fit 8 or 16 bits take NumPy's linear-time radix sort."""
    if span <= 1 << 8:
        key = key.astype(np.uint8)
    elif span <= 1 << 16:
        key = key.astype(np.uint16)
    return np.argsort(key, kind="stable")


@record(frozen=True, slots=True)
class Pairing:
    """Enter/leave pairing of a batch of rank streams.

    A batch is the event columns of R ranks joined end to end;
    ``starts`` holds the R + 1 event offsets and ``el_starts`` the
    matching offsets into ``el_idx``.  Per-rank fields are length-R
    arrays whose event positions are rank-local (-1 for none).

    Only *paired* ranks have frames: every rank with ENTER/LEAVE
    events when replaying, and the time-sorted, balanced ones when
    linting.  Frame rows are rank-major in enter order (the table
    order), and ``by_depth`` lists the rows ordered by (depth, rank,
    enter position).
    """

    starts: np.ndarray
    el_idx: np.ndarray  # batch position of every ENTER/LEAVE
    el_starts: np.ndarray
    is_enter: np.ndarray  # per ENTER/LEAVE
    sorted: np.ndarray  # bool per rank: timestamps non-decreasing
    first_unsorted: np.ndarray
    underflow: np.ndarray  # first LEAVE on an empty stack
    open_count: np.ndarray  # frames still open at the end
    first_unclosed: np.ndarray  # first ENTER that never closes
    balanced: np.ndarray  # bool per rank: paired and well nested
    frame_starts: np.ndarray  # R + 1 offsets into the frame rows
    enter_pos: np.ndarray  # per row, into el_idx
    leave_pos: np.ndarray
    depth: np.ndarray  # per row, 1-based (int32)
    parent: np.ndarray  # per row: row of the enclosing frame, or -1
    by_depth: np.ndarray
    #: every paired rank is sorted and the batch has no NaN time, so
    #: within a rank later leaves never have earlier timestamps
    monotone: bool

    @property
    def num_ranks(self) -> int:
        return len(self.starts) - 1

    def frame_slot(self) -> np.ndarray:
        """Rank slot of every frame row."""
        return np.repeat(np.arange(self.num_ranks), np.diff(self.frame_starts))


def pair_events(
    time: np.ndarray, kind: np.ndarray, starts, *, lint: bool = False
) -> Pairing:
    """Pair the enters and leaves of a batch of rank streams.

    Depth is one running sum minus each rank's baseline, and one
    stable sort by depth pairs every frame of the batch: within one
    depth of one well-nested stream, enters and leaves alternate, and
    the sort keeps the ranks apart because it keeps their order.
    With ``lint`` the pairing is diagnostic: it never raises, skips
    unsorted ranks, and flags underflows and unclosed frames per rank.
    Without it (replay), any rank with ENTER/LEAVE events that does
    not balance raises :class:`ValueError`.
    """
    starts = np.asarray(starts, dtype=np.int64)
    n_ranks = len(starts) - 1
    el_idx = np.flatnonzero(kind <= _LEAVE)  # ENTER and LEAVE are 0 and 1
    is_enter = kind[el_idx] == _ENTER
    el_starts = np.searchsorted(el_idx, starts)
    el_counts = np.diff(el_starts)

    sorted_ = np.ones(n_ranks, dtype=bool)
    first_unsorted = np.full(n_ranks, -1, dtype=np.int64)
    down = np.flatnonzero(time[1:] < time[:-1]) + 1
    if len(down):
        slot = np.searchsorted(starts, down, side="right") - 1
        # A rank's first event has no predecessor in its stream.
        inner = down != starts[slot]
        down, slot = down[inner], slot[inner]
        head = _heads(slot)
        sorted_[slot[head]] = False
        first_unsorted[slot[head]] = down[head] - starts[slot[head]]

    depth_after = is_enter.astype(np.int64)
    depth_after *= 2
    depth_after -= 1
    np.cumsum(depth_after, out=depth_after)
    has_el = el_counts > 0
    final = np.zeros(n_ranks, dtype=np.int64)
    final[has_el] = depth_after[el_starts[1:][has_el] - 1]
    if n_ranks > 1 and len(el_idx):
        base = np.zeros(n_ranks, dtype=np.int64)
        later = el_starts[:-1] > 0
        base[later] = depth_after[el_starts[:-1][later] - 1]
        if base.any():  # some earlier rank ends with open frames
            depth_after -= np.repeat(base, el_counts)
            final -= base

    pairable = has_el & sorted_ if lint else has_el
    underflow = np.full(n_ranks, -1, dtype=np.int64)
    neg = np.flatnonzero(depth_after < 0)
    if len(neg):
        slot = np.searchsorted(el_starts, neg, side="right") - 1
        keep = pairable[slot]
        neg, slot = neg[keep], slot[keep]
        head = _heads(slot)
        underflow[slot[head]] = el_idx[neg[head]] - starts[slot[head]]
    open_ = pairable & (underflow < 0) & (final != 0)
    open_count = np.where(open_, final, 0)
    first_unclosed = np.full(n_ranks, -1, dtype=np.int64)
    if open_.any():
        # An enter is unmatched iff the depth never drops below its
        # own frame depth afterwards: a reverse running minimum, made
        # rank-segmented by lifting each later rank above the last.
        el_slot = np.repeat(np.arange(n_ranks), el_counts)
        key = depth_after + el_slot * (2 * len(el_idx) + 2)
        after = np.empty_like(key)
        after[:-1] = np.minimum.accumulate(key[::-1])[::-1][1:]
        after[-1] = np.iinfo(np.int64).max
        idx = np.flatnonzero(is_enter & (after >= key) & open_[el_slot])
        slot = el_slot[idx]
        head = _heads(slot)
        first_unclosed[slot[head]] = el_idx[idx[head]] - starts[slot[head]]
    balanced = pairable & (underflow < 0) & (final == 0)
    if not lint and not np.array_equal(balanced, has_el):
        raise ValueError("unbalanced enter/leave stream")

    # Frame depth: for an enter, depth after the event; for a leave,
    # depth before it.  Ranks outside the pairing drop out here.
    frame_depth = depth_after + ~is_enter
    paired = None
    if not np.array_equal(balanced, has_el):
        paired = np.repeat(balanced, el_counts)
        pidx = np.flatnonzero(paired)
        fd = frame_depth[pidx]
    else:
        fd = frame_depth
    max_depth = int(fd.max()) if len(fd) else 0
    order = _stable_order(fd, max_depth + 1)
    del frame_depth, fd
    if paired is not None:
        order = pidx[order]
    # Balanced streams cross each depth up, down, up, ...: enters and
    # leaves alternate within every (depth, rank) group.
    d_enter, d_leave = order[0::2], order[1::2]
    enter_pos = np.flatnonzero(is_enter if paired is None else is_enter & paired)
    nf = len(enter_pos)
    frame_of = np.empty(len(el_idx), dtype=np.int64)
    frame_of[enter_pos] = np.arange(nf)
    by_depth = frame_of[d_enter]
    del frame_of
    leave_pos = np.empty(nf, dtype=np.int64)
    leave_pos[by_depth] = d_leave
    depth = depth_after[enter_pos].astype(np.int32)
    return Pairing(
        starts=starts,
        el_idx=el_idx,
        el_starts=el_starts,
        is_enter=is_enter,
        sorted=sorted_,
        first_unsorted=first_unsorted,
        underflow=underflow,
        open_count=open_count,
        first_unclosed=first_unclosed,
        balanced=balanced,
        frame_starts=np.searchsorted(enter_pos, el_starts),
        enter_pos=enter_pos,
        leave_pos=leave_pos,
        depth=depth,
        parent=_parents(is_enter, enter_pos, depth, by_depth),
        by_depth=by_depth,
        monotone=bool(sorted_[balanced].all()) and not np.isnan(time).any(),
    )


def _parents(
    is_enter: np.ndarray,
    enter_pos: np.ndarray,
    depth: np.ndarray,
    by_depth: np.ndarray,
) -> np.ndarray:
    """Parent row of each frame, in linear time.

    A frame whose ENTER directly follows another ENTER is that
    frame's child; one that follows a LEAVE is the next sibling of
    the frame just closed.  Siblings are consecutive in ``by_depth``
    order, so every frame inherits the parent of the first frame of
    its sibling run (a forward fill); top-level frames have none.
    """
    n = len(enter_pos)
    nested = depth > 1  # the previous ENTER/LEAVE is then of the same rank
    first = is_enter[enter_pos - 1] & nested
    head = np.where(first, np.arange(n) - 1, -1)
    run = np.where((first | ~nested)[by_depth], np.arange(n), 0)
    np.maximum.accumulate(run, out=run)
    parent = np.empty(n, dtype=np.int64)
    parent[by_depth] = head[by_depth[run]]
    return parent


def _outermost_flags(
    p: Pairing,
    region: np.ndarray,
    t_enter: np.ndarray,
    t_leave: np.ndarray,
    time: np.ndarray,
) -> np.ndarray:
    """True where the invocation has no same-region ancestor.

    Same-region invocations of one process are either disjoint or
    nested; sorted by enter time, an invocation is nested inside an
    earlier one exactly when its leave time does not exceed the running
    maximum of earlier leave times of its (rank, region).  On
    time-sorted streams rows already run in enter-time order, and the
    latest earlier leave (by position) holds that maximum: one stable
    sort by region and a running maximum of integer keys replace the
    float scan.  Otherwise a segmented doubling scan takes the float
    maximum over a (rank, region, enter time) sort.
    """
    n = len(region)
    nested = np.zeros(n, dtype=bool)
    if n == 0:
        return ~nested
    lo = int(region.min())
    span = int(region.max()) - lo + 1
    offset = region.astype(np.int64) - lo
    if p.monotone:
        order = _stable_order(offset, span)  # (region, rank, enter) order
        key = offset[order]
        group = np.empty(n, dtype=np.int64)
        group[0] = 0
        np.cumsum(key[1:] != key[:-1], out=group[1:])
        del key
        group *= len(p.el_idx) + 1
        run = group + p.leave_pos[order]
        np.maximum.accumulate(run, out=run)
        # The latest earlier leave of the region; it is of the same
        # rank when it lies after the rank's first ENTER/LEAVE.
        prev = run[:-1]
        prev -= group[1:]
        del group
        rank_first = np.repeat(p.el_starts[:-1], np.diff(p.frame_starts))
        other = prev < rank_first[order[1:]]
        del rank_first
        prev[other] = 0
        prev_max = time[p.el_idx[prev]]
        prev_max[other] = -np.inf
    else:
        gid = p.frame_slot() * span + offset
        order = np.lexsort((t_enter, gid))
        g = gid[order]
        run = t_leave[order]
        k = 1
        while k < n:
            same = g[k:] == g[:-k]
            if not same.any():
                break
            run[k:] = np.where(same, np.maximum(run[k:], run[:-k]), run[k:])
            k *= 2
        prev_max = np.where(g[1:] == g[:-1], run[:-1], -np.inf)
    t1 = t_leave[order]
    nested[order[0]] = t1[0] <= -np.inf
    nested[order[1:]] = t1[1:] <= prev_max
    return ~nested


@record(frozen=True, slots=True)
class BatchTables:
    """The invocation tables of every paired rank of a batch.

    ``table`` holds all rows, rank-major; its ``enter_index``,
    ``leave_index`` and ``parent`` are already rank-local, so
    :meth:`split` slices.
    """

    table: InvocationTable
    frame_starts: np.ndarray
    #: bool per rank: some leave closes a frame of another region
    mismatched: np.ndarray

    def split(self, slots) -> list[InvocationTable]:
        """The tables of the batch's ranks at ``slots``."""
        if self.mismatched[slots].any():
            raise ValueError("mismatched enter/leave region references")
        cut = self.frame_starts.tolist()
        cols = [getattr(self.table, name) for name in _TABLE_COLUMNS]
        return [
            InvocationTable(*[col[cut[s]:cut[s + 1]] for col in cols])
            for s in slots
        ]


def table_from_pairing(
    pairing: Pairing, time: np.ndarray, ref: np.ndarray
) -> BatchTables:
    """Build the invocation tables of a batch from its pairing.

    One pass serves every rank: exclusive time subtracts children in
    row order and outermost flags scan each (rank, region) in enter
    order, so each rank's table is bitwise identical to replaying it
    alone.
    """
    p = pairing
    enter_index = p.el_idx[p.enter_pos]
    leave_index = p.el_idx[p.leave_pos]
    region = np.asarray(ref[enter_index], dtype=np.int32)
    t_enter = np.asarray(time[enter_index], dtype=np.float64)
    t_leave = np.asarray(time[leave_index], dtype=np.float64)
    inclusive = t_leave - t_enter

    parent = p.parent
    # Exclusive time: subtract each child's inclusive time from its parent.
    child_sum = np.zeros(len(region), dtype=np.float64)
    has_parent = parent >= 0
    np.add.at(child_sum, parent[has_parent], inclusive[has_parent])
    exclusive = inclusive - child_sum

    outermost = _outermost_flags(p, region, t_enter, t_leave, time)
    mismatched = np.zeros(p.num_ranks, dtype=bool)
    bad = np.flatnonzero(region != ref[leave_index])
    if len(bad):
        mismatched[p.frame_slot()[bad]] = True

    counts = np.diff(p.frame_starts)
    if p.num_ranks > 1:
        shift = np.repeat(p.starts[:-1], counts)
        enter_index -= shift
        leave_index -= shift
        shift = np.repeat(p.frame_starts[:-1], counts)
        parent = np.where(has_parent, parent - shift, -1)
    table = InvocationTable(
        region=region,
        t_enter=t_enter,
        t_leave=t_leave,
        inclusive=inclusive,
        exclusive=exclusive,
        depth=p.depth,
        parent=parent,
        outermost=outermost,
        enter_index=enter_index,
        leave_index=leave_index,
    )
    return BatchTables(table, p.frame_starts, mismatched)


def match_invocations(events: EventList) -> InvocationTable:
    """Build the invocation table for one process stream.

    The one-rank batch of :func:`pair_events` and
    :func:`table_from_pairing`.

    Raises
    ------
    ValueError
        If the stream's enter/leave events are unbalanced or not
        properly nested (run :func:`repro.lint.lint_trace` for a
        precise diagnosis).
    """
    pairing = pair_events(events.time, events.kind, (0, len(events)))
    return table_from_pairing(pairing, events.time, events.ref).split([0])[0]


def replay_trace(trace: Trace) -> dict[int, InvocationTable]:
    """Invocation tables for every process of ``trace`` (keyed by rank)."""
    return {rank: match_invocations(trace.events_of(rank)) for rank in trace.ranks}
