"""Cross-rank happens-before analysis: the message-match graph.

The TL3xx rule family answers *cross-rank* causality questions —
deadlock cycles, wildcard-receive races, collective divergence, orphan
messages, wait-chain origins — statically, without replaying the
trace.  The machinery here is split to fit the sharded lint engine:

1. :func:`extract_match_records` runs per batch of ranks (inside the
   kernel's scan, in process or in shard workers): it pulls every SEND/RECV
   with its tag, payload size and innermost enclosing region, plus the
   rank's collective-invocation sequence, into a few flat NumPy arrays
   (:class:`MatchRecords`, picklable, a few bytes per message).
2. :meth:`MatchGraph.from_records` runs once in the parent: it merges
   the per-rank records and matches point-to-point messages by
   ``(src, dst, tag)`` queue order — the k-th send on a channel pairs
   with the k-th receive, exactly MPI's non-overtaking rule — and
   aligns collectives by per-communicator epoch index.  The trace has
   a single global communicator (the event model carries no ``comm``
   column), so epoch k is simply each rank's k-th collective call.
3. :class:`VectorClockEngine` sweeps the graph with per-rank vector
   clocks when a rule needs true concurrency answers (today: wildcard
   races).  It is built lazily — healthy traces contain no wildcard
   receives and never pay for it.

Because step 1 is strictly per-rank, the records are identical no
matter how ranks are grouped into shards, and the global pass in step
2 sees the complete trace — cross-rank rules can never silently run on
a partial view (the engine refuses to finalize hb rules without
records).

The graph also powers ``repro deps``: :func:`graph_to_dot` /
:func:`graph_to_json_dict` export the aggregated communication
topology for external viewers (ROADMAP item 2).
"""

from __future__ import annotations

import mmap
from typing import TYPE_CHECKING, Any, Iterable, Mapping

import numpy as np

from .._record import fields, record
from ..trace.events import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from .engine import BatchView, LintShared

__all__ = [
    "COLLECTIVE_NAMES",
    "MatchRecords",
    "MatchGraph",
    "MatchBatch",
    "MatchGraphWriter",
    "HBView",
    "VectorClockEngine",
    "collective_region_mask",
    "extract_match_records",
    "match_records_for_trace",
    "match_graph_for_trace",
    "graph_to_dot",
    "graph_to_json_dict",
]

#: MPI operations with collective semantics: every rank of the
#: communicator must participate, in the same order.  (Shared with the
#: TL102 per-count check in :mod:`repro.lint.rules_semantic`.)
COLLECTIVE_NAMES = frozenset(
    {
        "MPI_Barrier",
        "MPI_Allreduce",
        "MPI_Reduce",
        "MPI_Bcast",
        "MPI_Alltoall",
        "MPI_Alltoallv",
        "MPI_Allgather",
        "MPI_Allgatherv",
        "MPI_Gather",
        "MPI_Scatter",
        "MPI_Win_fence",
    }
)

_I32 = np.int32
_I64 = np.int64
_F64 = np.float64


def collective_region_mask(shared: "LintShared") -> np.ndarray:
    """Boolean per-region mask of MPI-paradigm collective operations."""
    from ..trace.definitions import Paradigm

    if shared.num_regions == 0:
        return np.zeros(0, dtype=bool)
    named = np.fromiter(
        (name in COLLECTIVE_NAMES for name in shared.region_names),
        dtype=bool,
        count=shared.num_regions,
    )
    return named & (shared.region_paradigm == np.int8(int(Paradigm.MPI)))


# ---------------------------------------------------------------------------
# Phase 1: per-rank extraction (runs inside shard workers)
# ---------------------------------------------------------------------------


@record(frozen=True)
class MatchRecords:
    """One rank's message-relevant events, flattened (picklable).

    ``ok`` is False when the stream was unsorted or unbalanced —
    extraction is skipped there (the structural TL0xx rules already
    reject such streams) and the assembled graph is marked incomplete,
    which mutes every TL3xx rule rather than reporting phantom orphans.
    """

    rank: int
    n_events: int
    ok: bool
    t_first: float
    t_last: float
    #: SEND events, in stream order
    send_dst: np.ndarray  # int32
    send_tag: np.ndarray  # int32
    send_pos: np.ndarray  # int64 absolute event index
    send_time: np.ndarray  # float64
    send_size: np.ndarray  # int64
    send_region: np.ndarray  # int32 innermost enclosing region (-1 none)
    #: RECV events, in stream order (src == -1 is a wildcard receive)
    recv_src: np.ndarray  # int32
    recv_tag: np.ndarray  # int32
    recv_pos: np.ndarray  # int64
    recv_time: np.ndarray  # float64
    recv_region: np.ndarray  # int32
    recv_wait: np.ndarray  # float64 recv_time - enclosing enter time
    #: collective invocations, in stream order
    coll_ref: np.ndarray  # int32 region id
    coll_pos: np.ndarray  # int64 absolute index of the ENTER
    coll_enter: np.ndarray  # float64
    coll_leave: np.ndarray  # float64

    @classmethod
    def empty(cls, rank: int, n_events: int = 0, ok: bool = True,
              t_first: float = 0.0, t_last: float = 0.0) -> "MatchRecords":
        z32 = np.empty(0, dtype=_I32)
        z64 = np.empty(0, dtype=_I64)
        zf = np.empty(0, dtype=_F64)
        return cls(
            rank=rank, n_events=n_events, ok=ok,
            t_first=t_first, t_last=t_last,
            send_dst=z32, send_tag=z32, send_pos=z64, send_time=zf,
            send_size=z64, send_region=z32,
            recv_src=z32, recv_tag=z32, recv_pos=z64, recv_time=zf,
            recv_region=z32, recv_wait=zf,
            coll_ref=z32, coll_pos=z64, coll_enter=zf, coll_leave=zf,
        )


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (``np.unique`` without its import of
    ``numpy.ma``)."""
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _enclosing_frames(
    view: "BatchView", runs: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Innermost open region (ref, enter time) for each batch position
    of the concatenated ascending runs of positions ``runs``.

    Read off the pairing: after the last ENTER/LEAVE before an event,
    the innermost open frame is the one that ENTER opened, or the
    parent of the one that LEAVE closed.  Outside any frame the answer
    is (-1, the rank's first timestamp).
    """
    ev = view.events
    p = view.pairing
    slot = np.concatenate([view.slot_of(run) for run in runs])
    pos = np.concatenate(runs)
    region = np.full(len(pos), -1, dtype=_I32)
    enter_time = np.asarray(ev.time[view.starts[slot]], dtype=_F64)
    if not len(pos) or not len(p.enter_pos):
        return region, enter_time
    last = np.searchsorted(p.el_idx, pos, side="left") - 1
    inside = np.flatnonzero((last >= p.el_starts[slot]) & p.balanced[slot])
    last = last[inside]
    frame_of = np.empty(len(p.el_idx), dtype=np.int64)  # the row each opens/closes
    frame_of[p.enter_pos] = frame_of[p.leave_pos] = np.arange(len(p.enter_pos))
    frame = frame_of[last]
    frame = np.where(p.is_enter[last], frame, p.parent[frame])
    open_ = frame >= 0
    at = p.el_idx[p.enter_pos[frame[open_]]]
    inside = inside[open_]
    region[inside] = ev.ref[at]
    enter_time[inside] = ev.time[at]
    return region, enter_time


def extract_match_records(view: "BatchView") -> "MatchBatch":
    """Pull the match records of a batch's ranks out of its lint view.

    Reads ``time``/``kind``/``ref``/``partner``, ``size`` and ``tag``.
    """
    ev = view.events
    p = view.pairing
    starts = view.starts
    kind = ev.kind
    # A stream without any enter/leave events is trivially balanced.
    ok = view.sorted & (p.balanced | (np.diff(p.el_starts) == 0))
    p2p = view.p2p_idx
    if not ok.all():
        p2p = p2p[ok[view.slot_of(p2p)]]
    is_send = kind[p2p] == np.uint8(EventKind.SEND)
    send_pos, recv_pos = p2p[is_send], p2p[~is_send]
    enc_region, enc_enter = _enclosing_frames(view, (send_pos, recv_pos))
    ns = len(send_pos)
    ranks = np.asarray(view.ranks, dtype=_I32)
    columns: dict[str, np.ndarray] = {}
    cuts: dict[str, np.ndarray] = {}  # per side: R + 1 row offsets
    for side, pos in (("s", send_pos), ("r", recv_pos)):
        cut = np.searchsorted(pos, starts)
        counts = np.diff(cut)
        cuts[side] = cut
        columns[f"{side}_rank"] = np.repeat(ranks, counts)
        columns[f"{side}_pos"] = pos - np.repeat(starts[:-1], counts)
        columns[f"{side}_tag"] = ev.tag[pos].astype(_I32)
        columns[f"{side}_time"] = ev.time[pos].astype(_F64)
    columns["s_dst"] = ev.partner[send_pos].astype(_I32)
    columns["s_size"] = ev.size[send_pos].astype(_I64)
    columns["s_region"] = enc_region[:ns]
    columns["r_src"] = ev.partner[recv_pos].astype(_I32)
    columns["r_region"] = enc_region[ns:]
    columns["r_wait"] = np.maximum(columns["r_time"] - enc_enter[ns:], 0.0)

    # Collective invocations, in program (enter) order.
    nr = view.shared.num_regions
    if len(view.inv_region) and nr:
        coll_mask = collective_region_mask(view.shared)
        sel = view.inv_valid & coll_mask[np.clip(view.inv_region, 0, nr - 1)]
        idx = np.flatnonzero(sel)
        idx = idx[np.argsort(view.inv_enter_index[idx], kind="stable")]
    else:
        idx = np.empty(0, dtype=_I64)
    coll_at = view.inv_enter_index[idx].astype(_I64)
    cut = np.searchsorted(coll_at, starts)
    cuts["c"] = cut
    columns["c_pos"] = coll_at - np.repeat(starts[:-1], np.diff(cut))
    columns["c_ref"] = view.inv_region[idx].astype(_I32)
    columns["c_enter"] = ev.time[coll_at].astype(_F64)
    columns["c_leave"] = ev.time[view.inv_leave_index[idx]].astype(_F64)

    n = view.counts
    t_first = t_last = np.zeros(len(n))
    if view.n:
        t_first = np.where(n > 0, ev.time[np.minimum(starts[:-1], view.n - 1)], 0.0)
        t_last = np.where(n > 0, ev.time[np.maximum(starts[1:] - 1, 0)], 0.0)
    extents = list(zip(n.tolist(), ok.tolist(), t_first.tolist(), t_last.tolist()))
    return MatchBatch(list(view.ranks), extents, columns, cuts)


# ---------------------------------------------------------------------------
# Phase 2: global graph assembly (runs once in the parent)
# ---------------------------------------------------------------------------


def _group_ids(*cols: np.ndarray) -> np.ndarray:
    """Dense group id per row for the tuple key formed by ``cols``."""
    n = len(cols[0])
    if n == 0:
        return np.empty(0, dtype=_I64)
    stacked = np.stack([np.asarray(c, dtype=_I64) for c in cols])
    order = np.lexsort(stacked[::-1])
    srt = stacked[:, order]
    new = np.empty(n, dtype=_I64)
    new[0] = 0
    if n > 1:
        new[1:] = np.any(srt[:, 1:] != srt[:, :-1], axis=0)
    gid = np.empty(n, dtype=_I64)
    # new[0] == 0, so the running sum is already a 0-based dense id.
    gid[order] = np.cumsum(new)
    return gid


def _channel_keys(
    sends: tuple[np.ndarray, ...], recvs: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """One int64 key per row for its ``(src, dst, tag)`` channel.

    Equal channels get equal keys on both sides.  Each component is
    offset by its minimum over both sides and packed mixed-radix; when
    the product of the component ranges would overflow int64 (wild
    partner or tag values), dense ids from :func:`_group_ids` stand in.
    """
    lows: list[int] = []
    widths: list[int] = []
    for s, r in zip(sends, recvs):
        lo = min(int(s.min()), int(r.min()))
        lows.append(lo)
        widths.append(max(int(s.max()), int(r.max())) - lo + 1)
    if widths[0] * widths[1] * widths[2] > 2**63:
        gid = _group_ids(*(np.concatenate(pair) for pair in zip(sends, recvs)))
        return gid[: len(sends[0])], gid[len(sends[0]):]

    def pack(cols: tuple[np.ndarray, ...]) -> np.ndarray:
        key = np.subtract(cols[0], lows[0], dtype=_I64)
        digit = np.empty_like(key)
        for col, lo, width in zip(cols[1:], lows[1:], widths[1:]):
            key *= width
            key += np.subtract(col, lo, out=digit, dtype=_I64)
        return key

    return pack(sends), pack(recvs)


def _fifo_pairs(
    key_s: np.ndarray, key_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pair the k-th send with the k-th recv of each key.

    A stable argsort keeps row (queue) order within a key, so a recv's
    occurrence index within its key, added to the first send row of
    that key, names its partner.  Returns ``(send_rows, recv_rows)``.
    Sorts both key arrays in place.
    """
    order_s = np.argsort(key_s, kind="stable")
    key_s.sort()
    order_r = np.argsort(key_r, kind="stable")
    key_r.sort()
    at = np.searchsorted(key_s, key_r, side="left")
    at += np.arange(len(key_r), dtype=_I64)
    at -= np.searchsorted(key_r, key_r, side="left")
    beyond = at >= len(key_s)
    np.minimum(at, len(key_s) - 1, out=at)
    hit = key_s[at] == key_r
    hit &= ~beyond
    return order_s[at[hit]], order_r[hit]


#: ``MatchRecords`` row fields per side: sends, receives and
#: collectives; ``send_dst`` lands in the ``s_dst`` column,
#: ``recv_src`` in ``r_src``, ``coll_ref`` in ``c_ref`` and so on.
#: The graph keeps the p2p sides (``s``, ``r``) as flat columns.
_ROW_FIELDS = {
    side: tuple(f.name for f in fields(MatchRecords) if f.name.startswith(prefix))
    for side, prefix in (("s", "send_"), ("r", "recv_"), ("c", "coll_"))
}
_P2P_FIELDS = {side: _ROW_FIELDS[side] for side in ("s", "r")}
_EMPTY_ROWS = {
    name: getattr(MatchRecords.empty(-1), name)
    for names in _ROW_FIELDS.values()
    for name in names
}
_COLUMN = {name: f"{name[0]}_{name.split('_', 1)[1]}" for name in _EMPTY_ROWS}


@record(frozen=True)
class MatchBatch:
    """The match records of a batch of ranks, kept flat.

    ``ranks`` lists the ranks in batch order and ``extents`` their
    ``(n_events, ok, t_first, t_last)``.  ``columns`` holds the rows
    of every rank under the graph's column names: sends (``s_rank``,
    ``s_dst``, ...), receives (``r_...``) and collectives (``c_ref``,
    ``c_pos``, ...); rank ``i``'s rows of side ``"s"`` are
    ``cuts["s"][i]:cuts["s"][i + 1]``.
    """

    ranks: list[int]
    extents: list[tuple[int, bool, float, float]]
    columns: dict[str, np.ndarray]
    cuts: dict[str, np.ndarray]

    @classmethod
    def of(cls, records: Iterable[MatchRecords]) -> "MatchBatch":
        """Pack whole records into a batch."""
        records = list(records)
        ranks = [rec.rank for rec in records]
        columns: dict[str, np.ndarray] = {}
        cuts: dict[str, np.ndarray] = {}
        for side, names in _ROW_FIELDS.items():
            counts = [len(getattr(rec, names[0])) for rec in records]
            cuts[side] = np.concatenate([[0], np.cumsum(counts)]).astype(_I64)
            if side != "c":
                columns[f"{side}_rank"] = np.repeat(
                    np.asarray(ranks, dtype=_I32), counts
                )
            for name in names:
                columns[_COLUMN[name]] = np.concatenate(
                    [_EMPTY_ROWS[name]] + [getattr(rec, name) for rec in records]
                )
        extents = [(r.n_events, r.ok, r.t_first, r.t_last) for r in records]
        return cls(ranks, extents, columns, cuts)

    def records(self) -> list[MatchRecords]:
        """Each rank's whole record; row fields are column views."""
        cuts = {side: cut.tolist() for side, cut in self.cuts.items()}
        return [
            _record(rank, extent, self.columns, {
                side: slice(cut[i], cut[i + 1]) for side, cut in cuts.items()
            })
            for i, (rank, extent) in enumerate(zip(self.ranks, self.extents))
        ]


def _record(
    rank: int,
    extent: tuple[int, bool, float, float],
    columns: dict[str, np.ndarray],
    rows: dict[str, slice],
) -> MatchRecords:
    """A rank's record whose row fields are ``rows`` of ``columns``.

    Skips the frozen record ``__init__`` (one ``object.__setattr__``
    per field), which dominates when thousands of ranks each get one.
    """
    rec = object.__new__(MatchRecords)
    fields_ = rec.__dict__
    fields_["rank"] = rank
    fields_["n_events"], fields_["ok"], fields_["t_first"], fields_["t_last"] = extent
    for side, names in _ROW_FIELDS.items():
        for name in names:
            fields_[name] = columns[_COLUMN[name]][rows[side]]
    return rec


def _unbacked(rows: int, dtype: np.dtype) -> np.ndarray:
    """An uninitialised column whose pages the OS backs only as rows
    are written.

    An anonymous map rather than ``np.empty``: numpy advises huge pages
    for large buffers, and one written row would then make a whole
    2 MiB page resident.
    """
    if rows == 0:
        return np.empty(0, dtype)
    return np.frombuffer(mmap.mmap(-1, rows * dtype.itemsize), dtype)


class MatchGraphWriter:
    """Writes ranks' match records straight into one graph's flat columns.

    The one construction path of :class:`MatchGraph`:
    :meth:`MatchGraph.from_records` feeds it one batch of record sets,
    the fused kernel each batch of ranks as its scan finishes.
    :meth:`reserve` sizes the columns from SEND/RECV counts (or a
    bound on them) up front; :meth:`add` copies a batch's rows in and
    keeps only each rank's collectives and extent, so no p2p copy
    outlives the call.
    """

    def __init__(self, num_processes: int | None = None) -> None:
        self.num_processes = num_processes
        self._cols = {"s_rank": np.empty(0, dtype=_I32),
                      "r_rank": np.empty(0, dtype=_I32)}
        self._cols.update(
            (_COLUMN[f], _EMPTY_ROWS[f]) for names in _P2P_FIELDS.values() for f in names
        )
        self._used = {"s": 0, "r": 0}
        #: rank -> (extent, collective rows, slot), in add order
        self._heads: dict[int, tuple] = {}

    def reserve(self, sends: int, recvs: int) -> None:
        """Grow the columns to hold at least ``sends``/``recvs`` rows."""
        for side, need in (("s", sends), ("r", recvs)):
            capacity = len(self._cols[f"{side}_rank"])
            if need <= capacity:
                continue
            used = self._used[side]
            for name in [n for n in self._cols if n[0] == side]:
                grown = _unbacked(max(need, 2 * capacity), self._cols[name].dtype)
                grown[:used] = self._cols[name][:used]
                self._cols[name] = grown

    def add(self, batch: "MatchBatch | MatchRecords") -> None:
        """Copy a batch's (or one rank's) p2p rows into the columns."""
        if isinstance(batch, MatchRecords):
            batch = MatchBatch.of([batch])
        lo = dict(self._used)
        hi = {side: lo[side] + len(batch.columns[f"{side}_rank"]) for side in lo}
        self.reserve(hi["s"], hi["r"])
        for name, col in self._cols.items():
            col[lo[name[0]]:hi[name[0]]] = batch.columns[name]
        self._used = hi
        coll = {_COLUMN[name]: batch.columns[_COLUMN[name]] for name in _ROW_FIELDS["c"]}
        cut = batch.cuts["c"].tolist()
        for i, (rank, extent) in enumerate(zip(batch.ranks, batch.extents)):
            self._heads[rank] = (extent, coll, slice(cut[i], cut[i + 1]))

    def finish(self) -> "MatchGraph":
        """Assemble the graph, rows rank-major, and match it."""
        cols = {n: c[: self._used[n[0]]] for n, c in self._cols.items()}
        ranks = tuple(sorted(self._heads))
        if tuple(self._heads) != ranks:
            # Added out of rank order: a stable sort keeps stream order.
            for side in self._used:
                order = np.argsort(cols[f"{side}_rank"], kind="stable")
                for name in [n for n in cols if n[0] == side]:
                    cols[name] = cols[name][order]
        # Each rank's records carry its p2p rows as views of the columns.
        ids = np.asarray(ranks, dtype=_I32)
        bounds = {
            side: np.stack([np.searchsorted(cols[f"{side}_rank"], ids, how)
                            for how in ("left", "right")], axis=1).tolist()
            for side in _P2P_FIELDS
        }
        records = {}
        merged: dict[int, dict[str, np.ndarray]] = {}  # per added batch
        for i, rank in enumerate(ranks):
            extent, coll, rows = self._heads[rank]
            columns = merged.get(id(coll))
            if columns is None:
                columns = merged[id(coll)] = {**cols, **coll}
            records[rank] = _record(rank, extent, columns, {
                "s": slice(*bounds["s"][i]), "r": slice(*bounds["r"][i]), "c": rows,
            })
        active = [rec for rec in records.values() if rec.n_events]
        nproc = self.num_processes
        graph = MatchGraph(
            ranks=ranks,
            num_processes=len(ranks) if nproc is None else nproc,
            complete=all(rec.ok for rec in records.values()),
            t_min=float(min((rec.t_first for rec in active), default=0.0)),
            t_max=float(max((rec.t_last for rec in active), default=0.0)),
            records=records,
            r_wildcard=cols["r_src"] < 0,
            s_match=np.empty(0, dtype=_I64),
            r_match=np.empty(0, dtype=_I64),
            **cols,
        )
        graph._match()
        return graph


@record
class MatchGraph:
    """Global message-match graph over all ranks' records.

    Flattened send/recv arrays (rank-major, stream order within each
    rank) plus the match relation: ``s_match[i]`` is the recv row the
    i-th send pairs with (-1 unmatched) and vice versa.  Collective
    sequences stay per rank in ``records``, whose p2p fields are views
    of the flat columns.  Built by :class:`MatchGraphWriter`.
    """

    ranks: tuple[int, ...]
    num_processes: int
    complete: bool
    t_min: float
    t_max: float
    records: dict[int, MatchRecords]
    # sends (flattened)
    s_rank: np.ndarray
    s_dst: np.ndarray
    s_tag: np.ndarray
    s_pos: np.ndarray
    s_time: np.ndarray
    s_size: np.ndarray
    s_region: np.ndarray
    # recvs (flattened)
    r_rank: np.ndarray
    r_src: np.ndarray
    r_tag: np.ndarray
    r_pos: np.ndarray
    r_time: np.ndarray
    r_region: np.ndarray
    r_wait: np.ndarray
    r_wildcard: np.ndarray  # bool: posted with MPI_ANY_SOURCE
    # match relation
    s_match: np.ndarray
    r_match: np.ndarray

    @property
    def num_sends(self) -> int:
        return len(self.s_rank)

    @property
    def num_recvs(self) -> int:
        return len(self.r_rank)

    @property
    def num_matched(self) -> int:
        return int(np.sum(self.s_match >= 0))

    @property
    def duration(self) -> float:
        return max(self.t_max - self.t_min, 0.0)

    @classmethod
    def from_records(
        cls,
        records: Mapping[int, MatchRecords],
        num_processes: int | None = None,
    ) -> "MatchGraph":
        writer = MatchGraphWriter(num_processes)
        writer.add(MatchBatch.of(records[rank] for rank in sorted(records)))
        return writer.finish()

    def _match(self) -> None:
        """FIFO-match sends to recvs per (src, dst, tag) channel."""
        ns, nr = len(self.s_rank), len(self.r_rank)
        self.s_match = np.full(ns, -1, dtype=_I64)
        self.r_match = np.full(nr, -1, dtype=_I64)
        if ns == 0 or nr == 0:
            return
        # Rows are rank-major + stream-ordered, and every send (recv) of
        # one channel lives on a single rank, so row order IS queue
        # order: the k-th send pairs with the k-th recv.
        wild = np.flatnonzero(self.r_wildcard)
        if len(wild):
            spec = np.flatnonzero(~self.r_wildcard)
            recvs = (self.r_src[spec], self.r_rank[spec], self.r_tag[spec])
        else:
            recvs = (self.r_src, self.r_rank, self.r_tag)
        if len(recvs[0]):
            si, ri = _fifo_pairs(
                *_channel_keys((self.s_rank, self.s_dst, self.s_tag), recvs)
            )
            if len(wild):
                ri = spec[ri]
            self.s_match[si] = ri
            self.r_match[ri] = si

        # Wildcard receives: drain the leftover sends to (dst, tag) in
        # deterministic (time, src, pos) arrival order against the
        # wildcard queue in stream order.  Wildcards are adversarial /
        # debugging territory, so the per-queue Python loop is fine.
        if not len(wild):
            return
        queues = sorted(
            set(zip(self.r_rank[wild].tolist(), self.r_tag[wild].tolist()))
        )
        for dst, tag in queues:
            w = wild[(self.r_rank[wild] == dst) & (self.r_tag[wild] == tag)]
            cand = np.flatnonzero(
                (self.s_match < 0) & (self.s_dst == dst) & (self.s_tag == tag)
            )
            order = np.lexsort(
                (self.s_pos[cand], self.s_rank[cand], self.s_time[cand])
            )
            cand = cand[order]
            k = min(len(w), len(cand))
            self.s_match[cand[:k]] = w[:k]
            self.r_match[w[:k]] = cand[:k]

    # -- collective alignment -----------------------------------------

    def collective_sequences(self) -> dict[int, np.ndarray]:
        """Per-rank collective region-id sequences (active ranks only)."""
        return {
            rank: rec.coll_ref
            for rank, rec in sorted(self.records.items())
            if rec.n_events
        }

    def collective_epochs(self) -> int:
        """Number of aligned collective epochs (the longest sequence)."""
        seqs = self.collective_sequences()
        return max((len(s) for s in seqs.values()), default=0)


# ---------------------------------------------------------------------------
# Vector-clock happens-before engine
# ---------------------------------------------------------------------------


class VectorClockEngine:
    """Vector clocks over the match graph's cross-rank operations.

    Ops are each rank's sends, matched receives and collective epochs
    in program order.  The sweep is a worklist fixpoint: an op executes
    once its program-order predecessor has, plus (receives) its matched
    send and (collectives) every participant of the same epoch.  Ops
    that can never become ready — the graph encodes a deadlock — are
    finished in a deterministic degraded pass that ignores remote
    dependencies, so queries still terminate on broken graphs.

    Built lazily by :class:`HBView`: only wildcard-race queries need
    it, and only traces that actually contain wildcard receives (or
    ask via ``repro deps``) pay its O(ops × ranks) cost.
    """

    def __init__(self, graph: MatchGraph) -> None:
        self.graph = graph
        ranks = graph.ranks
        self._rank_index = {rank: i for i, rank in enumerate(ranks)}
        self._nr = len(ranks)
        self.vc_send = np.zeros((graph.num_sends, self._nr), dtype=_I64)
        self.vc_recv = np.zeros((graph.num_recvs, self._nr), dtype=_I64)
        self._send_done = np.zeros(graph.num_sends, dtype=bool)
        self._recv_done = np.zeros(graph.num_recvs, dtype=bool)
        self._sweep()

    def _rank_ops(self) -> dict[int, list[tuple[int, str, int]]]:
        """Per-rank (pos, kind, index) op lists in program order."""
        g = self.graph
        ops: dict[int, list[tuple[int, str, int]]] = {
            rank: [] for rank in g.ranks
        }
        for i in range(g.num_sends):
            ops[int(g.s_rank[i])].append((int(g.s_pos[i]), "s", i))
        for i in range(g.num_recvs):
            ops[int(g.r_rank[i])].append((int(g.r_pos[i]), "r", i))
        for rank, rec in g.records.items():
            for k, pos in enumerate(rec.coll_pos.tolist()):
                ops[rank].append((int(pos), "c", k))
        for rank in ops:
            ops[rank].sort()
        return ops

    def _sweep(self) -> None:
        g = self.graph
        nr = self._nr
        if nr == 0:
            return
        ops = self._rank_ops()
        epochs = g.collective_epochs()
        epoch_members: list[list[int]] = [[] for _ in range(epochs)]
        for rank, rec in g.records.items():
            for k in range(len(rec.coll_pos)):
                epoch_members[k].append(self._rank_index[rank])
        vc_epoch = np.zeros((epochs, nr), dtype=_I64)
        epoch_done = np.zeros(epochs, dtype=bool)
        frontier = np.zeros((nr, nr), dtype=_I64)  # per-rank current VC
        pointer = {rank: 0 for rank in g.ranks}
        rank_list = list(g.ranks)

        def run(ignore_remote: bool) -> bool:
            progressed = False
            for rank in rank_list:
                ri = self._rank_index[rank]
                seq = ops[rank]
                while pointer[rank] < len(seq):
                    _pos, kind, idx = seq[pointer[rank]]
                    vc = frontier[ri]
                    if kind == "s":
                        vc = vc.copy()
                        vc[ri] += 1
                        self.vc_send[idx] = vc
                        self._send_done[idx] = True
                    elif kind == "r":
                        m = int(g.r_match[idx])
                        if m >= 0 and not self._send_done[m]:
                            if not ignore_remote:
                                break
                            m = -1
                        vc = vc.copy()
                        if m >= 0:
                            np.maximum(vc, self.vc_send[m], out=vc)
                        vc[ri] += 1
                        self.vc_recv[idx] = vc
                        self._recv_done[idx] = True
                    else:  # collective epoch
                        members = epoch_members[idx]
                        at_epoch = all(
                            pointer[rank_list[m]] < len(ops[rank_list[m]])
                            and ops[rank_list[m]][pointer[rank_list[m]]][1:]
                            == ("c", idx)
                            for m in members
                        )
                        if not epoch_done[idx]:
                            if not at_epoch and not ignore_remote:
                                break
                            join = frontier[members].max(axis=0)
                            join = join.copy()
                            for m in members:
                                join[m] += 1
                            vc_epoch[idx] = join
                            epoch_done[idx] = True
                            if at_epoch:
                                # Advance every member through the epoch.
                                for m in members:
                                    frontier[m] = vc_epoch[idx]
                                    pointer[rank_list[m]] += 1
                                progressed = True
                                continue
                        vc = np.maximum(frontier[ri], vc_epoch[idx])
                    frontier[ri] = vc
                    pointer[rank] += 1
                    progressed = True
            return progressed

        while run(ignore_remote=False):
            pass
        # Deadlocked remainder: finish deterministically without the
        # remote joins so queries over broken graphs still terminate.
        while any(pointer[rank] < len(ops[rank]) for rank in rank_list):
            if not run(ignore_remote=True):  # pragma: no cover - safety
                break

    def happens_before(self, vc_a: np.ndarray, vc_b: np.ndarray) -> bool:
        """True when the op stamped ``vc_a`` causally precedes ``vc_b``."""
        return bool(np.all(vc_a <= vc_b) and np.any(vc_a < vc_b))

    def concurrent(self, vc_a: np.ndarray, vc_b: np.ndarray) -> bool:
        return not self.happens_before(vc_a, vc_b) and not self.happens_before(
            vc_b, vc_a
        )


class HBView:
    """What an ``scope="hb"`` rule receives: shared context + graph."""

    def __init__(self, shared: "LintShared", graph: MatchGraph) -> None:
        self.shared = shared
        self.graph = graph
        self._engine: VectorClockEngine | None = None

    @property
    def engine(self) -> VectorClockEngine:
        """The vector-clock engine, built on first use."""
        if self._engine is None:
            self._engine = VectorClockEngine(self.graph)
        return self._engine

    def region_name(self, ref: int) -> str:
        if 0 <= ref < self.shared.num_regions:
            return self.shared.region_names[ref]
        return f"region#{ref}"


# ---------------------------------------------------------------------------
# Graph export (repro deps)
# ---------------------------------------------------------------------------


def graph_to_json_dict(graph: MatchGraph) -> dict[str, Any]:
    """Machine-readable export of the match graph (stable schema)."""
    orphan_recvs: dict[tuple[int, int, int], int] = {}
    for i in np.flatnonzero(graph.r_match < 0).tolist():
        key = (
            int(graph.r_src[i]),
            int(graph.r_rank[i]),
            int(graph.r_tag[i]),
        )
        orphan_recvs[key] = orphan_recvs.get(key, 0) + 1
    # One row per send channel; receive-only channels (orphan recvs
    # with no send at all) come from the leftover orphan counts.
    channels: list[dict[str, Any]] = []
    if graph.num_sends:
        chan = _group_ids(graph.s_rank, graph.s_dst, graph.s_tag)
        for g in sorted_unique(chan).tolist():
            sel = np.flatnonzero(chan == g)
            matched = int(np.sum(graph.s_match[sel] >= 0))
            key = (
                int(graph.s_rank[sel[0]]),
                int(graph.s_dst[sel[0]]),
                int(graph.s_tag[sel[0]]),
            )
            channels.append(
                {
                    "src": key[0],
                    "dst": key[1],
                    "tag": key[2],
                    "sends": len(sel),
                    "matched": matched,
                    "orphan_sends": len(sel) - matched,
                    "bytes": int(graph.s_size[sel].sum()),
                    "orphan_recvs": orphan_recvs.pop(key, 0),
                }
            )
    for (src, dst, tag), count in sorted(orphan_recvs.items()):
        channels.append(
            {
                "src": src, "dst": dst, "tag": tag,
                "sends": 0, "matched": 0, "orphan_sends": 0, "bytes": 0,
                "orphan_recvs": count,
            }
        )
    channels.sort(key=lambda row: (row["src"], row["dst"], row["tag"]))
    wildcards = int(np.sum(graph.r_wildcard))
    return {
        "tool": "repro deps",
        "complete": graph.complete,
        "ranks": [
            {
                "rank": rank,
                "events": rec.n_events,
                "sends": len(rec.send_dst),
                "recvs": len(rec.recv_src),
                "collectives": len(rec.coll_ref),
                "ok": rec.ok,
            }
            for rank, rec in sorted(graph.records.items())
        ],
        "channels": channels,
        "collective_epochs": graph.collective_epochs(),
        "summary": {
            "sends": graph.num_sends,
            "recvs": graph.num_recvs,
            "matched": graph.num_matched,
            "wildcard_recvs": wildcards,
            "duration": graph.duration,
        },
    }


def graph_to_dot(graph: MatchGraph) -> str:
    """Graphviz DOT export: ranks as nodes, channels as edges."""
    doc = graph_to_json_dict(graph)
    lines = [
        "digraph deps {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for row in doc["ranks"]:
        style = "" if row["ok"] else ", style=dashed"
        lines.append(
            f'  r{row["rank"]} [label="rank {row["rank"]}\\n'
            f'{row["events"]} events"{style}];'
        )
    for row in doc["channels"]:
        orphans = row["orphan_sends"] + row["orphan_recvs"]
        color = ', color="red"' if orphans else ""
        lines.append(
            f'  r{row["src"]} -> r{row["dst"]} '
            f'[label="tag {row["tag"]}: {row["matched"]}/{row["sends"]}"'
            f"{color}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def match_records_for_trace(
    trace, config=None
) -> tuple[dict[int, MatchRecords], "LintShared"]:
    """Extract every rank's match records from an in-memory trace."""
    from .engine import LintShared, rank_view
    from .model import LintConfig

    config = config if config is not None else LintConfig()
    shared = LintShared.from_definitions(
        trace.regions, trace.metrics, trace.num_processes, trace.ranks, config
    )
    records = {
        rank: extract_match_records(
            rank_view(shared, rank, trace.events_of(rank))
        ).records()[0]
        for rank in trace.ranks
    }
    return records, shared


def match_graph_for_trace(trace, config=None) -> MatchGraph:
    """Build the global match graph from an in-memory trace."""
    records, shared = match_records_for_trace(trace, config)
    return MatchGraph.from_records(records, shared.num_processes)

