"""Vectorized fast path: bulk-synchronous programs as rank-vectors.

The general engine interprets one op at a time through Python
generators — flexible, but its throughput is bounded by per-event
Python work.  The bulk-synchronous workloads this project generates
(COSMO-SPECS, synthetic, idle-wave) are all built from four phases:

* :class:`Region` — ``Enter(name)``, nested phases, ``Leave(name)``;
* :class:`Work` — one ``Compute`` per rank, per-rank seconds;
* :class:`Halo` — nonblocking point-to-point exchange with per-rank
  peer lists: every ``Irecv``, then every ``Isend``, then ``Waitall``;
* :class:`Collective` — one MPI collective over all ranks.

A :class:`Loop` declares a program as a setup tuple and a per-iteration
tuple of those phases.  The same declaration yields both executions:
:meth:`Loop.program` is the rank generator the general engine
interprets, and :func:`run_fast` computes every rank's clock for a whole
iteration as one NumPy vector — noise, halo matching (each receive
against its sender's payload availability) and collective
synchronization included — then hands each rank's finished columns to
the simulator's :class:`~repro.trace.builder.TraceBuilder`
(:meth:`~repro.trace.builder.TraceBuilder.adopt`).  Per-event cost
becomes a few array stores instead of a generator resumption plus
dispatch.

The fast path replicates the engine's floating-point expressions
operation for operation (same association, same noise formulas via
:func:`repro.sim.noise.vector_noise`; ``max`` folds are exact), so its
traces are **bitwise identical** to the general interpreter's — the
differential tests in ``tests/test_sim_sink.py`` and the golden
fingerprints in ``tests/test_recorder_golden.py`` hold it to that.
Anything it cannot reproduce exactly (unknown noise models, rendezvous
halos, topology networks, mixed-zero counter rates, unbalanced halo
peer lists, a region first touched by only some ranks) makes it return
``None`` and the general engine runs instead.
``REPRO_SIM_NO_FASTPATH=1`` forces the fallback unconditionally.
"""

from __future__ import annotations

import os
from itertools import chain
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .._record import record
from ..trace.definitions import Paradigm
from . import ops
from .network import NetworkModel
from .noise import vector_noise

if TYPE_CHECKING:
    from .engine import SimResult, Simulator

__all__ = ["Collective", "Halo", "Loop", "Region", "Work", "run_fast"]


class Region:
    """``Enter(name)``, then ``phases`` in order, then ``Leave(name)``."""

    __slots__ = ("name", "phases")

    def __init__(self, name: str, *phases) -> None:
        self.name = name
        self.phases = phases


@record(frozen=True)
class Work:
    """``Compute(seconds, region=region, interruption=extra)`` on every rank.

    ``seconds`` (and ``extra``, the planted-interruption hook) broadcast
    to ``(size,)`` in the setup and to ``(iterations, size)`` in the
    iteration: a scalar, one value per rank, or one row per iteration.
    """

    region: str
    seconds: object
    extra: object = None


@record(frozen=True)
class Halo:
    """Eager nonblocking exchange: rank ``r`` posts ``Irecv`` from each
    of ``recv_from[r]``, then ``Isend`` to each of ``send_to[r]``, then
    one ``Waitall`` (none when it has no peers).  A periodic ring is
    ``recv_from=[left, right]``, ``send_to=[right, left]``."""

    recv_from: Sequence[Sequence[int]]
    send_to: Sequence[Sequence[int]]
    bytes: int
    tag: int = 0

    @classmethod
    def ring(cls, size: int, bytes: int, tag: int = 0) -> "Halo":
        """Periodic ring: receive from left and right, send right then left."""
        ranks = np.arange(size)
        left, right = np.roll(ranks, 1), np.roll(ranks, -1)
        return cls(
            recv_from=np.stack([left, right], axis=1),
            send_to=np.stack([right, left], axis=1),
            bytes=bytes,
            tag=tag,
        )


@record(frozen=True)
class Collective:
    """One collective over all ranks: ``op`` is ``"barrier"``,
    ``"bcast"``, ``"allreduce"`` or ``"allgather"``; ``size`` in bytes."""

    op: str
    size: int = 0


#: Collective name → (op class, MPI region, cost(network, size, ranks)).
_COLLECTIVES = {
    "barrier": (ops.Barrier, "MPI_Barrier", lambda n, s, p: n.barrier_cost(p)),
    "bcast": (ops.Bcast, "MPI_Bcast", lambda n, s, p: n.bcast_cost(s, p)),
    "allreduce": (
        ops.Allreduce, "MPI_Allreduce", lambda n, s, p: n.allreduce_cost(s, p)
    ),
    "allgather": (
        ops.Allgather, "MPI_Allgather", lambda n, s, p: n.allgather_cost(s, p)
    ),
}


def _flat(phases, out: list) -> list:
    """Phases as ``("enter"|"leave", name)`` and leaf-phase entries."""
    for phase in phases:
        if isinstance(phase, Region):
            out.append(("enter", phase.name))
            _flat(phase.phases, out)
            out.append(("leave", phase.name))
        elif isinstance(phase, (Work, Halo, Collective)):
            out.append(("leaf", phase))
        else:
            raise TypeError(f"not a phase: {phase!r}")
    return out


class Loop:
    """A bulk-synchronous program: ``Enter(main)``, the ``setup`` phases,
    ``iterations`` rounds of the ``body`` phases, ``Leave(main)``."""

    __slots__ = ("iterations", "body", "setup", "main", "_steps")

    def __init__(
        self, iterations: int, body: tuple, setup: tuple = (), main: str = "main"
    ) -> None:
        self.iterations = int(iterations)
        self.body = tuple(body)
        self.setup = tuple(setup)
        self.main = main
        self._steps = (_flat(self.setup, []), _flat(self.body, []))

    def program(self, rank: int, size: int):
        """The rank generator the general engine interprets."""
        setup = _rank_steps(self._steps[0], rank, (1, size))
        body = _rank_steps(self._steps[1], rank, (self.iterations, size))
        yield ops.Enter(self.main)
        yield from _emit(setup, 0)
        for it in range(self.iterations):
            yield from _emit(body, it)
        yield ops.Leave(self.main)


def _rank_steps(steps, rank: int, shape) -> list:
    """Flattened phases resolved for ``rank``: Work values cut to its
    column, Halo peer lists to its own."""
    out = []
    for what, arg in steps:
        if isinstance(arg, Work):
            extra = 0.0 if arg.extra is None else arg.extra
            out.append(("work", (
                arg.region,
                _broadcast(arg.seconds, shape)[:, rank].tolist(),
                _broadcast(extra, shape)[:, rank].tolist(),
            )))
        elif isinstance(arg, Halo):
            out.append(("halo", (
                [int(q) for q in arg.recv_from[rank]],
                [int(q) for q in arg.send_to[rank]],
                arg.bytes,
                arg.tag,
            )))
        elif isinstance(arg, Collective):
            op_class = _COLLECTIVES[arg.op][0]
            op = op_class() if op_class is ops.Barrier else op_class(size=arg.size)
            out.append(("op", op))
        else:
            out.append((what, arg))
    return out


def _emit(steps, it: int):
    """One rank's ops for one pass over its resolved phases."""
    for what, arg in steps:
        if what == "enter":
            yield ops.Enter(arg)
        elif what == "leave":
            yield ops.Leave(arg)
        elif what == "work":
            region, seconds, extra = arg
            yield ops.Compute(seconds[it], region=region, interruption=extra[it])
        elif what == "halo":
            recv_from, send_to, size, tag = arg
            requests = []
            for peer in recv_from:
                requests.append((yield ops.Irecv(peer, size=size, tag=tag)))
            for peer in send_to:
                requests.append((yield ops.Isend(peer, size=size, tag=tag)))
            if requests:
                yield ops.Waitall(requests)
        else:
            yield arg


def _broadcast(values, shape) -> np.ndarray:
    return np.broadcast_to(np.asarray(values, dtype=np.float64), shape)


_ENTER, _LEAVE, _SEND, _RECV, _METRIC = 0, 1, 2, 3, 4


class _Fallback(Exception):
    """The run needs the general engine."""


class _Rows:
    """Padded row layout: one slot per event any rank may record, with a
    per-rank validity mask (``None``: every rank records it)."""

    def __init__(self) -> None:
        self.kind: list[int] = []
        self.ref: list[int] = []
        self.size: list[int] = []
        self.tag: list[int] = []
        self.valid: list[np.ndarray | None] = []

    def add(self, kind: int, ref: int = -1, size: int = 0, tag: int = 0,
            valid: np.ndarray | None = None) -> int:
        self.kind.append(kind)
        self.ref.append(ref)
        self.size.append(size)
        self.tag.append(tag)
        self.valid.append(valid)
        return len(self.kind) - 1

    def keep(self, rank: int) -> list[bool]:
        """Which rows ``rank`` records."""
        return [v is None or bool(v[rank]) for v in self.valid]


def _mask(flags: np.ndarray) -> np.ndarray | None:
    """``None`` when every rank has the row, else the per-rank mask."""
    return None if flags.all() else flags


def _step(t: np.ndarray, dt: float, mask: np.ndarray | None) -> np.ndarray:
    return t + dt if mask is None else np.where(mask, t + dt, t)


def _entries(lists, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-rank peer lists as flat ``(owner, slot, peer)`` arrays."""
    if len(lists) != size:
        raise _Fallback
    if isinstance(lists, np.ndarray) and lists.ndim == 2:  # Halo.ring
        counts = np.full(size, lists.shape[1], dtype=np.int64)
        peers = lists.astype(np.int64).ravel()
    else:
        counts = np.fromiter(map(len, lists), dtype=np.int64, count=size)
        peers = np.fromiter(chain.from_iterable(lists), dtype=np.int64)
    owner = np.repeat(np.arange(size), counts)
    slot = np.arange(len(peers)) - np.repeat(np.cumsum(counts) - counts, counts)
    if len(peers) and (peers.min() < 0 or peers.max() >= size):
        raise _Fallback
    return owner, slot, peers


class _HaloPlan:
    """One :class:`Halo` occurrence: receive-to-send matching and rows."""

    def __init__(self, halo: Halo, size: int, net: NetworkModel) -> None:
        if not net.is_eager(halo.bytes):
            raise _Fallback  # rendezvous: the sender blocks until matched
        r_owner, r_slot, r_peer = _entries(halo.recv_from, size)
        s_owner, s_slot, s_peer = _entries(halo.send_to, size)
        # FIFO per (source, dest, tag): the q-th receive of r from s
        # matches the q-th send of s to r, which must be in this phase.
        # A stable sort by (source, dest) lines both sides up that way.
        r_key = r_peer * size + r_owner
        s_key = s_owner * size + s_peer
        r_ord = np.argsort(r_key, kind="stable")
        s_ord = np.argsort(s_key, kind="stable")
        if not np.array_equal(r_key[r_ord], s_key[s_ord]):
            raise _Fallback
        self.halo = halo
        self.n = np.bincount(r_owner, minlength=size)
        self.m = np.bincount(s_owner, minlength=size)
        K, J = int(self.n.max(initial=0)), int(self.m.max(initial=0))
        self.src = np.zeros((K, size), dtype=np.int64)
        self.src[r_slot, r_owner] = r_peer
        self.match = np.zeros((K, size), dtype=np.int64)
        self.match[r_slot[r_ord], r_owner[r_ord]] = s_slot[s_ord]
        self.dst = np.zeros((J, size), dtype=np.int64)
        self.dst[s_slot, s_owner] = s_peer
        self.recv_mask = [_mask(self.n > k) for k in range(K)]
        self.send_mask = [_mask(self.m > j) for j in range(J)]
        self.transfer = net.transfer_time(halo.bytes)
        self.sends = len(s_peer)
        # Row offsets, set by lay_out: (enter, leave) per Irecv,
        # (enter, send, leave) per Isend, (enter, [RECV rows], leave) of
        # the Waitall.
        self.irecv: list[tuple[int, int]] = []
        self.isend: list[tuple[int, int, int]] = []
        self.wait: tuple[int, list[int], int] | None = None

    def lay_out(self, rows: _Rows, mpi) -> None:
        halo, K, J = self.halo, len(self.recv_mask), len(self.send_mask)
        b, g = halo.bytes, halo.tag
        if K:
            rid = mpi("MPI_Irecv", self.n > 0)
            self.irecv = [
                (rows.add(_ENTER, rid, valid=v), rows.add(_LEAVE, rid, valid=v))
                for v in self.recv_mask
            ]
        if J:
            rid = mpi("MPI_Isend", self.m > 0)
            self.isend = [
                (rows.add(_ENTER, rid, valid=v), rows.add(_SEND, -1, b, g, valid=v),
                 rows.add(_LEAVE, rid, valid=v))
                for v in self.send_mask
            ]
        waits = (self.n + self.m) > 0
        if waits.any():
            rid = mpi("MPI_Waitall", waits)
            v = _mask(waits)
            self.wait = (
                rows.add(_ENTER, rid, valid=v),
                [rows.add(_RECV, -1, b, g, valid=w) for w in self.recv_mask],
                rows.add(_LEAVE, rid, valid=v),
            )

    def partners(self):
        """``(row, per-rank peer)`` of every SEND and RECV row."""
        out = [(send, self.dst[j]) for j, (_, send, _) in enumerate(self.isend)]
        if self.wait is not None:
            out += [(row, self.src[k]) for k, row in enumerate(self.wait[1])]
        return out

    def run(self, c: np.ndarray, T: np.ndarray, base: int, ro: float, so: float):
        """One exchange for all ranks; returns the clocks after Waitall."""
        t = c
        posted = []
        for (enter, leave), mask in zip(self.irecv, self.recv_mask):
            T[base + enter] = t
            posted.append(t)
            t = _step(t, ro, mask)
            T[base + leave] = t
        avail = np.empty((len(self.send_mask), len(c)))
        for j, (rows, mask) in enumerate(zip(self.isend, self.send_mask)):
            enter, send, leave = rows
            T[base + enter] = t
            T[base + send] = t
            avail[j] = t + self.transfer
            t = _step(t, so, mask)
            T[base + leave] = t
        if self.wait is None:
            return t
        # Engine fold: max(clock at Waitall, every request's completion).
        # A send completes at its Isend's leave, never past the Waitall
        # entry; a receive at max(its Irecv entry, the payload arrival).
        fin = t
        for k, mask in enumerate(self.recv_mask):
            done = np.maximum(posted[k], avail[self.match[k], self.src[k]])
            fin = np.maximum(fin, done if mask is None else np.where(mask, done, fin))
        enter, msgs, leave = self.wait
        T[base + enter] = t
        for row in msgs:
            T[base + row] = fin
        T[base + leave] = fin
        return fin


def _resolve(steps, shape, net: NetworkModel) -> list:
    """Flattened phases with per-rank arrays, matched halos and costs."""
    out = []
    for what, phase in steps:
        if what != "leaf":
            out.append((what, phase))
        elif isinstance(phase, Work):
            try:
                sec = _broadcast(phase.seconds, shape)
                ex = None if phase.extra is None else _broadcast(phase.extra, shape)
            except ValueError:
                raise _Fallback from None
            if not phase.region or (sec < 0).any():
                raise _Fallback
            if ex is not None:
                if (ex < 0).any():
                    raise _Fallback
                if not ex.any():
                    ex = None
            out.append(("work", phase.region, sec, ex))
        elif isinstance(phase, Halo):
            out.append(("halo", _HaloPlan(phase, shape[1], net)))
        else:
            entry = _COLLECTIVES.get(phase.op)
            if entry is None:
                raise _Fallback
            out.append(("coll", entry[1], entry[2](net, max(phase.size, 0), shape[1])))
    return out


def run_fast(sim: "Simulator") -> "SimResult | None":
    """Run ``sim`` through the vectorized path; ``None`` if ineligible."""
    if os.environ.get("REPRO_SIM_NO_FASTPATH", "").strip() not in ("", "0"):
        return None
    try:
        return _run(sim)
    except _Fallback:
        return None


def _run(sim: "Simulator") -> "SimResult":
    loop: Loop = sim.loop
    net = sim.network
    size = sim.size
    if type(net) is not NetworkModel:
        # Topology/congestion models are history-dependent per message;
        # only the flat analytic model is vectorizable.
        raise _Fallback
    iters = loop.iterations
    noise_fn = vector_noise(sim.noise, size)
    if iters < 0 or noise_fn is None:
        raise _Fallback
    zero_noise = getattr(noise_fn, "always_zero", False)
    setup = _resolve(loop._steps[0], (1, size), net)
    body = _resolve(loop._steps[1], (iters, size), net) if iters else []

    # -- counters: per-(Work instance, rank) increments, exactly as the
    # engine computes them (scalar spec.increment calls), then cumulated.
    # Each spec must fire always or never; a spec whose rate is zero on
    # some computations but not others would change the event template
    # per rank, so such runs fall back.  Instances run setup first, then
    # iteration by iteration.
    instances = [(step[2], 0) for step in setup if step[0] == "work"] + [
        (step[2], it)
        for it in range(iters)
        for step in body
        if step[0] == "work"
    ]
    P = len(instances)
    specs = sim._specs
    emitted: list[int] = []
    inc_rows: list[np.ndarray] = []
    for k, cs in enumerate(specs):
        rows = np.empty((P, size))
        for p, (sec, it) in enumerate(instances):
            rows[p] = [cs.increment(r, s) for r, s in enumerate(sec[it].tolist())]
        if P == 0 or not rows.any():
            continue  # silent spec: no events, no final sample
        if not rows.all():
            raise _Fallback  # mixed zero/nonzero increments
        emitted.append(k)
        inc_rows.append(rows)
    Ke = len(emitted)
    cum = np.empty((Ke, P, size))
    for j, rows in enumerate(inc_rows):
        np.cumsum(rows, axis=0, out=cum[j])
    mids = [sim._metric_ids[specs[k].name] for k in emitted]
    # Final samples are flushed sorted by counter name.
    order = sorted(range(Ke), key=lambda j: specs[emitted[j]].name)

    # -- region registration, in the exact order the interpreter first
    # touches each definition.  Every rank walks the same region
    # sequence, so that is program order -- unless a halo's MPI region
    # is first touched by only some ranks: its id would then depend on
    # the schedule, and the engine runs instead.
    tb = sim.tb
    user_ids: dict[str, int] = {}
    mpi_ids: dict[str, int] = {}

    def user(name: str) -> int:
        if name not in user_ids:
            user_ids[name] = tb.region(name)
        return user_ids[name]

    def mpi(name: str, touched: np.ndarray | None = None) -> int:
        if name not in mpi_ids:
            if touched is not None and not touched.all():
                raise _Fallback
            mpi_ids[name] = tb.region(name, paradigm=Paradigm.MPI)
        return mpi_ids[name]

    def lay_out(steps, rows: _Rows) -> list:
        walk = []
        for step in steps:
            what = step[0]
            if what in ("enter", "leave"):
                kind = _ENTER if what == "enter" else _LEAVE
                walk.append(("mark", rows.add(kind, user(step[1]))))
            elif what == "work":
                rid = user(step[1])
                row = rows.add(_ENTER, rid)
                for mid in mids:
                    rows.add(_METRIC, mid)
                rows.add(_LEAVE, rid)
                walk.append(("work", row, step[2], step[3]))
            elif what == "halo":
                step[1].lay_out(rows, mpi)
                walk.append(step)
            else:
                rid = mpi(step[1])
                row = rows.add(_ENTER, rid)
                rows.add(_LEAVE, rid)
                walk.append(("coll", row, step[2]))
        return walk

    # -- padded row layout: head (main, setup), iterations, tail (main's
    # leave, final counter samples).
    head, once = _Rows(), _Rows()
    head.add(_ENTER, user(loop.main))
    setup_walk = lay_out(setup, head)
    body_walk = lay_out(body, once)
    H, L = len(head.kind), len(once.kind)
    tail = H + iters * L
    n_pad = tail + 1 + Ke

    def column(attr: str, dtype, tail_values) -> np.ndarray:
        out = np.empty(n_pad, dtype=dtype)
        out[:H] = getattr(head, attr)
        out[H:tail] = np.tile(np.asarray(getattr(once, attr), dtype=dtype), iters)
        out[tail:] = tail_values
        return out

    kind_t = column("kind", np.uint8, [_LEAVE] + [_METRIC] * Ke)
    ref_t = column("ref", np.int32, [user(loop.main)] + [mids[j] for j in order])
    size_t = column("size", np.int64, 0)
    tag_t = column("tag", np.int32, 0)

    # -- the clock walk: one pass over iterations, all ranks at once.
    ro, so = net.recv_overhead, net.send_overhead
    T = np.empty((n_pad, size))
    metric_at = np.empty(P, dtype=np.int64)  # first metric row per Work
    c = np.zeros(size)
    T[0] = c
    p = messages = collectives = 0
    for steps, base, it in [(setup_walk, 0, 0)] + [
        (body_walk, H + it * L, it) for it in range(iters)
    ]:
        for step in steps:
            what = step[0]
            if what == "mark":
                T[base + step[1]] = c
            elif what == "work":
                _, row, sec, ex = step
                act = sec[it]
                t0 = c
                T[base + row] = t0
                if zero_noise and ex is None:
                    c = t0 + act
                else:
                    nz = noise_fn(t0, act)
                    itr = (ex[it] if ex is not None else 0.0) + nz
                    c = t0 + (act + itr)
                T[base + row + 1:base + row + 2 + Ke] = c  # metrics + leave
                metric_at[p] = base + row + 1
                p += 1
            elif what == "halo":
                c = step[1].run(c, T, base, ro, so)
                messages += step[1].sends
            else:
                _, row, cost = step
                T[base + row] = c
                fin = float(c.max()) + cost
                c = np.full(size, fin)
                T[base + row + 1] = fin
                collectives += 1
    T[tail:] = c  # leave(main) + final counter samples

    # -- per-rank columns.  Ranks with the same row mask (the same peer
    # counts) share one kind/ref/size/tag template; value and partner
    # columns are built per group, straight in the compact layout.
    halos = [(s[1], np.zeros(1, dtype=np.int64)) for s in setup_walk if s[0] == "halo"]
    halos += [(s[1], H + L * np.arange(iters)) for s in body_walk if s[0] == "halo"]
    masked = [v for v in head.valid + once.valid if v is not None]
    group_of = np.zeros(size, dtype=np.int64)
    if masked:
        _, group_of = np.unique(np.array(masked).T, axis=0, return_inverse=True)
        group_of = group_of.ravel()
    events = 0
    for g in range(int(group_of.max()) + 1):
        members = np.flatnonzero(group_of == g)
        keep = np.concatenate([
            head.keep(members[0]), np.tile(once.keep(members[0]), iters),
            np.ones(1 + Ke, dtype=bool),
        ])
        if keep.all() and len(members) == size:
            rows = slice(None)
            TT = np.ascontiguousarray(T.T)
        else:
            rows = np.flatnonzero(keep)
            TT = T.T[np.ix_(members, rows)]
        shared = {
            "kind": kind_t[rows], "ref": ref_t[rows],
            "size": size_t[rows], "tag": tag_t[rows],
        }
        n = len(shared["kind"])
        at = np.cumsum(keep) - 1  # padded row -> row in this group's layout
        VT = PT = None
        if Ke:
            VT = np.zeros((len(members), n))
            for j in range(Ke):
                VT[:, at[metric_at + j]] = cum[j][:, members].T
            for jj, j in enumerate(order):
                VT[:, n - Ke + jj] = cum[j, P - 1, members]
        else:
            shared["value"] = np.zeros(n)
        if halos:
            PT = np.full((len(members), n), -1, dtype=np.int32)
            for plan, bases in halos:
                for row, peers in plan.partners():
                    if len(bases) and keep[bases[0] + row]:
                        PT[:, at[bases + row]] = peers[members][:, None]
        else:
            shared["partner"] = np.full(n, -1, dtype=np.int32)
        for i, r in enumerate(members.tolist()):
            cols = {"time": TT[i], **shared}
            if PT is not None:
                cols["partner"] = PT[i]
            if VT is not None:
                cols["value"] = VT[i]
            tb.adopt(r, f"Rank {r}", cols)
        events += n * len(members)

    from .engine import SimResult

    return SimResult(
        trace=None,  # frozen lazily from the builder on first access
        end_times={r: float(c[r]) for r in range(size)},
        messages=messages,
        collectives=collectives,
        events=events,
        sched_ops=2 * size,
        builder=sim.tb,
    )
