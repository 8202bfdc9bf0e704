"""Vectorized fast path: whole BSP iterations as rank-vectors.

The general engine interprets one op at a time through Python
generators — flexible, but its throughput is bounded by per-event
Python work.  The bulk-synchronous workloads this project actually
generates (synthetic, idle-wave and friends) share one rigid shape:
a setup computation, then ``iterations`` rounds of per-rank compute,
an optional eager halo ring exchange, and an optional collective.

:class:`LoopSpec` declares that shape; :func:`run_fast` then computes
every rank's clock for a whole iteration as one NumPy vector — noise,
halo matching (a ``roll`` against each neighbour's send availability)
and collective synchronization included — and hands each rank's finished
columns to the simulator's :class:`~repro.trace.builder.TraceBuilder`
(:meth:`~repro.trace.builder.TraceBuilder.adopt`).  Per-event cost becomes a few
array stores instead of a generator resumption plus dispatch.

The fast path replicates the engine's floating-point expressions
operation for operation (same association, same ``max`` fold order,
same noise formulas via :func:`repro.sim.noise.vector_noise`), so its
traces are **bitwise identical** to the general interpreter's — the
differential tests in ``tests/test_sim_sink.py`` and the golden
fingerprints in ``tests/test_recorder_golden.py`` hold it to that.
Anything it cannot reproduce exactly (unknown noise models, rendezvous
halos, topology networks, mixed-zero counter rates) makes it return
``None`` and the general engine runs instead.  ``REPRO_SIM_NO_FASTPATH=1``
forces the fallback unconditionally.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..trace.definitions import Paradigm
from .network import NetworkModel
from .noise import vector_noise

if TYPE_CHECKING:
    from .engine import SimResult, Simulator

__all__ = ["LoopSpec", "HaloRing", "run_fast"]


@dataclass(frozen=True)
class HaloRing:
    """Nearest-neighbour ring exchange: Irecv(left), Irecv(right),
    Isend(right), Isend(left), Waitall — the halo idiom every BSP
    workload here uses."""

    bytes: int = 8 * 1024
    tag: int = 0


@dataclass(frozen=True)
class LoopSpec:
    """Declarative iteration structure of a bulk-synchronous program.

    ``seconds(it)`` returns the per-rank active seconds of **one
    sub-iteration** of iteration ``it`` (all ``subiters`` subs of an
    iteration use the same value, like the workloads do).  ``extra(it)``
    optionally returns per-rank interruption seconds added to the first
    sub-iteration (the planted-outlier hook).
    """

    iterations: int
    seconds: Callable[[int], "np.ndarray"]
    subiters: int = 1
    extra: Callable[[int], "np.ndarray"] | None = None
    setup_seconds: float | None = None
    setup_region: str = "setup"
    compute_region: str = "work"
    iteration_region: str = "iteration"
    main_region: str = "main"
    halo: HaloRing | None = None
    collective: str = "none"  # "none" | "allreduce" | "barrier"
    collective_size: int = 8


_ENTER, _LEAVE, _SEND, _RECV, _METRIC = 0, 1, 2, 3, 4


def _rank_matrix(fn, iters: int, size: int) -> np.ndarray | None:
    out = np.empty((iters, size), dtype=np.float64)
    for it in range(iters):
        row = np.asarray(fn(it), dtype=np.float64)
        if row.shape != (size,):
            return None
        out[it] = row
    return out


def run_fast(sim: "Simulator") -> "SimResult | None":
    """Run ``sim`` through the vectorized path; ``None`` if ineligible."""
    if os.environ.get("REPRO_SIM_NO_FASTPATH", "").strip() not in ("", "0"):
        return None
    spec: LoopSpec = sim.loop
    net = sim.network
    size = sim.size
    if type(net) is not NetworkModel:
        # Topology/congestion models are history-dependent per message;
        # only the flat analytic model is vectorizable.
        return None
    halo = spec.halo
    if halo is not None and (size < 2 or not net.is_eager(halo.bytes)):
        return None
    if spec.collective not in ("none", "allreduce", "barrier"):
        return None
    if not spec.main_region or not spec.iteration_region or not spec.compute_region:
        return None
    iters = int(spec.iterations)
    S = int(spec.subiters)
    if iters < 0 or S < 1:
        return None
    noise_fn = vector_noise(sim.noise, size)
    if noise_fn is None:
        return None
    zero_noise = getattr(noise_fn, "always_zero", False)

    setup = spec.setup_seconds
    has_setup = setup is not None
    if has_setup and (setup < 0 or not spec.setup_region):
        return None

    sec = _rank_matrix(spec.seconds, iters, size)
    if sec is None or (iters and (sec < 0).any()):
        return None
    ex = None
    if spec.extra is not None and iters:
        ex = _rank_matrix(spec.extra, iters, size)
        if ex is None or (ex < 0).any():
            return None
        if not ex.any():
            ex = None

    # -- counters: per-(rank, phase) increments, exactly as the engine
    # computes them (scalar spec.increment calls), then cumulated.
    # Each spec must fire always or never; a spec whose rate is zero on
    # some computations but not others would change the event template
    # per rank, so such runs fall back.
    specs = sim._specs
    P = (1 if has_setup else 0) + iters * S
    emitted: list[int] = []
    inc_rows: list[np.ndarray] = []
    for k, cs in enumerate(specs):
        rows = np.empty((P, size))
        if has_setup:
            rows[0] = [cs.increment(r, setup) for r in range(size)]
        for it in range(iters):
            row = [cs.increment(r, float(s)) for r, s in enumerate(sec[it])]
            for s_i in range(S):
                rows[(1 if has_setup else 0) + it * S + s_i] = row
        if P == 0 or not rows.any():
            continue  # silent spec: no events, no final sample
        if not rows.all():
            return None  # mixed zero/nonzero increments
        emitted.append(k)
        inc_rows.append(rows)
    Ke = len(emitted)
    cum = np.empty((Ke, P, size))
    for j, rows in enumerate(inc_rows):
        np.cumsum(rows, axis=0, out=cum[j])
    mids = [sim._metric_ids[specs[k].name] for k in emitted]
    # Final samples are flushed sorted by counter name.
    order = sorted(range(Ke), key=lambda j: specs[emitted[j]].name)

    # -- region registration, in the exact order the interpreter would
    # first touch each definition.
    tb = sim.tb
    rid_main = tb.region(spec.main_region)
    rid_setup = tb.region(spec.setup_region) if has_setup else -1
    rid_iter = rid_work = rid_irecv = rid_isend = rid_wait = rid_coll = -1
    coll = spec.collective if iters else "none"
    if iters:
        rid_iter = tb.region(spec.iteration_region)
        rid_work = tb.region(spec.compute_region)
        if halo is not None:
            rid_irecv = tb.region("MPI_Irecv", paradigm=Paradigm.MPI)
            rid_isend = tb.region("MPI_Isend", paradigm=Paradigm.MPI)
            rid_wait = tb.region("MPI_Waitall", paradigm=Paradigm.MPI)
        if coll == "allreduce":
            rid_coll = tb.region("MPI_Allreduce", paradigm=Paradigm.MPI)
        elif coll == "barrier":
            rid_coll = tb.region("MPI_Barrier", paradigm=Paradigm.MPI)

    # -- row layout: head + iters * L + tail, identical on every rank.
    H = 1 + (2 + Ke if has_setup else 0)
    sub_len = 2 + Ke
    n_halo = 14 if halo is not None else 0
    n_coll = 2 if coll != "none" else 0
    L = 1 + S * sub_len + n_halo + n_coll + 1
    n = H + iters * L + 1 + Ke

    # Shared (rank-independent) column templates.
    kind_t = np.zeros(n, dtype=np.uint8)
    ref_t = np.full(n, -1, dtype=np.int32)
    size_t = np.zeros(n, dtype=np.int64)
    tag_t = np.zeros(n, dtype=np.int32)

    ref_t[0] = rid_main
    if has_setup:
        ref_t[1] = rid_setup
        kind_t[2:2 + Ke] = _METRIC
        ref_t[2:2 + Ke] = mids
        kind_t[2 + Ke] = _LEAVE
        ref_t[2 + Ke] = rid_setup

    # One iteration's template, tiled across all iterations.
    ik = np.zeros(L, dtype=np.uint8)
    iref = np.full(L, -1, dtype=np.int32)
    isz = np.zeros(L, dtype=np.int64)
    itg = np.zeros(L, dtype=np.int32)
    iref[0] = rid_iter
    for s_i in range(S):
        o = 1 + s_i * sub_len
        iref[o] = rid_work
        ik[o + 1:o + 1 + Ke] = _METRIC
        iref[o + 1:o + 1 + Ke] = mids
        ik[o + 1 + Ke] = _LEAVE
        iref[o + 1 + Ke] = rid_work
    o_halo = 1 + S * sub_len
    if halo is not None:
        hk = [_ENTER, _LEAVE, _ENTER, _LEAVE,          # two Irecvs
              _ENTER, _SEND, _LEAVE, _ENTER, _SEND, _LEAVE,  # two Isends
              _ENTER, _RECV, _RECV, _LEAVE]            # Waitall
        hr = [rid_irecv, rid_irecv, rid_irecv, rid_irecv,
              rid_isend, -1, rid_isend, rid_isend, -1, rid_isend,
              rid_wait, -1, -1, rid_wait]
        ik[o_halo:o_halo + 14] = hk
        iref[o_halo:o_halo + 14] = hr
        for o in (o_halo + 5, o_halo + 8, o_halo + 11, o_halo + 12):
            isz[o] = halo.bytes
            itg[o] = halo.tag
    o_coll = o_halo + n_halo
    if coll != "none":
        iref[o_coll] = rid_coll
        ik[o_coll + 1] = _LEAVE
        iref[o_coll + 1] = rid_coll
    ik[L - 1] = _LEAVE
    iref[L - 1] = rid_iter

    body = slice(H, H + iters * L)
    kind_t[body] = np.tile(ik, iters)
    ref_t[body] = np.tile(iref, iters)
    size_t[body] = np.tile(isz, iters)
    tag_t[body] = np.tile(itg, iters)

    tail = H + iters * L
    kind_t[tail] = _LEAVE
    ref_t[tail] = rid_main
    kind_t[tail + 1:] = _METRIC
    ref_t[tail + 1:] = [mids[j] for j in order]

    # -- the clock walk: one pass over iterations, all ranks at once.
    ro = net.recv_overhead
    so = net.send_overhead
    transfer = net.transfer_time(halo.bytes) if halo is not None else 0.0
    if coll == "allreduce":
        coll_cost = net.allreduce_cost(spec.collective_size, size)
    elif coll == "barrier":
        coll_cost = net.barrier_cost(size)
    else:
        coll_cost = 0.0

    T = np.empty((n, size))
    c = np.zeros(size)
    T[0] = 0.0
    if has_setup:
        T[1] = 0.0
        act = np.full(size, setup)
        if zero_noise:
            c = c + act
        else:
            itr = 0.0 + noise_fn(c, act)
            c = c + (act + itr)
        T[2:2 + Ke + 1] = c  # metrics + leave(setup)

    messages = 0
    for it in range(iters):
        base = H + it * L
        T[base] = c  # enter(iteration)
        act = sec[it]
        for s_i in range(S):
            o = base + 1 + s_i * sub_len
            t0 = c
            T[o] = t0  # enter(work)
            if zero_noise and (ex is None or s_i > 0):
                c = t0 + act
            else:
                nz = noise_fn(t0, act)
                itr = (ex[it] if (s_i == 0 and ex is not None) else 0.0) + nz
                c = t0 + (act + itr)
            T[o + 1:o + 2 + Ke] = c  # metrics + leave(work)
        if halo is not None:
            o = base + o_halo
            h0 = c            # Irecv(left) posted
            h1 = h0 + ro      # Irecv(right) posted
            h2 = h1 + ro      # Isend(right) posted
            h3 = h2 + so      # Isend(left) posted
            h4 = h3 + so      # Waitall entered
            avail1 = h2 + transfer  # payload of each rank's send-to-right
            avail2 = h3 + transfer  # payload of each rank's send-to-left
            # recv-from-left matches the left neighbour's send-to-right;
            # recv-from-right matches the right neighbour's send-to-left.
            comp_r1 = np.maximum(h0, np.roll(avail1, 1))
            comp_r2 = np.maximum(h1, np.roll(avail2, -1))
            # Engine fold: max(cw, r1, r2, s1, s2); the send completions
            # h3, h4 never exceed cw = h4, so they drop out.
            fin = np.maximum(np.maximum(h4, comp_r1), comp_r2)
            T[o] = h0
            T[o + 1] = h1
            T[o + 2] = h1
            T[o + 3] = h2
            T[o + 4] = h2
            T[o + 5] = h2   # SEND to right
            T[o + 6] = h3
            T[o + 7] = h3
            T[o + 8] = h3   # SEND to left
            T[o + 9] = h4
            T[o + 10] = h4  # enter(Waitall)
            T[o + 11:o + 14] = fin  # RECV left, RECV right, leave
            c = fin
            messages += 2 * size
        if coll != "none":
            o = base + o_coll
            T[o] = c
            finc = float(c.max()) + coll_cost
            c = np.full(size, finc)
            T[o + 1] = finc
        T[base + L - 1] = c  # leave(iteration)
    T[tail:] = c  # leave(main) + final counter samples

    # -- value column: zero except at metric rows.
    p0 = 1 if has_setup else 0
    if Ke:
        V = np.zeros((n, size))
        for j in range(Ke):
            if has_setup:
                V[2 + j] = cum[j, 0]
            if iters:
                idx = (
                    H + 2 + j
                    + L * np.arange(iters)[:, None]
                    + sub_len * np.arange(S)[None, :]
                ).ravel()
                V[idx] = cum[j, p0:].reshape(iters * S, size)
        for jj, j in enumerate(order):
            V[tail + 1 + jj] = cum[j, P - 1]
        VT = np.ascontiguousarray(V.T)
        del V
    else:
        VT = None
        value_shared = np.zeros(n)

    # -- partner column: only SEND/RECV rows are rank-dependent.
    partner_t = np.full(n, -1, dtype=np.int32)
    if halo is not None and iters:
        PM = np.repeat(partner_t[:, None], size, axis=1)
        ranks = np.arange(size, dtype=np.int32)
        left = np.roll(ranks, 1)    # (r - 1) % size
        right = np.roll(ranks, -1)  # (r + 1) % size
        steps = L * np.arange(iters)
        PM[H + o_halo + 5 + steps[:, None], :] = right[None, :]
        PM[H + o_halo + 8 + steps[:, None], :] = left[None, :]
        PM[H + o_halo + 11 + steps[:, None], :] = left[None, :]
        PM[H + o_halo + 12 + steps[:, None], :] = right[None, :]
        PT = np.ascontiguousarray(PM.T)
        del PM
    else:
        PT = None

    TT = np.ascontiguousarray(T.T)
    del T

    for r in range(size):
        sim.tb.adopt(
            r,
            f"Rank {r}",
            {
                "time": TT[r],
                "kind": kind_t,
                "ref": ref_t,
                "partner": PT[r] if PT is not None else partner_t,
                "size": size_t,
                "tag": tag_t,
                "value": VT[r] if VT is not None else value_shared,
            },
        )

    from .engine import SimResult

    return SimResult(
        trace=None,  # frozen lazily from the builder on first access
        end_times={r: float(c[r]) for r in range(size)},
        messages=messages,
        collectives=iters if coll != "none" else 0,
        events=n * size,
        sched_ops=2 * size,
        builder=sim.tb,
    )
