"""Analytic network cost models for the MPI simulator.

Point-to-point transfers follow the classic latency/bandwidth
(Hockney) model; collectives use logarithmic tree costs, matching the
behaviour of common MPI implementations closely enough for the
*shape* of traces (who waits for whom, how costs grow with scale),
which is all the variation analysis consumes.

On top of the flat :class:`NetworkModel`, :class:`TopologyNetworkModel`
adds distance-dependent latency and per-link congestion queueing over
pluggable topology classes (:class:`FatTreeTopology`,
:class:`DragonflyTopology`, :class:`TorusTopology`).  The engine talks
to either through three hooks — :meth:`NetworkModel.path_latency`,
:meth:`NetworkModel.eager_completion`,
:meth:`NetworkModel.transfer_completion` — which the flat model
implements exactly as the classic formulas, so existing traces are
byte-identical.
"""

from __future__ import annotations

import math

from .._record import field, record

__all__ = [
    "NetworkModel",
    "Topology",
    "FatTreeTopology",
    "DragonflyTopology",
    "TorusTopology",
    "TopologyNetworkModel",
]


@record(frozen=True, slots=True)
class NetworkModel:
    """Timing parameters of the simulated interconnect.

    Attributes
    ----------
    latency:
        One-way small-message latency in seconds.
    bandwidth:
        Sustained point-to-point bandwidth in bytes/second.
    eager_threshold:
        Message size (bytes) up to which sends complete without waiting
        for the receiver (eager protocol); larger messages use
        rendezvous and block until matched.
    send_overhead, recv_overhead:
        CPU-side per-message costs added to the caller.
    """

    latency: float = 1.0e-6
    bandwidth: float = 5.0e9
    eager_threshold: int = 64 * 1024
    send_overhead: float = 2.0e-7
    recv_overhead: float = 2.0e-7

    def transfer_time(self, size: int) -> float:
        """Wire time of one message of ``size`` bytes."""
        return self.latency + size / self.bandwidth

    def is_eager(self, size: int) -> bool:
        return size <= self.eager_threshold

    # -- engine hooks --------------------------------------------------
    #
    # The engine routes all point-to-point timing through these three
    # methods (plus ``reset`` between runs), so subclasses can make
    # them rank- and history-dependent.  The flat model keeps the
    # classic expressions verbatim.

    def reset(self) -> None:
        """Clear mutable transfer state before a run (flat model: none)."""

    def path_latency(self, src: int, dst: int) -> float:
        """One-way latency between two ranks."""
        return self.latency

    def eager_completion(self, src: int, dst: int, size: int, t_post: float) -> float:
        """Time the payload of an eager send arrives at the receiver."""
        return t_post + self.transfer_time(size)

    def transfer_completion(self, src: int, dst: int, size: int, start: float) -> float:
        """Completion time of a rendezvous payload starting at ``start``."""
        return start + size / self.bandwidth

    # -- collectives ---------------------------------------------------

    def _rounds(self, p: int) -> int:
        return max(1, math.ceil(math.log2(max(p, 2))))

    def barrier_cost(self, p: int) -> float:
        """Dissemination barrier: ceil(log2 p) latency-bound rounds."""
        return self._rounds(p) * self.latency

    def bcast_cost(self, size: int, p: int) -> float:
        """Binomial-tree broadcast."""
        return self._rounds(p) * self.transfer_time(size)

    def reduce_cost(self, size: int, p: int) -> float:
        """Binomial-tree reduction (compute cost folded into latency)."""
        return self._rounds(p) * self.transfer_time(size)

    def allreduce_cost(self, size: int, p: int) -> float:
        """Reduce + broadcast (factor 2 tree)."""
        return 2.0 * self._rounds(p) * self.transfer_time(size)

    def allgather_cost(self, size: int, p: int) -> float:
        """Ring allgather: (p-1) steps of the per-rank block."""
        return max(p - 1, 1) * self.transfer_time(size)

    def alltoall_cost(self, size: int, p: int) -> float:
        """Pairwise exchange: (p-1) rounds, one block per peer."""
        return max(p - 1, 1) * self.transfer_time(size)

    def gather_cost(self, size: int, p: int) -> float:
        """Root-bound gather: latency tree + root receives p-1 blocks."""
        return self._rounds(p) * self.latency + max(p - 1, 1) * size / self.bandwidth

    def scatter_cost(self, size: int, p: int) -> float:
        """Root-bound scatter (mirror of gather)."""
        return self.gather_cost(size, p)


# -- topologies ---------------------------------------------------------
#
# A topology maps rank pairs to routes: ordered tuples of hashable link
# ids.  Routes are deterministic (no randomized adaptive routing), so a
# given scenario always produces the same trace; links are undirected
# and shared both ways, which is what makes incast congestion visible.


class Topology:
    """Interface: deterministic routes between ranks."""

    #: Upper bound on hops of any route (used for collective costs).
    diameter: int = 0

    def route(self, src: int, dst: int) -> tuple:
        """Ordered link ids traversed from ``src`` to ``dst``."""
        raise NotImplementedError

    def hops(self, src: int, dst: int) -> int:
        return len(self.route(src, dst))


@record(frozen=True, slots=True)
class FatTreeTopology(Topology):
    """Two-level fat-tree: hosts under leaf switches, leaves under spines.

    Routes are 0 hops (same host), 2 (same leaf: host links up and
    down) or 4 (via a spine chosen deterministically per leaf pair).
    Every host hangs off exactly one leaf, so an incast into one rank
    serializes on that rank's single down-link — the classic collapse.
    """

    leaf_arity: int = 16
    spines: int = 4
    diameter: int = 4

    def __post_init__(self) -> None:
        if self.leaf_arity <= 0 or self.spines <= 0:
            raise ValueError("leaf_arity and spines must be positive")

    def route(self, src: int, dst: int) -> tuple:
        if src == dst:
            return ()
        leaf_s, leaf_d = src // self.leaf_arity, dst // self.leaf_arity
        up = ("host", src)
        down = ("host", dst)
        if leaf_s == leaf_d:
            return (up, down)
        spine = (leaf_s * 31 + leaf_d) % self.spines
        return (up, ("leaf", leaf_s, spine), ("leaf", leaf_d, spine), down)

    def hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        return 2 if src // self.leaf_arity == dst // self.leaf_arity else 4


@record(frozen=True, slots=True)
class TorusTopology(Topology):
    """k-ary n-dimensional torus with dimension-ordered shortest routing.

    Ranks map to mixed-radix coordinates over ``dims``; each hop is one
    step along the current dimension in the shorter wrap direction.
    """

    dims: tuple[int, ...] = (8, 8)

    def __post_init__(self) -> None:
        if not self.dims or any(d <= 0 for d in self.dims):
            raise ValueError("dims must be positive")
        object.__setattr__(self, "diameter", sum(d // 2 for d in self.dims))

    # diameter is derived from dims in __post_init__.
    diameter: int = 0

    def _coords(self, rank: int) -> list[int]:
        coords = []
        for d in self.dims:
            coords.append(rank % d)
            rank //= d
        return coords

    def route(self, src: int, dst: int) -> tuple:
        if src == dst:
            return ()
        cur = self._coords(src)
        goal = self._coords(dst)
        links = []
        for axis, d in enumerate(self.dims):
            while cur[axis] != goal[axis]:
                forward = (goal[axis] - cur[axis]) % d
                step = 1 if forward <= d - forward else -1
                nxt = (cur[axis] + step) % d
                a, b = cur[axis], nxt
                other = tuple(c for i, c in enumerate(cur) if i != axis)
                links.append((axis, min(a, b), max(a, b), other))
                cur[axis] = nxt
        return tuple(links)

    def hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        total = 0
        for axis, d in enumerate(self.dims):
            delta = (self._coords(dst)[axis] - self._coords(src)[axis]) % d
            total += min(delta, d - delta)
        return total


@record(frozen=True, slots=True)
class DragonflyTopology(Topology):
    """Dragonfly: all-to-all routers inside a group, one global link
    per group pair, reached through a deterministic gateway router.

    Minimal routing: host up, intra-group to the gateway, global link,
    intra-group from the remote gateway, host down — at most 5 hops.
    """

    groups: int = 4
    routers: int = 4
    hosts_per_router: int = 4
    diameter: int = 5

    def __post_init__(self) -> None:
        if self.groups <= 0 or self.routers <= 0 or self.hosts_per_router <= 0:
            raise ValueError("dragonfly parameters must be positive")

    def _router(self, rank: int) -> tuple[int, int]:
        router = rank // self.hosts_per_router
        return router // self.routers % self.groups, router % self.routers

    def route(self, src: int, dst: int) -> tuple:
        if src == dst:
            return ()
        gs, rs = self._router(src)
        gd, rd = self._router(dst)
        links = [("host", src)]
        if gs == gd:
            if rs != rd:
                links.append(("intra", gs, min(rs, rd), max(rs, rd)))
        else:
            gw_s = (gs + gd) % self.routers
            gw_d = (gd + gs) % self.routers
            if rs != gw_s:
                links.append(("intra", gs, min(rs, gw_s), max(rs, gw_s)))
            links.append(("global", min(gs, gd), max(gs, gd)))
            if gw_d != rd:
                links.append(("intra", gd, min(gw_d, rd), max(gw_d, rd)))
        links.append(("host", dst))
        return tuple(links)


@record(frozen=True, slots=True)
class TopologyNetworkModel(NetworkModel):
    """Distance- and congestion-aware network over a :class:`Topology`.

    Point-to-point payloads traverse their route store-and-forward:
    each link adds ``hop_latency`` plus the payload's serialization
    time at ``link_bandwidth``, and (with ``congestion``) queues behind
    earlier payloads still occupying the link.  The busy map carries
    state across messages within one run; the engine calls
    :meth:`reset` between runs so repeated simulations stay
    deterministic.

    Collective costs reuse the flat formulas with the topology's
    worst-case (diameter) latency, keeping them analytic.
    """

    topology: Topology | None = None
    #: Per-hop switch/router traversal latency in seconds.
    hop_latency: float = 5.0e-8
    #: Per-link bandwidth (bytes/s); 0 falls back to ``bandwidth``.
    link_bandwidth: float = 0.0
    #: Queue payloads behind earlier traffic on shared links.
    congestion: bool = True
    _busy: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.topology is None:
            raise ValueError("TopologyNetworkModel requires a topology")

    def reset(self) -> None:
        self._busy.clear()

    # -- point-to-point ------------------------------------------------

    def _traverse(self, src: int, dst: int, size: int, t: float) -> float:
        bw = self.link_bandwidth or self.bandwidth
        ser = size / bw
        t = t + self.latency  # injection overhead
        if not self.congestion:
            route = self.topology.route(src, dst)
            return t + len(route) * (self.hop_latency + ser)
        busy = self._busy
        for link in self.topology.route(src, dst):
            start = busy.get(link, 0.0)
            if start < t:
                start = t
            busy[link] = start + ser
            t = start + self.hop_latency + ser
        return t

    def path_latency(self, src: int, dst: int) -> float:
        return self.latency + self.hop_latency * self.topology.hops(src, dst)

    def eager_completion(self, src: int, dst: int, size: int, t_post: float) -> float:
        return self._traverse(src, dst, size, t_post)

    def transfer_completion(self, src: int, dst: int, size: int, start: float) -> float:
        return self._traverse(src, dst, size, start)

    # -- collectives ---------------------------------------------------

    def effective_latency(self) -> float:
        """Worst-case one-way latency used by the collective formulas."""
        return self.latency + self.hop_latency * self.topology.diameter

    def transfer_time(self, size: int) -> float:
        return self.effective_latency() + size / self.bandwidth

    def barrier_cost(self, p: int) -> float:
        return self._rounds(p) * self.effective_latency()

    def gather_cost(self, size: int, p: int) -> float:
        return (
            self._rounds(p) * self.effective_latency()
            + max(p - 1, 1) * size / self.bandwidth
        )
