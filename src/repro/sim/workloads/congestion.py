"""Congestion collapse: an incast serializing on one fat-tree down-link.

Every iteration all ranks dump a result block onto rank 0 (the classic
reduction-by-hand / checkpoint-writer pattern) before re-synchronizing
on a barrier.  On a flat network the incast costs one transfer time;
on a real fabric the payloads share the root's single down-link and
queue behind each other, so the root-side completion degrades linearly
with the rank count — congestion collapse.

The workload therefore runs on a :class:`TopologyNetworkModel` over a
two-level :class:`FatTreeTopology` with per-link queueing enabled.  In
the SOS heat map the collapse shows as waiting time at the barrier
growing with distance from the root's leaf switch, while the root's
own waiting stays near zero — a signature a flat latency/bandwidth
model cannot produce.
"""

from __future__ import annotations

from ..._record import record
from ...trace.trace import Trace
from .. import ops
from ..countermodel import CounterSet
from ..engine import SimResult, simulate
from ..network import FatTreeTopology, NetworkModel, TopologyNetworkModel
from ..noise import NoiseModel

__all__ = ["CongestionConfig", "generate", "generate_result"]


@record(frozen=True)
class CongestionConfig:
    """Parameters of the incast workload and its fat-tree fabric."""

    ranks: int = 64
    iterations: int = 30
    #: Per-rank compute between incasts (perfectly balanced).
    base_compute: float = 2.0e-3
    #: Result block each rank pushes to the root per iteration (eager,
    #: so the payloads queue on the fabric rather than rendezvous).
    message_bytes: int = 32 * 1024
    #: Hosts per leaf switch of the fat tree.
    leaf_arity: int = 16
    #: Spine switches above the leaves.
    spines: int = 4
    #: Per-link bandwidth (bytes/s) — the shared-resource bottleneck.
    link_bandwidth: float = 2.5e9

    def __post_init__(self) -> None:
        if self.ranks < 2:
            raise ValueError("an incast needs at least 2 ranks")
        if self.message_bytes <= 0:
            raise ValueError("message_bytes must be positive")


def _network(config: CongestionConfig) -> TopologyNetworkModel:
    return TopologyNetworkModel(
        topology=FatTreeTopology(
            leaf_arity=config.leaf_arity, spines=config.spines
        ),
        link_bandwidth=config.link_bandwidth,
    )


def _program_factory(config: CongestionConfig):
    def program(rank: int, size: int):
        yield ops.Enter("main")
        yield ops.Compute(config.base_compute / 4, region="setup")
        for _it in range(config.iterations):
            yield ops.Enter("iteration")
            yield ops.Compute(config.base_compute, region="work")
            if rank == 0:
                reqs = []
                for src in range(1, size):
                    req = yield ops.Irecv(
                        src, size=config.message_bytes, tag=13
                    )
                    reqs.append(req)
                yield ops.Waitall(reqs)
            else:
                s = yield ops.Isend(0, size=config.message_bytes, tag=13)
                yield ops.Waitall([s])
            yield ops.Barrier()
            yield ops.Leave("iteration")
        yield ops.Leave("main")

    return program


def generate_result(
    config: CongestionConfig | None = None,
    network: NetworkModel | None = None,
    noise: NoiseModel | None = None,
) -> SimResult:
    """Simulate the incast and return the :class:`SimResult`."""
    if config is None:
        config = CongestionConfig()
    if network is None:
        network = _network(config)
    return simulate(
        size=config.ranks,
        program=_program_factory(config),
        network=network,
        noise=noise,
        counters=CounterSet((CounterSet.cycles(),)),
        name="congestion incast",
        attributes={
            "workload": "congestion",
            "processes": str(config.ranks),
            "iterations": str(config.iterations),
            "message_bytes": str(config.message_bytes),
        },
    )


def generate(
    ranks: int = 64,
    iterations: int = 30,
    **overrides,
) -> Trace:
    """Generate a congestion-collapse trace (convenience wrapper)."""
    config = CongestionConfig(ranks=ranks, iterations=iterations, **overrides)
    return generate_result(config).trace
