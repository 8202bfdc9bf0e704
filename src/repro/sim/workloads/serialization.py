"""Serialization bottleneck: a critical section taken in rank order.

GAPP (Glamdring et al.) finds lock- and resource-serialization
bottlenecks in threaded programs by spotting phases where nominally
parallel workers make progress one at a time.  The MPI analogue is a
shared resource guarded by a token: every iteration each rank performs
its parallel work, then must hold the token — passed rank 0 → 1 → ⋯ →
p−1 — to run its critical section.  The aggregate critical time is
serialized, so the iteration takes ``parallel + p * critical`` and
every rank spends ``O(rank)`` time waiting in ``MPI_Recv`` for the
token.

In the SOS heat map the pattern is a uniform per-segment wait that
*grows linearly with the rank index* but — unlike a late-sender
cascade — does not move over time: the bottleneck is structural, not
episodic.  The paper's detectors flag nothing rank-specific (no rank
is an outlier against the fitted linear profile is exactly the point:
the whole communicator is the bottleneck); the workload exists so the
corpus covers the case where variation is low but waiting is huge.
"""

from __future__ import annotations

from ..._record import record
from ...trace.trace import Trace
from .. import ops
from ..countermodel import CounterSet
from ..engine import SimResult, simulate
from ..network import NetworkModel
from ..noise import NoiseModel

__all__ = ["SerializationConfig", "generate", "generate_result"]


@record(frozen=True)
class SerializationConfig:
    """Parameters of the token-serialized critical section."""

    ranks: int = 10
    iterations: int = 16
    #: Perfectly parallel work per rank per iteration.
    parallel_compute: float = 0.006
    #: Critical-section time per rank per iteration (serialized!).
    critical_compute: float = 0.002
    #: Token payload (small: always eager).
    token_bytes: int = 64
    #: Synchronizing collective closing each iteration.
    collective: str = "allreduce"  # "allreduce" | "barrier" | "none"

    def __post_init__(self) -> None:
        if self.ranks < 2:
            raise ValueError("serialization needs at least 2 ranks")
        if self.collective not in ("allreduce", "barrier", "none"):
            raise ValueError(f"unknown collective {self.collective!r}")


def _program_factory(config: SerializationConfig):
    def program(rank: int, size: int):
        yield ops.Enter("main")
        yield ops.Compute(config.parallel_compute / 4, region="setup")
        for _it in range(config.iterations):
            yield ops.Enter("iteration")
            yield ops.Compute(config.parallel_compute, region="parallel_work")
            # The token starts at rank 0 each iteration and is passed
            # up the rank order; holding it serializes the critical
            # section exactly like a contended lock.
            if rank > 0:
                yield ops.Recv(rank - 1, size=config.token_bytes, tag=99)
            yield ops.Compute(config.critical_compute, region="critical_section")
            if rank < size - 1:
                yield ops.Send(rank + 1, size=config.token_bytes, tag=99)
            if config.collective == "allreduce":
                yield ops.Allreduce(size=8)
            elif config.collective == "barrier":
                yield ops.Barrier()
            yield ops.Leave("iteration")
        yield ops.Leave("main")

    return program


def generate_result(
    config: SerializationConfig | None = None,
    network: NetworkModel | None = None,
    noise: NoiseModel | None = None,
) -> SimResult:
    """Simulate the serialized workload and return the :class:`SimResult`."""
    if config is None:
        config = SerializationConfig()
    return simulate(
        size=config.ranks,
        program=_program_factory(config),
        network=network,
        noise=noise,
        counters=CounterSet((CounterSet.cycles(),)),
        name="token-serialization",
        attributes={
            "workload": "serialization",
            "processes": str(config.ranks),
            "iterations": str(config.iterations),
            "critical_compute": str(config.critical_compute),
        },
    )


def generate(
    ranks: int = 10,
    iterations: int = 16,
    **overrides,
) -> Trace:
    """Generate a serialization-bottleneck trace (convenience wrapper)."""
    config = SerializationConfig(
        ranks=ranks, iterations=iterations, **overrides
    )
    return generate_result(config).trace
