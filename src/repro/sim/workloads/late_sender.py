"""Late-sender cascade: a slow producer starving a processing pipeline.

The classic late-sender inefficiency pattern (Scalasca/KOJAK
terminology): a receiver posts its ``MPI_Recv`` early and then sits in
it because the matching send happens late.  Arranged in a pipeline —
rank *r* receives from *r − 1*, post-processes, forwards to *r + 1* —
one slow head rank starves every downstream stage, and the waiting
*cascades*: the further down the chain, the longer the accumulated
wait.  A periodic barrier (the ``wait-at-barrier`` mix) re-couples all
ranks every ``barrier_every`` iterations, so both patterns appear in
one trace.

In the SOS heat map the cascade shows as waiting time growing
monotonically with the rank index during the slow head's episodes —
the mirror image of the serialization workload, where waiting grows
because of a shared resource rather than an upstream dependency.
"""

from __future__ import annotations

from ..._record import record
from ...trace.trace import Trace
from .. import ops
from ..countermodel import CounterSet
from ..engine import SimResult, simulate
from ..network import NetworkModel
from ..noise import NoiseModel

__all__ = ["LateSenderConfig", "generate", "generate_result"]


@record(frozen=True)
class LateSenderConfig:
    """Parameters of the late-sender pipeline."""

    ranks: int = 12
    iterations: int = 20
    #: Per-stage processing cost per iteration.
    base_compute: float = 0.008
    #: Slowdown factor of the head rank during a slow episode.
    head_factor: float = 4.0
    #: The head is slow on iterations where ``it % slow_every == 0``.
    slow_every: int = 3
    #: Payload forwarded down the pipeline.
    msg_bytes: int = 4 * 1024
    #: A global barrier every this many iterations (0 = never): the
    #: wait-at-barrier mix riding on top of the cascade.
    barrier_every: int = 5

    def __post_init__(self) -> None:
        if self.ranks < 2:
            raise ValueError("a pipeline needs at least 2 ranks")
        if self.slow_every < 1:
            raise ValueError("slow_every must be >= 1")


def _program_factory(config: LateSenderConfig):
    def program(rank: int, size: int):
        yield ops.Enter("main")
        yield ops.Compute(config.base_compute / 4, region="setup")
        for it in range(config.iterations):
            yield ops.Enter("iteration")
            if rank == 0:
                slow = it % config.slow_every == 0
                cost = config.base_compute * (
                    config.head_factor if slow else 1.0
                )
                yield ops.Compute(cost, region="produce")
                yield ops.Send(1, size=config.msg_bytes, tag=11)
            else:
                # Post the receive first: the canonical late-sender
                # shape — the wait is attributed to MPI_Recv.
                yield ops.Recv(rank - 1, size=config.msg_bytes, tag=11)
                yield ops.Compute(config.base_compute, region="process")
                if rank < size - 1:
                    yield ops.Send(rank + 1, size=config.msg_bytes, tag=11)
            if config.barrier_every and (it + 1) % config.barrier_every == 0:
                yield ops.Barrier()
            yield ops.Leave("iteration")
        yield ops.Leave("main")

    return program


def generate_result(
    config: LateSenderConfig | None = None,
    network: NetworkModel | None = None,
    noise: NoiseModel | None = None,
) -> SimResult:
    """Simulate the pipeline and return the :class:`SimResult`."""
    if config is None:
        config = LateSenderConfig()
    return simulate(
        size=config.ranks,
        program=_program_factory(config),
        network=network,
        noise=noise,
        counters=CounterSet((CounterSet.cycles(),)),
        name="late-sender pipeline",
        attributes={
            "workload": "late_sender",
            "processes": str(config.ranks),
            "iterations": str(config.iterations),
            "head_factor": str(config.head_factor),
        },
    )


def generate(
    ranks: int = 12,
    iterations: int = 20,
    **overrides,
) -> Trace:
    """Generate a late-sender cascade trace (convenience wrapper)."""
    config = LateSenderConfig(ranks=ranks, iterations=iterations, **overrides)
    return generate_result(config).trace
