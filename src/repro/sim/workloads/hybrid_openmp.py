"""Hybrid MPI + OpenMP workload with a thread-level defect.

The paper's SOS subtraction explicitly covers OpenMP synchronization
("``omp barrier``", Section V).  This workload exercises that path: a
hybrid code where every rank runs OpenMP-parallel loops between MPI
collectives.  One rank suffers a *thread-level* problem (one slow core,
e.g. thermal throttling): its parallel regions take longer although the
distributed work is perfectly balanced — a bottleneck class that pure
MPI-level accounting attributes to the wrong place.

The simulator models the fork-join structure per rank: the parallel
loop's wall time is the slowest thread's time, followed by the implicit
``omp barrier`` whose duration is the thread-imbalance wait (recorded
with OpenMP paradigm so the classifier subtracts it).
"""

from __future__ import annotations

import numpy as np

from ..._record import record
from ...trace.definitions import Paradigm, RegionRole
from ...trace.trace import Trace
from .. import ops
from ..countermodel import CounterSet
from ..engine import SimResult, Simulator
from ..network import NetworkModel
from ..noise import GaussianJitter, NoiseModel

__all__ = ["HybridConfig", "generate", "generate_result"]


@record(frozen=True)
class HybridConfig:
    """Parameters of the hybrid MPI+OpenMP stand-in."""

    ranks: int = 16
    threads_per_rank: int = 8
    iterations: int = 20
    #: Total per-rank work per iteration (seconds of single-thread time).
    work_per_iteration: float = 0.08
    #: The defective rank and the slowdown of its one bad core.
    slow_rank: int = 5
    slow_thread_factor: float = 2.5
    #: Per-thread imbalance of the loop's work distribution (relative).
    thread_spread: float = 0.05
    jitter_sigma: float = 0.003
    seed: int = 20160819


def _thread_times(config: HybridConfig, rank: int, step: int) -> np.ndarray:
    """Per-thread execution time of one parallel loop instance."""
    rng = np.random.default_rng(
        (config.seed, rank, step, 0xC0FFEE)
    )
    base = config.work_per_iteration / config.threads_per_rank
    times = base * (
        1.0 + config.thread_spread * rng.uniform(-1.0, 1.0, config.threads_per_rank)
    )
    if rank == config.slow_rank:
        times[0] *= config.slow_thread_factor  # the throttled core
    return times


def _program_factory(config: HybridConfig):
    def program(rank: int, size: int):
        yield ops.Enter("main")
        yield ops.Compute(0.01, region="setup")
        for step in range(config.iterations):
            yield ops.Enter("timestep")
            times = _thread_times(config, rank, step)
            slowest = float(times.max())
            mean = float(times.mean())
            # Fork-join: the region's wall time is the slowest thread;
            # the average thread then sits in the implicit barrier for
            # (slowest - mean).  We record the compute part as the
            # parallel loop and the wait as an OpenMP barrier region.
            yield ops.Compute(mean, region="omp_parallel_for")
            yield ops.Enter("omp barrier")
            yield ops.Elapse(slowest - mean)
            yield ops.Leave("omp barrier")
            # MPI phase: neighbour exchange + global reduction.
            left, right = (rank - 1) % size, (rank + 1) % size
            r1 = yield ops.Irecv(left, size=8 * 1024, tag=step)
            r2 = yield ops.Irecv(right, size=8 * 1024, tag=step)
            s1 = yield ops.Isend(right, size=8 * 1024, tag=step)
            s2 = yield ops.Isend(left, size=8 * 1024, tag=step)
            yield ops.Waitall([r1, r2, s1, s2])
            yield ops.Allreduce(size=8)
            yield ops.Leave("timestep")
        yield ops.Leave("main")

    return program


def generate_result(
    config: HybridConfig | None = None,
    network: NetworkModel | None = None,
    noise: NoiseModel | None = None,
) -> SimResult:
    """Simulate the hybrid workload and return the :class:`SimResult`."""
    if config is None:
        config = HybridConfig()
    if not 0 <= config.slow_rank < config.ranks:
        raise ValueError("slow_rank outside the rank range")
    if noise is None:
        noise = GaussianJitter(sigma=config.jitter_sigma, seed=config.seed)
    simulator = Simulator(
        size=config.ranks,
        program=_program_factory(config),
        network=network,
        noise=noise,
        counters=CounterSet((CounterSet.cycles(),)),
        name="hybrid MPI+OpenMP",
        attributes={
            "workload": "hybrid_openmp",
            "processes": str(config.ranks),
            "threads_per_rank": str(config.threads_per_rank),
            "slow_rank": str(config.slow_rank),
        },
    )
    # Register the OpenMP regions with their proper paradigm up front so
    # the classifier treats the implicit barrier as synchronization.
    simulator.tb.region(
        "omp barrier", paradigm=Paradigm.OPENMP, role=RegionRole.SYNCHRONIZATION
    )
    simulator.tb.region("omp_parallel_for", paradigm=Paradigm.OPENMP,
                        role=RegionRole.COMPUTE)
    return simulator.run()


def generate(
    ranks: int = 16,
    iterations: int = 20,
    seed: int = 20160819,
    **overrides,
) -> Trace:
    """Generate a hybrid MPI+OpenMP trace (convenience wrapper)."""
    if "slow_rank" not in overrides and ranks != 16:
        # Keep the defect at the same relative position when scaled.
        overrides["slow_rank"] = (5 * ranks) // 16
    config = HybridConfig(ranks=ranks, iterations=iterations, seed=seed,
                          **overrides)
    return generate_result(config).trace
