"""COSMO-SPECS+FD4 stand-in: dynamic balancing + OS interruption (case B).

The second case study (paper Section VII-B) extends COSMO-SPECS with
the FD4 dynamic load balancer, so the cloud-driven physics imbalance is
gone — and what remains visible is a *different* problem: one process
(rank 20) is interrupted by the operating system during a single SPECS
timestep, making one iteration slow for everyone.

The workload:

* partitions the block grid every iteration with the real
  :class:`~repro.balance.balancer.DynamicLoadBalancer` (Hilbert curve +
  exact chains-on-chains), so per-rank compute stays balanced even as
  the cloud grows;
* splits each iteration's SPECS work into ``specs_substeps`` separate
  ``specs_timestep`` invocations — the finer segmentation target of
  Figure 5c;
* injects one deterministic interruption into rank
  ``interrupt_rank`` during substep ``interrupt_substep`` of iteration
  ``interrupt_step``.  Counters do not advance during the
  interruption, so that invocation shows a low ``PAPI_TOT_CYC``
  relative to its wall time — the paper's root-cause signature.
"""

from __future__ import annotations

import numpy as np

from ..._record import record
from ...balance.balancer import DynamicLoadBalancer
from ...trace.trace import Trace
from .. import ops
from ..countermodel import CounterSet
from ..engine import SimResult, simulate
from ..network import NetworkModel
from ..noise import GaussianJitter, NoiseModel
from ..program import halo_exchange
from .base import CloudField, per_rank_cost

__all__ = ["CosmoSpecsFD4Config", "generate", "generate_result"]


@record(frozen=True)
class CosmoSpecsFD4Config:
    """Parameters of the COSMO-SPECS+FD4 stand-in (defaults: paper run).

    200 MPI processes; the block grid carries the same kind of growing
    cloud as the static case, but FD4 rebalances it away.
    """

    processes: int = 200
    iterations: int = 30
    #: Block grid linearised by the balancer (8 blocks per rank).
    blocks_x: int = 40
    blocks_y: int = 40
    #: COSMO dynamics cost per iteration (uniform).
    cosmo_cost: float = 0.004
    #: SPECS cost per unit block weight per iteration.
    specs_cost_per_weight: float = 0.00125
    #: SPECS timesteps per iteration (finer segmentation targets).
    specs_substeps: int = 4
    cloud_amplitude: float = 6.0
    cloud_sigma_blocks: float = 5.0
    halo_bytes: int = 16 * 1024
    #: The injected OS interruption.
    interrupt_rank: int = 20
    interrupt_step: int = 18
    interrupt_substep: int = 2
    interrupt_seconds: float = 0.08
    #: Balancer settings.
    curve: str = "hilbert"
    balance_method: str = "exact"
    balance_threshold: float = 1.05
    jitter_sigma: float = 0.004
    seed: int = 20160817


def _per_rank_loads(config: CosmoSpecsFD4Config) -> tuple[np.ndarray, np.ndarray]:
    """Balanced per-(iteration, rank) SPECS seconds and imbalance history.

    Runs the actual FD4-style balancer once per iteration on the cloud
    weights; returns ``(costs, imbalances)`` with ``costs`` of shape
    ``(iterations, processes)``.
    """
    cloud = CloudField(
        nx=config.blocks_x,
        ny=config.blocks_y,
        center=(config.blocks_x * 0.45, config.blocks_y * 0.55),
        sigma=config.cloud_sigma_blocks,
        max_amplitude=config.cloud_amplitude,
        growth_steps=config.iterations,
        drift=(0.08, 0.04),
    )
    balancer = DynamicLoadBalancer(
        config.blocks_x,
        config.blocks_y,
        config.processes,
        curve=config.curve,
        method=config.balance_method,
        threshold=config.balance_threshold,
    )
    costs = np.empty((config.iterations, config.processes), dtype=np.float64)
    imbalances = np.empty(config.iterations, dtype=np.float64)
    for step in range(config.iterations):
        weights = cloud.weights(step)
        result = balancer.balance(weights)
        load = per_rank_cost(weights, result.assignment, config.processes)
        costs[step] = load * config.specs_cost_per_weight
        imbalances[step] = result.imbalance
    return costs, imbalances


def _program_factory(config: CosmoSpecsFD4Config, specs_costs: np.ndarray):
    p = config.processes

    def program(rank: int, size: int):
        # SFC partitions are contiguous along the curve, so curve
        # neighbours exchange boundary data: a ring topology.
        nbrs = [(rank - 1) % p, (rank + 1) % p]
        yield ops.Enter("main")
        yield ops.Enter("model_setup")
        yield ops.Compute(0.05, region="read_namelist")
        yield ops.Bcast(size=64 * 1024)
        yield ops.Leave("model_setup")
        for step in range(config.iterations):
            yield ops.Enter("timeloop_iteration")
            yield ops.Enter("cosmo_dynamics")
            yield ops.Compute(config.cosmo_cost, region="cosmo_solve")
            yield from halo_exchange(rank, nbrs, config.halo_bytes, tag=1, region=None)
            yield ops.Leave("cosmo_dynamics")
            # FD4: gather weights, compute partition, migrate blocks.
            yield ops.Enter("fd4_balance")
            yield ops.Allgather(size=config.blocks_x * config.blocks_y // p * 8)
            yield ops.Compute(0.0005, region="fd4_partition")
            yield ops.Alltoall(size=2 * 1024)
            yield ops.Leave("fd4_balance")
            # SPECS microphysics, split into substeps.
            sub_cost = float(specs_costs[step, rank]) / config.specs_substeps
            for sub in range(config.specs_substeps):
                interruption = 0.0
                if (
                    rank == config.interrupt_rank
                    and step == config.interrupt_step
                    and sub == config.interrupt_substep
                ):
                    interruption = config.interrupt_seconds
                yield ops.Enter("specs_timestep")
                yield ops.Compute(
                    sub_cost,
                    region="specs_bin_microphysics",
                    interruption=interruption,
                )
                yield from halo_exchange(
                    rank, nbrs, config.halo_bytes, tag=2 + sub, region=None
                )
                yield ops.Leave("specs_timestep")
            yield ops.Allreduce(size=8)
            yield ops.Leave("timeloop_iteration")
        yield ops.Leave("main")

    return program


def generate_result(
    config: CosmoSpecsFD4Config | None = None,
    network: NetworkModel | None = None,
    noise: NoiseModel | None = None,
) -> SimResult:
    """Simulate the workload and return the full :class:`SimResult`."""
    if config is None:
        config = CosmoSpecsFD4Config()
    if not 0 <= config.interrupt_rank < config.processes:
        raise ValueError("interrupt_rank outside the process range")
    if noise is None:
        noise = GaussianJitter(sigma=config.jitter_sigma, seed=config.seed)
    specs_costs, imbalances = _per_rank_loads(config)
    result = simulate(
        size=config.processes,
        program=_program_factory(config, specs_costs),
        network=network,
        noise=noise,
        counters=CounterSet((CounterSet.cycles(),)),
        name="COSMO-SPECS+FD4",
        attributes={
            "workload": "cosmo_specs_fd4",
            "processes": str(config.processes),
            "iterations": str(config.iterations),
            "interrupt_rank": str(config.interrupt_rank),
            "interrupt_step": str(config.interrupt_step),
            "mean_balanced_imbalance": f"{float(imbalances.mean()):.4f}",
        },
    )
    return result


def generate(
    processes: int = 200,
    iterations: int = 30,
    seed: int = 20160817,
    **overrides,
) -> Trace:
    """Generate a COSMO-SPECS+FD4 trace (convenience wrapper)."""
    if "interrupt_rank" not in overrides and processes != 200:
        # Keep the interruption at the same relative position as the
        # paper's rank 20 of 200 when the run is scaled.
        overrides["interrupt_rank"] = max((20 * processes) // 200, 0)
    if "interrupt_step" not in overrides and iterations != 30:
        overrides["interrupt_step"] = max(int(iterations * 0.6), 0)
    config = CosmoSpecsFD4Config(
        processes=processes, iterations=iterations, seed=seed, **overrides
    )
    return generate_result(config).trace
