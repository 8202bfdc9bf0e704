"""COSMO-SPECS stand-in: static decomposition + growing cloud (case A).

Reproduces the structure of the paper's first case study (Section
VII-A): the coupled weather code runs on a statically decomposed 2D
grid; COSMO's dynamics cost is uniform and cheap, SPECS' detailed cloud
microphysics is expensive and proportional to the local cloud
intensity.  A cloud grows over the simulation inside the subdomains of
ranks {44, 45, 54, 55, 64, 65} (10x10 process grid), peaking on rank
54 — so those ranks compute ever longer while everyone else waits in
MPI, which is precisely the Figure-4 picture:

* timeline: MPI share (red) grows over the run (Fig 4a),
* SOS heat map: exactly those ranks turn hot, rank 54 hottest (Fig 4b).
"""

from __future__ import annotations

import numpy as np

from ..._record import record
from ...balance.balancer import static_decomposition
from ...trace.trace import Trace
from ..countermodel import CounterSet
from ..engine import SimResult, simulate
from ..fastpath import Collective, Halo, Loop, Region, Work
from ..network import NetworkModel
from ..noise import GaussianJitter, NoiseModel
from ..program import neighbors_2d
from .base import CloudField, per_rank_cost

__all__ = ["CosmoSpecsConfig", "generate", "generate_result", "HOT_RANKS", "PEAK_RANK"]

#: Ranks whose subdomains the cloud covers (10x10 default layout).
HOT_RANKS = (44, 45, 54, 55, 64, 65)
#: Rank with the cloud centre, i.e. the hottest process (paper: 54).
PEAK_RANK = 54


@record(frozen=True)
class CosmoSpecsConfig:
    """Parameters of the COSMO-SPECS stand-in.

    The defaults reproduce the paper's run: 100 processes on a 10x10
    grid.  ``cells_per_rank`` controls grid resolution (each rank owns
    a ``cells_per_rank x cells_per_rank`` block).
    """

    px: int = 10
    py: int = 10
    iterations: int = 60
    cells_per_rank: int = 3
    #: Mean COSMO dynamics cost per iteration (cheap, uniform).
    cosmo_cost: float = 0.002
    #: SPECS microphysics cost per unit cell weight.
    specs_cost_per_weight: float = 0.002
    #: Cloud growth: peak cell multiplier, ramp length and shape.
    cloud_amplitude: float = 7.0
    cloud_growth_steps: int | None = None  # default: iterations
    cloud_growth_exponent: float = 2.0
    #: Anisotropic Gaussian widths of the cloud in *rank* units.
    cloud_sigma_ranks: tuple[float, float] = (0.45, 0.75)
    halo_bytes: int = 32 * 1024
    coupling_bytes: int = 4 * 1024
    jitter_sigma: float = 0.005
    seed: int = 20160816

    @property
    def processes(self) -> int:
        return self.px * self.py

    @property
    def nx(self) -> int:
        return self.px * self.cells_per_rank

    @property
    def ny(self) -> int:
        return self.py * self.cells_per_rank

    def cloud(self) -> CloudField:
        """The cloud placed to load HOT_RANKS with its peak in PEAK_RANK.

        The centre sits inside rank (col 4, row 5) of the process grid,
        leaning toward columns 4-5 and rows 4-6, matching the published
        hot set for the default 10x10 layout.
        """
        c = self.cells_per_rank
        center = (4.9 * c, 5.45 * c)
        growth = (
            self.cloud_growth_steps
            if self.cloud_growth_steps is not None
            else self.iterations
        )
        sx, sy = self.cloud_sigma_ranks
        return CloudField(
            nx=self.nx,
            ny=self.ny,
            center=center,
            sigma=(sx * c, sy * c),
            max_amplitude=self.cloud_amplitude,
            growth_steps=growth,
            growth_exponent=self.cloud_growth_exponent,
        )


def _specs_costs(config: CosmoSpecsConfig) -> np.ndarray:
    """Per-(iteration, rank) SPECS compute seconds, shape (iters, p)."""
    cloud = config.cloud()
    assignment = static_decomposition(config.nx, config.ny, config.px, config.py)
    costs = np.empty((config.iterations, config.processes), dtype=np.float64)
    for step in range(config.iterations):
        weights = cloud.weights(step)
        costs[step] = per_rank_cost(weights, assignment, config.processes)
    return costs * config.specs_cost_per_weight


def _loop(config: CosmoSpecsConfig, specs_costs: np.ndarray) -> Loop:
    """One model setup, then ``iterations`` coupled time steps."""
    nbrs = [neighbors_2d(r, config.px, config.py) for r in range(config.processes)]

    def halo(tag: int) -> Halo:
        return Halo(recv_from=nbrs, send_to=nbrs, bytes=config.halo_bytes, tag=tag)

    return Loop(
        iterations=config.iterations,
        setup=(
            Region(
                "model_setup",
                Work("read_namelist", 0.05),
                Collective("bcast", 64 * 1024),
            ),
        ),
        body=(
            Region(
                "timeloop_iteration",
                # COSMO dynamics: cheap, uniform, plus its halo exchange.
                Region(
                    "cosmo_dynamics", Work("cosmo_solve", config.cosmo_cost), halo(1)
                ),
                # Coupling: exchange fields between the two models.
                Region("couple_models", Collective("allgather", config.coupling_bytes)),
                # SPECS microphysics: expensive, cloud-dependent.
                Region(
                    "specs_microphysics",
                    Work("specs_bin_microphysics", specs_costs),
                    halo(2),
                ),
                # Global timestep control.
                Collective("allreduce", 8),
            ),
        ),
    )


def generate_result(
    config: CosmoSpecsConfig | None = None,
    network: NetworkModel | None = None,
    noise: NoiseModel | None = None,
) -> SimResult:
    """Simulate the workload and return the full :class:`SimResult`."""
    if config is None:
        config = CosmoSpecsConfig()
    if noise is None:
        noise = GaussianJitter(sigma=config.jitter_sigma, seed=config.seed)
    specs_costs = _specs_costs(config)
    return simulate(
        size=config.processes,
        loop=_loop(config, specs_costs),
        network=network,
        noise=noise,
        counters=CounterSet((CounterSet.cycles(),)),
        name="COSMO-SPECS",
        attributes={
            "workload": "cosmo_specs",
            "processes": str(config.processes),
            "iterations": str(config.iterations),
        },
    )


def generate(
    processes: int = 100,
    iterations: int = 60,
    seed: int = 20160816,
    **overrides,
) -> Trace:
    """Generate a COSMO-SPECS trace (convenience wrapper).

    ``processes`` must be a perfect square (the process grid is
    square); the published configuration is 100.
    """
    side = int(round(processes**0.5))
    if side * side != processes:
        raise ValueError(f"processes must be a perfect square, got {processes}")
    config = CosmoSpecsConfig(
        px=side, py=side, iterations=iterations, seed=seed, **overrides
    )
    return generate_result(config).trace
