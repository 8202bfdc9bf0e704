"""WRF stand-in: floating-point-exception slowdown on one rank (case C).

The third case study (paper Section VII-C) runs the Weather Research
and Forecasting model (12 km CONUS benchmark) on 64 processes.  The
run starts with ~11 seconds of initialization and I/O; during the
iterations MPI accounts for ~25% of the time.  The hidden problem:
process 39 triggers a huge number of SSE floating-point exception
microtraps, computing measurably slower and making everyone wait.

The workload reproduces all three observables:

* an init+I/O phase of ``init_seconds`` at the start (Fig 6a, left);
* an MPI share of roughly a quarter during the iterations;
* rank ``slow_rank`` computes its physics ``fpu_slowdown`` times
  slower, with a correspondingly elevated
  ``FR_FPU_EXCEPTIONS_SSE_MICROTRAPS`` counter — so the counter heat
  map (Fig 6c) matches the SOS heat map (Fig 6b).
"""

from __future__ import annotations

from ..._record import record
from ...trace.trace import Trace
from .. import ops
from ..countermodel import CounterSet, FPU_EXCEPTIONS
from ..engine import SimResult, simulate
from ..network import NetworkModel
from ..noise import GaussianJitter, NoiseModel
from ..program import halo_exchange, neighbors_2d

__all__ = ["WRFConfig", "generate", "generate_result"]


@record(frozen=True)
class WRFConfig:
    """Parameters of the WRF stand-in (defaults: the published run)."""

    px: int = 8
    py: int = 8
    iterations: int = 40
    #: Initialization + input I/O at the start (paper: ~11 s).
    init_seconds: float = 11.0
    #: Per-iteration cost of the dynamical core (density, winds, ...).
    dynamics_cost: float = 0.45
    #: Per-iteration cost of physical parameterisations (clouds, rain).
    physics_cost: float = 0.40
    #: Physics slowdown factor on the FPU-exception rank.
    fpu_slowdown: float = 1.8
    slow_rank: int = 39
    #: FPU exceptions per second of physics: baseline vs. slow rank.
    fpu_base_rate: float = 2.0e3
    fpu_hot_rate: float = 4.0e6
    halo_bytes: int = 96 * 1024
    jitter_sigma: float = 0.006
    seed: int = 20160818

    @property
    def processes(self) -> int:
        return self.px * self.py


def _program_factory(config: WRFConfig):
    def program(rank: int, size: int):
        nbrs = neighbors_2d(rank, config.px, config.py)
        slow = rank == config.slow_rank
        physics = config.physics_cost * (config.fpu_slowdown if slow else 1.0)
        fpu_rate = config.fpu_hot_rate if slow else config.fpu_base_rate

        yield ops.Enter("main")
        yield ops.Enter("wrf_init")
        yield ops.Compute(config.init_seconds * 0.7, region="model_setup")
        yield ops.Enter("input_io")
        yield ops.Compute(config.init_seconds * 0.3)
        yield ops.Bcast(size=8 * 1024 * 1024)
        yield ops.Leave("input_io")
        yield ops.Leave("wrf_init")

        for _step in range(config.iterations):
            yield ops.Enter("wrf_timestep")
            yield ops.Enter("dynamics")
            yield ops.Compute(config.dynamics_cost, region="advance_uvw")
            yield from halo_exchange(rank, nbrs, config.halo_bytes, tag=1, region=None)
            yield ops.Leave("dynamics")
            yield ops.Enter("physics")
            yield ops.Compute(
                physics,
                region="microphysics_driver",
                counters={FPU_EXCEPTIONS: physics * fpu_rate},
            )
            yield from halo_exchange(rank, nbrs, config.halo_bytes, tag=2, region=None)
            yield ops.Leave("physics")
            yield ops.Allreduce(size=8)  # CFL / stability check
            yield ops.Leave("wrf_timestep")
        yield ops.Leave("main")

    return program


def generate_result(
    config: WRFConfig | None = None,
    network: NetworkModel | None = None,
    noise: NoiseModel | None = None,
) -> SimResult:
    """Simulate the workload and return the full :class:`SimResult`."""
    if config is None:
        config = WRFConfig()
    if not 0 <= config.slow_rank < config.processes:
        raise ValueError("slow_rank outside the process range")
    if noise is None:
        noise = GaussianJitter(sigma=config.jitter_sigma, seed=config.seed)
    return simulate(
        size=config.processes,
        program=_program_factory(config),
        network=network,
        noise=noise,
        counters=CounterSet((CounterSet.cycles(),)),
        name="WRF 12km CONUS",
        attributes={
            "workload": "wrf",
            "processes": str(config.processes),
            "iterations": str(config.iterations),
            "slow_rank": str(config.slow_rank),
        },
    )


def generate(
    processes: int = 64,
    iterations: int = 40,
    seed: int = 20160818,
    **overrides,
) -> Trace:
    """Generate a WRF trace (convenience wrapper).

    ``processes`` must be a perfect square; the published run uses 64.
    """
    side = int(round(processes**0.5))
    if side * side != processes:
        raise ValueError(f"processes must be a perfect square, got {processes}")
    if "slow_rank" not in overrides and processes != 64:
        # Keep the anomaly at the same relative position as the paper's
        # rank 39 of 64 when the run is scaled.
        overrides["slow_rank"] = (39 * processes) // 64
    config = WRFConfig(px=side, py=side, iterations=iterations, seed=seed, **overrides)
    return generate_result(config).trace
