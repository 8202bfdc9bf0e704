"""Discrete-event MPI application simulator."""

from . import ops
from .countermodel import CounterSet, CounterSpec, FPU_EXCEPTIONS, PAPI_TOT_CYC
from .engine import DeadlockError, SimResult, Simulator, simulate
from .fastpath import Collective, Halo, Loop, Region, Work
from .network import (
    DragonflyTopology,
    FatTreeTopology,
    NetworkModel,
    Topology,
    TopologyNetworkModel,
    TorusTopology,
)
from .noise import (
    CompositeNoise,
    GaussianJitter,
    ImbalanceRamp,
    NoNoise,
    NoiseBursts,
    NoiseModel,
    ScheduledInterruptions,
    Straggler,
    scalar_noise,
    vector_noise,
)
from .program import grid_coords, grid_rank, halo_exchange, neighbors_2d

__all__ = [
    "Collective",
    "CompositeNoise",
    "CounterSet",
    "CounterSpec",
    "DeadlockError",
    "DragonflyTopology",
    "FPU_EXCEPTIONS",
    "FatTreeTopology",
    "GaussianJitter",
    "Halo",
    "ImbalanceRamp",
    "Loop",
    "NetworkModel",
    "NoNoise",
    "NoiseBursts",
    "NoiseModel",
    "PAPI_TOT_CYC",
    "Region",
    "ScheduledInterruptions",
    "SimResult",
    "Simulator",
    "Straggler",
    "Topology",
    "TopologyNetworkModel",
    "TorusTopology",
    "Work",
    "grid_coords",
    "grid_rank",
    "halo_exchange",
    "neighbors_2d",
    "ops",
    "scalar_noise",
    "simulate",
    "vector_noise",
]
