"""Parametric synthetic workloads with known ground truth.

Used by property-based tests, the detection-accuracy ablations (does
SOS find the planted anomaly where plain durations do not?) and the
scaling benchmarks.  Every anomaly is *planted* explicitly, so a test
can assert the analysis recovers exactly what was injected.
"""

from __future__ import annotations

import numpy as np

from ..._record import field, record
from ...trace.trace import Trace
from ..countermodel import CounterSet
from ..engine import SimResult, simulate
from ..fastpath import Collective, Halo, Loop, Region, Work
from ..network import NetworkModel
from ..noise import GaussianJitter, NoiseModel, NoNoise

__all__ = ["SyntheticConfig", "GroundTruth", "generate", "generate_result"]


@record(frozen=True)
class GroundTruth:
    """What a correct analysis should find in a synthetic trace."""

    slow_ranks: tuple[int, ...]
    outlier_segments: tuple[tuple[int, int], ...]  # (rank, iteration)
    has_trend: bool


@record(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic iterative workload.

    Structure per iteration: ``compute`` (region ``work``), an optional
    halo ring exchange, then a synchronizing collective; all wrapped in
    the ``iteration`` region that the dominant-function heuristic should
    select.

    Anomalies:

    * ``slow_ranks``: rank → multiplicative compute factor (persistent
      computational imbalance; the COSMO-SPECS pattern).
    * ``outliers``: (rank, iteration) → extra seconds for that single
      invocation (the FD4 interruption pattern).
    * ``trend_per_step``: fractional compute growth per iteration on
      *all* ranks (the gradual-slowdown pattern).
    """

    ranks: int = 16
    iterations: int = 20
    base_compute: float = 0.01
    slow_ranks: dict[int, float] = field(default_factory=dict)
    outliers: dict[tuple[int, int], float] = field(default_factory=dict)
    trend_per_step: float = 0.0
    halo_bytes: int = 8 * 1024
    use_halo: bool = True
    collective: str = "allreduce"  # "allreduce" | "barrier" | "none"
    subiters: int = 1
    jitter_sigma: float = 0.0
    seed: int = 1

    def ground_truth(self) -> GroundTruth:
        return GroundTruth(
            slow_ranks=tuple(sorted(self.slow_ranks)),
            outlier_segments=tuple(sorted(self.outliers)),
            has_trend=self.trend_per_step > 0,
        )

    def compute_seconds(self, rank: int, iteration: int) -> float:
        """Planted active compute time for one (rank, iteration)."""
        factor = self.slow_ranks.get(rank, 1.0)
        growth = (1.0 + self.trend_per_step) ** iteration
        return self.base_compute * factor * growth


def _loop(config: SyntheticConfig) -> Loop:
    """Setup compute, then per iteration: ``subiters`` computes, the halo
    ring, the collective.

    Seconds mirror :meth:`SyntheticConfig.compute_seconds` exactly (same
    association), divided evenly over the sub-iterations; outliers land
    on the first sub-iteration.
    """
    collective = config.collective
    if collective not in ("allreduce", "barrier", "none"):
        raise ValueError(f"unknown collective {collective!r}")
    size, iters = config.ranks, config.iterations
    base = config.base_compute * np.array(
        [config.slow_ranks.get(r, 1.0) for r in range(size)]
    )
    growth = np.array([(1.0 + config.trend_per_step) ** it for it in range(iters)])
    seconds = base[None, :] * growth[:, None] / config.subiters
    extra = None
    if config.outliers:
        extra = np.zeros((iters, size))
        for (rank, iteration), seconds_ in config.outliers.items():
            if 0 <= rank < size and 0 <= iteration < iters:
                extra[iteration, rank] = seconds_
    phases = [Work("work", seconds, extra)]
    phases += [Work("work", seconds) for _ in range(config.subiters - 1)]
    if config.use_halo and size > 1:
        phases.append(Halo.ring(size, bytes=config.halo_bytes, tag=7))
    if collective != "none":
        phases.append(Collective(collective, 8))
    return Loop(
        iterations=iters,
        setup=(Work("setup", 0.001),),
        body=(Region("iteration", *phases),),
    )


def generate_result(
    config: SyntheticConfig | None = None,
    network: NetworkModel | None = None,
    noise: NoiseModel | None = None,
) -> SimResult:
    """Simulate the synthetic workload and return the :class:`SimResult`."""
    if config is None:
        config = SyntheticConfig()
    if noise is None:
        noise = (
            GaussianJitter(sigma=config.jitter_sigma, seed=config.seed)
            if config.jitter_sigma > 0
            else NoNoise()
        )
    return simulate(
        size=config.ranks,
        network=network,
        noise=noise,
        counters=CounterSet((CounterSet.cycles(),)),
        name="synthetic",
        attributes={"workload": "synthetic"},
        loop=_loop(config),
    )


def generate(config: SyntheticConfig | None = None, **overrides) -> Trace:
    """Generate a synthetic trace (convenience wrapper)."""
    if config is None:
        config = SyntheticConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config or keyword overrides, not both")
    return generate_result(config).trace
