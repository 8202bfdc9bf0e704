"""Idle-wave propagation: one perturbation travelling through a ring.

Afzal, Hager and Wellein ("Exploring Techniques for the Analysis of
Spontaneous Asynchronicity in MPI-Parallel Applications") show that a
single one-off delay on one rank of a bulk-synchronous
nearest-neighbour code does not stay put: because each rank only
synchronizes with its direct neighbours, the delay travels outward as
an *idle wave* — one neighbour hop per iteration — until it either
leaves the domain or collides with another wave.

This workload reproduces the phenomenon in its cleanest form: a
periodic ring of ranks exchanging halos with both neighbours every
iteration (no global collective, which would re-synchronize everyone
and destroy the wave), plus one scheduled interruption injected into
``source_rank`` during iteration ``burst_iteration``.  In the SOS
heat map the wave appears as a diagonal stripe of waiting time
spreading from the source rank — a pattern the paper's case studies
(which all end iterations on a collective) cannot show.
"""

from __future__ import annotations

from ..._record import record
from ...trace.trace import Trace
from ..countermodel import CounterSet
from ..engine import SimResult, simulate
from ..fastpath import Halo, Loop, Region, Work
from ..network import NetworkModel
from ..noise import NoiseModel, ScheduledInterruptions

__all__ = ["IdleWaveConfig", "generate", "generate_result"]


@record(frozen=True)
class IdleWaveConfig:
    """Parameters of the idle-wave ring."""

    ranks: int = 16
    iterations: int = 24
    #: Active compute per rank per iteration (perfectly balanced).
    base_compute: float = 0.01
    #: Halo payload exchanged with each ring neighbour.
    halo_bytes: int = 8 * 1024
    #: Rank receiving the one-off delay.
    source_rank: int = 8
    #: Iteration during which the delay strikes.
    burst_iteration: int = 4
    #: Length of the injected delay, in units of ``base_compute``.
    burst_factor: float = 6.0

    def __post_init__(self) -> None:
        if self.ranks < 3:
            raise ValueError("an idle wave needs at least 3 ranks")
        if not 0 <= self.source_rank < self.ranks:
            raise ValueError("source_rank outside the rank range")
        if not 0 <= self.burst_iteration < self.iterations:
            raise ValueError("burst_iteration outside the iteration range")


def _burst_noise(config: IdleWaveConfig) -> ScheduledInterruptions:
    """One interruption window over the source rank's burst iteration.

    The window brackets the whole iteration: with perfectly balanced
    compute, iteration ``k`` starts no earlier than ``k * base`` and
    (absent other noise) the source rank's compute begins well inside
    ``[k * base, (k + 2) * ...)`` — one generous window guarantees the
    burst lands exactly once without tracking absolute times.
    """
    base = config.base_compute
    t0 = config.burst_iteration * base
    t1 = t0 + 2 * base + config.base_compute / 4
    return ScheduledInterruptions(
        events=((config.source_rank, t0, t1, config.burst_factor * base),)
    )


def generate_result(
    config: IdleWaveConfig | None = None,
    network: NetworkModel | None = None,
    noise: NoiseModel | None = None,
) -> SimResult:
    """Simulate the idle-wave ring and return the :class:`SimResult`."""
    if config is None:
        config = IdleWaveConfig()
    if noise is None:
        noise = _burst_noise(config)
    loop = Loop(
        iterations=config.iterations,
        setup=(Work("setup", config.base_compute / 4),),
        body=(
            Region(
                "iteration",
                Work("smooth", config.base_compute),
                Halo.ring(config.ranks, bytes=config.halo_bytes, tag=3),
            ),
        ),
    )
    return simulate(
        size=config.ranks,
        network=network,
        noise=noise,
        loop=loop,
        counters=CounterSet((CounterSet.cycles(),)),
        name="idle-wave ring",
        attributes={
            "workload": "idle_wave",
            "processes": str(config.ranks),
            "iterations": str(config.iterations),
            "source_rank": str(config.source_rank),
            "burst_iteration": str(config.burst_iteration),
        },
    )


def generate(
    ranks: int = 16,
    iterations: int = 24,
    **overrides,
) -> Trace:
    """Generate an idle-wave trace (convenience wrapper)."""
    if "source_rank" not in overrides:
        overrides["source_rank"] = ranks // 2
    if "burst_iteration" not in overrides:
        overrides["burst_iteration"] = max(1, min(4, iterations - 1))
    config = IdleWaveConfig(ranks=ranks, iterations=iterations, **overrides)
    return generate_result(config).trace
