"""Seeded scenario generation for differential tests.

A single integer seed deterministically expands into a
:class:`ScenarioSpec`: rank count, communication pattern
(ring/grid/pairs/chain/token), collective mix, per-rank imbalance
weights, clock skew, and injections drawn from the
:mod:`repro.sim.noise` knobs (jitter, bursts, imbalance ramps,
stragglers, scheduled interruptions).  :func:`build_trace` simulates a
spec.  Same seed, same spec, same trace bytes; the scenario check
that runs the analysis on them lives with the tests
(``tests/scenario_oracle.py``, docs/fuzzing.md).
"""

from __future__ import annotations

import json
import random

from . import ops
from .._record import record
from .countermodel import CounterSet
from .engine import SimResult, simulate
from .noise import (
    CompositeNoise,
    GaussianJitter,
    ImbalanceRamp,
    NoNoise,
    NoiseBursts,
    NoiseModel,
    ScheduledInterruptions,
    Straggler,
)
from .program import halo_exchange, neighbors_2d

__all__ = [
    "InjectionSpec",
    "ScenarioSpec",
    "PATTERNS",
    "COLLECTIVES",
    "INJECTION_KINDS",
    "generate_spec",
    "build_program",
    "build_result",
    "build_trace",
]

#: Deadlock-free-by-construction communication patterns.
PATTERNS = (
    "none",
    "halo_ring",
    "sendrecv_ring",
    "halo_grid",
    "pairs",
    "chain",
    "token_ring",
)

#: Collectives the generator mixes into iterations.
COLLECTIVES = (
    "none",
    "barrier",
    "allreduce",
    "bcast",
    "reduce",
    "allgather",
    "alltoall",
    "gather",
    "scatter",
)

#: Injection knobs sampled from :mod:`repro.sim.noise`.
INJECTION_KINDS = ("jitter", "burst", "ramp", "straggler", "interruption")


# ---------------------------------------------------------------------------
# Scenario specification
# ---------------------------------------------------------------------------


@record(frozen=True)
class InjectionSpec:
    """One sampled perturbation, mapped onto a noise model.

    ``magnitude`` is interpreted per kind: jitter sigma, burst/
    interruption duration in units of the scenario's base compute,
    ramp rate, or straggler slowdown minus one.
    """

    kind: str
    ranks: tuple[int, ...] = ()
    magnitude: float = 1.0
    t0: float = 0.0
    period: float = 1.0
    seed: int = 0

    def to_noise(self, base_compute: float) -> NoiseModel:
        if self.kind == "jitter":
            return GaussianJitter(sigma=self.magnitude, seed=self.seed)
        if self.kind == "burst":
            return NoiseBursts(
                ranks=self.ranks,
                period=self.period,
                duration=self.magnitude * base_compute,
                phase=self.t0,
                window=self.period / 4,
            )
        if self.kind == "ramp":
            return ImbalanceRamp(ranks=self.ranks, rate=self.magnitude)
        if self.kind == "straggler":
            return Straggler(ranks=self.ranks, factor=1.0 + self.magnitude)
        if self.kind == "interruption":
            return ScheduledInterruptions(
                events=tuple(
                    (rank, self.t0, self.t0 + self.period,
                     self.magnitude * base_compute)
                    for rank in self.ranks
                )
            )
        raise ValueError(f"unknown injection kind {self.kind!r}")


@record(frozen=True)
class ScenarioSpec:
    """Complete, deterministic description of one fuzzed scenario."""

    seed: int
    ranks: int
    iterations: int
    pattern: str = "halo_ring"
    collective: str = "allreduce"
    collective_every: int = 1
    base_compute: float = 0.005
    msg_bytes: int = 1024
    subiters: int = 1
    #: Per-rank multiplicative compute weight (persistent imbalance).
    imbalance: tuple[float, ...] = ()
    #: Per-rank start offset in seconds (unsynchronized clocks).
    clock_skew: tuple[float, ...] = ()
    injections: tuple[InjectionSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.ranks < 2:
            raise ValueError("scenarios need at least 2 ranks")
        if self.iterations < 1:
            raise ValueError("scenarios need at least 1 iteration")
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.collective not in COLLECTIVES:
            raise ValueError(f"unknown collective {self.collective!r}")

    # -- derived properties -------------------------------------------

    def weight(self, rank: int) -> float:
        if rank < len(self.imbalance):
            return self.imbalance[rank]
        return 1.0

    def skew(self, rank: int) -> float:
        if rank < len(self.clock_skew):
            return self.clock_skew[rank]
        return 0.0

    def size(self) -> int:
        """Scenario cost metric the minimizer shrinks: rank-iterations."""
        return self.ranks * self.iterations

    def noise_model(self) -> NoiseModel:
        models = tuple(
            inj.to_noise(self.base_compute) for inj in self.injections
        )
        if not models:
            return NoNoise()
        if len(models) == 1:
            return models[0]
        return CompositeNoise(models=models)

    def describe(self) -> str:
        extras = []
        if any(w != 1.0 for w in self.imbalance):
            extras.append("imbalance")
        if any(s > 0.0 for s in self.clock_skew):
            extras.append("skew")
        extras.extend(inj.kind for inj in self.injections)
        tail = f" +{','.join(extras)}" if extras else ""
        return (
            f"p={self.ranks} iters={self.iterations} "
            f"pattern={self.pattern} coll={self.collective}"
            f"/{self.collective_every}{tail}"
        )

    # -- serialization ------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self, default=vars, sort_keys=True)  # records: objects of fields

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        data = json.loads(text)
        data["imbalance"] = tuple(data.get("imbalance", ()))
        data["clock_skew"] = tuple(data.get("clock_skew", ()))
        data["injections"] = tuple(
            InjectionSpec(**{**inj, "ranks": tuple(inj.get("ranks", ()))})
            for inj in data.get("injections", ())
        )
        return cls(**data)


# ---------------------------------------------------------------------------
# Seeded generation
# ---------------------------------------------------------------------------


def _sample_injection(rng: random.Random, ranks: int, seed: int) -> InjectionSpec:
    kind = rng.choice(INJECTION_KINDS)
    count = rng.randint(1, max(1, ranks // 3))
    targets = tuple(sorted(rng.sample(range(ranks), count)))
    if kind == "jitter":
        return InjectionSpec(kind, magnitude=rng.uniform(0.002, 0.05),
                             seed=seed)
    if kind == "burst":
        return InjectionSpec(
            kind, ranks=targets,
            magnitude=rng.uniform(1.0, 8.0),
            t0=rng.uniform(0.0, 0.05),
            period=rng.uniform(0.02, 0.2),
        )
    if kind == "ramp":
        return InjectionSpec(kind, ranks=targets,
                             magnitude=rng.uniform(0.2, 3.0))
    if kind == "straggler":
        return InjectionSpec(kind, ranks=targets,
                             magnitude=rng.uniform(0.3, 2.5))
    return InjectionSpec(
        "interruption", ranks=targets,
        magnitude=rng.uniform(2.0, 10.0),
        t0=rng.uniform(0.0, 0.08),
        period=rng.uniform(0.01, 0.1),
    )


def generate_spec(seed: int) -> ScenarioSpec:
    """Expand ``seed`` into a scenario, fully deterministically.

    Sampling uses :class:`random.Random` (Mersenne Twister), whose
    sequences are stable across Python versions and platforms, so one
    integer pins the scenario forever.
    """
    rng = random.Random(seed * 0x9E3779B9 + 7)
    ranks = rng.randint(2, 12)
    # >= 3 iterations keeps the 2p dominant-candidate floor satisfied.
    iterations = rng.randint(3, 14)
    pattern = rng.choice(PATTERNS)
    collective = rng.choice(COLLECTIVES)
    collective_every = rng.choice((1, 1, 1, 2, 3))
    base_compute = rng.choice((0.002, 0.005, 0.01))
    msg_bytes = rng.choice((64, 1024, 8 * 1024, 128 * 1024))
    subiters = rng.choice((1, 1, 2, 3))

    imbalance: tuple[float, ...] = ()
    if rng.random() < 0.5:
        weights = [1.0] * ranks
        for _ in range(rng.randint(1, 2)):
            weights[rng.randrange(ranks)] = round(rng.uniform(1.2, 3.0), 3)
        imbalance = tuple(weights)

    clock_skew: tuple[float, ...] = ()
    if rng.random() < 0.25:
        clock_skew = tuple(
            round(rng.uniform(0.0, base_compute), 6) if rng.random() < 0.4
            else 0.0
            for _ in range(ranks)
        )

    injections = tuple(
        _sample_injection(rng, ranks, seed=seed * 31 + i)
        for i in range(rng.choice((0, 1, 1, 2)))
    )

    # A pattern-free, collective-free scenario has no inter-rank
    # coupling at all; keep at least one synchronization mechanism so
    # every scenario exercises the SOS machinery.
    if pattern == "none" and collective == "none":
        collective = "barrier"

    return ScenarioSpec(
        seed=seed,
        ranks=ranks,
        iterations=iterations,
        pattern=pattern,
        collective=collective,
        collective_every=collective_every,
        base_compute=base_compute,
        msg_bytes=msg_bytes,
        subiters=subiters,
        imbalance=imbalance,
        clock_skew=clock_skew,
        injections=injections,
    )


# ---------------------------------------------------------------------------
# Scenario → program → trace
# ---------------------------------------------------------------------------


def _grid_shape(ranks: int) -> tuple[int, int]:
    """Largest divisor pair (px, py) with px <= py for a process grid."""
    px = 1
    for d in range(2, int(ranks**0.5) + 1):
        if ranks % d == 0:
            px = d
    return px, ranks // px


def _exchange(spec: ScenarioSpec, rank: int, size: int):
    """One iteration's communication for ``rank`` (deadlock-free)."""
    bytes_ = spec.msg_bytes
    if spec.pattern == "none" or size < 2:
        return
    if spec.pattern == "halo_ring":
        left, right = (rank - 1) % size, (rank + 1) % size
        nbrs = [left, right] if left != right else [left]
        yield from halo_exchange(rank, nbrs, bytes_, tag=3, region=None)
    elif spec.pattern == "sendrecv_ring":
        left, right = (rank - 1) % size, (rank + 1) % size
        yield ops.Sendrecv(dest=right, source=left, size=bytes_, tag=4)
    elif spec.pattern == "halo_grid":
        px, py = _grid_shape(size)
        yield from halo_exchange(
            rank, neighbors_2d(rank, px, py), bytes_, tag=5, region=None
        )
    elif spec.pattern == "pairs":
        partner = rank ^ 1
        if partner < size:
            yield ops.Sendrecv(dest=partner, source=partner,
                               size=bytes_, tag=6)
    elif spec.pattern == "chain":
        if rank > 0:
            yield ops.Recv(rank - 1, size=bytes_, tag=7)
        if rank < size - 1:
            yield ops.Send(rank + 1, size=bytes_, tag=7)
    elif spec.pattern == "token_ring":
        if rank > 0:
            yield ops.Recv(rank - 1, size=bytes_, tag=8)
        yield ops.Compute(spec.base_compute / 4, region="critical_section")
        if rank < size - 1:
            yield ops.Send(rank + 1, size=bytes_, tag=8)
    else:  # pragma: no cover - guarded by ScenarioSpec validation
        raise ValueError(f"unknown pattern {spec.pattern!r}")


_COLLECTIVE_OPS = {
    "barrier": lambda: ops.Barrier(),
    "allreduce": lambda: ops.Allreduce(size=8),
    "bcast": lambda: ops.Bcast(size=256),
    "reduce": lambda: ops.Reduce(size=8),
    "allgather": lambda: ops.Allgather(size=64),
    "alltoall": lambda: ops.Alltoall(size=64),
    "gather": lambda: ops.Gather(size=64),
    "scatter": lambda: ops.Scatter(size=64),
}


def build_program(spec: ScenarioSpec):
    """Rank-program factory realizing ``spec``."""

    def program(rank: int, size: int):
        skew = spec.skew(rank)
        if skew > 0.0:
            yield ops.Elapse(skew)
        yield ops.Enter("main")
        yield ops.Compute(spec.base_compute / 4, region="setup")
        for it in range(spec.iterations):
            yield ops.Enter("iteration")
            per_sub = spec.base_compute * spec.weight(rank) / spec.subiters
            for _sub in range(spec.subiters):
                yield ops.Compute(per_sub, region="work")
            yield from _exchange(spec, rank, size)
            if (
                spec.collective != "none"
                and (it + 1) % spec.collective_every == 0
            ):
                yield _COLLECTIVE_OPS[spec.collective]()
            yield ops.Leave("iteration")
        yield ops.Leave("main")

    return program


def build_result(spec: ScenarioSpec) -> SimResult:
    """Simulate ``spec`` and return the full :class:`SimResult`."""
    return simulate(
        size=spec.ranks,
        program=build_program(spec),
        noise=spec.noise_model(),
        counters=CounterSet((CounterSet.cycles(),)),
        name=f"fuzz-{spec.seed}",
        attributes={
            "workload": "fuzz",
            "fuzz_seed": str(spec.seed),
            "pattern": spec.pattern,
        },
    )


def build_trace(spec: ScenarioSpec):
    """Simulate ``spec`` and return just the trace."""
    return build_result(spec).trace
