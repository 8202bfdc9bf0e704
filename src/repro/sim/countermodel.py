"""Hardware-counter models for the MPI simulator.

The simulator substitutes PAPI: counters advance as functions of
*active* computation time (interruptions and MPI waiting do not count),
so the case-study signatures emerge naturally:

* ``PAPI_TOT_CYC`` low for an invocation that was preempted by the OS
  (Section VII-B), because wall time passed without cycles;
* ``FR_FPU_EXCEPTIONS_SSE_MICROTRAPS`` high on the rank whose workload
  injects floating-point exceptions (Section VII-C).
"""

from __future__ import annotations

from typing import Callable, Mapping

from .._record import record
from ..trace.definitions import MetricMode

__all__ = ["CounterSpec", "CounterSet", "PAPI_TOT_CYC", "FPU_EXCEPTIONS"]

PAPI_TOT_CYC = "PAPI_TOT_CYC"
FPU_EXCEPTIONS = "FR_FPU_EXCEPTIONS_SSE_MICROTRAPS"


@record(frozen=True)
class CounterSpec:
    """Definition of one simulated counter.

    Attributes
    ----------
    name, unit, mode, description:
        Forwarded into the trace's metric registry.
    rate:
        ``rate(rank, active_seconds) -> increment`` applied for every
        computation; explicit per-op increments from
        :class:`repro.sim.ops.Compute` add on top.
    """

    name: str
    unit: str = "#"
    mode: MetricMode = MetricMode.ACCUMULATED
    description: str = ""
    rate: Callable[[int, float], float] | None = None

    def increment(self, rank: int, active: float) -> float:
        if self.rate is None:
            return 0.0
        return float(self.rate(rank, active))


class CounterSet:
    """The collection of counters recorded during one simulation."""

    def __init__(self, specs: tuple[CounterSpec, ...] = ()) -> None:
        self.specs = tuple(specs)
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate counter names")

    def __iter__(self):
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    @staticmethod
    def cycles(frequency_hz: float = 2.5e9) -> CounterSpec:
        """A ``PAPI_TOT_CYC``-style counter: cycles = active time x clock."""
        return CounterSpec(
            name=PAPI_TOT_CYC,
            unit="cycles",
            mode=MetricMode.ACCUMULATED,
            description="Total CPU cycles assigned to the process",
            rate=lambda rank, active: active * frequency_hz,
        )

    @staticmethod
    def fpu_exceptions(
        base_rate: float = 10.0,
        hot_ranks: Mapping[int, float] | None = None,
    ) -> CounterSpec:
        """FPU-exception counter with per-rank elevated rates.

        ``hot_ranks`` maps rank → exceptions per active second (overrides
        the base rate for those ranks).
        """
        hot = dict(hot_ranks or {})

        def rate(rank: int, active: float) -> float:
            return active * hot.get(rank, base_rate)

        return CounterSpec(
            name=FPU_EXCEPTIONS,
            unit="#",
            mode=MetricMode.ACCUMULATED,
            description="SSE floating-point exception microtraps",
            rate=rate,
        )
