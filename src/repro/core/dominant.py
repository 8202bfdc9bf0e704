"""Identification of time-dominant functions (paper Section IV).

A *time-dominant function* partitions the run into comparable segments.
The paper's criterion: for ``p`` processing elements, the dominant
function ``f`` is invoked at least ``2p`` times, and no other function
satisfying this also has a higher aggregated inclusive time.  Top-level
functions like ``main`` (exactly ``p`` invocations) are thereby
excluded — they would yield no segmentation over time.

Beyond the single winner, we expose the full *ranked candidate list*.
Walking down this list selects functions with smaller aggregated
inclusive time and therefore finer segments, which is exactly the
refinement step the paper's second case study uses to isolate a single
slow invocation (Section VII-B, Figure 5c).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .._record import record
from ..profiles.stats import compute_statistics
from ..trace.definitions import Paradigm

if TYPE_CHECKING:
    from ..profiles.replay import InvocationTable
    from ..profiles.stats import FunctionStatistics
    from ..trace.trace import Trace

__all__ = [
    "DominantCandidate",
    "DominantSelection",
    "SelectionError",
    "rank_candidates",
    "select_dominant",
]


class SelectionError(Exception):
    """A selection the trace cannot make; the CLI reports ``args[0]``
    as bad input.  Each raise site keeps its builtin type too."""


class _NoCandidate(SelectionError, ValueError):
    pass


class _LevelOutOfRange(SelectionError, IndexError):
    pass


class _NotACandidate(SelectionError, KeyError):
    pass


@record(frozen=True, slots=True)
class DominantCandidate:
    """One function considered by the dominant-function heuristic."""

    region: int
    name: str
    count: int
    inclusive_sum: float
    #: Mean segment length this candidate would produce.
    mean_segment: float

    def __str__(self) -> str:
        return (
            f"{self.name} (inclusive={self.inclusive_sum:.6g}, "
            f"invocations={self.count})"
        )


@record(frozen=True, slots=True)
class DominantSelection:
    """Result of the dominant-function search.

    ``candidates`` is sorted by descending aggregated inclusive time;
    ``dominant`` is ``candidates[level]`` — level 0 is the paper's
    selection, higher levels are successive refinements.
    """

    candidates: tuple[DominantCandidate, ...]
    level: int
    min_invocations: int

    @property
    def dominant(self) -> DominantCandidate:
        return self.candidates[self.level]

    @property
    def region(self) -> int:
        return self.dominant.region

    @property
    def name(self) -> str:
        return self.dominant.name

    def refined(self, steps: int = 1) -> "DominantSelection":
        """Selection ``steps`` levels further down the candidate list."""
        new_level = self.level + steps
        if not 0 <= new_level < len(self.candidates):
            raise _LevelOutOfRange(
                f"refinement level {new_level} out of range "
                f"(have {len(self.candidates)} candidates)"
            )
        return DominantSelection(self.candidates, new_level, self.min_invocations)

    def at_function(self, name: str) -> "DominantSelection":
        """Selection pinned to the named candidate function."""
        for i, cand in enumerate(self.candidates):
            if cand.name == name:
                return DominantSelection(self.candidates, i, self.min_invocations)
        raise _NotACandidate(f"{name!r} is not a dominant-function candidate")


def rank_candidates(
    trace: Trace,
    stats: FunctionStatistics | None = None,
    tables: dict[int, InvocationTable] | None = None,
    min_invocation_factor: float = 2.0,
    candidate_paradigms: tuple[Paradigm, ...] = (Paradigm.USER,),
) -> list[DominantCandidate]:
    """Return eligible dominant-function candidates, best first.

    Eligibility: invocation count ``>= min_invocation_factor * p`` (the
    paper uses factor 2) and a paradigm in ``candidate_paradigms``.
    Runtime operations (MPI, OpenMP) are excluded by default — segments
    must represent *application* iterations whose inclusive time
    contains the synchronization to be subtracted later, not the
    synchronization itself.  Counts come from ``stats``, else from
    ``tables`` (a session's invocation tables).
    """
    if stats is None:
        if tables is None:
            raise TypeError("rank_candidates needs stats or tables")
        stats = compute_statistics(trace, tables)
    p = trace.num_processes
    threshold = int(np.ceil(min_invocation_factor * p))
    allowed = set(candidate_paradigms)

    candidates = []
    for region in trace.regions:
        count = int(stats.count[region.id])
        if count < threshold or count == 0:
            continue
        if region.paradigm not in allowed:
            continue
        inclusive = float(stats.inclusive_sum[region.id])
        candidates.append(
            DominantCandidate(
                region=region.id,
                name=region.name,
                count=count,
                inclusive_sum=inclusive,
                mean_segment=inclusive / count,
            )
        )
    candidates.sort(key=lambda c: (-c.inclusive_sum, c.region))
    return candidates


def select_dominant(
    trace: Trace,
    stats: FunctionStatistics | None = None,
    tables: dict[int, InvocationTable] | None = None,
    min_invocation_factor: float = 2.0,
    candidate_paradigms: tuple[Paradigm, ...] = (Paradigm.USER,),
    level: int = 0,
) -> DominantSelection:
    """Select the time-dominant function of ``trace``.

    Raises
    ------
    ValueError
        If no function meets the invocation-count criterion (e.g. a
        trace without any iterative behaviour).
    """
    candidates = rank_candidates(
        trace,
        stats=stats,
        tables=tables,
        min_invocation_factor=min_invocation_factor,
        candidate_paradigms=candidate_paradigms,
    )
    if not candidates:
        p = trace.num_processes
        raise _NoCandidate(
            "no dominant-function candidate: no function is invoked at least "
            f"{int(np.ceil(min_invocation_factor * p))} times "
            f"({min_invocation_factor} x {p} processes)"
        )
    if not 0 <= level < len(candidates):
        raise _LevelOutOfRange(
            f"refinement level {level} out of range "
            f"(have {len(candidates)} candidates)"
        )
    return DominantSelection(
        candidates=tuple(candidates),
        level=level,
        min_invocations=int(np.ceil(min_invocation_factor * trace.num_processes)),
    )
