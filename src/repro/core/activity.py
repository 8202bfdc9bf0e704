"""Activity shares over time: what fraction of processes does what.

Quantifies the visual impression of the master timeline — "throughout
the execution, the fraction of MPI (red areas) increases" (Section
VII-A) — as a stacked time series: for each time bin, the fraction of
processes whose innermost active region belongs to each group
(paradigm or region).  Rendered by :mod:`repro.viz.areachart`.
"""

from __future__ import annotations

import numpy as np

from .._record import record
from ..profiles.replay import InvocationTable
from ..trace.definitions import Paradigm
from ..trace.trace import Trace

__all__ = ["ActivityShares", "activity_shares"]


@record(frozen=True, slots=True)
class ActivityShares:
    """Stacked activity fractions over time.

    Attributes
    ----------
    labels:
        Group names, one per row of ``shares`` (last row is always
        ``"idle"``).
    shares:
        Array ``(groups, bins)``; columns sum to 1.
    edges:
        Bin edges, length ``bins + 1``.
    """

    labels: tuple[str, ...]
    shares: np.ndarray
    edges: np.ndarray

    @property
    def bins(self) -> int:
        return self.shares.shape[1]

    def of(self, label: str) -> np.ndarray:
        """Time series of one group's share."""
        return self.shares[self.labels.index(label)]

    def mean_share(self, label: str) -> float:
        return float(np.mean(self.of(label)))


def activity_shares(
    trace: Trace,
    tables: dict[int, InvocationTable],
    bins: int = 256,
    by: str = "paradigm",
    top_regions: int = 6,
    t0: float | None = None,
    t1: float | None = None,
) -> ActivityShares:
    """Compute stacked activity shares.

    Parameters
    ----------
    tables:
        The trace's invocation tables (a session's).
    by:
        ``"paradigm"`` groups regions by programming model (USER, MPI,
        ...); ``"region"`` keeps the ``top_regions`` most visible
        regions individually and folds the rest into ``"other"``.
    """
    from ..viz.timeline import region_grid

    if by not in ("paradigm", "region"):
        raise ValueError(f"unknown grouping {by!r}")
    lo = trace.t_min if t0 is None else t0
    hi = trace.t_max if t1 is None else t1
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    grid = region_grid(tables, trace.ranks, lo, hi, bins)
    n_ranks = max(grid.shape[0], 1)

    n_regions = len(trace.regions)
    if by == "paradigm":
        group_of_region = np.asarray(
            [int(r.paradigm) for r in trace.regions], dtype=np.int64
        )
        labels = [p.name for p in Paradigm]
        n_groups = len(labels)
    else:
        visible = grid[grid >= 0]
        counts = (
            np.bincount(visible, minlength=n_regions)
            if len(visible)
            else np.zeros(n_regions, dtype=np.int64)
        )
        top = [int(r) for r in np.argsort(-counts)[:top_regions] if counts[r] > 0]
        group_of_region = np.full(n_regions, len(top), dtype=np.int64)
        for g, region in enumerate(top):
            group_of_region[region] = g
        labels = [trace.regions[r].name for r in top] + ["other"]
        n_groups = len(labels)

    # Map the grid to groups; idle cells get group n_groups.
    grouped = np.where(grid >= 0, group_of_region[np.maximum(grid, 0)], n_groups)
    shares = np.empty((n_groups + 1, grid.shape[1]), dtype=np.float64)
    for g in range(n_groups + 1):
        shares[g] = np.count_nonzero(grouped == g, axis=0) / n_ranks
    labels = labels + ["idle"]

    # Drop all-zero groups (keeps charts clean) but always keep idle last.
    keep = [g for g in range(n_groups) if shares[g].any()]
    keep.append(n_groups)
    return ActivityShares(
        labels=tuple(labels[g] for g in keep),
        shares=shares[keep],
        edges=edges,
    )
