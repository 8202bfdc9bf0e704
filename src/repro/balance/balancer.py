"""FD4-style dynamic load balancer for 2D block grids.

Combines the space-filling-curve linearisation with chains-on-chains
partitioning and adds the *dynamic* part: re-partition only when the
measured imbalance exceeds a threshold, and report how many cells
migrate (FD4 keeps migration incremental because consecutive SFC
partitions overlap heavily).

This substrate is exercised by the COSMO-SPECS+FD4 workload
(:mod:`repro.sim.workloads.cosmo_specs_fd4`): with balancing active,
the physics imbalance disappears from the SOS picture and the single
OS interruption stands out (paper Section VII-B).
"""

from __future__ import annotations

import numpy as np

from .._record import record
from .partition import (
    imbalance_of,
    partition_cost,
    partition_exact,
    partition_greedy,
    partition_uniform,
)
from .sfc import curve_order

__all__ = ["BalanceResult", "DynamicLoadBalancer", "static_decomposition"]


@record(frozen=True, slots=True)
class BalanceResult:
    """Outcome of one (re)balance step."""

    assignment: np.ndarray  # flat cell index -> owning rank
    part_load: np.ndarray  # total weight per rank
    imbalance: float  # max/mean of part_load
    migrated_cells: int  # cells whose owner changed
    rebalanced: bool  # False when the threshold kept the old partition


def static_decomposition(nx: int, ny: int, px: int, py: int) -> np.ndarray:
    """Block-regular ``px x py`` decomposition (the COSMO baseline).

    Returns the flat cell→rank assignment with rank = ``pj * px + pi``
    for process column ``pi`` and row ``pj``.  Grid dimensions need not
    divide evenly; remainder cells go to the trailing processes.
    """
    if px <= 0 or py <= 0:
        raise ValueError("process grid must be positive")
    if nx < px or ny < py:
        raise ValueError("grid smaller than process grid")
    x_bounds = partition_uniform(nx, px)
    y_bounds = partition_uniform(ny, py)
    col = np.searchsorted(x_bounds, np.arange(nx), side="right") - 1
    row = np.searchsorted(y_bounds, np.arange(ny), side="right") - 1
    ranks = row[:, None] * px + col[None, :]  # (ny, nx)
    return ranks.ravel().astype(np.int64)


class DynamicLoadBalancer:
    """SFC + chains-on-chains partitioner with hysteresis.

    Parameters
    ----------
    nx, ny:
        Grid dimensions (cells or blocks).
    parts:
        Number of ranks.
    curve:
        ``"hilbert"`` (default), ``"morton"`` or ``"row"``.
    method:
        ``"exact"`` (optimal bottleneck) or ``"greedy"``.
    threshold:
        Re-partition only when ``max/mean`` imbalance of the *current*
        assignment under the new weights exceeds this value (FD4 uses a
        small tolerance to avoid migration churn).
    """

    def __init__(
        self,
        nx: int,
        ny: int,
        parts: int,
        curve: str = "hilbert",
        method: str = "exact",
        threshold: float = 1.05,
    ) -> None:
        if parts <= 0:
            raise ValueError("parts must be positive")
        if nx * ny < parts:
            raise ValueError("fewer cells than parts")
        if method not in ("exact", "greedy"):
            raise ValueError(f"unknown method {method!r}")
        if threshold < 1.0:
            raise ValueError("threshold is a max/mean ratio; must be >= 1.0")
        self.nx = nx
        self.ny = ny
        self.parts = parts
        self.method = method
        self.threshold = threshold
        #: Flat cell ids in curve order (fixed for the object's lifetime).
        self.order = curve_order(nx, ny, curve=curve)
        self._inverse = np.argsort(self.order, kind="stable")
        self._assignment: np.ndarray | None = None

    @property
    def assignment(self) -> np.ndarray | None:
        """Current flat cell→rank assignment (None before first balance)."""
        return self._assignment

    def _partition(self, ordered_weights: np.ndarray) -> np.ndarray:
        if self.method == "exact":
            return partition_exact(ordered_weights, self.parts)
        return partition_greedy(ordered_weights, self.parts)

    def _assignment_from_boundaries(self, boundaries: np.ndarray) -> np.ndarray:
        ranks_in_order = np.searchsorted(
            boundaries[1:], np.arange(len(self.order)), side="right"
        )
        assignment = np.empty(len(self.order), dtype=np.int64)
        assignment[self.order] = ranks_in_order
        return assignment

    def current_load(self, weights) -> np.ndarray:
        """Per-rank load of the current assignment under ``weights``."""
        if self._assignment is None:
            raise RuntimeError("no assignment yet; call balance() first")
        w = np.asarray(weights, dtype=np.float64).ravel()
        load = np.zeros(self.parts, dtype=np.float64)
        np.add.at(load, self._assignment, w)
        return load

    def balance(self, weights) -> BalanceResult:
        """(Re)partition for the given cell weights.

        The first call always partitions; subsequent calls only
        repartition when the existing assignment's imbalance under the
        new weights exceeds the threshold.
        """
        w = np.asarray(weights, dtype=np.float64).ravel()
        if len(w) != self.nx * self.ny:
            raise ValueError(
                f"expected {self.nx * self.ny} weights, got {len(w)}"
            )
        ordered = w[self.order]

        if self._assignment is not None:
            load = self.current_load(w)
            mean = float(load.mean())
            current_imb = float(load.max()) / mean if mean > 0 else 1.0
            if current_imb <= self.threshold:
                return BalanceResult(
                    assignment=self._assignment,
                    part_load=load,
                    imbalance=current_imb,
                    migrated_cells=0,
                    rebalanced=False,
                )

        boundaries = self._partition(ordered)
        assignment = self._assignment_from_boundaries(boundaries)
        migrated = (
            int(np.count_nonzero(assignment != self._assignment))
            if self._assignment is not None
            else 0
        )
        self._assignment = assignment
        return BalanceResult(
            assignment=assignment,
            part_load=partition_cost(ordered, boundaries),
            imbalance=imbalance_of(ordered, boundaries),
            migrated_cells=migrated,
            rebalanced=True,
        )
