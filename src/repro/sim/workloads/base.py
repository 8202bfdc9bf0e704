"""Shared physics stand-ins for the case-study workloads.

The original applications compute real atmospheric physics; for the
reproduction only the *cost structure* matters.  The central piece is
the :class:`CloudField`: a slowly growing 2D Gaussian "cloud" whose
local intensity drives the cost of the detailed microphysics, exactly
the mechanism the paper names as the root cause of the COSMO-SPECS load
imbalance ("the layout of clouds in the application domain determines
the local work", Section VII-A).
"""

from __future__ import annotations

import numpy as np

from ..._record import record

__all__ = ["CloudField", "per_rank_cost"]


@record(frozen=True)
class CloudField:
    """A growing (optionally drifting) Gaussian cloud on an ``nx x ny`` grid.

    ``weights(step)`` returns the per-cell work multiplier at a time
    step: ``1 + amplitude(step) * exp(-r^2 / 2)`` with the radius
    measured in (possibly anisotropic) sigma units.  The amplitude
    ramps from 0 to ``max_amplitude`` over ``growth_steps`` steps with
    a configurable exponent (exponent 2 keeps the cloud weak for the
    first half of the run and lets it dominate at the end — the
    Figure-4a progression).

    Coordinates are in *cell* units; ``center`` is the cloud centre at
    step 0 and ``drift`` the per-step movement.
    """

    nx: int
    ny: int
    center: tuple[float, float]
    sigma: float | tuple[float, float]
    max_amplitude: float = 8.0
    growth_steps: int = 50
    growth_exponent: float = 1.0
    drift: tuple[float, float] = (0.0, 0.0)

    def _sigmas(self) -> tuple[float, float]:
        if isinstance(self.sigma, tuple):
            return self.sigma
        return (float(self.sigma), float(self.sigma))

    def amplitude(self, step: int) -> float:
        """Cloud intensity multiplier at ``step`` (ramp, then flat)."""
        if self.growth_steps <= 0:
            return self.max_amplitude
        frac = min(1.0, max(step, 0) / self.growth_steps)
        return self.max_amplitude * frac**self.growth_exponent

    def weights(self, step: int) -> np.ndarray:
        """Per-cell cost multipliers, shape ``(ny, nx)``."""
        cx = self.center[0] + self.drift[0] * step
        cy = self.center[1] + self.drift[1] * step
        sx, sy = self._sigmas()
        x = np.arange(self.nx, dtype=np.float64) + 0.5
        y = np.arange(self.ny, dtype=np.float64) + 0.5
        r2 = ((x[None, :] - cx) / sx) ** 2 + ((y[:, None] - cy) / sy) ** 2
        blob = np.exp(-0.5 * r2)
        return 1.0 + self.amplitude(step) * blob


def per_rank_cost(weights: np.ndarray, assignment: np.ndarray, parts: int) -> np.ndarray:
    """Sum the flat per-cell ``weights`` into per-rank totals."""
    w = np.asarray(weights, dtype=np.float64).ravel()
    a = np.asarray(assignment, dtype=np.int64).ravel()
    if len(w) != len(a):
        raise ValueError("weights and assignment must have equal length")
    cost = np.zeros(parts, dtype=np.float64)
    np.add.at(cost, a, w)
    return cost
